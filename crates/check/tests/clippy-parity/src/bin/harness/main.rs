//! A harness crate root: no sim-critical lint line, so only the
//! workspace-wide rules apply.

mod lab;
mod obs;
mod prof;

fn main() {
    lab::run_indexed();
    obs::export();
    println!("{} {}", obs::parse_footprint("8"), obs::index().len());
    println!("{} {}", prof::read_ok(), prof::read_bad());
}
