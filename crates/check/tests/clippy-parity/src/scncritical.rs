//! Bad input in sim-critical code must travel as a typed error, never
//! a panic.

pub fn parse_footprint(doc: &str) -> u64 {
    doc.trim().parse().unwrap()
}

pub fn parse_ratio(doc: &str) -> f64 {
    doc.trim().parse().expect("a ratio")
}

pub fn check_ways(ways: u64) {
    if ways == 0 {
        panic!("zero ways");
    }
}

pub fn tier(n: u8) -> u8 {
    match n {
        0..=2 => n,
        _ => unreachable!(),
    }
}
