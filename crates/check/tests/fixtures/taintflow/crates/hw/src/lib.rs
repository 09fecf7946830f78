//! Fixture: host time laundered through bindings into sim state.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::disallowed_types, clippy::allow_attributes_without_reason)]

pub struct State { pub ns: u64 }

fn host_probe() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}

pub fn poll(state: &mut State) {
    let t = Instant::now();
    let dt = t.elapsed();
    state.ns = dt.as_nanos() as u64;
    state.ns = host_probe();
}
