//! The direct host-clock reads of the taint fixture. The laundered
//! sinks below them carry no banned name; hopp-check's taint rule owns
//! those.

use std::time::Instant;

/// Sim state the host clock must not reach.
pub struct State {
    pub ns: u64,
}

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
