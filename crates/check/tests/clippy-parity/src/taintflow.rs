//! Host time laundered through bindings into sim state. The sinks carry
//! no banned name, but every value reaching them starts at a banned
//! source, so banning the sources cuts every such path.

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
