//! `hopp_prof::span` guards are the sanctioned host-timing probe; raw
//! host-clock reads are not.

pub fn reclaim_frame() -> u64 {
    let _prof = hopp_prof::span("kernel/reclaim");
    let t0 = std::time::Instant::now();
    let ns = hopp_prof::host_now_ns();
    ns + u64::from(t0.elapsed().subsec_nanos())
}
