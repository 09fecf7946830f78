//! Steady-state allocation regression test (ISSUE 4, satellite 3).
//!
//! The simulator's hot-path collections (`DetMap`/`PageMap`/`Lru`) keep
//! their backing storage across insert/remove churn, and the per-tick
//! scratch buffers (`prefetch_buf`, the HoPP completion buffer, the
//! baseline completion queue) are pre-sized and reused. This test pins
//! that property end to end: once a fixed working set has been swept a
//! few times, *additional* sweeps must allocate almost nothing.
//!
//! Before the `hopp-ds` migration every fault churned `BTreeMap` nodes
//! (in-flight maps, LRU stamp maps, swap-slot contents), so extra
//! passes allocated in proportion to their fault count and this bound
//! failed by an order of magnitude.

use hopp_prof::alloc::thread_allocs;
use hopp_sim::{AppSpec, SimConfig, Simulator, SystemConfig};
use hopp_trace::AccessStream;
use hopp_types::{PageAccess, Pid, Vpn};

/// Counts heap allocations per thread: the test harness runs the two
/// tests on parallel threads, and a per-thread count keeps each test's
/// measurement free of the other's allocations.
#[global_allocator]
static GLOBAL: hopp_prof::alloc::CountingAlloc = hopp_prof::alloc::CountingAlloc;

/// Sweeps a fixed working set of `pages` pages sequentially, `passes`
/// times. The footprint never changes after the first pass, so every
/// later pass exercises pure steady-state fault/reclaim churn.
struct Sweep {
    pid: Pid,
    pages: u64,
    remaining: u64,
    pos: u64,
}

impl Sweep {
    fn new(pid: Pid, pages: u64, passes: u64) -> Self {
        Sweep {
            pid,
            pages,
            remaining: pages * passes,
            pos: 0,
        }
    }
}

impl AccessStream for Sweep {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let access = PageAccess::read(self.pid, Vpn::new(self.pos));
        self.pos = (self.pos + 1) % self.pages;
        Some(access)
    }

    fn name(&self) -> &str {
        "sweep"
    }
}

const PAGES: u64 = 512;

/// Allocations made by one full construct-and-run cycle.
fn allocs_for(system: SystemConfig, passes: u64) -> u64 {
    let mut config = SimConfig::with_system(system);
    // Timeline samples grow a Vec with run length by design; disable
    // them so the measurement isolates the hot path.
    config.timeline_every = 0;
    // Half the working set fits locally: every pass keeps faulting.
    let apps = vec![AppSpec {
        pid: Pid::new(1),
        stream: Box::new(Sweep::new(Pid::new(1), PAGES, passes)),
        limit_pages: PAGES as usize / 2,
    }];
    let sim = Simulator::new(config, apps).expect("config is valid");
    let before = thread_allocs();
    let report = sim.run().expect("run succeeds");
    let after = thread_allocs();
    if passes > 1 {
        assert!(report.counters.major_faults > 0, "workload must swap");
    }
    after - before
}

#[test]
fn fault_path_extra_passes_do_not_grow_allocations() {
    let system = SystemConfig::Baseline(hopp_sim::BaselineKind::Fastswap);
    // Warm up once so lazily-initialized runtime state (stdio locks,
    // etc.) does not pollute the first measurement.
    let _ = allocs_for(system, 1);
    let short = allocs_for(system, 4);
    let long = allocs_for(system, 12);
    // The long run does 3x the passes (and 3x the faults) of the short
    // run on the identical working set. The fault path's collections
    // (in-flight `DetMap`s, LRU lists, swapcache, completion queue) and
    // scratch buffers are all warm after the first pass, so the extra
    // 8 passes may only add a small fraction on top: amortized
    // slab/heap doublings, nothing per-tick. BTreeMap-era node churn
    // made `long` scale ~linearly with the pass count.
    let budget = short / 2;
    assert!(
        long.saturating_sub(short) <= budget,
        "steady-state passes must not allocate per tick: \
         4 passes = {short} allocs, 12 passes = {long} allocs \
         (growth {} > budget {budget})",
        long - short,
    );
}

#[test]
fn hopp_per_fault_allocations_stay_bounded() {
    // The HoPP stack still allocates per *training window* (the STT
    // window snapshot and the order list are built per prediction), so
    // it is not allocation-flat. The ceiling is coarse: at most 6
    // allocations per extra access. It catches a regression to heavier
    // per-access map churn, not the per-window allocations above.
    let system = SystemConfig::hopp_default();
    let _ = allocs_for(system, 1);
    let short = allocs_for(system, 4);
    let long = allocs_for(system, 12);
    let extra_accesses = PAGES * 8; // 12 - 4 extra passes
    let growth = long.saturating_sub(short);
    assert!(
        growth <= extra_accesses * 6,
        "hopp steady-state allocation growth regressed: \
         {growth} allocs over {extra_accesses} extra accesses"
    );
}
