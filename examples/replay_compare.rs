//! Record once, replay everywhere: capture a workload's page trace to a
//! `.hst` file, then run every system on the *identical* access sequence.
//!
//! Replaying a fixed trace removes the last source of variation between
//! systems (the workload itself), which is how apples-to-apples
//! prefetcher comparisons should be done — and it is the import path
//! for traces captured outside this repository.
//!
//! ```text
//! cargo run --release --example replay_compare
//! ```

use hopp::scn::{hst, HstHeader};
use hopp::sim::{AppSpec, BaselineKind, SimConfig, Simulator, SystemConfig};
use hopp::types::Pid;
use hopp::workloads::WorkloadKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = WorkloadKind::NpbLu;
    let footprint = 4_096;
    let path = std::env::temp_dir().join("hopp_replay_compare.hst");

    // Record.
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: footprint,
        seed: 42,
        source: kind.name().to_string(),
    };
    let mut stream = kind.build(header.pid, footprint, header.seed);
    let count = hst::record_file(&path, &header, &mut *stream)?;
    println!(
        "recorded {count} accesses of {} to {}\n",
        kind.name(),
        path.display()
    );

    // Replay under each system at 50% local memory.
    let trace = hst::read_file(&path)?;
    let distinct = trace
        .accesses
        .iter()
        .map(|a| a.vpn.raw())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let limit = distinct / 2;

    let mut local_ns = None;
    println!(
        "{:<13} {:>12} {:>10} {:>8} {:>8} {:>9}",
        "system", "completion", "norm-perf", "major", "p-hits", "coverage"
    );
    for (label, system, full_memory) in [
        (
            "local",
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            true,
        ),
        (
            "no-prefetch",
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            false,
        ),
        ("leap", SystemConfig::Baseline(BaselineKind::Leap), false),
        (
            "fastswap",
            SystemConfig::Baseline(BaselineKind::Fastswap),
            false,
        ),
        (
            "depth-32",
            SystemConfig::Baseline(BaselineKind::DepthN(32)),
            false,
        ),
        ("hopp", SystemConfig::hopp_default(), false),
    ] {
        let app = AppSpec {
            pid: Pid::new(1),
            stream: Box::new(trace.clone().into_stream()),
            limit_pages: if full_memory { distinct + 64 } else { limit },
        };
        let report = Simulator::new(SimConfig::with_system(system), vec![app])
            .expect("valid configuration")
            .run()
            .expect("replay run");
        let ns = report.completion.as_nanos() as f64;
        let local = *local_ns.get_or_insert(ns);
        println!(
            "{label:<13} {:>12} {:>10.3} {:>8} {:>8} {:>8.1}%",
            format!("{}", report.completion),
            local / ns,
            report.counters.major_faults,
            report.counters.minor_faults,
            report.coverage() * 100.0
        );
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
