//! Convenience runners implementing the paper's measurement protocol.
//!
//! §VI-A: *normalized performance* is `CT_local / CT_system`, where
//! `CT_local` is the completion time with the whole working set in
//! local memory; *speedup* (§VI-D) is `1 − CT_system / CT_Fastswap`.

use hopp_trace::AccessStream;
use hopp_types::{Pid, Result};
use hopp_workloads::WorkloadKind;

use crate::config::{AppSpec, BaselineKind, SimConfig, SystemConfig};
use crate::report::SimReport;
use crate::simulator::Simulator;

/// The PID used for single-workload runs.
pub const SOLO_PID: Pid = Pid::new(1);

/// Runs `kind` with its local memory limited to `mem_ratio` of the
/// footprint under the given system.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors (lost
/// pages, exhausted pools).
///
/// # Panics
///
/// Panics if `mem_ratio` is not within `(0, +∞)` (a programming error
/// in experiment code).
pub fn run_workload(
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    system: SystemConfig,
    mem_ratio: f64,
) -> Result<SimReport> {
    run_workload_with(
        SimConfig::with_system(system),
        kind,
        footprint_pages,
        seed,
        mem_ratio,
    )
}

/// [`run_workload`] with full control over the machine configuration.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn run_workload_with(
    config: SimConfig,
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    mem_ratio: f64,
) -> Result<SimReport> {
    run_stream_with(
        config,
        SOLO_PID,
        kind.build(SOLO_PID, footprint_pages, seed),
        footprint_pages,
        mem_ratio,
    )
}

/// Runs an arbitrary pre-built access stream — a replayed `.hst` trace,
/// a compiled scenario, or anything else implementing [`AccessStream`]
/// — under the same measurement protocol as [`run_workload_with`]
/// (see [`solo_app`]).
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn run_stream_with(
    config: SimConfig,
    pid: Pid,
    stream: Box<dyn AccessStream>,
    footprint_pages: u64,
    mem_ratio: f64,
) -> Result<SimReport> {
    Simulator::new(
        config,
        vec![solo_app(pid, stream, footprint_pages, mem_ratio)],
    )?
    .run()
}

/// The one application of a single-workload run: `pid` must match the
/// PID the stream emits, and the local-memory limit is
/// `ceil(footprint_pages * mem_ratio)` clamped to ≥ 64 pages. Build a
/// [`Simulator`] from it directly to attach a fault script with
/// [`Simulator::set_fault_script`] before the run.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn solo_app(
    pid: Pid,
    stream: Box<dyn AccessStream>,
    footprint_pages: u64,
    mem_ratio: f64,
) -> AppSpec {
    assert!(mem_ratio > 0.0, "memory ratio must be positive");
    AppSpec {
        pid,
        stream,
        limit_pages: ((footprint_pages as f64 * mem_ratio).ceil() as usize).max(64),
    }
}

/// The all-local reference run (`CT_local`): limit ≥ footprint, no
/// prefetching.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors.
pub fn run_local(kind: WorkloadKind, footprint_pages: u64, seed: u64) -> Result<SimReport> {
    run_workload(
        kind,
        footprint_pages,
        seed,
        SystemConfig::Baseline(BaselineKind::NoPrefetch),
        1.25,
    )
}

/// Normalized performance `CT_local / CT_system` for one configuration.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors from
/// either run.
pub fn normalized_performance(
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    system: SystemConfig,
    mem_ratio: f64,
) -> Result<f64> {
    let local = run_local(kind, footprint_pages, seed)?;
    let sys = run_workload(kind, footprint_pages, seed, system, mem_ratio)?;
    Ok(local.completion.as_nanos() as f64 / sys.completion.as_nanos() as f64)
}

/// Completion-time speedup of `system` over a reference system
/// (`1 − CT_system / CT_reference`, §VI-D; positive is faster).
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors from
/// either run.
pub fn speedup_over(
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    system: SystemConfig,
    reference: SystemConfig,
    mem_ratio: f64,
) -> Result<f64> {
    let sys = run_workload(kind, footprint_pages, seed, system, mem_ratio)?;
    let base = run_workload(kind, footprint_pages, seed, reference, mem_ratio)?;
    Ok(1.0 - sys.completion.as_nanos() as f64 / base.completion.as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_performance_is_in_unit_range_for_streams() {
        let np = normalized_performance(
            WorkloadKind::Kmeans,
            1_024,
            3,
            SystemConfig::Baseline(BaselineKind::Fastswap),
            0.5,
        )
        .unwrap();
        assert!(np > 0.0 && np <= 1.0, "np = {np}");
    }

    #[test]
    fn local_run_is_full_speed() {
        let r = run_local(WorkloadKind::Kmeans, 1_024, 3).unwrap();
        assert_eq!(r.counters.major_faults, 0);
    }

    #[test]
    fn hopp_speedup_over_fastswap_is_positive_on_kmeans() {
        let s = speedup_over(
            WorkloadKind::Kmeans,
            2_048,
            3,
            SystemConfig::hopp_default(),
            SystemConfig::Baseline(BaselineKind::Fastswap),
            0.5,
        )
        .unwrap();
        assert!(s > 0.0, "speedup {s}");
    }
}
