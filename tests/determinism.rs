//! Determinism regression tests (ISSUE 4, satellite 4).
//!
//! Two guarantees are pinned here:
//!
//! 1. *Replay determinism*: two [`hopp_sim::run_workload_with`] calls
//!    with identical config + seed produce byte-identical serialized
//!    [`hopp_sim::SimReport`]s (`metrics_json`).
//! 2. *Migration safety*: a fixed-seed small-scale report matches a
//!    golden file committed **before** the `hopp-ds` data-structure
//!    migration, proving the `BTreeMap` → `DetMap`/`PageMap`/`Lru`
//!    swap is behaviour-preserving, not just "still deterministic".
//!
//! To regenerate the golden after an *intentional* behaviour change,
//! run `HOPP_BLESS=1 cargo test --test determinism` and commit the
//! updated file with an explanation.

use hopp_sim::{run_workload_with, BaselineKind, SimConfig, SystemConfig};
use hopp_workloads::WorkloadKind;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/kmeans_hopp_small.json"
);

fn small_hopp_report() -> String {
    let config = SimConfig::with_system(SystemConfig::hopp_default());
    run_workload_with(config, WorkloadKind::Kmeans, 2_048, 7, 0.5)
        .expect("small hopp run")
        .metrics_json()
}

#[test]
fn identical_config_and_seed_reports_are_byte_identical() {
    let a = small_hopp_report();
    let b = small_hopp_report();
    assert_eq!(a, b, "same config + seed must replay byte-identically");
}

#[test]
fn identical_fastswap_runs_are_byte_identical() {
    let run = || {
        let config = SimConfig::with_system(SystemConfig::Baseline(BaselineKind::Fastswap));
        run_workload_with(config, WorkloadKind::GraphPr, 1_024, 11, 0.5)
            .expect("small fastswap run")
            .metrics_json()
    };
    assert_eq!(run(), run());
}

#[test]
fn small_scale_report_matches_pre_migration_golden() {
    let got = small_hopp_report();
    #[expect(
        clippy::disallowed_methods,
        reason = "re-blessing is an explicit developer action, not a simulation input"
    )]
    let bless = std::env::var_os("HOPP_BLESS").is_some();
    if bless {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file (bless with HOPP_BLESS=1)");
    assert_eq!(
        got, want,
        "fixed-seed report drifted from the pre-migration golden; \
         if the behaviour change is intentional, re-bless with HOPP_BLESS=1"
    );
}
