//! Fixture tests: each checker rule fires on a seeded violation with an
//! exact `file:line`, and waivers behave as documented — one finding per
//! waiver, reasons mandatory, stale waivers flagged. The rules clippy
//! owns are pinned by `clippy_parity.rs` instead.
//!
//! Each fixture under `tests/fixtures/` is a miniature fake workspace
//! (`crates/*/src`) handed to
//! [`hopp_check::run`] as its root. The `.rs` files inside are never
//! compiled and never scanned by the real workspace check (which skips
//! `tests/` trees), so they can carry deliberate violations.

use std::path::PathBuf;

use hopp_check::{CheckReport, Finding, Rule};

fn check(fixture: &str) -> CheckReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    hopp_check::run(&root).expect("fixture workspace is readable")
}

fn brief(f: &Finding) -> (Rule, &str, usize) {
    (f.rule, f.file.as_str(), f.line)
}

#[test]
fn reasoned_waivers_suppress_exactly_their_findings() {
    let report = check("waived");
    assert!(
        report.is_clean(),
        "every seeded violation is waived\n{}",
        report.render()
    );
    // A trailing waiver and a standalone waiver each spent exactly one
    // budget entry.
    assert_eq!(report.waived.get("unit-hygiene"), Some(&2));
    assert_eq!(report.waiver_budget(), 2);
    assert_eq!(report.files_checked, 1);

    // A seeded finding renders as `file:line: [rule] message` so
    // editors can jump.
    let report = check("double");
    let shown = report.findings[0].to_string();
    assert!(
        shown.starts_with("crates/kernel/src/lib.rs:10: [unit-hygiene] "),
        "unexpected rendering: {shown}"
    );
    assert!(shown.contains("Vpn::new"), "names the offender: {shown}");
}

#[test]
fn one_waiver_covers_one_line_not_a_region() {
    let report = check("double");
    // Two consecutive raw casts, one waiver: the first is suppressed,
    // the second still fires.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::UnitHygiene, "crates/kernel/src/lib.rs", 10)],
        "{}",
        report.render()
    );
    assert_eq!(report.waived.get("unit-hygiene"), Some(&1));
}

#[test]
fn stale_and_reasonless_waivers_are_findings() {
    let report = check("stale");
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            // The waiver with nothing to waive, reported at its own line.
            (Rule::UnitHygiene, "crates/core/src/lib.rs", 4),
            // The reason-less waiver, also at its own line ...
            (Rule::UnitHygiene, "crates/core/src/lib.rs", 11),
            // ... which therefore does NOT suppress the cast below it.
            (Rule::UnitHygiene, "crates/core/src/lib.rs", 12),
        ],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("unused waiver"),
        "{}",
        report.findings[0].message
    );
    assert!(
        report.findings[0].message.contains("line 5"),
        "says which line it targeted: {}",
        report.findings[0].message
    );
    assert!(
        report.findings[1].message.contains("no reason"),
        "{}",
        report.findings[1].message
    );
    assert_eq!(report.waiver_budget(), 0, "nothing legitimate was waived");
}

#[test]
fn unclassified_crates_are_config_drift() {
    let report = check("driftcrate");
    // `crates/mystery` exists on disk but neither SIM_CRITICAL_CRATES
    // nor HARNESS_CRATES names it, so it would silently skip the
    // sim-critical analyses; the classification check refuses that.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::ConfigDrift, "crates/mystery", 1)],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("SIM_CRITICAL_CRATES")
            && report.findings[0].message.contains("HARNESS_CRATES"),
        "names both lists: {}",
        report.findings[0].message
    );
    assert_eq!(report.files_checked, 1);
}

#[test]
fn sim_critical_roots_and_only_they_carry_the_lint_line() {
    let report = check("rootlints");
    // `hw` names the line only in a comment, `sim`'s binary root lacks
    // it while its library root has it, and the harness crate `obs`
    // carries it. `kernel` passes in rustfmt's multi-line layout.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            (Rule::ConfigDrift, "crates/hw/src/lib.rs", 1),
            (Rule::ConfigDrift, "crates/obs/src/lib.rs", 1),
            (Rule::ConfigDrift, "crates/sim/src/bin/tool.rs", 1),
        ],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("clippy::unwrap_used"),
        "quotes the line to add: {}",
        report.findings[0].message
    );
    assert!(
        report.findings[1].message.contains("SIM_CRITICAL_CRATES"),
        "steers the harness crate: {}",
        report.findings[1].message
    );
    assert_eq!(report.files_checked, 5);
}

#[test]
fn the_real_workspace_crate_list_is_fully_classified() {
    // The classification lists in rules.rs are asserted against the
    // actual `crates/` members at check time; this pins the inverse —
    // every list entry corresponds to a real directory — against the
    // real workspace this test runs in.
    let ws = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("crates/check sits two levels below the workspace root");
    for name in hopp_check::SIM_CRITICAL_CRATES
        .iter()
        .chain(hopp_check::HARNESS_CRATES.iter())
    {
        assert!(
            ws.join("crates").join(name).is_dir(),
            "`{name}` is classified but crates/{name} does not exist"
        );
    }
}

#[test]
fn a_missing_workspace_root_is_an_error() {
    // A root with no crates/ directory at all is an IO error.
    let bogus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/does-not-exist");
    assert!(hopp_check::run(&bogus).is_err());
}
