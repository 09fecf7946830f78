//! Clippy parity: the determinism, panic-policy and unsafe-audit rules
//! (the retired HC01, HC04 and HC06) are enforced by clippy, through
//! the root `clippy.toml`, the `[workspace.lints]` table and the lint
//! line at every sim-critical crate root.
//!
//! `tests/clippy-parity` is a compilable package that seeds every
//! positive and negative case those rules' fixtures used to cover. This
//! test lints it with the real configuration and asserts the exact set
//! of `(file, line, lint)` findings, so a configuration change that
//! drops a ban fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Short-format diagnostics carry no lint name; each message prefix
/// names its lint. A message outside this table fails the test.
const MESSAGES: [(&str, &str); 9] = [
    ("used `unwrap()`", "unwrap_used"),
    ("used `expect()`", "expect_used"),
    ("`panic` should not be present", "panic"),
    ("usage of the `unreachable!` macro", "unreachable"),
    ("use of a disallowed type", "disallowed_types"),
    ("use of a disallowed method", "disallowed_methods"),
    (
        "unsafe block missing a safety comment",
        "undocumented_unsafe_blocks",
    ),
    (
        "this lint expectation is unfulfilled",
        "unfulfilled_lint_expectations",
    ),
    (
        "`allow` attribute without specifying a reason",
        "allow_attributes_without_reason",
    ),
];

/// Every finding the package must produce, and nothing else. Lines not
/// listed are the negative cases: test code, the lab pool's reasoned
/// `thread::scope`, `hopp_prof::span`, `hopp_ds` types, harness
/// `unwrap`s and maps, a `SAFETY`-commented `unsafe` block, a used
/// `#[expect]`, and the taint fixture's sink lines.
const EXPECTED: [(&str, usize, &str); 18] = [
    ("src/bin/harness/obs.rs", 7, "disallowed_methods"),
    ("src/bin/harness/prof.rs", 14, "undocumented_unsafe_blocks"),
    ("src/dsaware.rs", 3, "disallowed_types"),
    ("src/dsaware.rs", 16, "disallowed_types"),
    ("src/profclock.rs", 6, "disallowed_types"),
    ("src/profclock.rs", 7, "disallowed_methods"),
    ("src/scncritical.rs", 5, "unwrap_used"),
    ("src/scncritical.rs", 9, "expect_used"),
    ("src/scncritical.rs", 14, "panic"),
    ("src/scncritical.rs", 21, "unreachable"),
    ("src/seeded.rs", 4, "disallowed_types"),
    ("src/seeded.rs", 7, "disallowed_types"),
    ("src/seeded.rs", 11, "unwrap_used"),
    ("src/taintflow.rs", 5, "disallowed_types"),
    ("src/taintflow.rs", 13, "disallowed_types"),
    ("src/taintflow.rs", 18, "disallowed_types"),
    // A stale `#[expect]` and a reason-less `allow` are findings at the
    // attribute; the `allow` still silences its unwrap.
    ("src/waivers.rs", 10, "unfulfilled_lint_expectations"),
    ("src/waivers.rs", 15, "allow_attributes_without_reason"),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf()
}

fn parity_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy-parity")
}

fn lint_of(message: &str) -> &'static str {
    MESSAGES
        .iter()
        .find(|(prefix, _)| message.starts_with(prefix))
        .map(|&(_, lint)| lint)
        .unwrap_or_else(|| panic!("unexpected diagnostic: {message}"))
}

#[test]
fn clippy_fires_exactly_on_the_seeded_violations() {
    let dir = parity_dir();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    // `--cap-lints warn` keeps denied lints from stopping the build, so
    // the harness binary is linted even though the library has errors.
    let out = Command::new(cargo)
        .current_dir(&dir)
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .args(["--message-format", "short", "--target-dir"])
        .arg(workspace_root().join("target/clippy-parity"))
        .args(["--", "--cap-lints", "warn"])
        .output()
        .expect("cargo clippy runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clippy failed to run:\n{stderr}");

    let mut got = BTreeSet::new();
    for line in stderr.lines().filter(|l| l.starts_with("src/")) {
        let mut parts = line.splitn(4, ':');
        let (Some(file), Some(lineno), Some(_col), Some(rest)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed diagnostic: {line}");
        };
        let message = rest
            .trim_start()
            .strip_prefix("warning: ")
            .unwrap_or_else(|| panic!("not a warning: {line}"));
        let lineno: usize = lineno.parse().expect("numeric line");
        got.insert((file.to_string(), lineno, lint_of(message)));
    }
    let want: BTreeSet<_> = EXPECTED
        .iter()
        .map(|&(file, line, lint)| (file.to_string(), line, lint))
        .collect();
    assert_eq!(got, want, "clippy output:\n{stderr}");
}

#[test]
fn the_package_restates_the_workspace_lint_configuration() {
    // Its lints table must not drift from the root's …
    let root = std::fs::read_to_string(workspace_root().join("Cargo.toml")).expect("root manifest");
    let ours = std::fs::read_to_string(parity_dir().join("Cargo.toml")).expect("parity manifest");
    let mut section = "";
    for line in ours.lines() {
        if line.starts_with('[') {
            section = line;
        } else if section.starts_with("[lints.") && line.contains(" = ") {
            let root_section = section.replace("[lints.", "[workspace.lints.");
            let in_root = root
                .split(root_section.as_str())
                .nth(1)
                .and_then(|rest| rest.split("\n[").next())
                .is_some_and(|table| table.lines().any(|l| l == line));
            assert!(in_root, "`{line}` is not in the root {root_section} table");
        }
    }
    // … and its crate root carries the sim-critical lint line.
    let lib = std::fs::read_to_string(parity_dir().join("src/lib.rs")).expect("parity lib.rs");
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    assert!(squash(&lib).contains(&squash(hopp_check::SIM_CRITICAL_LINTS)));
}
