//! The four rule implementations.

use std::path::Path;

use crate::lexer::Line;
use crate::{FileContext, Finding, Rule};

/// Crates whose code runs inside the simulated clock domain. Everything
/// here must be deterministic and panic-free; harness crates (`obs`
/// exporters, `bench`, the checker itself) are exempt from those two
/// rules but not from unit hygiene. `trace` (the LLC model on every
/// cacheline access) and `workloads` (the seeded stream generators) sit
/// on the simulated path and are sim-critical.
pub const SIM_CRITICAL_CRATES: [&str; 12] = [
    "hw",
    "kernel",
    "mem",
    "net",
    "fabric",
    "core",
    "sim",
    "baselines",
    "ds",
    "scenario",
    "trace",
    "workloads",
];

/// Crates that are host-side tooling by design: measurement harnesses,
/// exporters and the checker itself. Exempt from the sim-critical
/// determinism/panic rules (but not from unit hygiene,
/// ordering-sensitivity or the unsafe audit).
///
/// Together with [`SIM_CRITICAL_CRATES`] this must cover every
/// directory under `crates/`: [`check_crate_classification`] fails the
/// check when a workspace member is in neither list, so a new crate
/// cannot silently skip analysis.
pub const HARNESS_CRATES: [&str; 6] = ["bench", "check", "obs", "prof", "types", "xtask"];

/// ID newtypes whose raw values must not be `as`-cast outside
/// `crates/types` (the one place allowed to define conversions).
const ID_NEWTYPES: [&str; 6] = ["Vpn", "Ppn", "Pid", "NodeId", "LineAddr", "SwapSlot"];

/// Identifiers banned in sim-critical code: wall-clock time, OS
/// randomness and threading have no place inside the simulated clock
/// domain, and default-hasher collections iterate in a random order.
///
/// Carve-out: `hopp_prof::span(..)` scope guards are the one sanctioned
/// host-timing probe in sim-critical code. The guard records host time
/// into thread-local profiler state but never returns the measured
/// value, so host time cannot leak into simulated state; the raw reads
/// (`Instant`, `hopp_prof::host_now_ns`) stay banned.
const DETERMINISM_BANS: [(&str, &str); 8] = [
    (
        "Instant",
        "wall-clock time in sim code; simulated time is `Nanos` carried by the event loop",
    ),
    (
        "SystemTime",
        "wall-clock time in sim code; simulated time is `Nanos` carried by the event loop",
    ),
    (
        "thread::spawn",
        "threads in sim code break deterministic replay; the simulator is single-threaded by design",
    ),
    (
        "thread::scope",
        "threads in sim code break deterministic replay; the simulator is single-threaded by design",
    ),
    (
        "host_now_ns",
        "raw host-clock read in sim code; use a `hopp_prof::span(..)` guard, which times \
         host work without ever handing the measured value back to the caller",
    ),
    (
        "rand::",
        "OS randomness in sim code; use the seeded `hopp_types::rng` SplitMix64",
    ),
    (
        "HashMap",
        "default-hasher map iterates in random order; use `hopp_ds::DetMap` (seeded hash, \
         insertion-order iteration), `hopp_ds::PageMap` for dense page keys, or `BTreeMap`",
    ),
    (
        "HashSet",
        "default-hasher set iterates in random order; use `hopp_ds::DetMap<K, ()>` or `BTreeSet`",
    ),
];

/// Thread primitives banned *everywhere* in the workspace except the
/// one sanctioned home: the hopp-lab pool in `crates/bench/src/lab.rs`.
/// Harness crates are exempt from the sim-critical determinism rule,
/// but ad-hoc threading there still produces artifacts whose byte
/// stability nobody audited — so parallel work must route through the
/// pool, which guarantees grid-order aggregation at any thread count.
const THREAD_BANS: [(&str, &str); 2] = [
    (
        "thread::spawn",
        "ad-hoc threads outside the sanctioned pool; route parallel work through \
         `hopp_bench::lab::run_indexed` (crates/bench/src/lab.rs), which preserves \
         deterministic output order",
    ),
    (
        "thread::scope",
        "ad-hoc threads outside the sanctioned pool; route parallel work through \
         `hopp_bench::lab::run_indexed` (crates/bench/src/lab.rs), which preserves \
         deterministic output order",
    ),
];

/// Panicking forms banned in non-test hot-path code. `assert!` /
/// `debug_assert!` stay allowed: they state contracts, while these
/// forms swallow recoverable failures that should travel as errors.
const PANIC_BANS: [(&str, &str); 5] = [
    (
        ".unwrap()",
        "propagate a typed error (`?`) or handle the `None`/`Err` case",
    ),
    (
        ".expect(",
        "propagate a typed error (`?`) instead of panicking with a message",
    ),
    (
        "panic!(",
        "return a typed `hopp_types::Error` so callers can report context",
    ),
    (
        "unreachable!(",
        "make the invariant a type or return a typed error",
    ),
    ("todo!(", "unimplemented code must not ship in hot paths"),
];

/// Runs the per-file rules over one lexed file.
pub fn check_file(ctx: &mut FileContext<'_>, findings: &mut Vec<Finding>) {
    let sim_critical = SIM_CRITICAL_CRATES.contains(&ctx.krate);
    // The whole `benches/` tree is measurement harness, not sim code.
    let is_bench = ctx.rel.contains("/benches/");
    // The one sanctioned home for threads in the whole workspace.
    let is_lab_pool = ctx.rel == "crates/bench/src/lab.rs";
    for (idx, line) in ctx.lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        if sim_critical && !is_bench {
            check_determinism(ctx, line, lineno, findings);
            check_panic_policy(ctx, line, lineno, findings);
        } else if !is_lab_pool {
            // Harness code escapes the full determinism rule, but not
            // the workspace-wide thread policy: parallelism must route
            // through the hopp-lab pool so output stays byte-stable.
            check_thread_policy(ctx, line, lineno, findings);
        }
        if ctx.krate != "types" && ctx.krate != "check" {
            check_unit_hygiene(ctx, line, lineno, findings);
        }
    }
    // The scope-aware passes: determinism taint-flow (sim-critical
    // only) and ordering-sensitivity (everywhere), then the line-level
    // unsafe audit (everywhere).
    let toks = crate::lexer::tokenize(&ctx.lexed);
    crate::dataflow::check_dataflow(ctx, &toks, sim_critical && !is_bench, findings);
    crate::dataflow::check_unsafe_audit(ctx, findings);
}

fn check_determinism(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    for (needle, steer) in DETERMINISM_BANS {
        if contains_ident(&line.code, needle) {
            findings.push(Finding {
                rule: Rule::Determinism,
                file: ctx.rel.clone(),
                line: lineno,
                message: format!("`{needle}`: {steer}"),
            });
        }
    }
}

fn check_thread_policy(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    for (needle, steer) in THREAD_BANS {
        if contains_ident(&line.code, needle) {
            findings.push(Finding {
                rule: Rule::Determinism,
                file: ctx.rel.clone(),
                line: lineno,
                message: format!("`{needle}`: {steer}"),
            });
        }
    }
}

fn check_panic_policy(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    for (needle, steer) in PANIC_BANS {
        if line.code.contains(needle) {
            findings.push(Finding {
                rule: Rule::PanicPolicy,
                file: ctx.rel.clone(),
                line: lineno,
                message: format!("`{}`: {steer}", needle.trim_end_matches('(')),
            });
        }
    }
}

fn check_unit_hygiene(
    ctx: &FileContext<'_>,
    line: &Line,
    lineno: usize,
    findings: &mut Vec<Finding>,
) {
    // Casting a newtype's raw value: `x.raw() as usize` loses the unit.
    if line.code.contains(".raw() as ") {
        findings.push(Finding {
            rule: Rule::UnitHygiene,
            file: ctx.rel.clone(),
            line: lineno,
            message: "`.raw() as …` cast loses the ID's unit; add/use an explicit \
                      conversion method on the newtype (e.g. `Ppn::index()`)"
                .to_string(),
        });
    }
    // Constructing a newtype from a cast: `NodeId::new(i as u16)` can
    // silently truncate and hides unit conversions from review.
    for ty in ID_NEWTYPES {
        let needle = format!("{ty}::new(");
        let mut start = 0;
        while let Some(pos) = line.code[start..].find(&needle) {
            let open = start + pos + needle.len() - 1;
            let args = argument_span(&line.code, open);
            if args.contains(" as ") {
                findings.push(Finding {
                    rule: Rule::UnitHygiene,
                    file: ctx.rel.clone(),
                    line: lineno,
                    message: format!(
                        "`{ty}::new(… as …)` builds an ID from a raw cast; use an explicit \
                         conversion constructor on `{ty}` (defined in `crates/types`)"
                    ),
                });
                break;
            }
            start = open + 1;
        }
    }
}

/// The text between the paren at `open` and its match (or end of line).
fn argument_span(code: &str, open: usize) -> &str {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return &code[open + 1..i];
                }
            }
            _ => {}
        }
    }
    &code[open + 1..]
}

/// Word-boundary containment: `HashMap` matches `HashMap::new` but not
/// `MyHashMapLike` or `hash_map`.
fn contains_ident(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = code[..at].chars().next_back().unwrap_or(' ');
            !(c.is_alphanumeric() || c == '_')
        };
        let end = at + needle.len();
        let after_ok = end >= code.len() || {
            let c = code[end..].chars().next().unwrap_or(' ');
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Every directory under `crates/` must be classified: either
/// sim-critical (full determinism/panic rules) or harness (exempt from
/// those two). An unclassified crate is a finding — previously the
/// hand-maintained [`SIM_CRITICAL_CRATES`] list could silently go
/// stale when a crate was added, leaving it unanalysed.
///
/// The reverse direction (a list entry whose directory no longer
/// exists) is only checked when the root carries a `Cargo.toml`, so
/// fixture mini-workspaces with a handful of crates stay valid.
pub fn check_crate_classification(root: &Path, findings: &mut Vec<Finding>) {
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return; // absence of crates/ is reported by the file walker
    };
    let mut members: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    members.sort();
    for name in &members {
        let classified =
            SIM_CRITICAL_CRATES.contains(&name.as_str()) || HARNESS_CRATES.contains(&name.as_str());
        if !classified {
            findings.push(Finding {
                rule: Rule::ConfigDrift,
                file: format!("crates/{name}"),
                line: 1,
                message: format!(
                    "crate `{name}` is not classified in crates/check/src/rules.rs; add it \
                     to SIM_CRITICAL_CRATES (runs inside the simulated clock domain) or \
                     HARNESS_CRATES (host-side tooling) so the checker knows which rules \
                     apply"
                ),
            });
        }
    }
    if root.join("Cargo.toml").exists() {
        for (list, entry) in SIM_CRITICAL_CRATES
            .iter()
            .map(|c| ("SIM_CRITICAL_CRATES", *c))
            .chain(HARNESS_CRATES.iter().map(|c| ("HARNESS_CRATES", *c)))
        {
            if !members.iter().any(|m| m == entry) {
                findings.push(Finding {
                    rule: Rule::ConfigDrift,
                    file: "crates/check/src/rules.rs".to_string(),
                    line: 1,
                    message: format!(
                        "{list} entry `{entry}` has no crates/{entry}/ directory; remove \
                         the stale entry"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_matching_respects_word_boundaries() {
        assert!(contains_ident("let m = HashMap::new();", "HashMap"));
        assert!(contains_ident("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_ident("struct MyHashMapLike;", "HashMap"));
        assert!(!contains_ident("let hash_map = 1;", "HashMap"));
        assert!(contains_ident("std::thread::spawn(f)", "thread::spawn"));
    }

    #[test]
    fn argument_span_matches_parens() {
        let code = "NodeId::new(f(x) as u16, y)";
        let open = code.find("new(").unwrap() + 3;
        assert_eq!(argument_span(code, open), "f(x) as u16, y");
    }
}
