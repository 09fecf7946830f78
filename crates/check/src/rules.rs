//! The unit-hygiene line rule and the crate classification check.

use std::path::Path;

use crate::lexer::Line;
use crate::{FileContext, Finding, Rule};

/// Crates whose code runs inside the simulated clock domain. Everything
/// here must be deterministic and panic-free: each crate root carries
/// [`SIM_CRITICAL_LINTS`], and the taint rule runs here. Harness crates
/// (`obs` exporters, `bench`, the checker itself) are exempt from both
/// but not from unit hygiene. `trace` (the LLC model on every
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
/// determinism and panic bans and the taint rule (but not from unit
/// hygiene, ordering-sensitivity or the workspace-wide clippy lints).
///
/// Together with [`SIM_CRITICAL_CRATES`] this must cover every
/// directory under `crates/`: [`check_crate_classification`] fails the
/// check when a workspace member is in neither list, so a new crate
/// cannot silently skip analysis.
pub const HARNESS_CRATES: [&str; 6] = ["bench", "check", "obs", "prof", "types", "xtask"];

/// The lint line every sim-critical crate root (`src/lib.rs`,
/// `src/main.rs`, `src/bin/*.rs`) carries and no harness root may:
/// clippy then enforces the determinism bans of the root `clippy.toml`
/// and the panic policy there. Matched with whitespace ignored, so the
/// rustfmt layout passes.
pub const SIM_CRITICAL_LINTS: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, \
     clippy::panic, clippy::unreachable, clippy::disallowed_types, \
     clippy::allow_attributes_without_reason)]";

/// ID newtypes whose raw values must not be `as`-cast outside
/// `crates/types` (the one place allowed to define conversions).
const ID_NEWTYPES: [&str; 6] = ["Vpn", "Ppn", "Pid", "NodeId", "LineAddr", "SwapSlot"];

/// Runs the per-file rules over one lexed file.
pub fn check_file(ctx: &mut FileContext<'_>, findings: &mut Vec<Finding>) {
    // The whole `benches/` tree is measurement harness, not sim code.
    let sim_critical = SIM_CRITICAL_CRATES.contains(&ctx.krate) && !ctx.rel.contains("/benches/");
    if ctx.krate != "types" && ctx.krate != "check" {
        for (idx, line) in ctx.lexed.lines.iter().enumerate() {
            if !line.in_test {
                check_unit_hygiene(ctx, line, idx + 1, findings);
            }
        }
    }
    // The scope-aware passes: determinism taint-flow (sim-critical
    // only) and ordering-sensitivity (everywhere).
    let toks = crate::lexer::tokenize(&ctx.lexed);
    crate::dataflow::check_dataflow(ctx, &toks, sim_critical, findings);
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

/// Every directory under `crates/` must be classified: either
/// sim-critical (determinism and panic bans, taint rule) or harness
/// (exempt from those). An unclassified crate is a finding — previously
/// the hand-maintained [`SIM_CRITICAL_CRATES`] list could silently go
/// stale when a crate was added, leaving it unanalysed.
///
/// The classification is tied to enforcement: every sim-critical crate
/// root carries [`SIM_CRITICAL_LINTS`] and no harness root does, so the
/// list and what clippy checks cannot disagree.
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
        let sim_critical = SIM_CRITICAL_CRATES.contains(&name.as_str());
        if sim_critical || HARNESS_CRATES.contains(&name.as_str()) {
            check_root_lints(&crates_dir, name, sim_critical, findings);
        } else {
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

/// Holds one crate's roots to its class: [`SIM_CRITICAL_LINTS`] in
/// code (not comments) at every sim-critical root, at no harness root.
fn check_root_lints(
    crates_dir: &Path,
    name: &str,
    sim_critical: bool,
    findings: &mut Vec<Finding>,
) {
    let src_dir = crates_dir.join(name).join("src");
    let mut roots = vec!["lib.rs".to_string(), "main.rs".to_string()];
    if let Ok(bins) = std::fs::read_dir(src_dir.join("bin")) {
        let mut bins: Vec<String> = bins
            .flatten()
            .map(|e| format!("bin/{}", e.file_name().to_string_lossy()))
            .filter(|p| p.ends_with(".rs"))
            .collect();
        bins.sort();
        roots.extend(bins);
    }
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let wanted = squash(SIM_CRITICAL_LINTS);
    for root in roots {
        let Ok(src) = std::fs::read_to_string(src_dir.join(&root)) else {
            continue;
        };
        let code: String = crate::lexer::lex(&src)
            .lines
            .iter()
            .map(|l| squash(&l.code))
            .collect();
        if code.contains(&wanted) == sim_critical {
            continue;
        }
        let message = if sim_critical {
            format!(
                "sim-critical crate root lacks `{SIM_CRITICAL_LINTS}`; add it so clippy \
                 enforces the determinism and panic bans here"
            )
        } else {
            format!(
                "harness crate root carries the sim-critical lint line; remove it, or move \
                 `{name}` to SIM_CRITICAL_CRATES"
            )
        };
        findings.push(Finding {
            rule: Rule::ConfigDrift,
            file: format!("crates/{name}/src/{root}"),
            line: 1,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argument_span_matches_parens() {
        let code = "NodeId::new(f(x) as u16, y)";
        let open = code.find("new(").unwrap() + 3;
        assert_eq!(argument_span(code, open), "f(x) as u16, y");
    }
}
