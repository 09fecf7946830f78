//! The ratchet baseline: finding counts only ever go down.
//!
//! `check-baseline.json` (committed at the workspace root) records
//! every known finding and the per-rule waiver budget at the time it
//! was last regenerated. On each run the checker diffs the live report
//! against it:
//!
//! * a finding whose fingerprint is **not** in the baseline fails the
//!   run — new debt is never admitted silently;
//! * a baseline entry with **no** live finding also fails the run, with
//!   instructions to rerun `cargo xtask check --update-baseline` — the
//!   ratchet clicks down and the fixed finding can never come back;
//! * the per-rule waiver budget ratchets the same way: spending more
//!   waivers than the baseline fails, spending fewer requires an
//!   update.
//!
//! Findings are matched by [`fingerprint`] — an FNV-1a 64 hash over
//! `rule \0 file \0 message`, deliberately excluding the line number so
//! unrelated edits that shift a finding up or down the file do not
//! churn the baseline. Two identical findings in one file hash alike;
//! the diff therefore compares hash *multisets*, not sets.

use std::collections::BTreeMap;

use crate::{json, CheckReport, Finding};

/// Format version stamped into the file; bump on breaking changes.
pub const VERSION: usize = 1;

/// One remembered finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Entry {
    /// Rule name (`unit-hygiene`, …).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// The finding message, verbatim.
    pub message: String,
    /// [`fingerprint`] of the above (16 hex digits).
    pub hash: String,
}

/// The committed ratchet state.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Per-rule waiver budget at capture time.
    pub waived: BTreeMap<String, usize>,
    /// Known findings, sorted by `(file, rule, message)`.
    pub entries: Vec<Entry>,
}

/// Content hash of a finding: FNV-1a 64 over `rule \0 file \0 message`.
///
/// The line number is deliberately left out so findings keep their
/// identity across unrelated edits that only shift them vertically.
pub fn fingerprint(f: &Finding) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [
        f.rule.name().as_bytes(),
        f.file.as_bytes(),
        f.message.as_bytes(),
    ] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0;
        h = h.wrapping_mul(0x0000_0100_0000_01b3); // NUL separator
    }
    format!("{h:016x}")
}

impl Baseline {
    /// Captures the live report as a new baseline.
    pub fn from_report(report: &CheckReport) -> Baseline {
        let mut entries: Vec<Entry> = report
            .findings
            .iter()
            .map(|f| Entry {
                rule: f.rule.name().to_string(),
                file: f.file.clone(),
                message: f.message.clone(),
                hash: fingerprint(f),
            })
            .collect();
        entries.sort_by(|a, b| (&a.file, &a.rule, &a.message).cmp(&(&b.file, &b.rule, &b.message)));
        Baseline {
            waived: report
                .waived
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            entries,
        }
    }

    /// Parses a baseline file.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON is malformed or the version is
    /// unknown.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let v = json::parse(src).map_err(|e| format!("check-baseline.json: {e}"))?;
        let version = v
            .get("version")
            .and_then(json::Value::as_usize)
            .ok_or("check-baseline.json: missing \"version\"")?;
        if version != VERSION {
            return Err(format!(
                "check-baseline.json: version {version} (this checker writes {VERSION}); \
                 regenerate with `cargo xtask check --update-baseline`"
            ));
        }
        let mut out = Baseline::default();
        if let Some(w) = v.get("waived").and_then(json::Value::as_obj) {
            for (rule, n) in w {
                let n = n
                    .as_usize()
                    .ok_or_else(|| format!("check-baseline.json: bad count for {rule}"))?;
                out.waived.insert(rule.clone(), n);
            }
        }
        if let Some(arr) = v.get("findings").and_then(json::Value::as_arr) {
            for e in arr {
                let field = |k: &str| {
                    e.get(k)
                        .and_then(json::Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("check-baseline.json: entry missing \"{k}\""))
                };
                out.entries.push(Entry {
                    rule: field("rule")?,
                    file: field("file")?,
                    message: field("message")?,
                    hash: field("hash")?,
                });
            }
        }
        Ok(out)
    }

    /// Renders the deterministic on-disk form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let _ = writeln!(o, "{{");
        let _ = writeln!(o, "  \"version\": {VERSION},");
        let _ = writeln!(o, "  \"waived\": {{");
        for (i, (rule, n)) in self.waived.iter().enumerate() {
            let comma = if i + 1 < self.waived.len() { "," } else { "" };
            let _ = writeln!(o, "    \"{}\": {n}{comma}", json::escape(rule));
        }
        let _ = writeln!(o, "  }},");
        let _ = writeln!(o, "  \"findings\": [");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                o,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"hash\": \"{}\", \"message\": \"{}\"}}{comma}",
                json::escape(&e.rule),
                json::escape(&e.file),
                json::escape(&e.hash),
                json::escape(&e.message)
            );
        }
        let _ = writeln!(o, "  ]");
        let _ = writeln!(o, "}}");
        o
    }

    /// Diffs a live report against the ratchet. An empty vec means the
    /// run is admissible; each entry is one human-readable breach.
    pub fn diff(&self, report: &CheckReport) -> Vec<String> {
        let mut breaches = Vec::new();

        // Finding multisets, keyed by fingerprint.
        let mut base: BTreeMap<&str, (usize, &Entry)> = BTreeMap::new();
        for e in &self.entries {
            base.entry(&e.hash).or_insert((0, e)).0 += 1;
        }
        let mut live: BTreeMap<String, (usize, &Finding)> = BTreeMap::new();
        for f in &report.findings {
            live.entry(fingerprint(f)).or_insert((0, f)).0 += 1;
        }
        for (hash, (n, f)) in &live {
            let known = base.get(hash.as_str()).map_or(0, |(n, _)| *n);
            if *n > known {
                breaches.push(format!("new finding ({} over baseline): {f}", n - known));
            }
        }
        for (hash, (n, e)) in &base {
            let seen = live.get(*hash).map_or(0, |(n, _)| *n);
            if seen < *n {
                breaches.push(format!(
                    "baseline finding no longer occurs ({}x {}:{}\u{2026} \"{}\"); \
                     ratchet down with `cargo xtask check --update-baseline`",
                    n - seen,
                    e.rule,
                    e.file,
                    truncate(&e.message, 60)
                ));
            }
        }

        // Waiver budget, per rule.
        let mut rules: Vec<&str> = self.waived.keys().map(String::as_str).collect();
        for r in report.waived.keys() {
            if !self.waived.contains_key(*r) {
                rules.push(r);
            }
        }
        rules.sort_unstable();
        rules.dedup();
        for rule in rules {
            let was = self.waived.get(rule).copied().unwrap_or(0);
            let now = report.waived.get(rule).copied().unwrap_or(0);
            if now > was {
                breaches.push(format!(
                    "waiver budget for `{rule}` grew: {was} -> {now}; \
                     remove the new waiver or fix the finding"
                ));
            } else if now < was {
                breaches.push(format!(
                    "waiver budget for `{rule}` shrank: {was} -> {now}; \
                     ratchet down with `cargo xtask check --update-baseline`"
                ));
            }
        }
        breaches
    }
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn finding(rule: Rule, file: &str, msg: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 10,
            message: msg.to_string(),
        }
    }

    fn report(findings: Vec<Finding>, waived: &[(&'static str, usize)]) -> CheckReport {
        CheckReport {
            findings,
            waived: waived.iter().copied().collect(),
            ..CheckReport::default()
        }
    }

    #[test]
    fn fingerprint_ignores_the_line_number() {
        let mut a = finding(Rule::UnitHygiene, "crates/hw/src/lib.rs", "raw cast");
        let b = a.clone();
        a.line = 99;
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = finding(Rule::UnitHygiene, "crates/hw/src/lib.rs", "new cast");
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn fingerprint_separates_fields() {
        // "ab" + "c" must not collide with "a" + "bc".
        let a = finding(Rule::UnitHygiene, "ab", "c");
        let b = finding(Rule::UnitHygiene, "a", "bc");
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn render_parse_round_trips() {
        let rep = report(
            vec![
                finding(Rule::UnitHygiene, "crates/hw/src/lib.rs", "raw cast"),
                finding(
                    Rule::ConfigDrift,
                    "crates/obs/src/lib.rs",
                    "harness root carries the lint line",
                ),
            ],
            &[("unit-hygiene", 1)],
        );
        let base = Baseline::from_report(&rep);
        let parsed = Baseline::parse(&base.render()).unwrap();
        assert_eq!(parsed.entries, base.entries);
        assert_eq!(parsed.waived, base.waived);
        assert!(parsed.diff(&rep).is_empty(), "round trip diffs clean");
    }

    #[test]
    fn a_new_finding_breaches_the_ratchet() {
        let base = Baseline::from_report(&report(vec![], &[]));
        let rep = report(
            vec![finding(
                Rule::UnitHygiene,
                "crates/hw/src/lib.rs",
                "`Vpn::new(… as …)` builds an ID from a raw cast",
            )],
            &[],
        );
        let breaches = base.diff(&rep);
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].starts_with("new finding"), "{}", breaches[0]);
    }

    #[test]
    fn a_fixed_finding_demands_a_baseline_update() {
        let old = report(
            vec![finding(
                Rule::UnitHygiene,
                "crates/hw/src/lib.rs",
                "raw cast",
            )],
            &[],
        );
        let base = Baseline::from_report(&old);
        let breaches = base.diff(&report(vec![], &[]));
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].contains("--update-baseline"), "{}", breaches[0]);
    }

    #[test]
    fn duplicate_findings_diff_as_a_multiset() {
        let two = report(
            vec![
                finding(Rule::UnitHygiene, "crates/hw/src/lib.rs", "raw cast"),
                finding(Rule::UnitHygiene, "crates/hw/src/lib.rs", "raw cast"),
            ],
            &[],
        );
        let one = report(
            vec![finding(
                Rule::UnitHygiene,
                "crates/hw/src/lib.rs",
                "raw cast",
            )],
            &[],
        );
        let base = Baseline::from_report(&one);
        assert_eq!(base.diff(&two).len(), 1, "second copy is new debt");
        assert_eq!(Baseline::from_report(&two).diff(&one).len(), 1);
    }

    #[test]
    fn waiver_budget_ratchets_both_ways() {
        let base = Baseline::from_report(&report(vec![], &[("unit-hygiene", 11)]));
        let grew = base.diff(&report(vec![], &[("unit-hygiene", 12)]));
        assert_eq!(grew.len(), 1);
        assert!(grew[0].contains("grew"), "{}", grew[0]);
        let shrank = base.diff(&report(vec![], &[("unit-hygiene", 10)]));
        assert_eq!(shrank.len(), 1);
        assert!(shrank[0].contains("shrank"), "{}", shrank[0]);
        assert!(base
            .diff(&report(vec![], &[("unit-hygiene", 11)]))
            .is_empty());
    }

    #[test]
    fn unknown_versions_are_rejected() {
        assert!(Baseline::parse("{\"version\": 99}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }
}
