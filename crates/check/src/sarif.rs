//! SARIF 2.1.0 export for CI code-scanning annotations.
//!
//! `cargo xtask check --sarif out.sarif` renders the run's findings in
//! the [SARIF 2.1.0] interchange format, which GitHub's code-scanning
//! upload turns into inline PR annotations at the exact `file:line` of
//! each finding. The writer is hand-rolled (the checker is
//! dependency-free); the output is deterministic — findings arrive
//! already sorted by `(file, line)` from [`crate::run`], rules are
//! emitted in [`Rule::ALL`] order — so the artifact is byte-stable for
//! identical workspaces, same as every other artifact in this repo.
//!
//! Each result carries a `partialFingerprints` entry
//! (`hoppCheckFinding/v1`) computed by [`crate::baseline::fingerprint`]
//! over the finding's rule, file and message (not its line number), so
//! both GitHub's alert dedup and the local ratchet baseline survive
//! unrelated line drift.
//!
//! [SARIF 2.1.0]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use std::fmt::Write as _;

use crate::json::escape;
use crate::{baseline, CheckReport, Rule};

/// The schema URI stamped into the artifact.
pub const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders a check report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &CheckReport) -> String {
    let mut o = String::with_capacity(4096);
    let _ = writeln!(
        o,
        "{{\n  \"$schema\": \"{SCHEMA}\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {{"
    );
    let _ = writeln!(
        o,
        "      \"tool\": {{\n        \"driver\": {{\n          \
         \"name\": \"hopp-check\",\n          \
         \"version\": \"{}\",\n          \
         \"informationUri\": \"https://example.invalid/hopp/docs/static-analysis.md\",\n          \
         \"rules\": [",
        env!("CARGO_PKG_VERSION")
    );
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let comma = if i + 1 < Rule::ALL.len() { "," } else { "" };
        let _ = writeln!(
            o,
            "            {{\"id\": \"{}\", \"name\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}{comma}",
            rule.name(),
            escape(rule.id()),
            escape(rule.describe())
        );
    }
    let _ = writeln!(
        o,
        "          ]\n        }}\n      }},\n      \"results\": ["
    );
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() {
            ","
        } else {
            ""
        };
        let rule_index = Rule::ALL
            .iter()
            .position(|r| *r == f.rule)
            .unwrap_or_default();
        let _ = writeln!(
            o,
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {rule_index}, \
             \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}], \
             \"partialFingerprints\": {{\"hoppCheckFinding/v1\": \"{}\"}}}}{comma}",
            f.rule.name(),
            escape(&f.message),
            escape(&f.file),
            f.line,
            baseline::fingerprint(f)
        );
    }
    let _ = writeln!(o, "      ]\n    }}\n  ]\n}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Finding};

    fn sample_report() -> CheckReport {
        CheckReport {
            findings: vec![
                Finding {
                    rule: Rule::ConfigDrift,
                    file: "crates/hw/src/lib.rs".to_string(),
                    line: 8,
                    message: "sim-critical crate root lacks the lint line".to_string(),
                },
                Finding {
                    rule: Rule::UnitHygiene,
                    file: "crates/mem/src/lib.rs".to_string(),
                    line: 44,
                    message: "`.raw() as …` cast loses the ID's unit".to_string(),
                },
            ],
            ..CheckReport::default()
        }
    }

    #[test]
    fn sarif_is_valid_json_with_the_required_210_surface() {
        let doc = to_sarif(&sample_report());
        let v = json::parse(&doc).expect("SARIF must parse as JSON");
        assert_eq!(v.get("version").unwrap().as_str(), Some("2.1.0"));
        assert_eq!(v.get("$schema").unwrap().as_str(), Some(SCHEMA));
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        let driver = runs[0].get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").unwrap().as_str(), Some("hopp-check"));
        let rules = driver.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), Rule::ALL.len(), "every rule has metadata");
        for r in rules {
            assert!(r.get("id").is_some() && r.get("shortDescription").is_some());
        }
        let results = runs[0].get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        let first = &results[0];
        assert_eq!(first.get("ruleId").unwrap().as_str(), Some("config-drift"));
        let loc = &first.get("locations").unwrap().as_arr().unwrap()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation")
                .unwrap()
                .get("uri")
                .unwrap()
                .as_str(),
            Some("crates/hw/src/lib.rs")
        );
        assert_eq!(
            phys.get("region")
                .unwrap()
                .get("startLine")
                .unwrap()
                .as_usize(),
            Some(8)
        );
        assert!(first
            .get("partialFingerprints")
            .unwrap()
            .get("hoppCheckFinding/v1")
            .is_some());
        // ruleIndex must agree with the rules array position.
        let idx = first.get("ruleIndex").unwrap().as_usize().unwrap();
        assert_eq!(rules[idx].get("id").unwrap().as_str(), Some("config-drift"));
    }

    #[test]
    fn empty_reports_render_an_empty_results_array() {
        let doc = to_sarif(&CheckReport::default());
        let v = json::parse(&doc).unwrap();
        let results = v.get("runs").unwrap().as_arr().unwrap()[0]
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .len();
        assert_eq!(results, 0);
    }

    #[test]
    fn messages_with_quotes_and_backslashes_stay_valid() {
        let mut rep = CheckReport::default();
        rep.findings.push(Finding {
            rule: Rule::UnitHygiene,
            file: "a\\b.rs".to_string(),
            line: 1,
            message: "uses \"Instant\" \\ <newline>\n end".to_string(),
        });
        let doc = to_sarif(&rep);
        let v = json::parse(&doc).expect("escaped JSON parses");
        let msg = v.get("runs").unwrap().as_arr().unwrap()[0]
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .get("message")
            .unwrap()
            .get("text")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(msg.contains("\"Instant\""));
        assert!(msg.contains('\n'));
    }
}
