//! The fixture corpus for the analyzer.
//!
//! Every file under `tests/fixtures/` is a plain-text Rust source (never
//! compiled) whose first line declares the virtual workspace path the
//! scanner should believe it lives at:
//!
//! ```text
//! //@ path: crates/chord/src/network.rs
//! ```
//!
//! Each line expected to produce a finding carries a `//~ ERROR <rule>`
//! marker. The harness runs [`autobal_lint::scan_source`] on every
//! fixture and demands an exact match between markers and findings —
//! both directions: a missed finding and a spurious one both fail.

use autobal_lint::{rules_for, scan_files, scan_source, Rule};
use std::path::{Path, PathBuf};

const MARKER: &str = "//~ ERROR ";

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parses the `//~ ERROR <rule>` markers of a fixture into the expected
/// `(line, rule)` set, sorted the way `scan_source` sorts findings.
fn expected_markers(src: &str) -> Vec<(usize, Rule)> {
    let mut expected = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let mut search = 0;
        while let Some(p) = line[search..].find(MARKER) {
            let at = search + p + MARKER.len();
            let id: String = line[at..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            let rule = match id.as_str() {
                "unused-allow" => Rule::UnusedAllow,
                "malformed-allow" => Rule::MalformedAllow,
                other => Rule::from_id(other)
                    .unwrap_or_else(|| panic!("fixture marker names unknown rule `{other}`")),
            };
            expected.push((idx + 1, rule));
            search = at;
        }
    }
    expected.sort();
    expected
}

fn fixture_sources() -> Vec<(String, String)> {
    let dir = fixtures_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let src = std::fs::read_to_string(&p).expect("fixture readable");
            (name, src)
        })
        .collect()
}

/// Every fixture's findings must match its markers exactly, file:line
/// and rule included.
#[test]
fn corpus_findings_match_markers() {
    let fixtures = fixture_sources();
    assert!(fixtures.len() >= 6, "corpus went missing");
    for (name, src) in &fixtures {
        let first = src.lines().next().unwrap_or("");
        let rel = first
            .strip_prefix("//@ path: ")
            .unwrap_or_else(|| panic!("fixture {name} missing `//@ path:` header"))
            .trim();
        let expected = expected_markers(src);
        let got: Vec<(usize, Rule)> = scan_source(rel, src)
            .iter()
            .map(|f| (f.line, f.rule))
            .collect();
        assert_eq!(
            got, expected,
            "fixture {name} (as {rel}): findings != markers"
        );
    }
}

/// Subdirectories of `tests/fixtures/` are fixture *groups*: one
/// virtual workspace per directory, scanned together so cross-file
/// rules (layering edges, cross-crate fallible calls, telemetry
/// coverage) see all members at once. `.rs` members declare their
/// virtual path as usual; a `.jsonl` member plays the workspace
/// resource of the same name under `tests/data/`.
fn fixture_groups() -> Vec<(String, Vec<(String, String)>)> {
    let dir = fixtures_dir();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut groups = Vec::new();
    for d in dirs {
        let name = d
            .file_name()
            .expect("dir name")
            .to_string_lossy()
            .into_owned();
        let mut members: Vec<PathBuf> = std::fs::read_dir(&d)
            .expect("group directory readable")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        let mut inputs = Vec::new();
        for m in members {
            let src = std::fs::read_to_string(&m).expect("group member readable");
            match m.extension().and_then(|e| e.to_str()) {
                Some("rs") => {
                    let first = src.lines().next().unwrap_or("");
                    let rel = first
                        .strip_prefix("//@ path: ")
                        .unwrap_or_else(|| {
                            panic!("group member {} missing `//@ path:` header", m.display())
                        })
                        .trim()
                        .to_string();
                    inputs.push((rel, src));
                }
                Some("jsonl") => {
                    // A `.jsonl` member plays the workspace resource of
                    // the same name (golden_schema, golden_metrics, …).
                    let file = m
                        .file_name()
                        .expect("file name")
                        .to_string_lossy()
                        .into_owned();
                    inputs.push((format!("tests/data/{file}"), src));
                }
                _ => panic!("unexpected group member {}", m.display()),
            }
        }
        groups.push((name, inputs));
    }
    groups
}

/// Every group's findings must match the union of its members'
/// markers, file attribution included.
#[test]
fn group_corpora_match_markers() {
    let groups = fixture_groups();
    assert!(groups.len() >= 2, "group corpus went missing");
    for (name, inputs) in &groups {
        let mut expected: Vec<(String, usize, Rule)> = Vec::new();
        for (rel, src) in inputs {
            if rel.ends_with(".jsonl") {
                continue;
            }
            expected.extend(
                expected_markers(src)
                    .into_iter()
                    .map(|(line, rule)| (rel.clone(), line, rule)),
            );
        }
        expected.sort();
        let got: Vec<(String, usize, Rule)> = scan_files(inputs)
            .iter()
            .map(|f| (f.file.display().to_string(), f.line, f.rule))
            .collect();
        assert_eq!(got, expected, "group {name}: findings != markers");
    }
}

/// The corpus exercises every one of the ten diagnostics — all eight
/// rule families plus both annotation-audit meta-diagnostics.
#[test]
fn corpus_covers_every_rule() {
    let mut seen = Vec::new();
    for (_, src) in fixture_sources() {
        seen.extend(expected_markers(&src).into_iter().map(|(_, r)| r));
    }
    for (_, inputs) in fixture_groups() {
        for (_, src) in inputs {
            seen.extend(expected_markers(&src).into_iter().map(|(_, r)| r));
        }
    }
    for rule in [
        Rule::Determinism,
        Rule::PanicSafety,
        Rule::StrategyLocality,
        Rule::OutputDiscipline,
        Rule::Layering,
        Rule::ErrorPath,
        Rule::FloatOrder,
        Rule::TelemetryVocab,
        Rule::UnusedAllow,
        Rule::MalformedAllow,
    ] {
        assert!(seen.contains(&rule), "no fixture exercises {}", rule.id());
    }
}

/// A standalone annotation guards exactly one line; a second identical
/// violation right after it must still be reported.
#[test]
fn allow_suppresses_exactly_one_finding() {
    let src = "// autobal-lint: allow(determinism, \"guards one line\")\n\
               use std::collections::HashMap;\n\
               use std::collections::HashMap as Second;\n";
    let got = scan_source("crates/core/src/x.rs", src);
    assert_eq!(got.len(), 1, "exactly one finding: {got:?}");
    assert_eq!((got[0].line, got[0].rule), (3, Rule::Determinism));
}

/// The analyzer holds itself to its own panic-safety and
/// output-discipline bars: its library sources, scanned as if they
/// lived on the delivery path, produce no findings from either family.
#[test]
fn analyzer_lints_itself() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for name in ["lexer.rs", "parser.rs", "model.rs", "rules.rs", "lib.rs"] {
        let src = std::fs::read_to_string(src_dir.join(name)).expect("lint source readable");
        let offenders: Vec<String> = scan_source("crates/chord/src/eventnet.rs", &src)
            .iter()
            .filter(|f| matches!(f.rule, Rule::PanicSafety | Rule::OutputDiscipline))
            .map(|f| format!("{name}:{}: [{}] {}", f.line, f.rule.id(), f.message))
            .collect();
        assert!(
            offenders.is_empty(),
            "the analyzer must pass its own rules:\n{}",
            offenders.join("\n")
        );
    }
}

/// Scope sanity: the per-file families land exactly where the charter
/// says they do.
#[test]
fn scopes_are_pinned() {
    assert!(rules_for("crates/core/src/sim.rs").contains(&Rule::Determinism));
    assert!(rules_for("crates/chord/src/network.rs").contains(&Rule::ErrorPath));
    assert!(rules_for("src/protocol_sim.rs").contains(&Rule::ErrorPath));
    assert!(rules_for("src/chord_driver.rs").contains(&Rule::ErrorPath));
    assert!(rules_for("src/chord_driver.rs").contains(&Rule::PanicSafety));
    assert!(rules_for("crates/chord/src/fingers.rs").contains(&Rule::PanicSafety));
    assert!(rules_for("crates/chord/src/queue.rs").contains(&Rule::PanicSafety));
    assert!(!rules_for("crates/stats/src/ci.rs").contains(&Rule::ErrorPath));
    assert!(rules_for("crates/stats/src/ci.rs").contains(&Rule::FloatOrder));
    assert!(rules_for("crates/core/src/strategy/smart.rs").contains(&Rule::StrategyLocality));
    assert!(!rules_for("crates/core/src/strategy/mod.rs").contains(&Rule::StrategyLocality));
    assert!(rules_for("crates/experiments/src/main.rs").contains(&Rule::Determinism));
    assert!(!rules_for("crates/experiments/src/main.rs").contains(&Rule::OutputDiscipline));
}
