//! `autobal-lint` — the workspace invariant analyzer.
//!
//! The repo's load-bearing contracts are enforced at runtime by
//! `tests/determinism.rs`, `tests/strategy_parity.rs`, and the chaos
//! suite — but a runtime test only catches a violation when a seed
//! happens to expose it. This crate machine-checks the contracts at
//! the source level, before any seed gets a vote. Since v2 it is a
//! real (if small) analyzer: a dependency-free Rust lexer
//! ([`lexer`]) feeds an item-level parser ([`parser`]) that builds a
//! workspace model ([`model`]) — per-crate module trees plus the
//! cross-crate import graph — and eight rule families run over that
//! model ([`rules`]):
//!
//! * **D — determinism** (`determinism`): no `thread_rng`, no
//!   entropy-seeded RNGs, no wall-clock (`SystemTime` / `Instant`), and
//!   no unordered containers (`HashMap` / `HashSet`) in the decision
//!   paths of `autobal-core`, `autobal-chord`, `autobal-workload`,
//!   `autobal-experiments`, and the root crate.
//! * **P — panic-safety** (`panic-safety`): no `unwrap()` / `expect()` /
//!   `panic!` / slice-indexing in the `autobal-chord` message-delivery
//!   and retry paths (`network.rs`, `eventnet.rs`, `fault.rs`,
//!   `adversary.rs`), the finger tables both overlays route by
//!   (`fingers.rs`), the event wire's scheduler (`queue.rs`), and the
//!   Chord substrates (the shared driver
//!   `src/chord_driver.rs` and its two transports, `src/protocol_sim.rs`
//!   and `src/event_sim.rs`).
//! * **S — strategy locality** (`strategy-locality`): strategy modules
//!   under `crates/core/src/strategy/` may only see the
//!   `LocalView` / `Actions` / `Substrate` surface — never Chord
//!   internals, the global simulator/ring, or the omniscient
//!   `OracleView` (`oracle.rs` carries audited exemptions).
//! * **O — output discipline** (`output-discipline`): library code may
//!   not write to stdout/stderr directly; every binary prints through
//!   the one audited output endpoint, `autobal_telemetry::console`.
//! * **L — layering** (`layering`): every cross-crate import in the
//!   observed import graph must be an edge of the pinned crate-layer
//!   DAG ([`model::LAYERS`]); no cycles, no upward imports.
//! * **E — error-path discipline** (`error-path`): no `let _ =` /
//!   trailing `.ok();` discards and no wildcard arms in
//!   `ActionError`/`NetworkError` matches in the delivery, retry,
//!   fault, and adversary paths.
//! * **F — float-order determinism** (`float-order`): no
//!   schedule-ordered reductions over rayon parallel iterators, no
//!   `partial_cmp` comparators (use `f64::total_cmp`).
//! * **T — telemetry vocabulary** (`telemetry-vocab`): every
//!   `SimEvent` variant has an emit site outside its defining file;
//!   decision names (the literals of `SimEvent::metric_fields`) and
//!   `MessageStatus`/`TraceBody` variants are covered by the trace
//!   summary, the validate schema, and the golden-schema fixture;
//!   every metric name const is snake_case, enumerated in the
//!   registry table, exercised by the golden metrics fixture, and
//!   emitted by at least one use site.
//!
//! Findings are suppressible only via an audited annotation — a plain
//! line comment on the offending line or standing alone on the line
//! directly above it:
//!
//! ```text
//! autobal-lint: allow(<rule>, "<reason>")
//! ```
//!
//! Each annotation suppresses exactly one finding; an annotation that
//! suppresses nothing is itself reported (`unused-allow`) — including
//! one stranded inside a `#[cfg(test)]` region, where the rules do not
//! apply and there is never anything to suppress — as is one that does
//! not parse (`malformed-allow`). Test code is exempt from every rule
//! family: assertions may unwrap and iterate however they like.

pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::rules_for;

/// The rule families (plus the two meta-diagnostics that keep the
/// annotation escape hatch honest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D: seeded-stream determinism in decision paths.
    Determinism,
    /// P: graceful degradation in message-delivery/retry paths.
    PanicSafety,
    /// S: strategies see only the LocalView/Actions/Substrate surface.
    StrategyLocality,
    /// O: no direct stdout/stderr writes in library code.
    OutputDiscipline,
    /// L: cross-crate imports follow the pinned layer DAG.
    Layering,
    /// E: no silent Result discards, no wildcard error arms.
    ErrorPath,
    /// F: no schedule-ordered float reductions or partial comparators.
    FloatOrder,
    /// T: emitted telemetry vocabulary stays in sync with its
    /// consumers and the golden schema.
    TelemetryVocab,
    /// An `allow` annotation that suppressed no finding.
    UnusedAllow,
    /// An `autobal-lint:` marker that does not parse as
    /// `allow(<rule>, "<reason>")`.
    MalformedAllow,
}

/// Every rule family in diagnostic order, with one-line descriptions —
/// the single source for `--list-rules` and the docs table.
pub const RULES: &[(Rule, &str)] = &[
    (
        Rule::Determinism,
        "no ambient randomness, wall-clock, or unordered containers in decision paths",
    ),
    (
        Rule::PanicSafety,
        "no unwrap/expect/panic!/indexing in message-delivery and retry paths",
    ),
    (
        Rule::StrategyLocality,
        "strategies import only the LocalView/Actions/Substrate surface",
    ),
    (
        Rule::OutputDiscipline,
        "no direct stdout/stderr writes in library code",
    ),
    (
        Rule::Layering,
        "cross-crate imports follow the pinned crate-layer DAG, acyclic",
    ),
    (
        Rule::ErrorPath,
        "no silent Result discards or wildcard error-match arms in fault paths",
    ),
    (
        Rule::FloatOrder,
        "no schedule-ordered float reductions; total_cmp instead of partial_cmp",
    ),
    (
        Rule::TelemetryVocab,
        "emitted SimEvent/Decision/Message vocabulary covered by summary, schema, and fixture",
    ),
    (
        Rule::UnusedAllow,
        "meta: an allow annotation that suppressed nothing",
    ),
    (
        Rule::MalformedAllow,
        "meta: an autobal-lint marker that does not parse",
    ),
];

impl Rule {
    /// The identifier used inside `allow(...)` annotations and printed
    /// in diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicSafety => "panic-safety",
            Rule::StrategyLocality => "strategy-locality",
            Rule::OutputDiscipline => "output-discipline",
            Rule::Layering => "layering",
            Rule::ErrorPath => "error-path",
            Rule::FloatOrder => "float-order",
            Rule::TelemetryVocab => "telemetry-vocab",
            Rule::UnusedAllow => "unused-allow",
            Rule::MalformedAllow => "malformed-allow",
        }
    }

    /// Parses an annotation rule identifier (suppressible rules only —
    /// the meta-diagnostics cannot be allowed away).
    pub fn from_id(s: &str) -> Option<Rule> {
        match s {
            "determinism" => Some(Rule::Determinism),
            "panic-safety" => Some(Rule::PanicSafety),
            "strategy-locality" => Some(Rule::StrategyLocality),
            "output-discipline" => Some(Rule::OutputDiscipline),
            "layering" => Some(Rule::Layering),
            "error-path" => Some(Rule::ErrorPath),
            "float-order" => Some(Rule::FloatOrder),
            "telemetry-vocab" => Some(Rule::TelemetryVocab),
            _ => None,
        }
    }

    /// Parses any rule identifier, meta-diagnostics included (for
    /// `--rule` filtering).
    pub fn from_id_any(s: &str) -> Option<Rule> {
        match s {
            "unused-allow" => Some(Rule::UnusedAllow),
            "malformed-allow" => Some(Rule::MalformedAllow),
            other => Rule::from_id(other),
        }
    }
}

/// One diagnostic: a rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// A parsed `allow(<rule>, "<reason>")` annotation comment.
#[derive(Debug, Clone)]
struct Allow {
    line: usize, // 1-indexed
    rule: Rule,
    /// No code tokens share this line: the annotation stands alone and
    /// therefore guards the *next* line.
    standalone: bool,
    /// The annotation sits inside a `#[cfg(test)]` region, where the
    /// rules do not apply — it can never suppress anything.
    in_test_code: bool,
    used: bool,
}

const MARKER: &str = "autobal-lint:";

/// Finds the annotation marker inside a *plain* line comment (`//`, not
/// `///` or `//!` — doc text may mention the syntax without being an
/// annotation). Returns the offset just past the marker.
fn marker_in_comment(line: &str) -> Option<usize> {
    let mut search = 0;
    while let Some(p) = line.get(search..).and_then(|s| s.find("//")) {
        let at = search + p;
        let after = line.get(at + 2..).and_then(|s| s.chars().next());
        if after != Some('/') && after != Some('!') {
            return line
                .get(at..)
                .and_then(|s| s.find(MARKER))
                .map(|m| at + m + MARKER.len());
        }
        search = at + 2;
    }
    None
}

/// Extracts allow annotations (and malformed-marker findings) from one
/// file's raw source. Annotations inside `#[cfg(test)]` regions are
/// kept but tagged: they are guaranteed-unused and reported as such.
fn parse_allows(file: &model::FileModel, raw: &str) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    let token_lines: std::collections::BTreeSet<usize> = file.toks.iter().map(|t| t.line).collect();
    for (idx, line) in raw.lines().enumerate() {
        let Some(pos) = marker_in_comment(line) else {
            continue;
        };
        let lineno = idx + 1;
        let rest = line.get(pos..).unwrap_or("").trim_start();
        let parsed = (|| -> Result<Rule, String> {
            let rest = rest
                .strip_prefix("allow(")
                .ok_or_else(|| "expected `allow(<rule>, \"<reason>\")`".to_string())?;
            let (rule_id, rest) = rest
                .split_once(',')
                .ok_or_else(|| "missing `, \"<reason>\"` after rule".to_string())?;
            let rule = Rule::from_id(rule_id.trim())
                .ok_or_else(|| format!("unknown rule `{}`", rule_id.trim()))?;
            let rest = rest.trim_start();
            let rest = rest
                .strip_prefix('"')
                .ok_or_else(|| "reason must be a quoted string".to_string())?;
            let (reason, rest) = rest
                .split_once('"')
                .ok_or_else(|| "unterminated reason string".to_string())?;
            if reason.trim().is_empty() {
                return Err("reason must not be empty".to_string());
            }
            if !rest.trim_start().starts_with(')') {
                return Err("missing closing `)`".to_string());
            }
            Ok(rule)
        })();
        let in_test_code = file.masked(lineno);
        match parsed {
            Ok(rule) => allows.push(Allow {
                line: lineno,
                rule,
                standalone: !token_lines.contains(&lineno),
                in_test_code,
                used: false,
            }),
            Err(why) if !in_test_code => bad.push(Finding {
                file: PathBuf::from(&file.rel),
                line: lineno,
                rule: Rule::MalformedAllow,
                message: format!("unparseable autobal-lint annotation: {why}"),
            }),
            Err(_) => {}
        }
    }
    (allows, bad)
}

/// Applies one file's allow annotations to its findings: each
/// annotation suppresses at most one finding of its rule on its own
/// line (or, standing alone, on the next line); leftovers become
/// `unused-allow` findings.
fn apply_allows(rel: &str, mut allows: Vec<Allow>, findings: Vec<Finding>) -> Vec<Finding> {
    let mut kept = Vec::new();
    for finding in findings {
        let slot = allows.iter_mut().find(|a| {
            !a.used
                && !a.in_test_code
                && a.rule == finding.rule
                && (a.line == finding.line || (a.standalone && a.line + 1 == finding.line))
        });
        match slot {
            Some(a) => a.used = true,
            None => kept.push(finding),
        }
    }
    for a in allows.iter().filter(|a| !a.used) {
        let message = if a.in_test_code {
            format!(
                "allow({}) sits inside #[cfg(test)] code, where the rules do not apply; \
                 remove the annotation",
                a.rule.id()
            )
        } else {
            format!(
                "allow({}) suppressed nothing; remove the annotation",
                a.rule.id()
            )
        };
        kept.push(Finding {
            file: PathBuf::from(rel),
            line: a.line,
            rule: Rule::UnusedAllow,
            message,
        });
    }
    kept
}

/// Scans a set of `(workspace-relative path, contents)` inputs as one
/// workspace. Non-`.rs` paths become model resources (the golden
/// schema fixture). This is the core entry point — `scan_source` and
/// `scan_workspace` are wrappers.
pub fn scan_files(inputs: &[(String, String)]) -> Vec<Finding> {
    let ws = model::Workspace::build(inputs);
    // Raw findings from every family.
    let mut raw: Vec<Finding> = Vec::new();
    for file in &ws.files {
        raw.extend(rules::check_file(&ws, file));
    }
    rules::check_layering(&ws, &mut raw);
    rules::check_telemetry(&ws, &mut raw);
    // Dedupe repeated hits of one (line, rule, message) — several
    // tokens on a line can trip the same check, but one annotation
    // must keep suppressing the whole line, as it always has.
    raw.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    raw.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    // Apply each file's allows to that file's findings.
    let mut out: Vec<Finding> = Vec::new();
    for (rel, text) in inputs {
        let Some(file) = ws.file(rel) else {
            continue;
        };
        let (allows, malformed) = parse_allows(file, text);
        let mine: Vec<Finding> = raw
            .iter()
            .filter(|f| f.file == Path::new(rel))
            .cloned()
            .collect();
        out.extend(apply_allows(rel, allows, mine));
        out.extend(malformed);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Scans one file's source in isolation (no cross-file rules beyond
/// what the single file itself can trigger). `rel` is the
/// workspace-relative path used for scoping and diagnostics.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    scan_files(&[(rel.to_string(), src.to_string())])
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// diagnostics.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The first-party source roots the analyzer walks, relative to the
/// workspace root. Integration tests, benches, fixtures, and the
/// vendored stand-ins are deliberately out of scope.
pub const SCAN_ROOTS: &[&str] = &[
    "src",
    "crates/chord/src",
    "crates/core/src",
    "crates/experiments/src",
    "crates/id/src",
    "crates/lint/src",
    "crates/meminstr/src",
    "crates/metrics/src",
    "crates/stats/src",
    "crates/telemetry/src",
    "crates/viz/src",
    "crates/workload/src",
];

/// Non-Rust inputs rule T checks coverage against.
pub const RESOURCE_PATHS: &[&str] = &[
    "tests/data/golden_schema.jsonl",
    "tests/data/golden_metrics.jsonl",
];

/// Scans the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs(&root.join(sub), &mut files)?;
    }
    let mut inputs = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, src));
    }
    for res in RESOURCE_PATHS {
        let path = root.join(res);
        if path.is_file() {
            inputs.push((res.to_string(), std::fs::read_to_string(&path)?));
        }
    }
    Ok(scan_files(&inputs))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the machine-readable JSON document CI consumes:
/// `{"findings": [{file, line, rule, message}, …], "count": N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file.display().to_string()),
            f.line,
            f.rule.id(),
            json_escape(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out.push('\n');
    out
}

/// Renders findings as GitHub Actions workflow commands, one per line,
/// so CI surfaces them as inline annotations on the PR diff.
pub fn render_github(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        // Workflow-command escaping: %, CR, LF in the message; plus
        // `,` and `:` in property values.
        let msg = f
            .message
            .replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A");
        let file = f
            .file
            .display()
            .to_string()
            .replace('%', "%25")
            .replace(',', "%2C")
            .replace(':', "%3A");
        out.push_str(&format!(
            "::error file={},line={},title=autobal-lint [{}]::{}\n",
            file,
            f.line,
            f.rule.id(),
            msg
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for (rule, _) in RULES {
            assert_eq!(Rule::from_id_any(rule.id()), Some(*rule));
        }
        assert_eq!(
            Rule::from_id("unused-allow"),
            None,
            "meta rules are not allowable"
        );
        assert_eq!(Rule::from_id("layering"), Some(Rule::Layering));
    }

    #[test]
    fn scope_selection() {
        assert_eq!(
            rules_for("crates/chord/src/network.rs"),
            vec![
                Rule::Determinism,
                Rule::PanicSafety,
                Rule::OutputDiscipline,
                Rule::ErrorPath,
                Rule::FloatOrder
            ]
        );
        assert_eq!(
            rules_for("crates/core/src/strategy/random.rs"),
            vec![
                Rule::Determinism,
                Rule::StrategyLocality,
                Rule::OutputDiscipline,
                Rule::FloatOrder
            ]
        );
        assert_eq!(
            rules_for("crates/core/src/strategy/mod.rs"),
            vec![Rule::Determinism, Rule::OutputDiscipline, Rule::FloatOrder]
        );
        assert_eq!(rules_for("crates/viz/src/svg.rs"), vec![Rule::FloatOrder]);
        for substrate in [
            "src/chord_driver.rs",
            "src/protocol_sim.rs",
            "src/event_sim.rs",
        ] {
            assert_eq!(
                rules_for(substrate),
                vec![
                    Rule::Determinism,
                    Rule::PanicSafety,
                    Rule::OutputDiscipline,
                    Rule::ErrorPath,
                    Rule::FloatOrder
                ],
                "{substrate}"
            );
        }
        assert_eq!(rules_for("tests/chaos.rs"), Vec::<Rule>::new());
    }

    #[test]
    fn token_stream_kills_string_false_positives() {
        // The v1 line scanner needed strip_code for these; the lexer
        // handles them structurally.
        let clean = scan_source(
            "crates/core/src/x.rs",
            "fn f() { let s = \"HashMap thread_rng Instant\"; let c = 'H'; }\n",
        );
        assert_eq!(clean, Vec::new());
        let dirty = scan_source("crates/core/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty.first().map(|f| f.rule), Some(Rule::Determinism));
    }

    #[test]
    fn multiline_method_calls_are_seen() {
        // `.unwrap()` split across lines defeated the line scanner.
        let src = "fn f(x: Option<u8>) -> u8 {\n    x\n        .unwrap()\n}\n";
        let got = scan_source("crates/chord/src/network.rs", src);
        assert!(
            got.iter()
                .any(|f| f.rule == Rule::PanicSafety && f.line == 3),
            "{got:?}"
        );
    }

    #[test]
    fn allow_in_test_code_is_reported_unused() {
        let src = "fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       // autobal-lint: allow(determinism, \"tests are exempt anyway\")\n\
                       fn t() { let _ = std::collections::HashMap::<u8, u8>::new(); }\n\
                   }\n";
        let got = scan_source("crates/core/src/x.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        let f = got.first().expect("one finding");
        assert_eq!((f.line, f.rule), (4, Rule::UnusedAllow));
        assert!(f.message.contains("cfg(test)"), "{}", f.message);
    }

    #[test]
    fn json_and_github_rendering() {
        let findings = vec![Finding {
            file: PathBuf::from("src/a.rs"),
            line: 3,
            rule: Rule::Layering,
            message: "crate `a` may not import \"b\"".to_string(),
        }];
        let json = render_json(&findings);
        assert!(json.contains("\"rule\":\"layering\""));
        assert!(json.contains("\\\"b\\\""));
        assert!(json.ends_with("\"count\":1}\n"));
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}\n");
        let gh = render_github(&findings);
        assert!(gh.starts_with("::error file=src/a.rs,line=3,"));
    }

    #[test]
    fn two_violations_one_line_need_two_allows_only_if_distinct() {
        // Two unwraps on one line are one deduped finding (one line,
        // one rule, one message) — a single annotation covers them.
        let src = "// autobal-lint: allow(panic-safety, \"test of dedupe\")\n\
                   fn f(a: Option<u8>, b: Option<u8>) { a.unwrap(); b.unwrap(); }\n";
        let got = scan_source("crates/chord/src/fault.rs", src);
        assert_eq!(got, Vec::new(), "{got:?}");
    }
}
