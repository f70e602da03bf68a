//! The eight rule families, implemented over the lexed/parsed
//! workspace model.
//!
//! Per-file rules (D, P, S, O, E, F) run on one [`FileModel`] at a
//! time; workspace rules (L, T) need the whole [`Workspace`] — the
//! import graph for layering, the telemetry enums plus their coverage
//! anchors for vocabulary sync. Every check is a linear token walk;
//! none of them index a slice or unwrap (the crate passes its own
//! panic-safety rule).

use crate::lexer::TokKind;
use crate::model::{allowed_imports, find_cycle, ident_to_crate, FileModel, Workspace};
use crate::parser::matching;
use crate::{Finding, Rule};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Files whose basename puts them in rule E's error-path scope: the
/// delivery, retry, fault, and adversary machinery where a silently
/// dropped `Result` undoes the graceful-degradation guarantees.
const ERROR_PATH_FILES: &[&str] = &[
    "network.rs",
    "eventnet.rs",
    "fault.rs",
    "adversary.rs",
    "chord_driver.rs",
    "protocol_sim.rs",
    "event_sim.rs",
];

/// Keywords that may directly precede a `[` without it being an index
/// expression (`for x in [..]`, `return [..]`, `let [a, b] = ..`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "break", "continue", "else", "in", "let", "match", "mut", "ref", "return", "static",
    "true", "false", "yield", "move", "box", "dyn", "while", "if",
];

/// Which rule families apply to a workspace-relative path (forward
/// slashes, no leading `./`). L and T are workspace-level and are not
/// listed here; their findings are still filterable by rule id.
pub fn rules_for(rel: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    let in_determinism_scope = rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/chord/src/")
        || rel.starts_with("crates/workload/src/")
        || rel.starts_with("crates/experiments/src/")
        || rel.starts_with("src/");
    if in_determinism_scope {
        rules.push(Rule::Determinism);
    }
    if matches!(
        rel,
        "crates/chord/src/network.rs"
            | "crates/chord/src/eventnet.rs"
            | "crates/chord/src/fault.rs"
            | "crates/chord/src/adversary.rs"
            | "crates/core/src/ring.rs"
            | "src/chord_driver.rs"
            | "src/protocol_sim.rs"
            | "src/event_sim.rs"
    ) {
        rules.push(Rule::PanicSafety);
    }
    // `mod.rs` *defines* the strategy surface (including `OracleView`),
    // so only the concrete strategy modules are held to locality.
    if rel.starts_with("crates/core/src/strategy/") && !rel.ends_with("/mod.rs") {
        rules.push(Rule::StrategyLocality);
    }
    // Library crates never print; `autobal-experiments` and the lint
    // binary itself are reporting tools, out of scope by design. The
    // CLI mains live inside these trees and carry audited exemptions.
    let in_output_scope = rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/chord/src/")
        || rel.starts_with("crates/workload/src/")
        || rel.starts_with("crates/telemetry/src/")
        || rel.starts_with("crates/metrics/src/")
        || rel.starts_with("src/");
    if in_output_scope {
        rules.push(Rule::OutputDiscipline);
    }
    let base = rel.rsplit('/').next().unwrap_or(rel);
    if ERROR_PATH_FILES.contains(&base) && crate::model::crate_of(rel).is_some() {
        rules.push(Rule::ErrorPath);
    }
    // Float-order determinism applies to every attributed first-party
    // file: the checks are narrow enough to be workspace-wide.
    if crate::model::crate_of(rel).is_some() {
        rules.push(Rule::FloatOrder);
    }
    rules
}

fn push(out: &mut Vec<Finding>, rel: &str, line: usize, rule: Rule, message: String) {
    out.push(Finding {
        file: PathBuf::from(rel),
        line,
        rule,
        message,
    });
}

/// Runs every per-file rule family `rules_for` activates on `file`.
pub fn check_file(ws: &Workspace, file: &FileModel) -> Vec<Finding> {
    let active = rules_for(&file.rel);
    let mut out = Vec::new();
    if active.contains(&Rule::Determinism) {
        determinism(file, &mut out);
    }
    if active.contains(&Rule::PanicSafety) {
        panic_safety(file, &mut out);
    }
    if active.contains(&Rule::StrategyLocality) {
        strategy_locality(file, &mut out);
    }
    if active.contains(&Rule::OutputDiscipline) {
        output_discipline(file, &mut out);
    }
    if active.contains(&Rule::ErrorPath) {
        error_path(ws, file, &mut out);
    }
    if active.contains(&Rule::FloatOrder) {
        float_order(file, &mut out);
    }
    out
}

/// D — determinism: no ambient randomness, wall-clock, or unordered
/// containers in decision paths.
fn determinism(file: &FileModel, out: &mut Vec<Finding>) {
    const WORDS: &[(&str, &str)] = &[
        (
            "thread_rng",
            "thread_rng is nondeterministic; draw from a seeded ChaCha stream",
        ),
        (
            "from_entropy",
            "entropy-seeded RNG is nondeterministic; use seed_from_u64 on a pinned seed",
        ),
        (
            "SystemTime",
            "wall-clock time in a deterministic path; use the simulated clock",
        ),
        (
            "Instant",
            "wall-clock time in a deterministic path; use the simulated clock",
        ),
        (
            "HashMap",
            "HashMap iteration order is unstable; use BTreeMap or explicitly sorted iteration",
        ),
        (
            "HashSet",
            "HashSet iteration order is unstable; use BTreeSet or explicitly sorted iteration",
        ),
    ];
    for tok in &file.toks {
        if tok.kind != TokKind::Ident || file.masked(tok.line) {
            continue;
        }
        for (word, msg) in WORDS {
            if tok.text == *word {
                push(out, &file.rel, tok.line, Rule::Determinism, msg.to_string());
            }
        }
    }
}

/// P — panic-safety: no `unwrap`/`expect`/`panic!`/indexing in the
/// message-delivery and retry paths.
fn panic_safety(file: &FileModel, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    for (i, tok) in toks.iter().enumerate() {
        if file.masked(tok.line) {
            continue;
        }
        if tok.is_punct(".") {
            if let Some(next) = toks.get(i + 1) {
                if next.is_ident("unwrap") {
                    push(
                        out,
                        &file.rel,
                        next.line,
                        Rule::PanicSafety,
                        "unwrap() in a message-delivery/retry path; return an error or degrade"
                            .to_string(),
                    );
                }
                if next.is_ident("expect") {
                    push(
                        out,
                        &file.rel,
                        next.line,
                        Rule::PanicSafety,
                        "expect() in a message-delivery/retry path; return an error or degrade"
                            .to_string(),
                    );
                }
            }
        }
        if tok.kind == TokKind::Ident
            && (tok.text == "panic" || tok.text == "unreachable")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                out,
                &file.rel,
                tok.line,
                Rule::PanicSafety,
                format!(
                    "{}! in a message-delivery/retry path; return an error or degrade",
                    tok.text
                ),
            );
        }
        if tok.is_punct("[") {
            let indexes = match i.checked_sub(1).and_then(|p| toks.get(p)) {
                Some(prev) => match prev.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Num => true,
                    TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                    _ => false,
                },
                None => false,
            };
            if indexes {
                push(
                    out,
                    &file.rel,
                    tok.line,
                    Rule::PanicSafety,
                    "slice/map indexing can panic under faults; use get()/get_mut()".to_string(),
                );
            }
        }
    }
}

/// S — strategy locality: strategy modules see only the
/// `LocalView`/`Actions`/`Substrate` surface, verified on the real
/// token stream (so `use` trees, fully-qualified paths, and type
/// references all count).
fn strategy_locality(file: &FileModel, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || file.masked(tok.line) {
            continue;
        }
        if tok.text == "autobal_chord" {
            push(
                out,
                &file.rel,
                tok.line,
                Rule::StrategyLocality,
                "strategy reaches into Chord internals; strategies see only LocalView/Actions"
                    .to_string(),
            );
            continue;
        }
        // Any other first-party crate except the shared id arithmetic.
        if tok.text != "autobal_id" && ident_to_crate(&tok.text).is_some() {
            push(
                out,
                &file.rel,
                tok.line,
                Rule::StrategyLocality,
                format!(
                    "strategy imports `{}`; strategies see only LocalView/Actions",
                    tok.text
                ),
            );
            continue;
        }
        if tok.text == "OracleView" {
            push(
                out,
                &file.rel,
                tok.line,
                Rule::StrategyLocality,
                "OracleView is the omniscient surface; decentralized strategies must not see it"
                    .to_string(),
            );
            continue;
        }
        if tok.text == "crate" && toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            let msg = match toks.get(i + 2).map(|n| n.text.as_str()) {
                Some("sim") => Some(
                    "strategy touches the global simulator; strategies see only LocalView/Actions",
                ),
                Some("ring") => Some(
                    "strategy touches global ring state; strategies see only LocalView/Actions",
                ),
                Some("trace") | Some("metrics") | Some("record") => {
                    Some("strategy touches global observability state; use the Actions surface")
                }
                _ => None,
            };
            if let Some(msg) = msg {
                push(
                    out,
                    &file.rel,
                    tok.line,
                    Rule::StrategyLocality,
                    msg.to_string(),
                );
            }
        }
    }
}

/// O — output discipline: no direct stdout/stderr writes in library
/// code. A macro invocation is an ident followed by `!`, so a function
/// merely *named* `print` no longer trips the rule.
fn output_discipline(file: &FileModel, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || file.masked(tok.line) {
            continue;
        }
        if !matches!(
            tok.text.as_str(),
            "println" | "eprintln" | "print" | "eprint"
        ) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            continue;
        }
        push(
            out,
            &file.rel,
            tok.line,
            Rule::OutputDiscipline,
            format!(
                "{}! in library code; record telemetry or return the text instead",
                tok.text
            ),
        );
    }
}

/// E — error-path discipline: no silent `Result` discards and no
/// wildcard arms in error matches on the delivery/retry/fault paths.
fn error_path(ws: &Workspace, file: &FileModel, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    let fallible = ws.fallible_fns();
    for (i, tok) in toks.iter().enumerate() {
        if file.masked(tok.line) {
            continue;
        }
        // E1: `let _ = …;` — a value thrown away wholesale.
        if tok.is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("="))
        {
            // Name the discarded fallible call when the workspace
            // declares one in the statement.
            let mut callee = None;
            let mut j = i + 3;
            while let Some(t) = toks.get(j) {
                if t.is_punct(";") {
                    break;
                }
                if t.kind == TokKind::Ident
                    && fallible.contains(&t.text)
                    && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                {
                    callee = Some(t.text.clone());
                    break;
                }
                j += 1;
            }
            let message = match callee {
                Some(name) => format!(
                    "`let _ =` silently discards the Result of fallible `{name}()`; \
                     handle the error or audit the discard"
                ),
                None => "`let _ =` discards a value on an error-handling path; \
                         bind and handle it or audit the discard"
                    .to_string(),
            };
            push(out, &file.rel, tok.line, Rule::ErrorPath, message);
        }
        // E2: a trailing `.ok();` — a Result converted away and dropped.
        if tok.is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("ok"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct(";"))
        {
            push(
                out,
                &file.rel,
                tok.line,
                Rule::ErrorPath,
                ".ok() drops a Result on an error-handling path; handle the error or audit \
                 the discard"
                    .to_string(),
            );
        }
        // E3: wildcard arms inside matches that involve the error
        // enums — a new error variant must not vanish into `_`.
        if tok.is_ident("match") {
            wildcard_error_arms(file, i, out);
        }
    }
}

/// Scans the body of the `match` whose keyword sits at token index
/// `kw` for `_ =>` / `Err(_) =>` arms, when that body mentions
/// `ActionError` or `NetworkError`.
fn wildcard_error_arms(file: &FileModel, kw: usize, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    // Find the body's opening brace, skipping parenthesized/bracketed
    // scrutinee groups.
    let mut j = kw + 1;
    let open = loop {
        match toks.get(j) {
            None => return,
            Some(t) if t.is_punct("(") || t.is_punct("[") => {
                j = match matching(toks, j) {
                    Some(close) => close + 1,
                    None => return,
                };
            }
            Some(t) if t.is_punct("{") => break j,
            Some(t) if t.is_punct(";") => return,
            Some(_) => j += 1,
        }
    };
    let Some(close) = matching(toks, open) else {
        return;
    };
    let body = toks.get(open..=close).unwrap_or(&[]);
    let involves_errors = body
        .iter()
        .any(|t| t.is_ident("ActionError") || t.is_ident("NetworkError"));
    if !involves_errors {
        return;
    }
    for (k, t) in body.iter().enumerate() {
        if file.masked(t.line) {
            continue;
        }
        let bare_wildcard = t.is_ident("_") && body.get(k + 1).is_some_and(|n| n.is_punct("=>"));
        let err_wildcard = t.is_ident("Err")
            && body.get(k + 1).is_some_and(|n| n.is_punct("("))
            && body.get(k + 2).is_some_and(|n| n.is_ident("_"))
            && body.get(k + 3).is_some_and(|n| n.is_punct(")"))
            && body.get(k + 4).is_some_and(|n| n.is_punct("=>"));
        if bare_wildcard || err_wildcard {
            push(
                out,
                &file.rel,
                t.line,
                Rule::ErrorPath,
                "wildcard arm in a match involving ActionError/NetworkError hides new error \
                 variants; enumerate them explicitly"
                    .to_string(),
            );
        }
    }
}

/// F — float-order determinism: reductions whose order the rayon
/// scheduler picks, and float comparators built on `partial_cmp`.
fn float_order(file: &FileModel, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    let mut par_in_stmt = false;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind == TokKind::Punct && matches!(tok.text.as_str(), ";" | "{" | "}") {
            par_in_stmt = false;
            continue;
        }
        if tok.kind != TokKind::Ident || file.masked(tok.line) {
            continue;
        }
        // F1: a `sum`/`fold`/`reduce` downstream of a parallel iterator
        // in the same statement — the reduction tree shape (and thus
        // f64 rounding) depends on the thread schedule.
        if matches!(
            tok.text.as_str(),
            "par_iter" | "into_par_iter" | "par_iter_mut" | "par_chunks" | "par_bridge"
        ) {
            par_in_stmt = true;
        }
        if par_in_stmt
            && matches!(tok.text.as_str(), "sum" | "fold" | "reduce")
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.is_punct("."))
        {
            par_in_stmt = false;
            push(
                out,
                &file.rel,
                tok.line,
                Rule::FloatOrder,
                format!(
                    "{}() over a rayon parallel iterator reduces in schedule order; \
                     f64 accumulation there is nondeterministic — collect then reduce \
                     serially, or audit",
                    tok.text
                ),
            );
        }
        // F2: `partial_cmp` in comparator position (a `fn partial_cmp`
        // definition — the PartialOrd impl itself — is not a use site).
        if tok.text == "partial_cmp"
            && !i
                .checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.is_ident("fn"))
        {
            push(
                out,
                &file.rel,
                tok.line,
                Rule::FloatOrder,
                "partial_cmp as an ordering key is not total (NaN) and invites \
                 expect()-on-float; use f64::total_cmp"
                    .to_string(),
            );
        }
    }
}

/// L — layering: every observed cross-crate import must be an edge the
/// pinned layer DAG allows, and the observed graph must be acyclic.
pub fn check_layering(ws: &Workspace, out: &mut Vec<Finding>) {
    let edges = ws.import_edges();
    for e in &edges {
        let Some(allowed) = allowed_imports(&e.from) else {
            continue; // unknown crate: nothing pinned to check against
        };
        if !allowed.iter().any(|a| *a == e.to) {
            let allow_list = if allowed.is_empty() {
                "nothing first-party".to_string()
            } else {
                allowed.join(", ")
            };
            push(
                out,
                &e.file,
                e.line,
                Rule::Layering,
                format!(
                    "crate `{}` may not import `{}`; the layer DAG allows it {}",
                    e.from, e.to, allow_list
                ),
            );
        }
    }
    // Belt and braces: even a table regression must not let a cycle by.
    let crate_edges: BTreeSet<(String, String)> = edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    let crate_edges: Vec<(String, String)> = crate_edges.into_iter().collect();
    if let Some(cycle) = find_cycle(&crate_edges) {
        let on_cycle = edges.iter().find(|e| {
            cycle.first().is_some_and(|a| *a == e.from) && cycle.get(1).is_some_and(|b| *b == e.to)
        });
        if let Some(e) = on_cycle {
            push(
                out,
                &e.file,
                e.line,
                Rule::Layering,
                format!("crate dependency cycle: {}", cycle.join(" -> ")),
            );
        }
    }
}

/// True when some file other than `skip_rel` constructs
/// `Enum::Variant { … }` outside test code — braces without `..`, which
/// in this tree distinguishes a construction from a pattern (patterns
/// always elide fields). The enum's own file is skipped: a decoder
/// there constructs every variant without emitting any.
fn has_struct_construction(ws: &Workspace, enum_name: &str, variant: &str, skip_rel: &str) -> bool {
    for file in &ws.files {
        if file.rel == skip_rel {
            continue;
        }
        let toks = &file.toks;
        for (i, tok) in toks.iter().enumerate() {
            if !tok.is_ident(enum_name) || file.masked(tok.line) {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident(variant)))
            {
                continue;
            }
            if !toks.get(i + 3).is_some_and(|t| t.is_punct("{")) {
                continue;
            }
            let Some(close) = matching(toks, i + 3) else {
                continue;
            };
            let elided = toks
                .get(i + 3..=close)
                .unwrap_or(&[])
                .iter()
                .any(|t| t.is_punct(".."));
            if !elided {
                return true;
            }
        }
    }
    false
}

/// True when some file uses the unit path `Enum::Variant` as a value
/// (not a `=>`-guarded pattern), outside test code.
fn has_unit_emission(ws: &Workspace, enum_name: &str, variant: &str, skip_rel: &str) -> bool {
    for file in &ws.files {
        if file.rel == skip_rel {
            continue;
        }
        let toks = &file.toks;
        for (i, tok) in toks.iter().enumerate() {
            if !tok.is_ident(enum_name) || file.masked(tok.line) {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident(variant)))
            {
                continue;
            }
            // A pattern position is followed by `=>` (or `|` chaining
            // to another pattern); anything else is an expression.
            match toks.get(i + 3) {
                Some(t) if t.is_punct("=>") || t.is_punct("|") => continue,
                _ => return true,
            }
        }
    }
    false
}

fn file_has_ident(file: &FileModel, name: &str) -> bool {
    file.toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == name)
}

fn file_has_str(file: &FileModel, content: &str) -> bool {
    file.toks
        .iter()
        .any(|t| t.kind == TokKind::Str && t.text == content)
}

/// The decision-name vocabulary: string literals returned by
/// `SimEvent::metric_fields`, the one name table both the trace and the
/// metrics encodings read, filtered to snake_case words.
fn decision_names(file: &FileModel) -> Vec<(usize, String)> {
    let mut names = Vec::new();
    for f in &file.items.fns {
        if f.name != "metric_fields" {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        for tok in file.toks.get(open..=close).unwrap_or(&[]) {
            if tok.kind != TokKind::Str {
                continue;
            }
            let is_name = !tok.text.is_empty()
                && tok
                    .text
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if is_name {
                names.push((tok.line, tok.text.clone()));
            }
        }
    }
    names
}

/// The metric-name vocabulary: `pub const NAME: &str = "name";`
/// declarations in `crates/metrics/src/names.rs`, token-matched so the
/// registry table (`ALL`, whose entries are tuples, not bare string
/// consts) is not swept in.
fn metric_name_consts(file: &FileModel) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    for w in file.toks.windows(8) {
        let [kw, ident, colon, amp, ty, eq, lit, semi] = w else {
            continue;
        };
        let shape = kw.kind == TokKind::Ident
            && kw.text == "const"
            && ident.kind == TokKind::Ident
            && colon.text == ":"
            && amp.text == "&"
            && ty.text == "str"
            && eq.text == "="
            && lit.kind == TokKind::Str
            && semi.text == ";";
        if shape && !file.masked(kw.line) {
            out.push((ident.line, ident.text.clone(), lit.text.clone()));
        }
    }
    out
}

/// T — telemetry-vocabulary sync: every `SimEvent` variant has an emit
/// site outside its defining file, every decision name and
/// `MessageStatus` is covered by the golden-schema fixture, the
/// `TraceBody`/`MessageStatus` enums are fully handled by the trace
/// summary and the validate schema, and the metric-name vocabulary
/// stays closed (snake_case, in the registry table, in the golden
/// metrics fixture, and actually emitted).
pub fn check_telemetry(ws: &Workspace, out: &mut Vec<Finding>) {
    let schema = ws
        .resources
        .iter()
        .find(|(path, _)| path.ends_with("golden_schema.jsonl"));
    let summary = ws.file("crates/telemetry/src/summary.rs");
    let jsonl = ws.file("crates/telemetry/src/jsonl.rs");

    if let Some((evfile, ev)) = ws.find_enum("SimEvent") {
        for v in &ev.variants {
            if !has_struct_construction(ws, "SimEvent", &v.name, &evfile.rel) {
                push(
                    out,
                    &evfile.rel,
                    v.line,
                    Rule::TelemetryVocab,
                    format!(
                        "SimEvent::{} has no emit site; every event variant must be \
                         constructed by at least one substrate",
                        v.name
                    ),
                );
            }
        }
        match schema {
            None => push(
                out,
                &evfile.rel,
                ev.line,
                Rule::TelemetryVocab,
                "telemetry vocabulary has no golden-schema fixture \
                 (tests/data/golden_schema.jsonl)"
                    .to_string(),
            ),
            Some((_, text)) => {
                for (line, name) in decision_names(evfile) {
                    if !text.contains(&format!("\"{name}\"")) {
                        push(
                            out,
                            &evfile.rel,
                            line,
                            Rule::TelemetryVocab,
                            format!(
                                "decision name \"{name}\" is not covered by the \
                                 golden-schema fixture"
                            ),
                        );
                    }
                }
            }
        }
    }

    if let Some((tbfile, tb)) = ws.find_enum("TraceBody") {
        for v in &tb.variants {
            if let Some(s) = summary {
                if !file_has_ident(s, &v.name) {
                    push(
                        out,
                        &tbfile.rel,
                        v.line,
                        Rule::TelemetryVocab,
                        format!("TraceBody::{} is not handled by the trace summary", v.name),
                    );
                }
            }
            if let Some(j) = jsonl {
                if !(file_has_str(j, &v.name) || file_has_ident(j, &v.name)) {
                    push(
                        out,
                        &tbfile.rel,
                        v.line,
                        Rule::TelemetryVocab,
                        format!(
                            "TraceBody::{} is not admitted by the validate schema",
                            v.name
                        ),
                    );
                }
            }
        }
    }

    if let Some((msfile, ms)) = ws.find_enum("MessageStatus") {
        for v in &ms.variants {
            if !has_unit_emission(ws, "MessageStatus", &v.name, &msfile.rel) {
                push(
                    out,
                    &msfile.rel,
                    v.line,
                    Rule::TelemetryVocab,
                    format!(
                        "MessageStatus::{} has no emit site outside its declaration",
                        v.name
                    ),
                );
            }
            if let Some(s) = summary {
                if !file_has_ident(s, &v.name) {
                    push(
                        out,
                        &msfile.rel,
                        v.line,
                        Rule::TelemetryVocab,
                        format!(
                            "MessageStatus::{} is not counted by the trace summary",
                            v.name
                        ),
                    );
                }
            }
            if let Some(j) = jsonl {
                if !(file_has_str(j, &v.name) || file_has_ident(j, &v.name)) {
                    push(
                        out,
                        &msfile.rel,
                        v.line,
                        Rule::TelemetryVocab,
                        format!(
                            "MessageStatus::{} is not admitted by the validate schema",
                            v.name
                        ),
                    );
                }
            }
            if let Some((_, text)) = schema {
                if !text.contains(&format!("\"{}\"", v.name)) {
                    push(
                        out,
                        &msfile.rel,
                        v.line,
                        Rule::TelemetryVocab,
                        format!(
                            "MessageStatus::{} is not covered by the golden-schema fixture",
                            v.name
                        ),
                    );
                }
            }
        }
    }

    let metrics_fixture = ws
        .resources
        .iter()
        .find(|(path, _)| path.ends_with("golden_metrics.jsonl"));
    if let Some(names) = ws.file("crates/metrics/src/names.rs") {
        let consts = metric_name_consts(names);
        if !consts.is_empty() && metrics_fixture.is_none() {
            push(
                out,
                &names.rel,
                1,
                Rule::TelemetryVocab,
                "metric vocabulary has no golden metrics fixture \
                 (tests/data/golden_metrics.jsonl)"
                    .to_string(),
            );
        }
        for (line, ident, name) in &consts {
            let well_formed = name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if !well_formed {
                push(
                    out,
                    &names.rel,
                    *line,
                    Rule::TelemetryVocab,
                    format!("metric name \"{name}\" is not snake_case"),
                );
            }
            // The declaration is one use; the registry table entry in
            // `ALL` is the second. A const never mentioned again is
            // declared but unregistered.
            let decl_file_uses = names
                .toks
                .iter()
                .filter(|t| t.kind == TokKind::Ident && t.text == *ident && !names.masked(t.line))
                .count();
            if decl_file_uses < 2 {
                push(
                    out,
                    &names.rel,
                    *line,
                    Rule::TelemetryVocab,
                    format!("metric `{ident}` is not enumerated in the registry table `ALL`"),
                );
            }
            if let Some((_, text)) = metrics_fixture {
                if !text.contains(&format!("\"{name}\"")) {
                    push(
                        out,
                        &names.rel,
                        *line,
                        Rule::TelemetryVocab,
                        format!("metric \"{name}\" is not covered by the golden metrics fixture"),
                    );
                }
            }
            // Emit site: some other first-party file references the
            // const, or emits the name literally (event counters reuse
            // the decision-name literals of `metric_fields`).
            let emitted = ws.files.iter().any(|f| {
                f.rel != names.rel
                    && f.toks.iter().any(|t| {
                        !f.masked(t.line)
                            && ((t.kind == TokKind::Ident && t.text == *ident)
                                || (t.kind == TokKind::Str && t.text == *name))
                    })
            });
            if !emitted {
                push(
                    out,
                    &names.rel,
                    *line,
                    Rule::TelemetryVocab,
                    format!("metric \"{name}\" has no emit site outside its declaration"),
                );
            }
        }
    }
}
