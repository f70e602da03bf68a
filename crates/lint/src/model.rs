//! The workspace model: per-crate module trees plus the cross-crate
//! import graph, built from every scanned file's parsed skeleton.
//!
//! Crate attribution is positional — `crates/<name>/src/…` belongs to
//! `autobal-<name>`, anything under the root `src/` to the umbrella
//! crate `autobal` — so the model needs no Cargo metadata. The pinned
//! layer table ([`LAYERS`]) is the machine-readable form of the crate
//! DAG documented in `DESIGN.md`; rule L checks the *observed* import
//! graph against it and independently proves the observed graph
//! acyclic.

use crate::lexer::{lex, test_mask, Tok, TokKind};
use crate::parser::{parse_items, Items};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Owning crate (`autobal`, `autobal-core`, …), when attributable.
    pub krate: Option<String>,
    pub toks: Vec<Tok>,
    /// `mask[line - 1]` is true for `#[cfg(test)]`-exempt lines.
    pub mask: Vec<bool>,
    pub items: Items,
}

impl FileModel {
    pub fn masked(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|z| self.mask.get(z).copied())
            .unwrap_or(false)
    }
}

/// The whole scanned workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<FileModel>,
    /// Non-Rust inputs (the golden schema fixture), path → text.
    pub resources: BTreeMap<String, String>,
}

/// Maps a workspace-relative path to its owning crate.
pub fn crate_of(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let name = rest.split('/').next()?;
        return Some(format!("autobal-{name}"));
    }
    if rel.starts_with("src/") {
        return Some("autobal".to_string());
    }
    None
}

/// The pinned crate-layer DAG: each first-party crate with the set of
/// first-party crates it may import. An edge here means "may depend
/// on"; the table is itself a DAG (proved by a unit test), and rule L
/// holds every observed import to it — anything else is an upward or
/// sideways import and a finding.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("autobal-id", &[]),
    ("autobal-stats", &["autobal-id"]),
    ("autobal-metrics", &["autobal-stats"]),
    ("autobal-telemetry", &["autobal-metrics"]),
    ("autobal-meminstr", &[]),
    ("autobal-lint", &[]),
    (
        "autobal-chord",
        &["autobal-id", "autobal-telemetry", "autobal-metrics"],
    ),
    ("autobal-viz", &["autobal-id", "autobal-stats"]),
    (
        "autobal-core",
        &[
            "autobal-id",
            "autobal-stats",
            "autobal-telemetry",
            "autobal-metrics",
        ],
    ),
    (
        "autobal-workload",
        &["autobal-id", "autobal-stats", "autobal-core"],
    ),
    (
        "autobal",
        &[
            "autobal-id",
            "autobal-stats",
            "autobal-chord",
            "autobal-core",
            "autobal-workload",
            "autobal-viz",
            "autobal-telemetry",
            "autobal-metrics",
            "autobal-meminstr",
        ],
    ),
    (
        "autobal-experiments",
        &[
            "autobal",
            "autobal-id",
            "autobal-stats",
            "autobal-chord",
            "autobal-core",
            "autobal-workload",
            "autobal-viz",
            "autobal-telemetry",
            "autobal-metrics",
            "autobal-meminstr",
        ],
    ),
];

/// Looks a crate up in the pinned layer table.
pub fn allowed_imports(krate: &str) -> Option<&'static [&'static str]> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == krate)
        .map(|(_, deps)| *deps)
}

/// Converts an extern-crate identifier (`autobal_core`) to the crate
/// name (`autobal-core`). Returns `None` for non-first-party roots.
pub fn ident_to_crate(ident: &str) -> Option<String> {
    if ident == "autobal" {
        return Some("autobal".to_string());
    }
    if let Some(rest) = ident.strip_prefix("autobal_") {
        if !rest.is_empty() {
            return Some(format!("autobal-{}", rest.replace('_', "-")));
        }
    }
    None
}

/// One observed cross-crate import.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ImportEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
}

impl Workspace {
    /// Builds the model from `(path, text)` inputs. Paths ending in
    /// `.rs` are lexed and parsed; anything else becomes a resource.
    pub fn build(inputs: &[(String, String)]) -> Workspace {
        let mut ws = Workspace::default();
        for (rel, text) in inputs {
            if !rel.ends_with(".rs") {
                ws.resources.insert(rel.clone(), text.clone());
                continue;
            }
            let toks = lex(text);
            let mask = test_mask(&toks, text.lines().count());
            let items = parse_items(&toks);
            ws.files.push(FileModel {
                rel: rel.clone(),
                krate: crate_of(rel),
                toks,
                mask,
                items,
            });
        }
        ws
    }

    /// Every cross-crate import the sources exhibit, from both `use`
    /// declarations and fully-qualified `autobal_x::…` paths, test
    /// code excluded, deduplicated per `(file, line, to)`.
    pub fn import_edges(&self) -> Vec<ImportEdge> {
        let mut seen = BTreeSet::new();
        let mut edges = Vec::new();
        for file in &self.files {
            let Some(from) = file.krate.clone() else {
                continue;
            };
            let mut push = |to: String, line: usize| {
                if to == from {
                    return; // self-reference, not an edge
                }
                if seen.insert((file.rel.clone(), line, to.clone())) {
                    edges.push(ImportEdge {
                        from: from.clone(),
                        to,
                        file: file.rel.clone(),
                        line,
                    });
                }
            };
            for u in &file.items.uses {
                if file.masked(u.line) {
                    continue;
                }
                if let Some(to) = ident_to_crate(u.root()) {
                    push(to, u.line);
                }
            }
            // Fully-qualified paths outside `use` items: an ident that
            // maps to a first-party crate followed by `::`.
            let mut it = file.toks.iter().peekable();
            while let Some(tok) = it.next() {
                if tok.kind != TokKind::Ident || file.masked(tok.line) {
                    continue;
                }
                if !it.peek().is_some_and(|n| n.is_punct("::")) {
                    continue;
                }
                if let Some(to) = ident_to_crate(&tok.text) {
                    push(to, tok.line);
                }
            }
        }
        edges
    }

    /// The file defining `enum <name>`, with the declaration, if any.
    /// When several files declare the same enum name (fixtures), the
    /// first in scan order wins.
    pub fn find_enum(&self, name: &str) -> Option<(&FileModel, &crate::parser::EnumDecl)> {
        for file in &self.files {
            for e in &file.items.enums {
                if e.name == name && !file.masked(e.line) {
                    return Some((file, e));
                }
            }
        }
        None
    }

    /// Names of workspace `fn`s whose declared return type mentions
    /// `Result` — the call-site vocabulary rule E treats as fallible.
    pub fn fallible_fns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for file in &self.files {
            for f in &file.items.fns {
                if f.returns_result {
                    out.insert(f.name.clone());
                }
            }
        }
        out
    }

    pub fn file(&self, rel: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Detects a cycle in a crate-dependency graph given as edges
/// `(from, to)`. Returns the crates on the first cycle found, in
/// order, or `None` when the graph is acyclic. Used both on the
/// observed import graph (rule L's belt-and-braces check) and on the
/// pinned table itself (unit test).
pub fn find_cycle(edges: &[(String, String)]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    // Iterative DFS with colors: 0 unseen, 1 on stack, 2 done.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            match color.get(node).copied().unwrap_or(0) {
                0 => {
                    color.insert(node, 1);
                    let mut back = path.clone();
                    back.push(node);
                    // Re-push to mark done after children.
                    stack.push((node, path.clone()));
                    for next in adj.get(node).into_iter().flatten() {
                        if color.get(next).copied().unwrap_or(0) == 1 {
                            // Found a cycle: slice the path from the
                            // first occurrence of `next`.
                            let mut cycle: Vec<String> = back
                                .iter()
                                .skip_while(|n| **n != *next)
                                .map(|n| n.to_string())
                                .collect();
                            cycle.push(next.to_string());
                            return Some(cycle);
                        }
                        if color.get(next).copied().unwrap_or(0) == 0 {
                            stack.push((next, back.clone()));
                        }
                    }
                }
                1 => {
                    color.insert(node, 2);
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        assert_eq!(
            crate_of("crates/core/src/sim.rs"),
            Some("autobal-core".to_string())
        );
        assert_eq!(crate_of("src/protocol_sim.rs"), Some("autobal".to_string()));
        assert_eq!(
            crate_of("src/bin/autobal-cli.rs"),
            Some("autobal".to_string())
        );
        assert_eq!(crate_of("tests/chaos.rs"), None);
    }

    #[test]
    fn ident_mapping() {
        assert_eq!(ident_to_crate("autobal_id"), Some("autobal-id".to_string()));
        assert_eq!(ident_to_crate("autobal"), Some("autobal".to_string()));
        assert_eq!(ident_to_crate("std"), None);
        assert_eq!(ident_to_crate("autobal_"), None);
    }

    #[test]
    fn pinned_table_is_a_dag_and_closed() {
        let mut edges = Vec::new();
        for (from, deps) in LAYERS {
            for to in *deps {
                // Every dependency is itself in the table.
                assert!(
                    allowed_imports(to).is_some(),
                    "{to} missing from the layer table"
                );
                edges.push((from.to_string(), to.to_string()));
            }
        }
        assert_eq!(
            find_cycle(&edges),
            None,
            "the pinned layer table must be a DAG"
        );
    }

    #[test]
    fn cycle_detection_finds_cycles() {
        let edges = vec![
            ("a".to_string(), "b".to_string()),
            ("b".to_string(), "c".to_string()),
            ("c".to_string(), "a".to_string()),
        ];
        let cycle = find_cycle(&edges).expect("cycle exists");
        assert!(cycle.len() >= 3);
        assert_eq!(find_cycle(&edges[..2]), None);
    }

    #[test]
    fn import_edges_come_from_uses_and_paths() {
        let ws = Workspace::build(&[(
            "crates/core/src/x.rs".to_string(),
            "use autobal_id::Id;\nfn f() { autobal_stats::gini(&[]); }\n\
             #[cfg(test)]\nmod tests { use autobal_workload::gen; }\n"
                .to_string(),
        )]);
        let edges = ws.import_edges();
        let tos: Vec<&str> = edges.iter().map(|e| e.to.as_str()).collect();
        assert_eq!(tos, vec!["autobal-id", "autobal-stats"], "test code exempt");
        assert_eq!(edges[0].line, 1);
        assert_eq!(edges[1].line, 2);
    }

    #[test]
    fn fallible_fn_vocabulary() {
        let ws = Workspace::build(&[(
            "crates/chord/src/network.rs".to_string(),
            "pub fn leave(&mut self, id: Id) -> Result<(), NetworkError> { Ok(()) }\n\
             pub fn size(&self) -> usize { 0 }\n"
                .to_string(),
        )]);
        let fallible = ws.fallible_fns();
        assert!(fallible.contains("leave"));
        assert!(!fallible.contains("size"));
    }
}
