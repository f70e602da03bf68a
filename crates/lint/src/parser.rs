//! Item-level parser: token stream → source skeleton.
//!
//! The rules do not need full Rust semantics — they need to know what
//! a file *imports* (`use` trees, expanded), what it *declares*
//! (`fn` signatures with their fallibility, `enum` variants, `mod`s),
//! and enough statement shape to see `let _ = …;` discards and
//! `match` arms. Everything here is a linear scan over the token
//! stream with explicit depth tracking; spans (line numbers) ride
//! along on every node. Malformed input degrades to fewer items,
//! never a panic.

use crate::lexer::{Tok, TokKind};

/// One fully-expanded `use` path: `use a::{b, c::d};` yields two
/// decls, `a::b` and `a::c::d`. Glob imports keep their `*` leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// 1-indexed line of the `use` keyword.
    pub line: usize,
    /// `::`-joined path segments, aliases dropped.
    pub path: String,
}

impl UseDecl {
    /// First path segment (`super`, `crate`, `std`, `autobal_id`, …).
    pub fn root(&self) -> &str {
        self.path.split("::").next().unwrap_or("")
    }
}

/// One `fn` item (free function, inherent or trait method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDecl {
    pub name: String,
    pub line: usize,
    /// The declared return type mentions `Result`.
    pub returns_result: bool,
    /// Token-index range of the body block, `(open_brace, close_brace)`
    /// inclusive; `None` for bodyless trait methods.
    pub body: Option<(usize, usize)>,
}

/// One variant of an `enum` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    pub name: String,
    pub line: usize,
}

/// One `enum` item with its variant list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDecl {
    pub name: String,
    pub line: usize,
    pub variants: Vec<Variant>,
}

/// One `mod` declaration (inline or out-of-line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModDecl {
    pub name: String,
    pub line: usize,
    pub inline: bool,
}

/// The parsed skeleton of one file.
#[derive(Debug, Clone, Default)]
pub struct Items {
    pub uses: Vec<UseDecl>,
    pub fns: Vec<FnDecl>,
    pub enums: Vec<EnumDecl>,
    pub mods: Vec<ModDecl>,
}

/// Finds the token index of the brace/paren/bracket matching the
/// opener at `open`. Returns `None` when unbalanced.
pub fn matching(toks: &[Tok], open: usize) -> Option<usize> {
    let (open_text, close_text) = match toks.get(open)?.text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (off, tok) in toks.iter().enumerate().skip(open) {
        if tok.kind != TokKind::Punct {
            continue;
        }
        if tok.text == open_text {
            depth += 1;
        } else if tok.text == close_text {
            depth -= 1;
            if depth == 0 {
                return Some(off);
            }
        }
    }
    None
}

/// Parses the item skeleton out of a token stream.
pub fn parse_items(toks: &[Tok]) -> Items {
    let mut items = Items::default();
    let mut i = 0usize;
    while let Some(tok) = toks.get(i) {
        if tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match tok.text.as_str() {
            "use" => i = parse_use(toks, i, &mut items),
            "fn" => i = parse_fn(toks, i, &mut items),
            "enum" => i = parse_enum(toks, i, &mut items),
            "mod" => i = parse_mod(toks, i, &mut items),
            _ => i += 1,
        }
    }
    items
}

/// Parses `use …;` starting at the `use` keyword index; returns the
/// index just past the terminating `;`.
fn parse_use(toks: &[Tok], use_idx: usize, items: &mut Items) -> usize {
    let line = toks.get(use_idx).map(|t| t.line).unwrap_or(1);
    // Collect tokens to the `;` (tree braces included).
    let mut end = use_idx + 1;
    let mut depth = 0i64;
    while let Some(tok) = toks.get(end) {
        match tok.text.as_str() {
            "{" if tok.kind == TokKind::Punct => depth += 1,
            "}" if tok.kind == TokKind::Punct => depth -= 1,
            ";" if tok.kind == TokKind::Punct && depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    let body = toks.get(use_idx + 1..end).unwrap_or(&[]);
    expand_use_tree(body, &[], line, &mut items.uses);
    end + 1
}

/// Recursively expands a use-tree token slice into flat paths.
/// `prefix` holds the segments accumulated so far.
fn expand_use_tree(toks: &[Tok], prefix: &[String], line: usize, out: &mut Vec<UseDecl>) {
    // Split the slice at top-level commas; each piece is one subtree.
    let mut depth = 0i64;
    let mut start = 0usize;
    let mut pieces: Vec<&[Tok]> = Vec::new();
    for (idx, tok) in toks.iter().enumerate() {
        match tok.text.as_str() {
            "{" if tok.kind == TokKind::Punct => depth += 1,
            "}" if tok.kind == TokKind::Punct => depth -= 1,
            "," if tok.kind == TokKind::Punct && depth == 0 => {
                if let Some(p) = toks.get(start..idx) {
                    pieces.push(p);
                }
                start = idx + 1;
            }
            _ => {}
        }
    }
    if let Some(p) = toks.get(start..) {
        pieces.push(p);
    }
    for piece in pieces {
        expand_use_piece(piece, prefix, line, out);
    }
}

fn expand_use_piece(piece: &[Tok], prefix: &[String], line: usize, out: &mut Vec<UseDecl>) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut j = 0usize;
    while let Some(tok) = piece.get(j) {
        match tok.kind {
            TokKind::Ident if tok.text == "as" => {
                // Alias: the remaining tokens rename the import; the
                // path itself is complete.
                break;
            }
            TokKind::Ident => {
                segs.push(tok.text.clone());
                j += 1;
            }
            TokKind::Punct if tok.text == "::" => {
                j += 1;
            }
            TokKind::Punct if tok.text == "*" => {
                segs.push("*".to_string());
                j += 1;
            }
            TokKind::Punct if tok.text == "{" => {
                let inner_line = tok.line;
                let end = matching(piece, j).unwrap_or(piece.len());
                let inner = piece.get(j + 1..end).unwrap_or(&[]);
                expand_use_tree(inner, &segs, inner_line, out);
                return;
            }
            _ => {
                j += 1;
            }
        }
    }
    if segs.len() > prefix.len() {
        out.push(UseDecl {
            line,
            path: segs.join("::"),
        });
    }
}

/// Parses a `fn` item starting at the `fn` keyword; returns the index
/// to continue from (just past the signature — the body is scanned by
/// the main loop too, so nested `fn`s and `use`s inside bodies are
/// still collected).
fn parse_fn(toks: &[Tok], fn_idx: usize, items: &mut Items) -> usize {
    let Some(name_tok) = toks.get(fn_idx + 1) else {
        return fn_idx + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return fn_idx + 1;
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    // Skip generics between name and the parameter list.
    let mut j = fn_idx + 2;
    let mut angle = 0i64;
    while let Some(tok) = toks.get(j) {
        match tok.text.as_str() {
            "<" if tok.kind == TokKind::Punct => angle += 1,
            ">" if tok.kind == TokKind::Punct => angle -= 1,
            "(" if tok.kind == TokKind::Punct && angle <= 0 => break,
            "{" | ";" if tok.kind == TokKind::Punct => return fn_idx + 1,
            _ => {}
        }
        j += 1;
    }
    let params_end = matching(toks, j).unwrap_or(j);
    // Return type: tokens between `)` and the body `{` / `;` / `where`.
    let mut returns_result = false;
    let mut k = params_end + 1;
    let mut saw_arrow = false;
    while let Some(tok) = toks.get(k) {
        match tok.text.as_str() {
            "->" if tok.kind == TokKind::Punct => saw_arrow = true,
            "{" | ";" if tok.kind == TokKind::Punct => break,
            "where" if tok.kind == TokKind::Ident => break,
            "Result" if tok.kind == TokKind::Ident && saw_arrow => returns_result = true,
            _ => {}
        }
        k += 1;
    }
    // Find the body block (skip a `where` clause if present).
    let mut body = None;
    let mut b = k;
    while let Some(tok) = toks.get(b) {
        if tok.is_punct(";") {
            break;
        }
        if tok.is_punct("{") {
            let close = matching(toks, b).unwrap_or(b);
            body = Some((b, close));
            break;
        }
        b += 1;
    }
    items.fns.push(FnDecl {
        name,
        line,
        returns_result,
        body,
    });
    // Continue from just past the parameter list so body items are
    // still visited by the main loop.
    params_end + 1
}

fn parse_enum(toks: &[Tok], enum_idx: usize, items: &mut Items) -> usize {
    let Some(name_tok) = toks.get(enum_idx + 1) else {
        return enum_idx + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return enum_idx + 1;
    }
    // Find the opening brace (skipping generics / where clauses).
    let mut j = enum_idx + 2;
    while let Some(tok) = toks.get(j) {
        if tok.is_punct("{") {
            break;
        }
        if tok.is_punct(";") {
            return j + 1;
        }
        j += 1;
    }
    let Some(close) = matching(toks, j) else {
        return j + 1;
    };
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        // Skip attributes on the variant.
        while toks.get(k).is_some_and(|t| t.is_punct("#")) {
            if toks.get(k + 1).is_some_and(|t| t.is_punct("[")) {
                k = matching(toks, k + 1).map(|e| e + 1).unwrap_or(k + 2);
            } else {
                k += 1;
            }
        }
        let Some(tok) = toks.get(k) else { break };
        if k >= close {
            break;
        }
        if tok.kind == TokKind::Ident {
            variants.push(Variant {
                name: tok.text.clone(),
                line: tok.line,
            });
            k += 1;
            // Skip the payload / discriminant to the next top-level
            // comma inside the enum body.
            while let Some(t) = toks.get(k) {
                if k >= close {
                    break;
                }
                match t.text.as_str() {
                    "(" | "{" | "[" if t.kind == TokKind::Punct => {
                        k = matching(toks, k).map(|e| e + 1).unwrap_or(k + 1);
                    }
                    "," if t.kind == TokKind::Punct => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
        } else {
            k += 1;
        }
    }
    items.enums.push(EnumDecl {
        name: name_tok.text.clone(),
        line: name_tok.line,
        variants,
    });
    close + 1
}

fn parse_mod(toks: &[Tok], mod_idx: usize, items: &mut Items) -> usize {
    let Some(name_tok) = toks.get(mod_idx + 1) else {
        return mod_idx + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return mod_idx + 1;
    }
    let inline = toks.get(mod_idx + 2).is_some_and(|t| t.is_punct("{"));
    items.mods.push(ModDecl {
        name: name_tok.text.clone(),
        line: name_tok.line,
        inline,
    });
    // Descend into inline mods (the main loop keeps scanning), skip
    // only the declaration tokens themselves.
    mod_idx + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn paths(src: &str) -> Vec<String> {
        parse_items(&lex(src))
            .uses
            .into_iter()
            .map(|u| u.path)
            .collect()
    }

    #[test]
    fn use_trees_expand() {
        assert_eq!(paths("use a::b;"), vec!["a::b"]);
        assert_eq!(
            paths("use a::{b, c::d, e::{f, g}};"),
            vec!["a::b", "a::c::d", "a::e::f", "a::e::g"]
        );
        assert_eq!(paths("use a::b as c;"), vec!["a::b"]);
        assert_eq!(paths("use a::*;"), vec!["a::*"]);
        assert_eq!(paths("use super::{Actions, LocalView};").len(), 2);
    }

    #[test]
    fn use_roots() {
        let items = parse_items(&lex("use autobal_id::{ring, Id};"));
        let roots: Vec<&str> = items.uses.iter().map(|u| u.root()).collect();
        assert_eq!(roots, vec!["autobal_id", "autobal_id"]);
    }

    #[test]
    fn fns_record_fallibility_and_bodies() {
        let src = "fn a() -> Result<u64, Error> { 1 }\n\
                   fn b(x: u64) -> u64 { x }\n\
                   fn c<T: Into<Result<u8, ()>>>(t: T);";
        let items = parse_items(&lex(src));
        assert_eq!(items.fns.len(), 3);
        let a = &items.fns[0];
        assert!(a.returns_result && a.body.is_some());
        let b = &items.fns[1];
        assert!(!b.returns_result);
        // Generic bounds are not return types.
        let c = &items.fns[2];
        assert!(!c.returns_result && c.body.is_none());
    }

    #[test]
    fn enums_record_variants() {
        let src = "pub enum ActionError {\n    Occupied,\n    #[serde(rename = \"x\")]\n    Unreachable,\n    TimedOut { attempts: u32 },\n    Coded(u8) = 3,\n}";
        let items = parse_items(&lex(src));
        assert_eq!(items.enums.len(), 1);
        let names: Vec<&str> = items.enums[0]
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(names, vec!["Occupied", "Unreachable", "TimedOut", "Coded"]);
        assert_eq!(items.enums[0].variants[2].line, 5);
    }

    #[test]
    fn uses_inside_fn_bodies_are_seen() {
        let items = parse_items(&lex("fn f() { use std::mem; mem::drop(1); }"));
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.uses.len(), 1);
        assert_eq!(items.uses[0].path, "std::mem");
    }

    #[test]
    fn mods_inline_and_external() {
        let items = parse_items(&lex("mod a { fn x() {} }\nmod b;"));
        assert_eq!(items.mods.len(), 2);
        assert!(items.mods[0].inline);
        assert!(!items.mods[1].inline);
        assert_eq!(items.fns.len(), 1);
    }

    #[test]
    fn malformed_input_degrades() {
        for src in ["use ;", "fn", "enum {", "mod", "use a::{b", "fn f("] {
            let _ = parse_items(&lex(src));
        }
    }
}
