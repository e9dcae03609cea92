//! The workspace symbol graph: the **index pass** shared by every
//! workspace-aware lint.
//!
//! One linear walk over each file's token stream records the symbols
//! cross-file lints need without re-deriving them per lint:
//!
//! * **functions** — name, parameter names with an integer-typed flag
//!   (wire lengths travel as `usize`/`u32`/…), the token ranges of the
//!   parameter list and body;
//! * **call edges** — every `callee(…)` / `.callee(…)` site inside a
//!   function body with per-argument token ranges, so taint can flow one
//!   level through calls and lock lints can see what runs under a guard.
//!
//! The graph is deliberately token-shaped, not an AST: it inherits the
//! lexer's robustness (comments, strings, nesting) and stays O(tokens).
//! Resolution is by name + arity — good enough for a workspace that
//! avoids overloaded helper names, and lints treat ambiguous matches as
//! "unknown" rather than guessing.

use crate::lexer::{TokKind, Token};
use crate::source::{matching, SourceFile};
use crate::Workspace;
use std::ops::Range;

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (pattern parameters record the last identifier).
    pub name: String,
    /// True when the declared type mentions an integer type — the
    /// shapes wire lengths travel in.
    pub is_int: bool,
}

/// One `fn` definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// True when the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Parameters, excluding any `self` receiver.
    pub params: Vec<Param>,
    /// Token range between the parameter parens (exclusive).
    pub params_range: Range<usize>,
    /// Token range between the body braces (exclusive).
    pub body: Range<usize>,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Index into [`SymbolGraph::fns`] of the enclosing function.
    pub caller: usize,
    /// Callee name (the last path segment: `frame::read_varint(…)`
    /// records `read_varint`).
    pub callee: String,
    /// Line of the callee token.
    pub line: u32,
    /// Token index of the callee identifier.
    pub token: usize,
    /// True for `.callee(…)` method syntax.
    pub is_method: bool,
    /// Token range of each comma-separated argument.
    pub args: Vec<Range<usize>>,
}

/// The index-pass output: every symbol and call edge in the workspace.
#[derive(Default)]
pub struct SymbolGraph {
    /// Function definitions across all files.
    pub fns: Vec<FnDef>,
    /// Call sites, grouped implicitly by `caller`.
    pub calls: Vec<CallSite>,
}

impl SymbolGraph {
    /// Runs the index pass over every file of the workspace.
    pub fn build(ws: &Workspace) -> Self {
        let mut g = SymbolGraph::default();
        for (idx, f) in ws.files.iter().enumerate() {
            index_file(idx, f, &mut g);
        }
        g
    }

    /// Resolves a call to its unique definition by name + arity (+
    /// receiver shape). Returns `None` when zero or several definitions
    /// match — ambiguity is treated as unknown, never guessed.
    pub fn resolve(&self, call: &CallSite) -> Option<usize> {
        let mut hit = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.name != call.callee
                || f.params.len() != call.args.len()
                || f.has_self != call.is_method
            {
                continue;
            }
            if hit.is_some() {
                return None; // ambiguous
            }
            hit = Some(i);
        }
        hit
    }
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "as", "in", "move", "else", "Some",
    "Ok", "Err", "None",
];

fn index_file(file: usize, f: &SourceFile, g: &mut SymbolGraph) {
    let t = &f.tokens;
    let mut i = 0usize;
    while i < t.len() {
        if !(t[i].is_ident("fn")
            && t.get(i + 1)
                .map(|x| x.kind == TokKind::Ident)
                .unwrap_or(false))
        {
            i += 1;
            continue;
        }
        // Locate the parameter list and body braces (same walk the
        // per-file lints use).
        let mut j = i + 2;
        while j < t.len() && !t[j].is_punct('(') && !t[j].is_punct('{') && !t[j].is_punct(';') {
            j += 1;
        }
        if j >= t.len() || !t[j].is_punct('(') {
            i = j + 1;
            continue;
        }
        let pclose = matching(t, j);
        let mut k = pclose + 1;
        while k < t.len() && !t[k].is_punct('{') && !t[k].is_punct(';') {
            k += 1;
        }
        if k >= t.len() || !t[k].is_punct('{') {
            i = k + 1;
            continue;
        }
        let bclose = matching(t, k);
        let (has_self, params) = parse_params(&t[j + 1..pclose]);
        let fn_idx = g.fns.len();
        g.fns.push(FnDef {
            file,
            name: t[i + 1].text.clone(),
            line: t[i].line,
            has_self,
            params,
            params_range: j + 1..pclose,
            body: k + 1..bclose,
        });
        collect_calls(file, fn_idx, t, k + 1..bclose, &mut g.calls);
        i = bclose.max(k) + 1;
    }
}

/// Integer parameter types (the shapes wire lengths travel in).
const INT_TYPES: &[&str] = &["usize", "u8", "u16", "u32", "u64", "i32", "i64"];

/// Splits a parameter list into (has_self, params).
fn parse_params(params: &[Token]) -> (bool, Vec<Param>) {
    let mut depth = 0i32;
    let mut seg_start = 0usize;
    let mut segs: Vec<&[Token]> = Vec::new();
    for (i, t) in params.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            segs.push(&params[seg_start..i]);
            seg_start = i + 1;
        }
    }
    segs.push(&params[seg_start..]);
    let has_self = segs
        .first()
        .map(|s| s.iter().any(|t| t.is_ident("self")))
        .unwrap_or(false);
    let mut out = Vec::new();
    for seg in segs.iter().skip(usize::from(has_self)) {
        let Some(colon) = seg.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        let name = seg[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"));
        let Some(name) = name else { continue };
        let is_int = seg[colon + 1..]
            .iter()
            .any(|t| INT_TYPES.iter().any(|n| t.is_ident(n)));
        out.push(Param {
            name: name.text.clone(),
            is_int,
        });
    }
    (has_self, out)
}

/// Records every call site inside `body`.
fn collect_calls(
    file: usize,
    caller: usize,
    t: &[Token],
    body: Range<usize>,
    out: &mut Vec<CallSite>,
) {
    let mut j = body.start;
    while j < body.end {
        let tok = &t[j];
        let is_call = tok.kind == TokKind::Ident
            && !NON_CALLEES.contains(&tok.text.as_str())
            && t.get(j + 1).map(|x| x.is_punct('(')).unwrap_or(false)
            && !(j > 0 && t[j - 1].is_ident("fn"));
        if !is_call {
            j += 1;
            continue;
        }
        let open = j + 1;
        let close = matching(t, open);
        let mut args = Vec::new();
        if close > open + 1 {
            let mut depth = 0i32;
            let mut start = open + 1;
            for (m, a) in t
                .iter()
                .enumerate()
                .take(close.min(body.end))
                .skip(open + 1)
            {
                if a.is_punct('(') || a.is_punct('[') || a.is_punct('{') {
                    depth += 1;
                } else if a.is_punct(')') || a.is_punct(']') || a.is_punct('}') {
                    depth -= 1;
                } else if a.is_punct(',') && depth == 0 {
                    args.push(start..m);
                    start = m + 1;
                }
            }
            args.push(start..close.min(body.end));
        }
        out.push(CallSite {
            file,
            caller,
            callee: tok.text.clone(),
            line: tok.line,
            token: j,
            is_method: j > 0 && t[j - 1].is_punct('.'),
            args,
        });
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::workspace;

    #[test]
    fn indexes_fns_with_params_and_calls() {
        let ws = workspace(
            "crates/serve/src/protocol.rs",
            "impl Reply {\n    pub fn decode(op: Op, n: usize) -> u8 {\n        helper(n, 2)\n    }\n}\nfn helper(len: usize, k: u32) -> u8 { 0 }\n",
        );
        let g = SymbolGraph::build(&ws);
        assert_eq!(g.fns.len(), 2);
        let dec = &g.fns[0];
        assert_eq!(dec.name, "decode");
        assert!(!dec.has_self);
        assert_eq!(dec.params.len(), 2);
        assert!(!dec.params[0].is_int);
        assert!(dec.params[1].is_int);
        let call = g.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(call.caller, 0);
        assert_eq!(call.args.len(), 2);
        assert_eq!(g.resolve(call), Some(1));
    }

    #[test]
    fn self_receiver_is_a_flag_not_a_param() {
        let ws = workspace(
            "crates/serve/src/lib.rs",
            "impl Lint for PanicPath {\n    fn name(&self) -> &'static str { \"x\" }\n}\n",
        );
        let g = SymbolGraph::build(&ws);
        assert!(g.fns[0].has_self);
        assert!(g.fns[0].params.is_empty());
    }

    #[test]
    fn ambiguous_resolution_returns_none() {
        let ws = workspace(
            "crates/serve/src/lib.rs",
            "fn twin(a: usize) {}\nmod b { fn twin(a: usize) {} }\nfn caller() { twin(1); }\n",
        );
        let g = SymbolGraph::build(&ws);
        let call = g.calls.iter().find(|c| c.callee == "twin").unwrap();
        assert_eq!(g.resolve(call), None);
    }
}
