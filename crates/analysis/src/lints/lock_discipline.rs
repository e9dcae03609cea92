//! **lock_discipline** — no blocking work under a held lock guard, and
//! no lock-order cycles.
//!
//! Scope: the serving layer (`crates/serve/src/*`, `crates/stream/src/*`)
//! — the code that holds `Mutex`/`RwLock` guards while requests run
//! concurrently under the scheduler. Within each function the lint tracks
//! guard lifetimes: a binding whose initializer chain ends in `.lock()` /
//! argless `.read()` / argless `.write()` (optionally followed by an
//! unwrap-family adapter) is a live guard from its `let` until its block
//! closes or an explicit `drop(guard)`. While any guard is live, the
//! lint flags:
//!
//! * calls into the worker pool or scheduler (`par_map`, `par_reduce`,
//!   `.submit(…)`, which waits for an executor) — a thread holding a
//!   lock while it waits on other threads' work is the classic
//!   self-deadlock;
//! * blocking I/O (`.flush()`, `.write_all(…)`, `.read_exact(…)`,
//!   `write!`/`writeln!`, `.append(…)`, `.read(buf)`/`.write(buf)` with
//!   arguments, …) — I/O latency extends the critical section for every
//!   other thread queued on the lock;
//! * a second lock acquisition (named or statement-temporary) — the
//!   raw ingredient of deadlock.
//!
//! Every `held → acquired` pair is also recorded as a lock-order edge;
//! cycles in the workspace-wide edge graph are reported as potential
//! deadlocks at each participating site. Lock identity is the last
//! receiver field/binding name (`shared.audit.read()` → `audit`),
//! which is deliberately coarse: false sharing of a name across crates
//! would over-approximate, never under-approximate. Test code is exempt.

use crate::lexer::{TokKind, Token};
use crate::source::{matching, SourceFile};
use crate::{Finding, Lint, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Pool/scheduler entry points that block on (or fan out to) workers.
const POOL_CALLS: &[&str] = &["par_map", "par_reduce", "submit"];

/// Method calls that are definitely blocking I/O.
const IO_METHODS: &[&str] = &[
    "flush",
    "write_all",
    "write_fmt",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "sync_all",
    "sync_data",
    "append",
];

/// Macros that write to an `io::Write` target.
const IO_MACROS: &[&str] = &["write", "writeln"];

/// Unwrap-family adapters that keep a guard chain alive.
const UNWRAP_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "unwrap_or_default"];

/// See module docs.
pub struct LockDiscipline;

fn in_scope(f: &SourceFile) -> bool {
    f.rel.starts_with("crates/serve/src/") || f.rel.starts_with("crates/stream/src/")
}

/// A live guard inside one function body.
struct Guard {
    /// Binding name (`session`), when let-bound.
    binding: String,
    /// Lock identity: last receiver segment at the acquisition.
    lock: String,
    /// Brace depth the binding lives at; popped when the block closes.
    depth: i32,
    /// Acquisition line, for messages.
    line: u32,
}

/// One `held → acquired` lock-order edge.
struct Edge {
    held: String,
    acquired: String,
    file: String,
    line: u32,
}

impl Lint for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock_discipline"
    }

    fn description(&self) -> &'static str {
        "no pool calls, blocking I/O or second locks under a held guard; no lock-order cycles"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let mut edges: Vec<Edge> = Vec::new();
        for f in ws.files.iter().filter(|f| in_scope(f)) {
            for body in fn_bodies(&f.tokens) {
                check_body(self.name(), f, body, &mut edges, out);
            }
        }
        report_cycles(self.name(), &edges, out);
    }
}

/// Token ranges (between the braces) of every `fn` body, in file order.
/// A fn nested in a body is part of that body; a bodiless declaration
/// (`fn f(&self);`) is skipped.
fn fn_bodies(t: &[Token]) -> Vec<Range<usize>> {
    let mut bodies = Vec::new();
    let mut i = 0;
    while i + 1 < t.len() {
        if !(t[i].is_ident("fn") && t[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let stop = |from: usize, at: &[char]| {
            (from..t.len())
                .find(|&j| at.iter().any(|&c| t[j].is_punct(c)))
                .unwrap_or(t.len())
        };
        let params = stop(i + 2, &['(', '{', ';']);
        if params >= t.len() || !t[params].is_punct('(') {
            i = params + 1;
            continue;
        }
        let open = stop(matching(t, params) + 1, &['{', ';']);
        if open >= t.len() || !t[open].is_punct('{') {
            i = open + 1;
            continue;
        }
        let close = matching(t, open);
        bodies.push(open + 1..close);
        i = close + 1;
    }
    bodies
}

fn check_body(
    lint: &'static str,
    f: &SourceFile,
    body: Range<usize>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Finding>,
) {
    let t = &f.tokens;
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    let mut j = body.start;
    while j < body.end {
        let tok = &t[j];
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if tok.is_ident("drop")
            && t.get(j + 1).map(|x| x.is_punct('(')).unwrap_or(false)
            && t.get(j + 3).map(|x| x.is_punct(')')).unwrap_or(false)
        {
            if let Some(name) = t.get(j + 2).filter(|x| x.kind == TokKind::Ident) {
                guards.retain(|g| g.binding != name.text);
            }
        } else if let Some(acq) = acquisition(t, j) {
            if !f.in_test_code(tok.line) {
                for held in &guards {
                    out.push(Finding {
                        lint,
                        file: f.rel.clone(),
                        line: tok.line,
                        message: format!(
                            "acquires lock `{}` while already holding guard `{}` on `{}` \
                             (line {}); narrow the first guard's scope or drop it before \
                             the second acquisition",
                            acq.lock, held.binding, held.lock, held.line
                        ),
                    });
                    edges.push(Edge {
                        held: held.lock.clone(),
                        acquired: acq.lock.clone(),
                        file: f.rel.clone(),
                        line: tok.line,
                    });
                }
            }
            if let Some(binding) = acq.binding {
                guards.push(Guard {
                    binding,
                    lock: acq.lock,
                    depth,
                    line: tok.line,
                });
            }
            j = acq.resume;
            continue;
        } else if !guards.is_empty() && !f.in_test_code(tok.line) {
            if let Some(what) = blocking_site(t, j) {
                let held = guards.last().expect("non-empty");
                out.push(Finding {
                    lint,
                    file: f.rel.clone(),
                    line: tok.line,
                    message: format!(
                        "{what} while guard `{}` holds lock `{}` (line {}); \
                         drop the guard before blocking work",
                        held.binding, held.lock, held.line
                    ),
                });
            }
        }
        j += 1;
    }
}

/// A detected lock acquisition at token `j`.
struct Acquisition {
    /// Lock identity (receiver's last segment).
    lock: String,
    /// Binding name when the acquisition is let-bound into a live guard
    /// (chain ends at the unwrap-family adapter); `None` for
    /// statement-temporaries released at the `;`.
    binding: Option<String>,
    /// Token index to resume scanning at (past the call parens).
    resume: usize,
}

/// Detects `recv.lock()` / `recv.read()` / `recv.write()` (argless) at
/// token `j` and classifies whether it creates a live guard.
fn acquisition(t: &[Token], j: usize) -> Option<Acquisition> {
    let method = &t[j];
    if !(method.is_ident("lock") || method.is_ident("read") || method.is_ident("write")) {
        return None;
    }
    if j == 0 || !t[j - 1].is_punct('.') {
        return None;
    }
    if !t.get(j + 1).map(|x| x.is_punct('(')).unwrap_or(false)
        || !t.get(j + 2).map(|x| x.is_punct(')')).unwrap_or(false)
    {
        return None; // `.read(buf)` with args is I/O, not an acquisition
    }
    // Lock identity: the identifier immediately before the method's dot
    // (`audit_shared.audit.read()` → `audit`).
    let lock = match t.get(j.wrapping_sub(2)) {
        Some(x) if x.kind == TokKind::Ident => x.text.clone(),
        _ => "<expr>".to_owned(),
    };
    // Walk the receiver chain back to its first segment, then look for
    // `let [mut] name =` directly before it.
    let mut m = j; // first ident of the chain
    while m >= 2 && t[m - 1].is_punct('.') && t[m - 2].kind == TokKind::Ident {
        m -= 2;
    }
    let let_bound = m >= 2 && t[m - 1].is_punct('=') && t[m - 2].kind == TokKind::Ident && {
        let b = m - 2;
        (b >= 1 && t[b - 1].is_ident("let"))
            || (b >= 2 && t[b - 1].is_ident("mut") && t[b - 2].is_ident("let"))
    };
    // Walk the chain forward past unwrap-family adapters; the guard is
    // live only when the chain ends there (a further `.clone()` etc.
    // means the guard was a statement-temporary).
    let mut k = j + 3;
    while t.get(k).map(|x| x.is_punct('.')).unwrap_or(false)
        && t.get(k + 1)
            .map(|x| UNWRAP_ADAPTERS.contains(&x.text.as_str()))
            .unwrap_or(false)
        && t.get(k + 2).map(|x| x.is_punct('(')).unwrap_or(false)
    {
        k = matching(t, k + 2) + 1;
    }
    let chain_ends = t
        .get(k)
        .map(|x| x.is_punct(';') || x.is_punct('?'))
        .unwrap_or(true);
    let binding = if let_bound && chain_ends {
        Some(t[m - 2].text.clone())
    } else {
        None
    };
    Some(Acquisition {
        lock,
        binding,
        resume: j + 3,
    })
}

/// Classifies token `j` as blocking work; returns a description.
fn blocking_site(t: &[Token], j: usize) -> Option<String> {
    let tok = &t[j];
    if tok.kind != TokKind::Ident {
        return None;
    }
    let next_paren = t.get(j + 1).map(|x| x.is_punct('(')).unwrap_or(false);
    let is_method = j > 0 && t[j - 1].is_punct('.');
    if POOL_CALLS.contains(&tok.text.as_str()) && next_paren {
        return Some(format!(
            "calls into the worker pool/scheduler (`{}`)",
            tok.text
        ));
    }
    if is_method && next_paren && IO_METHODS.contains(&tok.text.as_str()) {
        return Some(format!("blocking I/O `.{}(…)`", tok.text));
    }
    // `.read(buf)` / `.write(buf)` with a non-empty argument list.
    if is_method
        && next_paren
        && (tok.is_ident("read") || tok.is_ident("write"))
        && !t.get(j + 2).map(|x| x.is_punct(')')).unwrap_or(true)
    {
        return Some(format!("blocking I/O `.{}(…)`", tok.text));
    }
    if IO_MACROS.contains(&tok.text.as_str())
        && t.get(j + 1).map(|x| x.is_punct('!')).unwrap_or(false)
    {
        return Some(format!("blocking I/O `{}!(…)`", tok.text));
    }
    None
}

/// Reports every lock-order edge that participates in a cycle.
fn report_cycles(lint: &'static str, edges: &[Edge], out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        if e.held != e.acquired {
            adj.entry(&e.held).or_default().insert(&e.acquired);
        }
    }
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    for e in edges {
        if e.held != e.acquired
            && reachable(&e.acquired, &e.held)
            && reported.insert((e.file.clone(), e.line))
        {
            out.push(Finding {
                lint,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "lock-order cycle: `{}` is acquired under `{}` here, but `{}` is \
                     (transitively) acquired under `{}` elsewhere — potential deadlock; \
                     pick one global order",
                    e.acquired, e.held, e.held, e.acquired
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_lint, workspace, workspace_of};

    #[test]
    fn fires_on_io_and_second_lock_under_guard() {
        // The shape of the pre-fix StreamFrame handler: session guard
        // held across a second (statement-temporary) lock and sink I/O.
        let ws = workspace(
            "crates/serve/src/server.rs",
            "fn handle(session: &Mutex<S>, shared: &Shared) {\n\
             \x20   let mut session = session.lock().unwrap_or_else(|e| e.into_inner());\n\
             \x20   session.push(1);\n\
             \x20   let sink = shared.audit.read().unwrap_or_else(|e| e.into_inner()).clone();\n\
             \x20   sink.append(&record);\n\
             }\n",
        );
        let (active, _) = run_lint(&LockDiscipline, &ws);
        assert_eq!(active.len(), 2, "{active:?}");
        assert!(active[0].message.contains("acquires lock `audit`"));
        assert!(active[1].message.contains(".append"));
    }

    #[test]
    fn fires_on_pool_call_and_write_macro_under_guard() {
        let ws = workspace(
            "crates/serve/src/audit.rs",
            "fn append(&self) {\n\
             \x20   let mut out = self.out.lock().unwrap();\n\
             \x20   writeln!(out, \"x\").ok();\n\
             \x20   out.flush().ok();\n\
             }\n\
             fn fan(&self) {\n\
             \x20   let g = self.state.lock().unwrap();\n\
             \x20   fxrz_parallel::par_map(4, 1, |r| r.start);\n\
             }\n",
        );
        let (active, _) = run_lint(&LockDiscipline, &ws);
        assert_eq!(active.len(), 3, "{active:?}");
        assert!(active[0].message.contains("writeln!"));
        assert!(active[1].message.contains(".flush"));
        assert!(active[2].message.contains("worker pool"));
    }

    #[test]
    fn narrowed_scope_and_dropped_guards_are_clean() {
        // The post-fix shape: guard scoped to a block, I/O after it.
        let ws = workspace(
            "crates/serve/src/server.rs",
            "fn handle(session: &Mutex<S>, sink: &Sink) {\n\
             \x20   let outcome = {\n\
             \x20       let mut session = session.lock().unwrap_or_else(|e| e.into_inner());\n\
             \x20       session.push(1)\n\
             \x20   };\n\
             \x20   sink.append(&outcome);\n\
             }\n\
             fn explicit(m: &Mutex<S>, w: &mut W) {\n\
             \x20   let g = m.lock().unwrap();\n\
             \x20   drop(g);\n\
             \x20   w.flush().ok();\n\
             }\n",
        );
        assert!(run_lint(&LockDiscipline, &ws).0.is_empty());
    }

    #[test]
    fn statement_temporaries_do_not_become_guards() {
        // `.read().…().clone()` releases at the `;` — later I/O is fine.
        let ws = workspace(
            "crates/serve/src/server.rs",
            "fn g(shared: &Shared, w: &mut W) {\n\
             \x20   let sink = shared.audit.read().unwrap().clone();\n\
             \x20   w.write_all(b\"x\").ok();\n\
             }\n",
        );
        assert!(run_lint(&LockDiscipline, &ws).0.is_empty());
    }

    #[test]
    fn reports_lock_order_cycles_across_functions() {
        let ws = workspace(
            "crates/serve/src/registry.rs",
            "fn a(x: &Mutex<S>, y: &Mutex<S>) {\n\
             \x20   let g = x.lock().unwrap();\n\
             \x20   let h = y.lock().unwrap();\n\
             }\n\
             fn b(x: &Mutex<S>, y: &Mutex<S>) {\n\
             \x20   let g = y.lock().unwrap();\n\
             \x20   let h = x.lock().unwrap();\n\
             }\n",
        );
        let (active, _) = run_lint(&LockDiscipline, &ws);
        let cycles: Vec<_> = active
            .iter()
            .filter(|f| f.message.contains("lock-order cycle"))
            .collect();
        assert_eq!(cycles.len(), 2, "{active:?}");
    }

    #[test]
    fn bodiless_declarations_and_nested_fns_are_walked_once() {
        // The trait method has no body; the nested fn's lock is seen as
        // part of `outer`, whose guard is still live there.
        let ws = workspace(
            "crates/serve/src/server.rs",
            "trait Sink { fn append(&self); }\n\
             fn outer(m: &Mutex<S>) {\n\
             \x20   let g = m.lock().unwrap();\n\
             \x20   fn inner(n: &Mutex<S>) { let h = n.lock().unwrap(); }\n\
             }\n",
        );
        let bodies = fn_bodies(&ws.files[0].tokens);
        assert_eq!(bodies.len(), 1);
        let (active, _) = run_lint(&LockDiscipline, &ws);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0].message.contains("acquires lock `n`"));
    }

    #[test]
    fn out_of_scope_test_code_and_allow_are_exempt() {
        let ws = workspace(
            "crates/telemetry/src/event.rs",
            "fn f(m: &Mutex<S>, w: &mut W) {\n    let g = m.lock().unwrap();\n    w.flush().ok();\n}\n",
        );
        assert!(run_lint(&LockDiscipline, &ws).0.is_empty());
        let ws = workspace_of(&[(
            "crates/serve/src/audit.rs",
            "fn append(&self) {\n\
             \x20   let mut out = self.out.lock().unwrap();\n\
             \x20   // fxrz-lint: allow(lock_discipline): this lock exists to serialize the I/O\n\
             \x20   out.flush().ok();\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn t(m: &Mutex<S>, w: &mut W) { let g = m.lock().unwrap(); w.flush().ok(); }\n\
             }\n",
        )]);
        let (active, suppressed) = run_lint(&LockDiscipline, &ws);
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(suppressed.len(), 1);
    }
}
