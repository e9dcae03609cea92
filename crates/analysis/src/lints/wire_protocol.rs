//! **wire_protocol** — the FXRS wire constants stay single-sourced,
//! collision-free, and exhaustively handled on both ends of the socket.
//!
//! Anchored on `crates/serve/src/protocol.rs` (absent → the lint is
//! inert, so fixtures and partial workspaces stay quiet). Using the
//! symbol graph it checks:
//!
//! * **enum discriminants** (`Op`, `Status`, …): no two variants share
//!   an explicit value, and any companion `from_u8` handles every
//!   variant with the matching value — the compiler cannot see a
//!   missing arm through the wildcard `_ => return None`;
//! * **request coverage**: every `Op` variant is produced by
//!   `Request::op()`, every `Op` variant is decoded in `Reply::decode`,
//!   and every `Request` variant is matched in the server dispatch
//!   (`server.rs`) *and* constructed by the client (`client.rs`) — a
//!   new op wired into the protocol but forgotten in the client is a
//!   lint failure, not a runtime `Malformed`;
//! * **error codes**: the `mod code` constants are pairwise distinct
//!   and never re-defined under the same name elsewhere in the serving
//!   layer.
//!
//! Codec magics and container tags need no pass here: the codec table
//! (`fxrz_compressors::CODECS`) asserts at compile time that they never
//! collide.

use crate::graph::{ConstDef, SymbolGraph};
use crate::lexer::{TokKind, Token};
use crate::{Finding, Lint, Workspace};
use std::collections::BTreeMap;
use std::ops::Range;

const PROTOCOL: &str = "crates/serve/src/protocol.rs";
const SERVER: &str = "crates/serve/src/server.rs";
const CLIENT: &str = "crates/serve/src/client.rs";

/// See module docs.
pub struct WireProtocol;

impl Lint for WireProtocol {
    fn name(&self) -> &'static str {
        "wire_protocol"
    }

    fn description(&self) -> &'static str {
        "op/error constants are single-sourced, collision-free and handled end-to-end"
    }

    fn check(&self, ws: &Workspace, graph: &SymbolGraph, out: &mut Vec<Finding>) {
        let Some(proto) = ws.files.iter().position(|f| f.rel == PROTOCOL) else {
            return;
        };
        check_enums(self.name(), ws, graph, proto, out);
        check_coverage(self.name(), ws, graph, proto, out);
        check_error_codes(self.name(), ws, graph, proto, out);
    }
}

/// Discriminant uniqueness + `from_u8` round-trip for every enum in
/// `protocol.rs` that carries explicit discriminants.
fn check_enums(
    lint: &'static str,
    ws: &Workspace,
    graph: &SymbolGraph,
    proto: usize,
    out: &mut Vec<Finding>,
) {
    let rel = &ws.files[proto].rel;
    for e in graph.enums.iter().filter(|e| e.file == proto) {
        if !e.variants.iter().any(|v| v.value.is_some()) {
            continue;
        }
        let mut by_value: BTreeMap<u64, &str> = BTreeMap::new();
        for v in &e.variants {
            let Some(val) = v.value else { continue };
            if let Some(prev) = by_value.insert(val, &v.name) {
                out.push(Finding {
                    lint,
                    file: rel.clone(),
                    line: v.line,
                    message: format!(
                        "{}::{} reuses discriminant {val:#04x} already taken by {}::{prev}",
                        e.name, v.name, e.name
                    ),
                });
            }
        }
        let Some(from) = graph.find_fn(proto, Some(&e.name), "from_u8") else {
            continue;
        };
        let arms = from_u8_arms(&ws.files[proto].tokens, &from.body);
        for v in &e.variants {
            let Some(val) = v.value else { continue };
            match arms.get(&val) {
                None => out.push(Finding {
                    lint,
                    file: rel.clone(),
                    line: v.line,
                    message: format!(
                        "{}::{} ({val:#04x}) is not handled by {}::from_u8 — decoding \
                         it off the wire returns None",
                        e.name, v.name, e.name
                    ),
                }),
                Some(got) if *got != v.name => out.push(Finding {
                    lint,
                    file: rel.clone(),
                    line: v.line,
                    message: format!(
                        "{}::from_u8 maps {val:#04x} to {}::{got}, but the discriminant \
                         of {}::{} is {val:#04x}",
                        e.name, e.name, e.name, v.name
                    ),
                }),
                Some(_) => {}
            }
        }
    }
}

/// `Request::op()` / `Reply::decode` / server dispatch / client usage
/// coverage for every `Op` and `Request` variant.
fn check_coverage(
    lint: &'static str,
    ws: &Workspace,
    graph: &SymbolGraph,
    proto: usize,
    out: &mut Vec<Finding>,
) {
    let rel = &ws.files[proto].rel;
    let t = &ws.files[proto].tokens;
    let op = graph.find_enum(proto, "Op");
    if let (Some(op), Some(opfn)) = (op, graph.find_fn(proto, Some("Request"), "op")) {
        let produced = path_idents(t, &opfn.body, "Op");
        for v in &op.variants {
            if !produced.iter().any(|(n, _)| n == &v.name) {
                out.push(Finding {
                    lint,
                    file: rel.clone(),
                    line: v.line,
                    message: format!(
                        "Op::{} is never produced by Request::op — no request maps to it",
                        v.name
                    ),
                });
            }
        }
    }
    if let (Some(op), Some(dec)) = (op, graph.find_fn(proto, Some("Reply"), "decode")) {
        let handled = path_idents(t, &dec.body, "Op");
        for v in &op.variants {
            if !handled.iter().any(|(n, _)| n == &v.name) {
                out.push(Finding {
                    lint,
                    file: rel.clone(),
                    line: v.line,
                    message: format!(
                        "Op::{} is not handled in Reply::decode — the client cannot \
                         decode replies for it",
                        v.name
                    ),
                });
            }
        }
    }
    let Some(req) = graph.find_enum(proto, "Request") else {
        return;
    };
    for (peer, role) in [(SERVER, "dispatched in"), (CLIENT, "used by")] {
        let Some(peer_idx) = ws.files.iter().position(|f| f.rel == peer) else {
            continue;
        };
        let pt = &ws.files[peer_idx].tokens;
        let mentioned = path_idents(pt, &(0..pt.len()), "Request");
        for v in &req.variants {
            if !mentioned.iter().any(|(n, _)| n == &v.name) {
                out.push(Finding {
                    lint,
                    file: rel.clone(),
                    line: v.line,
                    message: format!("Request::{} is not {role} {peer}", v.name),
                });
            }
        }
    }
}

/// Error-code constants: pairwise distinct inside `mod code`, and no
/// same-named integer const re-defined elsewhere in serve/stream.
fn check_error_codes(
    lint: &'static str,
    ws: &Workspace,
    graph: &SymbolGraph,
    proto: usize,
    out: &mut Vec<Finding>,
) {
    let rel = &ws.files[proto].rel;
    let codes: Vec<&ConstDef> = graph
        .consts
        .iter()
        .filter(|c| c.file == proto && c.module.as_deref() == Some("code") && c.value.is_some())
        .collect();
    let mut by_value: BTreeMap<u64, &str> = BTreeMap::new();
    for c in &codes {
        let val = c.value.expect("filtered");
        if let Some(prev) = by_value.insert(val, &c.name) {
            out.push(Finding {
                lint,
                file: rel.clone(),
                line: c.line,
                message: format!(
                    "error code {} reuses value {val} already taken by {prev}",
                    c.name
                ),
            });
        }
    }
    for other in &graph.consts {
        if other.file == proto || other.value.is_none() {
            continue;
        }
        let of = &ws.files[other.file].rel;
        if !(of.starts_with("crates/serve/src/") || of.starts_with("crates/stream/src/")) {
            continue;
        }
        if let Some(orig) = codes.iter().find(|c| c.name == other.name) {
            out.push(Finding {
                lint,
                file: of.clone(),
                line: other.line,
                message: format!(
                    "error code {} is re-defined here; the single source of truth is \
                     {rel}:{} — import it instead",
                    other.name, orig.line
                ),
            });
        }
    }
}

/// Parses `NUM => … Path::Variant` match arms inside `body`, returning
/// the value → variant-name map (the *last* path segment in each arm).
fn from_u8_arms(t: &[Token], body: &Range<usize>) -> BTreeMap<u64, String> {
    let mut arms = BTreeMap::new();
    let mut j = body.start;
    while j + 2 < body.end {
        if t[j].kind == TokKind::Num && t[j + 1].is_punct('=') && t[j + 2].is_punct('>') {
            if let Some(val) = crate::graph::parse_int(&t[j].text) {
                // Arm body runs to the next depth-0 comma.
                let mut depth = 0i32;
                let mut k = j + 3;
                let mut variant = None;
                while k < body.end {
                    let x = &t[k];
                    if x.is_punct('(') || x.is_punct('{') || x.is_punct('[') {
                        depth += 1;
                    } else if x.is_punct(')') || x.is_punct('}') || x.is_punct(']') {
                        depth -= 1;
                    } else if x.is_punct(',') && depth <= 0 {
                        break;
                    } else if x.kind == TokKind::Ident
                        && k >= 2
                        && t[k - 1].is_punct(':')
                        && t[k - 2].is_punct(':')
                    {
                        variant = Some(x.text.clone());
                    }
                    k += 1;
                }
                if let Some(v) = variant {
                    arms.insert(val, v);
                }
                j = k;
                continue;
            }
        }
        j += 1;
    }
    arms
}

/// All `prefix::Ident` path occurrences inside `range`.
fn path_idents(t: &[Token], range: &Range<usize>, prefix: &str) -> Vec<(String, u32)> {
    let mut hits = Vec::new();
    let end = range.end.min(t.len());
    let mut j = range.start;
    while j + 3 < end {
        if t[j].is_ident(prefix)
            && t[j + 1].is_punct(':')
            && t[j + 2].is_punct(':')
            && t[j + 3].kind == TokKind::Ident
        {
            hits.push((t[j + 3].text.clone(), t[j + 3].line));
        }
        j += 1;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_lint, workspace_of};

    /// A minimal but complete protocol/server/client trio; every
    /// positive test below starts from this clean baseline and breaks
    /// exactly one contract.
    fn trio() -> Vec<(&'static str, String)> {
        vec![
            (
                "crates/serve/src/protocol.rs",
                "#[repr(u8)]\n\
                 pub enum Op {\n    Ping = 0x01,\n    Compress = 0x02,\n}\n\
                 impl Op {\n\
                 \x20   pub fn from_u8(v: u8) -> Option<Op> {\n\
                 \x20       Some(match v {\n\
                 \x20           0x01 => Op::Ping,\n\
                 \x20           0x02 => Op::Compress,\n\
                 \x20           _ => return None,\n\
                 \x20       })\n\
                 \x20   }\n\
                 }\n\
                 pub enum Request {\n    Ping,\n    Compress { data: u8 },\n}\n\
                 impl Request {\n\
                 \x20   pub fn op(&self) -> Op {\n\
                 \x20       match self {\n\
                 \x20           Request::Ping => Op::Ping,\n\
                 \x20           Request::Compress { .. } => Op::Compress,\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n\
                 pub enum Reply {\n    Pong,\n}\n\
                 impl Reply {\n\
                 \x20   pub fn decode(op: Op) -> Reply {\n\
                 \x20       match op {\n\
                 \x20           Op::Ping => Reply::Pong,\n\
                 \x20           Op::Compress => Reply::Pong,\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n\
                 pub mod code {\n\
                 \x20   pub const BAD_FRAME: u16 = 1;\n\
                 \x20   pub const INTERNAL: u16 = 2;\n\
                 }\n"
                .to_owned(),
            ),
            (
                "crates/serve/src/server.rs",
                "fn dispatch(r: Request) {\n\
                 \x20   match r {\n\
                 \x20       Request::Ping => {}\n\
                 \x20       Request::Compress { .. } => {}\n\
                 \x20   }\n\
                 }\n"
                .to_owned(),
            ),
            (
                "crates/serve/src/client.rs",
                "fn ping() -> Request { Request::Ping }\n\
                 fn compress() -> Request { Request::Compress { data: 0 } }\n"
                    .to_owned(),
            ),
        ]
    }

    fn run(files: &[(&str, String)]) -> Vec<crate::Finding> {
        let borrowed: Vec<(&str, &str)> = files.iter().map(|(r, s)| (*r, s.as_str())).collect();
        run_lint(&WireProtocol, &workspace_of(&borrowed)).0
    }

    #[test]
    fn clean_trio_passes() {
        assert!(run(&trio()).is_empty());
    }

    #[test]
    fn unhandled_client_variant_fires() {
        let mut files = trio();
        files[2].1 = "fn ping() -> Request { Request::Ping }\n".to_owned();
        let active = run(&files);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0]
            .message
            .contains("Request::Compress is not used by crates/serve/src/client.rs"));
    }

    #[test]
    fn from_u8_gaps_and_mismatches_fire() {
        let mut files = trio();
        // New op added to the enum and everywhere except from_u8.
        files[0].1 = files[0]
            .1
            .replace("Compress = 0x02,\n", "Compress = 0x02,\n    Stats = 0x03,\n")
            .replace(
                "Request::Compress { .. } => Op::Compress,",
                "Request::Compress { .. } => Op::Compress,\n            Request::Ping => Op::Stats,",
            )
            .replace("Op::Compress => Reply::Pong,", "Op::Compress | Op::Stats => Reply::Pong,");
        let active = run(&files);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0]
            .message
            .contains("Op::Stats (0x03) is not handled by Op::from_u8"));
        // Value mismatch between enum and decoder.
        let mut files = trio();
        files[0].1 = files[0]
            .1
            .replace("0x02 => Op::Compress,", "0x02 => Op::Ping,");
        let active = run(&files);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0].message.contains("maps 0x02 to Op::Ping"));
    }

    #[test]
    fn duplicate_discriminants_and_error_codes_fire() {
        let mut files = trio();
        files[0].1 = files[0]
            .1
            .replace("Compress = 0x02", "Compress = 0x01")
            .replace("0x02 => Op::Compress,", "")
            .replace(
                "pub const INTERNAL: u16 = 2;",
                "pub const INTERNAL: u16 = 1;",
            );
        let active = run(&files);
        assert!(
            active
                .iter()
                .any(|f| f.message.contains("reuses discriminant 0x01")),
            "{active:?}"
        );
        assert!(
            active.iter().any(|f| f
                .message
                .contains("reuses value 1 already taken by BAD_FRAME")),
            "{active:?}"
        );
    }

    #[test]
    fn redefined_error_code_elsewhere_fires() {
        let mut files = trio();
        files.push((
            "crates/stream/src/frame.rs",
            "pub const BAD_FRAME: u16 = 7;\n".to_owned(),
        ));
        let active = run(&files);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0]
            .message
            .contains("error code BAD_FRAME is re-defined here"));
        assert_eq!(active[0].file, "crates/stream/src/frame.rs");
    }

    #[test]
    fn unproduced_op_and_missing_reply_decode_fire() {
        let mut files = trio();
        files[0].1 = files[0]
            .1
            .replace(
                "Compress = 0x02,\n",
                "Compress = 0x02,\n    Stats = 0x03,\n",
            )
            .replace(
                "_ => return None,",
                "0x03 => Op::Stats,\n            _ => return None,",
            );
        let active = run(&files);
        assert!(
            active
                .iter()
                .any(|f| f.message.contains("Op::Stats is never produced")),
            "{active:?}"
        );
        assert!(
            active.iter().any(|f| f
                .message
                .contains("Op::Stats is not handled in Reply::decode")),
            "{active:?}"
        );
    }

    #[test]
    fn inert_without_protocol_file() {
        let files = vec![(
            "crates/serve/src/server.rs",
            "fn f() { let x = Request::Ping; }\n".to_owned(),
        )];
        assert!(run(&files).is_empty());
    }
}
