//! **no-panic-in-request-path** — the `gss-server` request path must
//! never panic (PR 3).
//!
//! A panic on a reactor or dispatcher thread kills that thread and
//! silently drops every response it owed; the protocol contract is
//! that failures flow to the wire as `{"ok":false,"error":...}`
//! envelopes. This rule bans panic-capable constructs in the server's one
//! request path — the front end (`reactor.rs`, `conn.rs`: a panic on a
//! reactor thread strands every connection it multiplexes), the protocol
//! path and dispatcher (`server.rs`), evaluation and the result cache
//! (`engine.rs`, `cache.rs`) — the shared wire codecs (`gss-protocol`) and the mutation path
//! (`gss-store` — a panic inside `GraphStore::apply` poisons the writer
//! lock and wedges every later mutation; the WAL append/recovery and
//! fault-injection modules sit on that same path, and a panic there can
//! additionally strand a half-written log record), test code excluded:
//!
//! - `.unwrap()` / `.expect(...)` (categories `unwrap`, `expect`) — use
//!   `unwrap_or_else(PoisonError::into_inner)` for mutex poisoning and
//!   error envelopes for everything else;
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!` (category
//!   `panic`);
//! - slice/array indexing `x[i]` (category `index`) — panics on
//!   out-of-bounds; prefer `.get()`, or justify in-bounds-by-construction
//!   indexing with `allow(no-panic-in-request-path[index])`.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Workspace;

use super::{is_method_call, Rule};

/// The request-path modules the rule watches.
const WATCHED: &[&str] = &[
    "server/src/reactor.rs",
    "server/src/conn.rs",
    "server/src/server.rs",
    "server/src/engine.rs",
    "server/src/cache.rs",
    "protocol/src/lib.rs",
    "store/src/lib.rs",
    "store/src/wal.rs",
    "store/src/fault.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can legally precede `[` without forming an indexing
/// expression (`&mut [u8]`, `if x { .. } [..]` cannot occur, but `ref`,
/// `mut`, `in`… appear before slice *patterns* and types).
const NON_EXPR_KEYWORDS: &[&str] = &[
    "mut", "ref", "in", "let", "return", "break", "as", "if", "else", "match", "move", "dyn",
    "impl", "where", "loop", "while", "for", "unsafe", "const", "static", "box", "await",
];

/// See the module docs.
pub struct NoPanicInRequestPath;

impl Rule for NoPanicInRequestPath {
    fn id(&self) -> &'static str {
        "no-panic-in-request-path"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for (fi, file) in ws.files.iter().enumerate() {
            if !WATCHED.iter().any(|w| file.path.ends_with(w)) {
                continue;
            }
            for i in 0..file.tokens.len() {
                let tok = file.tokens[i];
                if file.in_test(tok.start) {
                    continue;
                }
                let mut push = |category: &'static str, message: String, note: &str| {
                    out.push(Diagnostic {
                        rule: "no-panic-in-request-path",
                        category,
                        file: fi,
                        start: tok.start,
                        end: tok.end,
                        message,
                        note: Some(note.to_owned()),
                    });
                };
                if is_method_call(file, i, "unwrap") {
                    push(
                        "unwrap",
                        "`.unwrap()` can panic in the server request path".into(),
                        "request-path errors must flow to the wire as {\"ok\":false,...} \
                         envelopes; for mutexes use unwrap_or_else(PoisonError::into_inner)",
                    );
                } else if is_method_call(file, i, "expect") {
                    push(
                        "expect",
                        "`.expect()` can panic in the server request path".into(),
                        "request-path errors must flow to the wire as {\"ok\":false,...} \
                         envelopes; for mutexes use unwrap_or_else(PoisonError::into_inner)",
                    );
                } else if tok.kind == TokKind::Ident
                    && file.is_punct(i + 1, '!')
                    && PANIC_MACROS.contains(&file.tok_str(i))
                {
                    push(
                        "panic",
                        format!("`{}!` panics in the server request path", file.tok_str(i)),
                        "a panicking worker drops every response it owes; return an error \
                         envelope instead",
                    );
                } else if tok.kind == TokKind::Punct
                    && file.is_punct(i, '[')
                    && i > 0
                    && is_index_base(file, i - 1)
                {
                    push(
                        "index",
                        "slice indexing panics on out-of-bounds in the server request path".into(),
                        "prefer .get()/.get_mut(), or justify in-bounds-by-construction \
                         indexing with allow(no-panic-in-request-path[index])",
                    );
                }
            }
        }
    }
}

/// True when the token before a `[` makes it an indexing *expression*:
/// an identifier (not a keyword, not a macro name — `vec![` has `!`
/// before the bracket), a close paren, or a close bracket.
fn is_index_base(file: &SourceFile, prev: usize) -> bool {
    match file.tokens[prev].kind {
        TokKind::Ident => !NON_EXPR_KEYWORDS.contains(&file.tok_str(prev)),
        TokKind::Punct => file.is_punct(prev, ')') || file.is_punct(prev, ']'),
        _ => false,
    }
}
