//! # gss-protocol — the `gss-server` wire protocol
//!
//! The single definition of the serving wire format, shared by the server
//! engine, the `gss-server` client, the CLI and the loopback tests.
//! Everything here is transport- and engine-free: typed [`Request`] /
//! [`Response`] envelopes plus `to_line` / `from_line` codecs over
//! newline-delimited JSON. The server parses requests through this crate
//! and serializes responses through it **once, at the connection edge**;
//! result documents stay pre-serialized strings so cached responses are
//! byte-identical to fresh ones by construction.
//!
//! ## Wire format
//!
//! The protocol is **newline-delimited JSON**: one request object per
//! line, one response object per line, over a plain TCP connection (test
//! it with `nc`). Requests are answered in order per connection;
//! concurrency comes from multiple connections. Every request may carry
//! an `"id"` (string or number), echoed verbatim in the response.
//!
//! ### Verbs
//!
//! | request | response |
//! |---------|----------|
//! | `{"op":"ping"}` | `{"ok":true}` |
//! | `{"op":"stats"}` | `{"ok":true,"stats":{…}}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"draining":true}` |
//! | `{"op":"query","graph":"t q\nv 0 C\n…"}` | `{"ok":true,"cached":false,"result":{"measures":[…],"plan":"…","skyline":[{"name":"…","gcs":[…]},…]}}` |
//! | `{"op":"insert","graphs":"t a\nv 0 C\n…"}` | `{"ok":true,"epoch":1,"inserted":1,"removed":0,"updated":0}` |
//! | `{"op":"remove","names":["a"]}` | `{"ok":true,"epoch":2,"inserted":0,"removed":1,"updated":0}` |
//! | `{"op":"update","name":"a","graph":"t a\n…"}` | `{"ok":true,"epoch":3,"inserted":0,"removed":0,"updated":1}` |
//!
//! Anything else (including malformed JSON) gets
//! `{"ok":false,"error":"…"}`. Two error envelopes are machine-readable:
//! the admission rejection `{"ok":false,"error":"queue full",`
//! `"retry_after_ms":N}` ([`Response::Backpressure`]) and the deadline
//! expiry `{"ok":false,"error":"deadline exceeded"}`
//! ([`Response::Expired`]).
//!
//! A request line may be at most [`MAX_LINE_BYTES`] long (newline
//! excluded). A longer one — terminated or not — is answered with
//! [`Response::line_too_long`] and the connection is closed, so no client
//! can make the server buffer without bound.
//!
//! ### The `query` verb
//!
//! * `"graph"` (required) — the query graph in the `t/v/e` text format
//!   (first graph of the document is used). Labels unknown to the
//!   database are fine; they simply never match.
//! * `"options"` (optional object) — per-request overrides of the
//!   server's base options. The one key is `"plan"`
//!   (`"auto"|"naive"|"prefilter"|"indexed"|"sharded"`; `"indexed"` needs
//!   a server-side index). Unknown keys are rejected.
//! * `"deadline_ms"` (optional) — the evaluation deadline. If the request
//!   is still waiting in the server queue when it expires it is dropped;
//!   if it expires **mid-evaluation**, the scan is aborted at the next
//!   wave checkpoint. Either way the response is
//!   `{"ok":false,"error":"deadline exceeded"}`.
//!
//! The `"result"` payload is exactly the `gss_core::to_json` *answer
//! document*, compacted onto one line by the [`gss_core::jsonio`] writer:
//! the measures, the resolved plan, the skyline members in ascending id
//! (each `{"name":…,"gcs":[…]}` with its exact vector), and the pruning
//! stats when a pruned plan ran. Its size follows the skyline, not the
//! database: the per-graph rows (non-member vectors, dominators, best
//! dimensions) are `gss_core::explain_json`'s, which `gss query --format
//! json` prints and the wire never carries.
//!
//! ### Mutation verbs
//!
//! `insert` / `remove` / `update` mutate the server's live store: each
//! request is one atomic batch that bumps the database **epoch** (echoed
//! in the [`Response::Mutated`] envelope, along with the applied
//! operation counts). Graph payloads use the same `t/v/e` text format as
//! queries; `insert` may carry any number of graphs, `update` exactly
//! one. Queries already admitted keep evaluating against the snapshot
//! they were admitted on; since the epoch is folded into the database
//! fingerprint, cached results can never leak across epochs.
//!
//! Every mutation verb accepts an optional `"mutation_id"` string — an
//! idempotency key. A server with a durable store deduplicates retries
//! carrying an id it already applied: the retry is acked with the
//! **original** receipt plus `"replayed":true`, and the epoch advances
//! exactly once. `"replayed"` is omitted (not `false`) on first
//! applications, so pre-durability ack bytes are unchanged.
//!
//! ## Split of responsibilities
//!
//! This crate owns the *shape* of the protocol: JSON structure, field
//! types, option vocabulary, the exact response byte formats. Semantic
//! resolution stays in the server engine: parsing the graph text against
//! the database vocabulary, merging overrides into the base options,
//! checking that an `"indexed"` plan has an index, building cache keys
//! and arming deadlines. [`Request::from_line`] therefore returns a
//! [`QueryEnvelope`] whose graph is still raw text.

#![warn(missing_docs)]
// The codecs run on the server's request path, which never panics: a
// malformed line becomes a `WireError`. Tests are exempt via `clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

use gss_core::jsonio::{escape, Value};
use gss_core::Plan;

/// The longest request line a server accepts, in bytes, newline excluded.
/// Part of the wire spec rather than a server setting: a client can rely
/// on any line up to this size being read, and must split larger `insert`
/// batches across requests.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// A parsed request line: one of the four protocol verbs.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Client correlation id, echoed back.
        id: Option<Value>,
    },
    /// Counter snapshot.
    Stats {
        /// Client correlation id, echoed back.
        id: Option<Value>,
    },
    /// Begin graceful drain.
    Shutdown {
        /// Client correlation id, echoed back.
        id: Option<Value>,
    },
    /// A skyline query (boxed: the envelope carries the graph text).
    Query(Box<QueryEnvelope>),
    /// Append graphs to the live store (one atomic batch, one epoch).
    Insert {
        /// Client correlation id, echoed back.
        id: Option<Value>,
        /// Graphs to append, in `t/v/e` text form (any number).
        graphs: String,
        /// Client-supplied idempotency key: a server with a durable
        /// store deduplicates retries carrying the same id.
        mutation_id: Option<String>,
    },
    /// Remove graphs from the live store by name.
    Remove {
        /// Client correlation id, echoed back.
        id: Option<Value>,
        /// Names of the graphs to remove (at least one).
        names: Vec<String>,
        /// Client-supplied idempotency key (see [`Request::Insert`]).
        mutation_id: Option<String>,
    },
    /// Replace one named graph in place.
    Update {
        /// Client correlation id, echoed back.
        id: Option<Value>,
        /// Name of the graph to replace.
        name: String,
        /// The replacement, in `t/v/e` text form (exactly one graph).
        graph: String,
        /// Client-supplied idempotency key (see [`Request::Insert`]).
        mutation_id: Option<String>,
    },
}

/// The wire-level body of a `query` request: raw graph text plus typed
/// option overrides. The server engine resolves it against its database
/// and base options.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryEnvelope {
    /// Client correlation id, echoed back in the response.
    pub id: Option<Value>,
    /// The query graph in `t/v/e` text form (unparsed: graph semantics
    /// belong to the engine, which owns the label vocabulary).
    pub graph: String,
    /// Per-request option overrides (`None` fields keep the server base).
    pub overrides: QueryOverrides,
    /// Evaluation deadline in milliseconds, when the client set one.
    pub deadline_ms: Option<u64>,
}

/// Typed per-request overrides of the server's base query options. The
/// field defaults to `None` — "keep the server's setting". The solvers are
/// always exact, so the plan is the only override.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryOverrides {
    /// Evaluation plan override (`auto|naive|prefilter|indexed|sharded`).
    pub plan: Option<Plan>,
}

/// A request parse failure: the correlation id (when one was readable)
/// plus a message for the error envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Correlation id to echo, if the line got far enough to carry one.
    pub id: Option<Value>,
    /// Human-readable message.
    pub message: String,
}

impl WireError {
    fn new(id: &Option<Value>, message: impl Into<String>) -> WireError {
        WireError {
            id: id.clone(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

impl Request {
    /// Parses one request line. Validates protocol *shape* only — graph
    /// text stays raw and plan/index compatibility is the engine's call.
    pub fn from_line(line: &str) -> Result<Request, WireError> {
        let doc =
            Value::parse(line).map_err(|e| WireError::new(&None, format!("bad request: {e}")))?;
        let id = doc.get("id").cloned();
        if let Some(v) = &id {
            if !matches!(v, Value::String(_) | Value::Number(_)) {
                return Err(WireError::new(&None, "\"id\" must be a string or number"));
            }
        }
        let Some(op) = doc.get("op").and_then(Value::as_str) else {
            return Err(WireError::new(
                &id,
                "missing \"op\" (query|ping|stats|shutdown|insert|remove|update)",
            ));
        };
        match op {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "query" => parse_query(&doc, id),
            "insert" => {
                let Some(graphs) = doc.get("graphs").and_then(Value::as_str) else {
                    return Err(WireError::new(
                        &id,
                        "insert needs a \"graphs\" field (t/v/e text)",
                    ));
                };
                let mutation_id = parse_mutation_id(&doc, &id)?;
                Ok(Request::Insert {
                    id,
                    graphs: graphs.to_owned(),
                    mutation_id,
                })
            }
            "remove" => {
                let names = doc
                    .get("names")
                    .and_then(Value::as_array)
                    .map(|items| {
                        items
                            .iter()
                            .map(|v| v.as_str().map(str::to_owned))
                            .collect::<Option<Vec<String>>>()
                    })
                    .unwrap_or(None)
                    .filter(|names| !names.is_empty());
                let Some(names) = names else {
                    return Err(WireError::new(
                        &id,
                        "remove needs a non-empty \"names\" array of strings",
                    ));
                };
                let mutation_id = parse_mutation_id(&doc, &id)?;
                Ok(Request::Remove {
                    id,
                    names,
                    mutation_id,
                })
            }
            "update" => {
                let Some(name) = doc.get("name").and_then(Value::as_str) else {
                    return Err(WireError::new(&id, "update needs a \"name\" field"));
                };
                let Some(graph) = doc.get("graph").and_then(Value::as_str) else {
                    return Err(WireError::new(
                        &id,
                        "update needs a \"graph\" field (t/v/e text, one graph)",
                    ));
                };
                let mutation_id = parse_mutation_id(&doc, &id)?;
                Ok(Request::Update {
                    id,
                    name: name.to_owned(),
                    graph: graph.to_owned(),
                    mutation_id,
                })
            }
            other => Err(WireError::new(&id, format!("unknown op {other:?}"))),
        }
    }

    /// Serializes the request onto one wire line (newline included).
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping { id } => request_line(id, "ping", ""),
            Request::Stats { id } => request_line(id, "stats", ""),
            Request::Shutdown { id } => request_line(id, "shutdown", ""),
            Request::Query(q) => {
                let mut extra = String::new();
                extra.push_str(",\"graph\":\"");
                extra.push_str(&escape(&q.graph));
                extra.push('"');
                if let Some(plan) = q.overrides.plan {
                    extra.push_str(",\"options\":{\"plan\":\"");
                    extra.push_str(plan.name());
                    extra.push_str("\"}");
                }
                if let Some(ms) = q.deadline_ms {
                    extra.push_str(",\"deadline_ms\":");
                    extra.push_str(&ms.to_string());
                }
                request_line(&q.id, "query", &extra)
            }
            Request::Insert {
                id,
                graphs,
                mutation_id,
            } => {
                let mut extra = format!(",\"graphs\":\"{}\"", escape(graphs));
                push_mutation_id(&mut extra, mutation_id);
                request_line(id, "insert", &extra)
            }
            Request::Remove {
                id,
                names,
                mutation_id,
            } => {
                let mut extra = String::from(",\"names\":[");
                for (i, name) in names.iter().enumerate() {
                    if i > 0 {
                        extra.push(',');
                    }
                    extra.push('"');
                    extra.push_str(&escape(name));
                    extra.push('"');
                }
                extra.push(']');
                push_mutation_id(&mut extra, mutation_id);
                request_line(id, "remove", &extra)
            }
            Request::Update {
                id,
                name,
                graph,
                mutation_id,
            } => {
                let mut extra = format!(
                    ",\"name\":\"{}\",\"graph\":\"{}\"",
                    escape(name),
                    escape(graph)
                );
                push_mutation_id(&mut extra, mutation_id);
                request_line(id, "update", &extra)
            }
        }
    }

    /// The correlation id the request carries, if any.
    pub fn id(&self) -> &Option<Value> {
        match self {
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::Insert { id, .. }
            | Request::Remove { id, .. }
            | Request::Update { id, .. } => id,
            Request::Query(q) => &q.id,
        }
    }

    /// The client-supplied idempotency key, for the mutation verbs.
    pub fn mutation_id(&self) -> Option<&str> {
        match self {
            Request::Insert { mutation_id, .. }
            | Request::Remove { mutation_id, .. }
            | Request::Update { mutation_id, .. } => mutation_id.as_deref(),
            _ => None,
        }
    }
}

fn parse_mutation_id(doc: &Value, id: &Option<Value>) -> Result<Option<String>, WireError> {
    match doc.get("mutation_id") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(s) => Ok(Some(s.to_owned())),
            None => Err(WireError::new(id, "\"mutation_id\" must be a string")),
        },
    }
}

fn push_mutation_id(extra: &mut String, mutation_id: &Option<String>) {
    if let Some(mid) = mutation_id {
        extra.push_str(",\"mutation_id\":\"");
        extra.push_str(&escape(mid));
        extra.push('"');
    }
}

fn request_line(id: &Option<Value>, op: &str, extra: &str) -> String {
    let mut out = String::with_capacity(extra.len() + 32);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&id.to_compact());
        out.push(',');
    }
    out.push_str("\"op\":\"");
    out.push_str(op);
    out.push('"');
    out.push_str(extra);
    out.push_str("}\n");
    out
}

fn parse_query(doc: &Value, id: Option<Value>) -> Result<Request, WireError> {
    let err = |message: String| WireError {
        id: id.clone(),
        message,
    };
    let Some(graph) = doc.get("graph").and_then(Value::as_str) else {
        return Err(err("query needs a \"graph\" field (t/v/e text)".into()));
    };
    let mut overrides = QueryOverrides::default();
    if let Some(o) = doc.get("options") {
        let members = o
            .as_object()
            .ok_or_else(|| err("\"options\" must be an object".into()))?;
        for (k, v) in members {
            match k.as_str() {
                "plan" => {
                    overrides.plan = Some(v.as_str().and_then(Plan::parse).ok_or_else(|| {
                        err("options.plan must be auto|naive|prefilter|indexed|sharded".into())
                    })?);
                }
                other => return Err(err(format!("unknown option {other:?}"))),
            }
        }
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|ms| *ms >= 0.0 && ms.fract() == 0.0)
                .map(|ms| ms as u64)
                .ok_or_else(|| err("\"deadline_ms\" must be a non-negative integer".into()))?,
        ),
    };
    Ok(Request::Query(Box::new(QueryEnvelope {
        id,
        graph: graph.to_owned(),
        overrides,
        deadline_ms,
    })))
}

/// A typed response envelope. [`Response::to_line`] produces the exact
/// wire bytes; the engine builds these and the connection edge serializes
/// them once.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `ping` acknowledgement.
    Pong {
        /// Echoed correlation id.
        id: Option<Value>,
    },
    /// Counter snapshot: `stats` is the pre-compacted JSON object text.
    Stats {
        /// Echoed correlation id.
        id: Option<Value>,
        /// The compact `{"served":…,…}` object, verbatim.
        stats: String,
    },
    /// `shutdown` acknowledgement: the server is draining.
    Draining {
        /// Echoed correlation id.
        id: Option<Value>,
    },
    /// A successful query answer wrapping the pre-serialized result
    /// document (kept as a string so cached responses stay byte-identical
    /// to fresh ones by construction).
    Result {
        /// Echoed correlation id.
        id: Option<Value>,
        /// True when the document came from the result cache.
        cached: bool,
        /// The compact answer document (`gss_core::to_json`), verbatim.
        result: String,
    },
    /// A mutation batch was applied: the new epoch plus what it did.
    Mutated {
        /// Echoed correlation id.
        id: Option<Value>,
        /// The epoch the batch produced.
        epoch: u64,
        /// Graphs appended.
        inserted: u64,
        /// Graphs removed.
        removed: u64,
        /// Graphs replaced in place.
        updated: u64,
        /// True when this ack answers a deduplicated `mutation_id` retry
        /// with the original receipt (nothing was applied again). Only
        /// emitted on the wire when true, keeping first-application acks
        /// byte-identical to the pre-durability format.
        replayed: bool,
    },
    /// Admission rejection: the queue is full (or the server drains);
    /// retry after the given delay.
    Backpressure {
        /// Echoed correlation id.
        id: Option<Value>,
        /// Suggested client retry delay.
        retry_after_ms: u64,
    },
    /// The request's deadline passed (in queue or mid-evaluation).
    Expired {
        /// Echoed correlation id.
        id: Option<Value>,
    },
    /// Any other failure.
    Error {
        /// Echoed correlation id.
        id: Option<Value>,
        /// Human-readable message.
        message: String,
    },
}

/// Builds a response envelope: `{"id":…,` (when present) followed by the
/// body members and a trailing newline (the protocol is line-delimited).
fn envelope(id: &Option<Value>, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 24);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&id.to_compact());
        out.push(',');
    }
    out.push_str(body);
    out.push_str("}\n");
    out
}

impl Response {
    /// The error a server answers a request line longer than
    /// [`MAX_LINE_BYTES`] with, just before closing the connection.
    pub fn line_too_long() -> Response {
        Response::Error {
            id: None,
            message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        }
    }

    /// Serializes the response onto one wire line (newline included).
    pub fn to_line(&self) -> String {
        match self {
            Response::Pong { id } => envelope(id, "\"ok\":true"),
            Response::Stats { id, stats } => {
                envelope(id, &format!("\"ok\":true,\"stats\":{stats}"))
            }
            Response::Draining { id } => envelope(id, "\"ok\":true,\"draining\":true"),
            Response::Result { id, cached, result } => envelope(
                id,
                &format!("\"ok\":true,\"cached\":{cached},\"result\":{result}"),
            ),
            Response::Mutated {
                id,
                epoch,
                inserted,
                removed,
                updated,
                replayed,
            } => {
                let mut body = format!(
                    "\"ok\":true,\"epoch\":{epoch},\"inserted\":{inserted},\"removed\":{removed},\"updated\":{updated}"
                );
                if *replayed {
                    body.push_str(",\"replayed\":true");
                }
                envelope(id, &body)
            }
            Response::Backpressure { id, retry_after_ms } => envelope(
                id,
                &format!(
                    "\"ok\":false,\"error\":\"queue full\",\"retry_after_ms\":{retry_after_ms}"
                ),
            ),
            Response::Expired { id } => {
                envelope(id, "\"ok\":false,\"error\":\"deadline exceeded\"")
            }
            Response::Error { id, message } => envelope(
                id,
                &format!("\"ok\":false,\"error\":\"{}\"", escape(message)),
            ),
        }
    }

    /// Parses one response line, classifying by the envelope fields (the
    /// inverse of [`Response::to_line`]: `to_line(from_line(x)) == x` for
    /// every line a server emits).
    pub fn from_line(line: &str) -> Result<Response, WireError> {
        let doc =
            Value::parse(line).map_err(|e| WireError::new(&None, format!("bad response: {e}")))?;
        let id = doc.get("id").cloned();
        let Some(ok) = doc.get("ok").and_then(Value::as_bool) else {
            return Err(WireError::new(&id, "response has no boolean \"ok\" field"));
        };
        if ok {
            if doc.get("draining").and_then(Value::as_bool) == Some(true) {
                return Ok(Response::Draining { id });
            }
            if let Some(stats) = doc.get("stats") {
                return Ok(Response::Stats {
                    id,
                    stats: stats.to_compact(),
                });
            }
            // Mutation acknowledgements are classified by their "epoch"
            // field, ahead of the bare-`{"ok":true}` Pong fallback.
            if doc.get("epoch").is_some() {
                let counter = |field: &str| {
                    doc.get(field)
                        .and_then(Value::as_f64)
                        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                        .map(|n| n as u64)
                        .ok_or_else(|| {
                            WireError::new(
                                &id,
                                format!("mutation response needs an integer {field:?} field"),
                            )
                        })
                };
                let replayed = match doc.get("replayed") {
                    None => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| WireError::new(&id, "\"replayed\" must be a boolean"))?,
                };
                return Ok(Response::Mutated {
                    id: id.clone(),
                    epoch: counter("epoch")?,
                    inserted: counter("inserted")?,
                    removed: counter("removed")?,
                    updated: counter("updated")?,
                    replayed,
                });
            }
            if let Some(cached) = doc.get("cached").and_then(Value::as_bool) {
                let Some(result) = doc.get("result") else {
                    return Err(WireError::new(&id, "ok response has no \"result\" field"));
                };
                return Ok(Response::Result {
                    id,
                    cached,
                    result: result.to_compact(),
                });
            }
            return Ok(Response::Pong { id });
        }
        let Some(message) = doc.get("error").and_then(Value::as_str) else {
            return Err(WireError::new(&id, "error response has no \"error\" field"));
        };
        if message == "queue full" {
            if let Some(ms) = doc
                .get("retry_after_ms")
                .and_then(Value::as_f64)
                .filter(|ms| *ms >= 0.0 && ms.fract() == 0.0)
            {
                return Ok(Response::Backpressure {
                    id,
                    retry_after_ms: ms as u64,
                });
            }
        }
        if message == "deadline exceeded" {
            return Ok(Response::Expired { id });
        }
        Ok(Response::Error {
            id,
            message: message.to_owned(),
        })
    }

    /// The correlation id the response carries, if any.
    pub fn id(&self) -> &Option<Value> {
        match self {
            Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Draining { id }
            | Response::Result { id, .. }
            | Response::Mutated { id, .. }
            | Response::Backpressure { id, .. }
            | Response::Expired { id }
            | Response::Error { id, .. } => id,
        }
    }

    /// True for the `"ok":true` envelopes.
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            Response::Pong { .. }
                | Response::Stats { .. }
                | Response::Draining { .. }
                | Response::Result { .. }
                | Response::Mutated { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(s: &str) -> Option<Value> {
        Some(Value::String(s.to_owned()))
    }

    #[test]
    fn request_lines_round_trip() {
        let requests = vec![
            Request::Ping { id: None },
            Request::Ping { id: sid("p") },
            Request::Stats {
                id: Some(Value::Number(7.0)),
            },
            Request::Shutdown { id: None },
            Request::Query(Box::new(QueryEnvelope {
                id: sid("q1"),
                graph: "t g\nv 0 C\nv 1 O\ne 0 1 =\n".to_owned(),
                overrides: QueryOverrides::default(),
                deadline_ms: None,
            })),
            Request::Query(Box::new(QueryEnvelope {
                id: None,
                graph: "t g\nv 0 C\n".to_owned(),
                overrides: QueryOverrides {
                    plan: Some(Plan::Sharded),
                },
                deadline_ms: Some(2500),
            })),
            Request::Insert {
                id: sid("i"),
                graphs: "t a\nv 0 C\nt b\nv 0 N\n".to_owned(),
                mutation_id: None,
            },
            Request::Insert {
                id: None,
                graphs: "t a\nv 0 C\n".to_owned(),
                mutation_id: Some("c1:42".to_owned()),
            },
            Request::Remove {
                id: None,
                names: vec!["a\"quoted".to_owned(), "b".to_owned()],
                mutation_id: Some("c1:43".to_owned()),
            },
            Request::Update {
                id: Some(Value::Number(4.0)),
                name: "a".to_owned(),
                graph: "t a\nv 0 O\n".to_owned(),
                mutation_id: None,
            },
        ];
        for r in requests {
            let line = r.to_line();
            assert!(line.ends_with('\n'), "{line:?}");
            assert_eq!(line.trim_end().matches('\n').count(), 0, "{line:?}");
            let back = Request::from_line(line.trim_end()).expect("round trip parses");
            assert_eq!(back, r, "{line:?}");
            assert_eq!(back.to_line(), line, "second serialization is stable");
        }
    }

    #[test]
    fn request_parse_rejects_malformed_lines() {
        for (line, needle) in [
            ("", "bad request"),
            ("not json", "bad request"),
            ("{}", "missing \"op\""),
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"ping\",\"id\":[1]}", "string or number"),
            ("{\"op\":\"query\"}", "\"graph\" field"),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"options\":3}",
                "object",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"options\":{\"bogus\":1}}",
                "unknown option",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"options\":{\"prefilter\":true}}",
                "unknown option",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"options\":{\"algo\":\"sfs\"}}",
                "unknown option",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"options\":{\"plan\":\"quantum\"}}",
                "auto|naive|prefilter|indexed|sharded",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"options\":{\"approx\":true}}",
                "unknown option",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"deadline_ms\":-5}",
                "non-negative integer",
            ),
            (
                "{\"op\":\"query\",\"graph\":\"t g\",\"deadline_ms\":1.5}",
                "non-negative integer",
            ),
            ("{\"op\":\"insert\"}", "\"graphs\" field"),
            ("{\"op\":\"remove\"}", "\"names\" array"),
            ("{\"op\":\"remove\",\"names\":[]}", "\"names\" array"),
            ("{\"op\":\"remove\",\"names\":[1]}", "\"names\" array"),
            ("{\"op\":\"update\",\"graph\":\"t g\"}", "\"name\" field"),
            ("{\"op\":\"update\",\"name\":\"g\"}", "\"graph\" field"),
            (
                "{\"op\":\"insert\",\"graphs\":\"t g\",\"mutation_id\":7}",
                "\"mutation_id\" must be a string",
            ),
        ] {
            let err = Request::from_line(line).expect_err(line);
            assert!(
                err.message.contains(needle),
                "{line:?}: {} should mention {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn error_ids_echo_when_readable() {
        let err = Request::from_line("{\"op\":\"nope\",\"id\":\"x\"}").expect_err("unknown op");
        assert_eq!(err.id, sid("x"));
        let err = Request::from_line("{\"id\":\"y\"}").expect_err("missing op");
        assert_eq!(err.id, sid("y"));
        let err = Request::from_line("garbage").expect_err("unparseable");
        assert_eq!(err.id, None);
    }

    #[test]
    fn response_lines_are_byte_exact() {
        // The formats the server has emitted since PR 3 — frozen here.
        let cases = vec![
            (Response::Pong { id: None }, "{\"ok\":true}\n"),
            (
                Response::Pong { id: sid("a") },
                "{\"id\":\"a\",\"ok\":true}\n",
            ),
            (
                Response::Draining { id: None },
                "{\"ok\":true,\"draining\":true}\n",
            ),
            (
                Response::Result {
                    id: Some(Value::Number(3.0)),
                    cached: true,
                    result: "{\"skyline\":[0]}".to_owned(),
                },
                "{\"id\":3,\"ok\":true,\"cached\":true,\"result\":{\"skyline\":[0]}}\n",
            ),
            (
                Response::Backpressure {
                    id: None,
                    retry_after_ms: 50,
                },
                "{\"ok\":false,\"error\":\"queue full\",\"retry_after_ms\":50}\n",
            ),
            (
                Response::Expired { id: sid("late") },
                "{\"id\":\"late\",\"ok\":false,\"error\":\"deadline exceeded\"}\n",
            ),
            (
                Response::Error {
                    id: None,
                    message: "multi\nline".to_owned(),
                },
                "{\"ok\":false,\"error\":\"multi\\nline\"}\n",
            ),
            (
                Response::Stats {
                    id: None,
                    stats: "{\"served\":2}".to_owned(),
                },
                "{\"ok\":true,\"stats\":{\"served\":2}}\n",
            ),
            (
                Response::Mutated {
                    id: sid("m"),
                    epoch: 3,
                    inserted: 2,
                    removed: 1,
                    updated: 0,
                    replayed: false,
                },
                "{\"id\":\"m\",\"ok\":true,\"epoch\":3,\"inserted\":2,\"removed\":1,\"updated\":0}\n",
            ),
            (
                Response::Mutated {
                    id: sid("m"),
                    epoch: 3,
                    inserted: 2,
                    removed: 1,
                    updated: 0,
                    replayed: true,
                },
                "{\"id\":\"m\",\"ok\":true,\"epoch\":3,\"inserted\":2,\"removed\":1,\"updated\":0,\"replayed\":true}\n",
            ),
        ];
        for (resp, bytes) in cases {
            assert_eq!(resp.to_line(), bytes);
            let back = Response::from_line(bytes.trim_end()).expect("parses");
            assert_eq!(back, resp, "{bytes:?}");
            assert_eq!(back.to_line(), bytes, "round trip is byte-stable");
        }
    }

    #[test]
    fn response_classification_covers_the_error_shapes() {
        // A "queue full" error without the retry hint stays a plain error.
        let r = Response::from_line("{\"ok\":false,\"error\":\"queue full\"}").unwrap();
        assert!(matches!(r, Response::Error { .. }));
        // Unknown ok-shape defaults to Pong only when nothing else fits.
        let r = Response::from_line("{\"ok\":true}").unwrap();
        assert!(matches!(r, Response::Pong { .. }));
        // An "epoch" field routes to Mutated ahead of the Pong fallback,
        // and a half-formed mutation ack is an error, not a Pong.
        let r = Response::from_line(
            "{\"ok\":true,\"epoch\":1,\"inserted\":0,\"removed\":0,\"updated\":1}",
        )
        .unwrap();
        assert!(matches!(r, Response::Mutated { updated: 1, .. }));
        let err = Response::from_line("{\"ok\":true,\"epoch\":1}").unwrap_err();
        assert!(err.message.contains("inserted"), "{}", err.message);
        assert!(Response::from_line("{}").is_err(), "no ok field");
        assert!(Response::from_line("nope").is_err(), "not JSON");
        assert!(!Response::Expired { id: None }.is_ok());
        assert!(Response::Pong { id: None }.is_ok());
    }

    #[test]
    fn overrides_emptiness_gates_the_options_object() {
        let q = Request::Query(Box::new(QueryEnvelope {
            id: None,
            graph: "t g\n".to_owned(),
            overrides: QueryOverrides::default(),
            deadline_ms: None,
        }));
        assert!(!q.to_line().contains("options"));
        let q = Request::Query(Box::new(QueryEnvelope {
            id: None,
            graph: "t g\n".to_owned(),
            overrides: QueryOverrides {
                plan: Some(Plan::Prefilter),
            },
            deadline_ms: None,
        }));
        assert_eq!(
            q.to_line(),
            "{\"op\":\"query\",\"graph\":\"t g\\n\",\"options\":{\"plan\":\"prefilter\"}}\n"
        );
    }
}
