//! A minimal blocking protocol client speaking typed
//! [`gss_protocol`] envelopes.
//!
//! One [`Client`] wraps one TCP connection and exchanges one-line JSON
//! requests/responses (see the [`gss_protocol`] crate docs for the wire
//! format). Per-query options travel with the client: configure them
//! once on the [`ClientBuilder`] and every [`Client::query`] carries
//! them, so call sites deal in graphs and typed [`Response`]s instead of
//! hand-assembled JSON fragments:
//!
//! ```no_run
//! use gss_server::Client;
//!
//! let mut client = Client::builder()
//!     .deadline_ms(2_000)
//!     .plan(gss_core::Plan::Prefilter)
//!     .connect("127.0.0.1:7878")?;
//! let response = client.query("t q\nv 0 C\n")?;
//! assert!(response.is_ok());
//! # std::io::Result::Ok(())
//! ```
//!
//! # Retries
//!
//! A [`RetryPolicy`] (attached via [`ClientBuilder::retry`]) makes the
//! client resilient to connection resets, server restarts and
//! backpressure: transient I/O failures reconnect and resend with
//! exponential backoff plus deterministic jitter, and
//! [`Response::Backpressure`] sleeps out the server's `retry_after_ms`
//! hint before resending. Idempotent verbs (`query` / `ping` / `stats`)
//! retry as-is. Mutations are retried **safely**: with a policy active
//! every [`Client::insert`] / [`Client::remove`] / [`Client::update`]
//! carries a unique `mutation_id`, which a durable server deduplicates —
//! a resend whose first attempt actually landed replays the original
//! receipt (`replayed: true` on the wire) instead of double-applying.
//! [`Client::retries`] exposes how many resends the client performed.
//!
//! Used by the `gss client` CLI subcommand, the loopback tests and the
//! serving benchmarks — anything that wants to talk to a `gss-server`
//! without hand-rolling framing.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use gss_core::jsonio::Value;
use gss_core::Plan;
use gss_protocol::{QueryEnvelope, QueryOverrides, Request, Response};

/// How a [`Client`] handles transient failures. The default policy
/// performs no retries (one attempt, exactly the pre-retry behavior);
/// [`RetryPolicy::default`] is a sensible resilient configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Most resends after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry up to `max_delay_ms`.
    pub base_delay_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream (each delay lands
    /// uniformly in `[delay/2, delay]`), so chaos tests replay exactly.
    pub jitter_seed: u64,
    /// Per-attempt socket read/write timeout. A timed-out attempt counts
    /// as transient and is retried. `None` blocks indefinitely.
    pub timeout_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay_ms: 10,
            max_delay_ms: 500,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
            timeout_ms: None,
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, fail on the first transient error.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// [`RetryPolicy::default`] with a different retry budget.
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::default()
        }
    }
}

/// Configures the per-query options a [`Client`] attaches to every
/// [`Client::query`]. Unset knobs are simply omitted from the wire
/// envelope, so the server's base options apply.
#[derive(Clone, Debug, Default)]
pub struct ClientBuilder {
    overrides: QueryOverrides,
    deadline_ms: Option<u64>,
    retry: Option<RetryPolicy>,
}

impl ClientBuilder {
    /// Selects the evaluation plan.
    pub fn plan(mut self, plan: Plan) -> ClientBuilder {
        self.overrides.plan = Some(plan);
        self
    }

    /// Attaches an evaluation deadline (milliseconds) to every query.
    pub fn deadline_ms(mut self, ms: u64) -> ClientBuilder {
        self.deadline_ms = Some(ms);
        self
    }

    /// Attaches a retry policy (see the crate-level *Retries* section).
    pub fn retry(mut self, policy: RetryPolicy) -> ClientBuilder {
        self.retry = Some(policy);
        self
    }

    /// Opens the TCP connection and returns the configured client.
    pub fn connect<A: ToSocketAddrs>(self, addr: A) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let policy = self.retry.unwrap_or_else(RetryPolicy::none);
        let mut client = Client {
            conn: None,
            addrs,
            overrides: self.overrides,
            deadline_ms: self.deadline_ms,
            // Seed jitter with 0 forbidden (xorshift fixpoint).
            rng: policy.jitter_seed | 1,
            policy,
            retries: 0,
            // A per-client nonce keyed off the process RNG keeps
            // auto-generated mutation ids unique across clients and
            // across restarts of the same binary.
            nonce: RandomState::new().build_hasher().finish(),
            mutation_seq: 0,
        };
        client.ensure_conn()?;
        Ok(client)
    }
}

/// One live TCP connection (write half + buffered read half).
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A blocking connection to a `gss-server`.
pub struct Client {
    conn: Option<Conn>,
    addrs: Vec<SocketAddr>,
    overrides: QueryOverrides,
    deadline_ms: Option<u64>,
    policy: RetryPolicy,
    rng: u64,
    retries: u64,
    nonce: u64,
    mutation_seq: u64,
}

impl Client {
    /// Starts configuring a client (see [`ClientBuilder`]).
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Connects with default options (no overrides, server deadline, no
    /// retries).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::builder().connect(addr)
    }

    /// How many resends (reconnect-and-resend or backpressure waits)
    /// this client has performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Opens (or reuses) the connection, applying the policy timeout.
    fn ensure_conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addrs.as_slice())?;
            stream.set_nodelay(true)?;
            let timeout = self.policy.timeout_ms.map(Duration::from_millis);
            stream.set_read_timeout(timeout)?;
            stream.set_write_timeout(timeout)?;
            self.conn = Some(Conn {
                writer: stream.try_clone()?,
                reader: BufReader::new(stream),
            });
        }
        match self.conn.as_mut() {
            Some(conn) => Ok(conn),
            None => Err(std::io::Error::other("internal: connection vanished")),
        }
    }

    /// One attempt: write the line, read one response line. Any I/O error
    /// leaves `self.conn` cleared so the next attempt reconnects.
    fn exchange(&mut self, line: &str) -> std::io::Result<String> {
        let conn = self.ensure_conn()?;
        let attempt = (|| {
            conn.writer.write_all(line.as_bytes())?;
            conn.writer.flush()?;
            let mut response = String::new();
            let n = conn.reader.read_line(&mut response)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(response)
        })();
        if attempt.is_err() {
            self.conn = None;
        }
        attempt
    }

    /// Whether an I/O failure is worth a reconnect-and-resend.
    fn transient(e: &std::io::Error) -> bool {
        use std::io::ErrorKind::*;
        matches!(
            e.kind(),
            UnexpectedEof
                | ConnectionReset
                | ConnectionAborted
                | ConnectionRefused
                | BrokenPipe
                | NotConnected
                | WouldBlock
                | TimedOut
                | Interrupted
        )
    }

    /// The next backoff delay: exponential in the retry number, capped,
    /// jittered deterministically into `[delay/2, delay]`.
    fn backoff_ms(&mut self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1).min(16);
        let delay = self
            .policy
            .base_delay_ms
            .saturating_mul(1u64 << exp)
            .min(self.policy.max_delay_ms);
        if delay <= 1 {
            return delay;
        }
        // xorshift64: cheap, seedable, good enough to decorrelate
        // clients hammering a restarting server.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        delay / 2 + self.rng % (delay / 2 + 1)
    }

    /// Sends one raw request line (newline appended) and returns the raw
    /// response line (trailing newline trimmed). The escape hatch for
    /// malformed-input tests; typed traffic goes through
    /// [`Client::request`]. Never retried.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<String> {
        let framed = format!("{line}\n");
        self.exchange(&framed).map(|r| r.trim_end().to_owned())
    }

    /// Sends one typed request and classifies the response envelope.
    ///
    /// With a [`RetryPolicy`] active, transient failures reconnect and
    /// resend (for idempotent verbs and mutations carrying a
    /// `mutation_id`) and backpressure rejections sleep out the server's
    /// hint and resend; everything else surfaces immediately.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        let line = request.to_line(); // includes the trailing newline
        let retryable = match request {
            Request::Ping { .. } | Request::Stats { .. } | Request::Query(_) => true,
            Request::Shutdown { .. } => false,
            // A mutation is only safe to resend when the server can
            // deduplicate it.
            _ => request.mutation_id().is_some(),
        };
        let mut retry: u32 = 0;
        loop {
            let outcome = self.exchange(&line).and_then(|raw| {
                Response::from_line(raw.trim_end()).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad response {raw:?}: {}", e.message),
                    )
                })
            });
            let can_retry = retryable && retry < self.policy.max_retries;
            match outcome {
                Ok(Response::Backpressure { retry_after_ms, .. }) if can_retry => {
                    retry += 1;
                    self.retries += 1;
                    let wait = retry_after_ms.max(self.backoff_ms(retry));
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Ok(response) => return Ok(response),
                Err(e) if can_retry && Client::transient(&e) => {
                    retry += 1;
                    self.retries += 1;
                    let wait = self.backoff_ms(retry);
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Issues a `query` for a graph already in `t/v/e` text form,
    /// carrying this client's configured overrides and deadline.
    pub fn query(&mut self, graph_text: &str) -> std::io::Result<Response> {
        let envelope = QueryEnvelope {
            id: None,
            graph: graph_text.to_owned(),
            overrides: self.overrides.clone(),
            deadline_ms: self.deadline_ms,
        };
        self.request(&Request::Query(Box::new(envelope)))
    }

    /// Issues a `ping`.
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Ping { id: None })
    }

    /// Fetches the server counters (the `"stats"` object of the
    /// response, parsed).
    pub fn stats(&mut self) -> std::io::Result<Value> {
        match self.request(&Request::Stats { id: None })? {
            Response::Stats { stats, .. } => Value::parse(&stats).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad stats payload: {e}"),
                )
            }),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "unexpected response to stats: {}",
                    other.to_line().trim_end()
                ),
            )),
        }
    }

    /// The idempotency key for the next mutation: attached only when a
    /// retry policy is active (without one, resends never happen and the
    /// key would be dead weight on the wire).
    fn next_mutation_id(&mut self) -> Option<String> {
        if self.policy.max_retries == 0 {
            return None;
        }
        self.mutation_seq += 1;
        Some(format!("c{:016x}:{}", self.nonce, self.mutation_seq))
    }

    /// Inserts one or more graphs (a `t/v/e` document) into the server's
    /// live store as one atomic batch.
    pub fn insert(&mut self, graphs_text: &str) -> std::io::Result<Response> {
        let mutation_id = self.next_mutation_id();
        self.request(&Request::Insert {
            id: None,
            graphs: graphs_text.to_owned(),
            mutation_id,
        })
    }

    /// Removes the named graphs from the server's live store as one
    /// atomic batch.
    pub fn remove(&mut self, names: &[String]) -> std::io::Result<Response> {
        let mutation_id = self.next_mutation_id();
        self.request(&Request::Remove {
            id: None,
            names: names.to_vec(),
            mutation_id,
        })
    }

    /// Replaces one named graph in place with the single graph parsed
    /// from `graph_text`.
    pub fn update(&mut self, name: &str, graph_text: &str) -> std::io::Result<Response> {
        let mutation_id = self.next_mutation_id();
        self.request(&Request::Update {
            id: None,
            name: name.to_owned(),
            graph: graph_text.to_owned(),
            mutation_id,
        })
    }

    /// Requests graceful drain. Never retried.
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Shutdown { id: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_jittered_and_deterministic() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay_ms: 10,
            max_delay_ms: 200,
            jitter_seed: 42,
            timeout_ms: None,
        };
        let delays = |seed: u64| -> Vec<u64> {
            let mut c = Client {
                conn: None,
                addrs: Vec::new(),
                overrides: QueryOverrides::default(),
                deadline_ms: None,
                policy: policy.clone(),
                rng: seed | 1,
                retries: 0,
                nonce: 1,
                mutation_seq: 0,
            };
            (1..=8).map(|r| c.backoff_ms(r)).collect()
        };
        let a = delays(42);
        for (retry, &d) in a.iter().enumerate() {
            let full = (10u64 << retry.min(16)).min(200);
            assert!(d >= full / 2 && d <= full, "retry {retry}: {d} vs {full}");
        }
        assert_eq!(a, delays(42), "same seed, same jitter stream");
        assert_ne!(a, delays(101), "different seed decorrelates");
    }

    #[test]
    fn mutation_ids_attach_only_under_a_retry_policy() {
        let mut with = Client {
            conn: None,
            addrs: Vec::new(),
            overrides: QueryOverrides::default(),
            deadline_ms: None,
            policy: RetryPolicy::default(),
            rng: 1,
            retries: 0,
            nonce: 0xabcd,
            mutation_seq: 0,
        };
        let a = with.next_mutation_id().expect("policy active");
        let b = with.next_mutation_id().expect("policy active");
        assert_ne!(a, b, "each mutation gets a fresh id");
        assert!(a.starts_with("c000000000000abcd:"));

        let mut without = Client {
            policy: RetryPolicy::none(),
            ..with
        };
        assert_eq!(without.next_mutation_id(), None);
    }
}
