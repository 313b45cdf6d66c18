//! End-to-end loopback tests for the `gss-server` serving subsystem.
//!
//! The core guarantees under test:
//!
//! 1. **Concurrent correctness** — N client threads hammering one server
//!    receive, for every query, a result document byte-identical to the
//!    single-threaded oracle (`graph_similarity_skyline` + `to_json`,
//!    compacted by the same `jsonio` writer). That answer document names
//!    the skyline members only, however large the database.
//! 2. **Cache identity** — repeated queries are answered from the result
//!    cache (`cached: true`) with payloads byte-identical to the fresh
//!    evaluation (across random workloads, plans and solvers the parity
//!    lattice in `tests/parity.rs` checks the engine path the same way).
//! 3. **Wire identity** — a fixed transcript of request lines gets
//!    exactly the bytes the typed `Response` envelopes serialize to, and
//!    the reactor preserves per-connection request order under
//!    pipelining.
//! 4. **Protocol behavior** — stats counters, deadlines, graceful drain
//!    (also past a half-sent line), and the request-line size bound.
//! 5. **Connection scale** — a thousand idle connections on two reactors
//!    neither stall nor corrupt the active ones.
//!
//! Clients speak the typed [`similarity_skyline::protocol`] envelopes;
//! raw `send_line` is reserved for malformed-input and byte-parity
//! checks.

use std::sync::Arc;

mod support;

use similarity_skyline::core::jsonio::Value;
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::prelude::*;
use similarity_skyline::protocol::{
    QueryEnvelope, QueryOverrides, Request, Response, MAX_LINE_BYTES,
};
use similarity_skyline::server::{serve, Client, ServerConfig};
use support::{build_workload, graph_text, oracle};

/// A molecule workload and its query stream: the planted query plus a
/// handful of database members (their skylines are nontrivial and they
/// exercise the isomorphism short-circuit).
fn workload_queries(size: usize, seed: u64) -> (GraphDatabase, Vec<Graph>) {
    let (db, query) = build_workload(seed, size, WorkloadKind::Molecule);
    let mut queries = vec![query];
    for i in (0..db.len()).step_by(db.len().div_ceil(4).max(1)) {
        queries.push(db.get(GraphId(i)).clone());
    }
    (db, queries)
}

/// A `query` request with per-request overrides (the builder covers the
/// per-connection case; tests that mix option sets on one connection go
/// through the envelope directly).
fn query_request(text: &str, overrides: &QueryOverrides) -> Request {
    Request::Query(Box::new(QueryEnvelope {
        id: None,
        graph: text.to_owned(),
        overrides: overrides.clone(),
        deadline_ms: None,
    }))
}

#[test]
fn concurrent_clients_match_the_single_threaded_oracle() {
    let (db, queries) = workload_queries(24, 0xBEEF);
    let db = Arc::new(db);
    let handle = serve(
        Arc::clone(&db),
        QueryOptions::default(),
        ServerConfig {
            workers: 3,
            batch_max: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // Oracle answers per (query, options) pair, computed once up front.
    let option_sets: Vec<(QueryOverrides, QueryOptions)> = vec![
        (QueryOverrides::default(), QueryOptions::default()),
        (
            QueryOverrides {
                plan: Some(Plan::Prefilter),
                ..QueryOverrides::default()
            },
            QueryOptions {
                plan: Plan::Prefilter,
                ..QueryOptions::default()
            },
        ),
    ];
    let expected: Vec<Vec<String>> = option_sets
        .iter()
        .map(|(_, opts)| queries.iter().map(|q| oracle(&db, q, opts)).collect())
        .collect();

    // ≥ 4 concurrent clients, each issuing every (query, options) pair
    // twice in its own order — plenty of cache hits and batch overlap.
    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let db = &db;
            let queries = &queries;
            let option_sets = &option_sets;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..2 {
                    for (oi, (overrides, _)) in option_sets.iter().enumerate() {
                        for qi in 0..queries.len() {
                            // Stagger the order per client so batches mix
                            // different queries and option groups.
                            let qi = (qi + c + round) % queries.len();
                            let text = graph_text(db, &queries[qi]);
                            let response = client
                                .request(&query_request(&text, overrides))
                                .expect("query");
                            let served = match response {
                                Response::Result { result, .. } => result,
                                other => panic!("client {c}: {other:?}"),
                            };
                            assert_eq!(
                                served, expected[oi][qi],
                                "client {c} round {round} query {qi} option set {oi}"
                            );
                        }
                    }
                }
            });
        }
    });

    // Traffic shape: every query answered, cache hits happened, and the
    // dispatcher actually micro-batched (batched queries ≥ batches ≥ 1).
    let stats = Value::parse(&handle.stats_json()).expect("stats JSON");
    let count = |k: &str| stats.get(k).and_then(Value::as_f64).expect(k);
    let total = (CLIENTS * 2 * option_sets.len() * queries.len()) as f64;
    assert_eq!(count("queries"), total);
    assert!(count("cache_hits") > 0.0, "{stats:?}");
    assert_eq!(count("rejected"), 0.0, "{stats:?}");
    assert!(count("batches") >= 1.0);
    assert!(count("batched_queries") >= count("batches"));
    assert_eq!(
        count("cache_hits") + count("cache_misses"),
        total,
        "{stats:?}"
    );

    handle.shutdown();
    let final_stats = handle.join();
    assert!(final_stats.contains("\"draining\":true"), "{final_stats}");
}

/// The wire bytes are pinned: fixed request lines in, exactly the lines
/// the typed envelopes serialize to out — across verbs, malformed input,
/// cache hits and option overrides.
#[test]
fn the_wire_transcript_matches_the_typed_envelopes() {
    let (db, queries) = workload_queries(12, 0xFACE);
    let db = Arc::new(db);
    let config = ServerConfig::default();
    let handle = serve(Arc::clone(&db), QueryOptions::default(), config).expect("bind loopback");

    let escape = similarity_skyline::core::jsonio::escape;
    let q0 = escape(&graph_text(&db, &queries[0]));
    let q1 = escape(&graph_text(&db, &queries[1]));
    let lines = vec![
        "{\"id\":1,\"op\":\"ping\"}".to_owned(),
        "not json at all".to_owned(),
        "{\"id\":2,\"op\":\"frobnicate\"}".to_owned(),
        "{\"op\":\"query\"}".to_owned(),
        format!("{{\"id\":\"q0\",\"op\":\"query\",\"graph\":\"{q0}\"}}"),
        // Again: served from the cache, so only `cached` flips.
        format!("{{\"id\":\"q0\",\"op\":\"query\",\"graph\":\"{q0}\"}}"),
        format!("{{\"op\":\"query\",\"graph\":\"{q1}\",\"options\":{{\"plan\":\"prefilter\"}}}}"),
        format!("{{\"op\":\"query\",\"graph\":\"{q1}\",\"options\":{{\"bogus\":1}}}}"),
        "{\"id\":9,\"op\":\"query\",\"graph\":\"t q\\nv 0\"}".to_owned(),
    ];
    let id = |n: f64| Some(Value::Number(n));
    let error = |id, message: &str| Response::Error {
        id,
        message: message.to_owned(),
    };
    let result = |id: Option<&str>, cached, qi: usize, plan| {
        let options = QueryOptions {
            plan,
            ..QueryOptions::default()
        };
        Response::Result {
            id: id.map(|id| Value::String(id.to_owned())),
            cached,
            result: oracle(&db, &queries[qi], &options),
        }
    };
    let bad_graph = "cannot parse query graph: parse error at line 2: v line missing label";
    let expected = [
        Response::Pong { id: id(1.0) },
        error(None, "bad request: JSON error at byte 0: expected \"null\""),
        error(id(2.0), "unknown op \"frobnicate\""),
        error(None, "query needs a \"graph\" field (t/v/e text)"),
        result(Some("q0"), false, 0, Plan::Auto),
        result(Some("q0"), true, 0, Plan::Auto),
        result(None, false, 1, Plan::Prefilter),
        error(None, "unknown option \"bogus\""),
        error(id(9.0), bad_graph),
    ];

    let mut client = Client::connect(handle.addr()).expect("connect");
    for (line, expected) in lines.iter().zip(&expected) {
        let served = client.send_line(line).expect("response");
        assert_eq!(served, expected.to_line().trim_end(), "{line:?}");
    }
    handle.shutdown();
    handle.join();
}

/// A served `result` is the answer document: the skyline members and their
/// vectors, sized by the skyline rather than by the database. Against a few
/// hundred graphs it names exactly the members, carries no per-graph rows,
/// and equals the oracle's bytes.
#[test]
fn a_served_result_names_only_the_skyline_members() {
    let (db, query) = build_workload(0x5C0B, 320, WorkloadKind::Molecule);
    let db = Arc::new(db);
    let handle = serve(
        Arc::clone(&db),
        QueryOptions::default(),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let request = query_request(&graph_text(&db, &query), &QueryOverrides::default());
    let served = match client.request(&request).expect("query") {
        Response::Result { result, .. } => result,
        other => panic!("{other:?}"),
    };
    handle.shutdown();
    handle.join();

    let skyline = graph_similarity_skyline(&db, &query, &QueryOptions::default()).skyline;
    assert!(skyline.len() < db.len() / 10, "{} members", skyline.len());
    let doc = Value::parse(&served).expect("result JSON");
    assert!(doc.get("graphs").is_none(), "{served}");
    let names: Vec<&str> = doc
        .get("skyline")
        .and_then(Value::as_array)
        .expect("a skyline array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a member name")
        })
        .collect();
    let members: Vec<&str> = skyline.iter().map(|&id| db.name_of(id)).collect();
    assert_eq!(names, members);
    assert_eq!(
        served.matches("\"name\":").count(),
        skyline.len(),
        "{served}"
    );
    assert_eq!(served, oracle(&db, &query, &QueryOptions::default()));
}

/// Pipelined requests on one connection come back strictly in request
/// order, even though pings are answered inline while queries take the
/// dispatcher round-trip (the reactor's sequence-slot ordering).
#[test]
fn reactor_pipelines_responses_in_request_order() {
    use std::io::{BufRead, BufReader, Write};

    let (db, queries) = workload_queries(10, 0xC0DE);
    let db = Arc::new(db);
    let handle = serve(
        Arc::clone(&db),
        QueryOptions::default(),
        ServerConfig {
            // Two reactors: the connection also exercises the accept
            // hand-off (injection) path, not just reactor 0.
            reactor_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let escape = similarity_skyline::core::jsonio::escape;
    let q0 = escape(&graph_text(&db, &queries[0]));
    let q1 = escape(&graph_text(&db, &queries[1]));
    let burst = format!(
        "{{\"id\":1,\"op\":\"ping\"}}\n\
         {{\"id\":2,\"op\":\"query\",\"graph\":\"{q0}\"}}\n\
         {{\"id\":3,\"op\":\"ping\"}}\n\
         garbage\n\
         {{\"id\":5,\"op\":\"query\",\"graph\":\"{q1}\"}}\n\
         {{\"id\":6,\"op\":\"ping\"}}\n"
    );

    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(burst.as_bytes()).expect("write burst");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream);
    let mut ids = Vec::new();
    for _ in 0..6 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read response") > 0);
        let v = Value::parse(line.trim_end()).expect("response JSON");
        ids.push(v.get("id").and_then(Value::as_f64));
    }
    assert_eq!(
        ids,
        vec![Some(1.0), Some(2.0), Some(3.0), None, Some(5.0), Some(6.0)],
        "responses must arrive in request order"
    );

    handle.shutdown();
    handle.join();
}

/// The `poll(2)` front end under a wall of connections: a thousand idle
/// sockets plus sixteen active ones replaying the committed smoke workload
/// ([`WorkloadConfig::bench_smoke`]) on two reactor threads (508 fds each,
/// so every wake re-arms 508 `pollfd`s). Every response equals direct
/// evaluation, every idle connection still answers after the replay, and
/// the replay's p99 stays within 2 s — a stall detector (missed wakeups,
/// head-of-line blocking across connections), not a benchmark.
///
/// Client and server share this process, so the test holds both ends of
/// ~1 016 loopback connections at once: it needs `ulimit -n` above ~2 100.
#[test]
fn a_thousand_idle_connections_on_two_reactors_leave_the_active_ones_answering() {
    use similarity_skyline::server::percentile_us;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    const IDLE: usize = 1_000;
    const ACTIVE: usize = 16;
    const PASSES: usize = 2;
    const P99_BUDGET_US: f64 = 2_000_000.0;

    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let db = Arc::new(GraphDatabase::from_parts(w.vocab, w.graphs));
    let options = QueryOptions {
        plan: Plan::Prefilter,
        ..QueryOptions::default()
    };
    // The planted query plus every tenth database graph: a mix of
    // short-circuit-friendly members and real scans.
    let mut queries = vec![w.query];
    queries.extend(
        (0..db.len())
            .step_by(10)
            .map(|i| db.get(GraphId(i)).clone()),
    );
    let texts: Vec<String> = queries.iter().map(|q| graph_text(&db, q)).collect();
    let expected: Vec<String> = queries.iter().map(|q| oracle(&db, q, &options)).collect();
    let handle = serve(
        Arc::clone(&db),
        options,
        ServerConfig {
            workers: 4,
            batch_max: 8,
            reactor_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let ping = |conn: &mut BufReader<TcpStream>| {
        conn.get_mut()
            .write_all(b"{\"op\":\"ping\"}\n")
            .expect("write ping");
    };
    let pong = |conn: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        conn.read_line(&mut line).expect("read pong");
        assert!(line.contains("\"ok\":true"), "bad pong: {line:?}");
    };

    // The idle wall: each connection proves it is registered with a
    // round trip.
    let mut idle: Vec<BufReader<TcpStream>> = (0..IDLE)
        .map(|_| BufReader::new(TcpStream::connect(addr).expect("connect idle")))
        .collect();
    for conn in &mut idle {
        ping(conn);
        pong(conn);
    }

    // The active connections replay the queries while the wall stays
    // parked on the same reactors, staggered per connection and pass so
    // micro-batches mix distinct queries.
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ACTIVE)
            .map(|c| {
                let (texts, expected) = (&texts, &expected);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect active");
                    let mut latencies = Vec::new();
                    for pass in 0..PASSES {
                        for k in 0..texts.len() {
                            let k = (k + c + pass) % texts.len();
                            let t = Instant::now();
                            let response = client.query(&texts[k]).expect("query");
                            latencies.push(t.elapsed().as_micros() as u64);
                            match response {
                                Response::Result { result, .. } => {
                                    assert_eq!(result, expected[k], "connection {c} query {k}")
                                }
                                other => panic!("connection {c}: {other:?}"),
                            }
                        }
                    }
                    latencies
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("active connection"))
            .collect()
    });
    latencies.sort_unstable();
    assert_eq!(latencies.len(), ACTIVE * PASSES * texts.len());

    // Every idle connection still answers: all writes first, then all
    // reads, so a thousand responses are in flight at once.
    for conn in &mut idle {
        ping(conn);
    }
    for conn in &mut idle {
        pong(conn);
    }

    let p99 = percentile_us(&latencies, 99);
    assert!(
        p99 <= P99_BUDGET_US,
        "query p99 {p99:.0} µs under the wall (budget {P99_BUDGET_US:.0} µs)"
    );
    drop(idle);
    handle.shutdown();
    handle.join();
}

/// A request line past `MAX_LINE_BYTES` is refused, not buffered: the
/// server answers the request ahead of it, then the typed error, then
/// hangs up — and keeps serving everyone else. With two reactors the
/// flooded connection and the bystander sit on different threads.
#[test]
fn an_over_long_request_line_is_refused_and_the_connection_closed() {
    use std::io::{Read, Write};

    let (db, _) = workload_queries(4, 0xB16);
    let db = Arc::new(db);
    let expected = format!(
        "{}{}",
        Response::Pong {
            id: Some(Value::Number(1.0))
        }
        .to_line(),
        Response::line_too_long().to_line()
    );
    assert!(expected.contains(&MAX_LINE_BYTES.to_string()));
    for reactor_threads in [1, 2] {
        let handle = serve(
            Arc::clone(&db),
            QueryOptions::default(),
            ServerConfig {
                reactor_threads,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");

        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(b"{\"id\":1,\"op\":\"ping\"}\n")
            .expect("write ping");
        // One byte over and unterminated: the server has read every byte
        // sent when it gives up, so the hang-up is a clean end of stream.
        stream
            .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
            .expect("write flood");
        let mut transcript = String::new();
        stream
            .read_to_string(&mut transcript)
            .expect("the server closes the connection after refusing");
        assert_eq!(transcript, expected, "reactor_threads = {reactor_threads}");

        let mut bystander = Client::connect(handle.addr()).expect("connect bystander");
        assert!(bystander.ping().expect("ping").is_ok());
        handle.shutdown();
        handle.join();
    }
}

/// `reactor_threads` is a plain thread count: anything below one runs one
/// reactor — no error, no other mode.
#[test]
fn zero_reactor_threads_serve_like_one() {
    let (db, _) = workload_queries(4, 0x2E20);
    let db = Arc::new(db);
    let pong = |reactor_threads| {
        let config = ServerConfig {
            reactor_threads,
            ..ServerConfig::default()
        };
        let handle = serve(Arc::clone(&db), QueryOptions::default(), config).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let line = client
            .send_line("{\"id\":7,\"op\":\"ping\"}")
            .expect("pong");
        handle.shutdown();
        (line, handle.join())
    };
    assert_eq!(pong(0), pong(1));
}

/// A connection parked mid-line owes no response, so it cannot hold up a
/// drain: `shutdown` is acknowledged and `join` returns while the client
/// still has half a request on the wire.
#[test]
fn drain_completes_past_a_half_sent_line() {
    use std::io::{Read, Write};

    let (db, _) = workload_queries(4, 0x4A1F);
    let handle = serve(
        Arc::new(db),
        QueryOptions::default(),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let mut stalled = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stalled
        .write_all(b"{\"id\":1,\"op\":\"pi")
        .expect("half a line");
    // The ping proves the reactor is past accepting both connections.
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(client.ping().expect("ping").is_ok());
    assert!(matches!(
        client.shutdown().expect("shutdown"),
        Response::Draining { .. }
    ));
    let final_stats = handle.join();
    assert!(final_stats.contains("\"served\":2,"), "{final_stats}");
    // Never answered, just closed.
    let mut rest = Vec::new();
    let _ = stalled.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{rest:?}");
}

#[test]
fn stats_and_drain_protocol() {
    let (db, queries) = workload_queries(10, 0x51A7);
    let db = Arc::new(db);
    let handle = serve(
        Arc::clone(&db),
        QueryOptions::default(),
        ServerConfig::default(),
    )
    .expect("bind loopback");

    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(matches!(
        client.ping().expect("ping"),
        Response::Pong { .. }
    ));
    let text = graph_text(&db, &queries[0]);
    assert!(client.query(&text).expect("query").is_ok());
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("queries").and_then(Value::as_f64), Some(1.0));
    assert_eq!(stats.get("draining"), Some(&Value::Bool(false)));
    // Totals flow through from the engine's BatchStats aggregation.
    let totals = stats.get("totals").expect("totals");
    assert_eq!(
        totals.get("candidates").and_then(Value::as_f64),
        Some(db.len() as f64)
    );

    // Shutdown over the wire: acknowledged; cached queries may still be
    // served (drain stops admission of *work*, and a hit costs nothing),
    // but anything needing evaluation is refused with backpressure.
    let ack = client.shutdown().expect("shutdown");
    assert!(matches!(ack, Response::Draining { .. }), "{ack:?}");
    match client.query(&text) {
        Ok(Response::Result { cached, .. }) => assert!(cached, "drain admits no work"),
        Ok(other) => panic!("cached replay during drain: {other:?}"),
        Err(_) => {} // connection already torn down — a valid drain outcome
    }
    let uncached = client.request(&query_request(
        &graph_text(&db, &queries[1]),
        &QueryOverrides {
            plan: Some(Plan::Prefilter),
            ..QueryOverrides::default()
        },
    ));
    match uncached {
        Ok(Response::Backpressure { .. }) => {}
        Ok(other) => panic!("drain refusals carry the backpressure hint: {other:?}"),
        Err(_) => {} // ditto
    }
    let final_stats = handle.join();
    assert!(final_stats.contains("\"draining\":true"), "{final_stats}");
}

#[test]
fn deadline_aborts_a_long_query_mid_evaluation() {
    use similarity_skyline::core::{exec, CancelToken, Plan};
    use std::time::{Duration, Instant};

    const DEADLINE_MS: u64 = 200;
    // Grow the workload until a naive single-threaded scan provably
    // outlives the deadline *in this build mode*: the probe itself runs
    // through the executor with a deadline-armed CancelToken and must be
    // aborted mid-scan. This keeps the server half of the test
    // deterministic on fast and slow machines alike.
    let naive = QueryOptions {
        plan: Plan::Naive,
        ..QueryOptions::default()
    };
    let mut size = 30;
    let calibrated = loop {
        let w = Workload::generate(&WorkloadConfig {
            kind: WorkloadKind::Molecule,
            database_size: size,
            graph_vertices: 7,
            related_fraction: 0.3,
            max_edits: 4,
            seed: 0xABBA,
        });
        let db = GraphDatabase::from_parts(w.vocab, w.graphs);
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(DEADLINE_MS));
        let aborted = exec::skyline(&db, &w.query, &naive, &token).is_err();
        if aborted || size >= 122_880 {
            assert!(
                aborted,
                "even a {size}-graph naive scan finished in {DEADLINE_MS} ms"
            );
            break size;
        }
        size *= 2;
    };
    // Margin against CPU contention: with the whole suite running in
    // parallel the probe can calibrate small (the contended scan is
    // slow), yet the server evaluates later with the machine otherwise
    // idle. A 4× larger database keeps the server-side scan past the
    // deadline even at uncontended speed.
    let w = Workload::generate(&WorkloadConfig {
        kind: WorkloadKind::Molecule,
        database_size: calibrated * 4,
        graph_vertices: 7,
        related_fraction: 0.3,
        max_edits: 4,
        seed: 0xABBA,
    });
    let db = GraphDatabase::from_parts(w.vocab, w.graphs);
    let query = w.query;

    // The server evaluates the same scan (per-query single-threaded);
    // the request's deadline passes while it is being evaluated, so the
    // engine's CancelToken aborts it at a wave checkpoint and the client
    // gets the deadline error — counted as `cancelled`, not as the
    // in-queue `deadline_expired`.
    let db = Arc::new(db);
    let handle = serve(
        Arc::clone(&db),
        naive,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::builder()
        .deadline_ms(DEADLINE_MS)
        .connect(handle.addr())
        .expect("connect");
    let text = graph_text(&db, &query);
    let started = std::time::Instant::now();
    let response = client.query(&text).expect("response");
    assert!(matches!(response, Response::Expired { .. }), "{response:?}");
    // The abort happened promptly: well before a full scan would finish
    // (the probe proved a full scan outlives the deadline), bounded by
    // deadline + one wave of solver calls.
    assert!(
        started.elapsed() >= Duration::from_millis(DEADLINE_MS / 2),
        "a mid-scan abort cannot beat the deadline by much: {:?}",
        started.elapsed()
    );

    let stats = Value::parse(&handle.stats_json()).expect("stats JSON");
    let count = |k: &str| stats.get(k).and_then(Value::as_f64).expect(k);
    assert_eq!(count("cancelled"), 1.0, "{stats:?}");
    assert_eq!(
        count("deadline_expired"),
        0.0,
        "the abort must be mid-evaluation, not in-queue: {stats:?}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn deadline_zero_expires_in_queue() {
    let (db, queries) = workload_queries(10, 0xDEAD);
    let db = Arc::new(db);
    let handle = serve(
        Arc::clone(&db),
        QueryOptions::default(),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    // A 0 ms deadline is already expired when the dispatcher pops it.
    let mut client = Client::builder()
        .deadline_ms(0)
        .connect(handle.addr())
        .expect("connect");
    let text = graph_text(&db, &queries[0]);
    let response = client.query(&text).expect("response");
    assert!(matches!(response, Response::Expired { .. }), "{response:?}");
    handle.shutdown();
    handle.join();
}
