//! `s11-reactor` — the `poll(2)` front end under a wall of connections: a
//! thousand mostly-idle sockets plus an active replay subset multiplexed
//! onto two reactor threads (508 fds each, so every reactor wake
//! re-arms 508 `pollfd`s — tens of µs on a ping, nothing a millisecond
//! query notices), with every response checked against direct evaluation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use gss_server::{percentile_us, serve, ServerConfig};

use super::{oracle, prefilter_options, replay, replay_set, smoke};
use crate::report::{Scenario, ScenarioReport};

const IDLE: usize = 1_000;
const ACTIVE: usize = 16;
const PASSES: usize = 2;
const REACTOR_THREADS: usize = 2;

/// Recorded latency budget: p99 over the active query replay while the
/// idle wall sits on the reactor. Generous on purpose — the gate exists to
/// catch readiness-layer stalls (missed wakeups, head-of-line blocking
/// across connections), not to benchmark solver throughput.
const S11_P99_BUDGET_US: f64 = 2_000_000.0;

const PING: &[u8] = b"{\"op\":\"ping\"}\n";

pub(super) struct Reactor;

/// Reads one response line off a raw wire connection. Only safe with a
/// single in-flight request per connection, so a trailing `\n` means the
/// response is complete.
fn read_wire_line(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed the connection mid-response");
        buf.extend_from_slice(&chunk[..n]);
        if buf.last() == Some(&b'\n') {
            return String::from_utf8(buf).expect("response is UTF-8");
        }
    }
}

impl Scenario for Reactor {
    fn id(&self) -> &'static str {
        "s11-reactor"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let db = Arc::new(db);
        let (queries, texts) = replay_set(&db, &query, 10);
        let expected = oracle(&db, &queries);
        let handle = serve(
            Arc::clone(&db),
            prefilter_options(),
            ServerConfig {
                workers: 4,
                batch_max: 8,
                reactor_threads: REACTOR_THREADS,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
        let addr = handle.addr();

        // Phase 1 — the idle wall: a thousand raw connections, each
        // proving it is registered with a round-trip ping (timed
        // individually; no solver in the path).
        let mut idle: Vec<TcpStream> = (0..IDLE)
            .map(|_| {
                let s = TcpStream::connect(addr).expect("connect idle");
                s.set_nodelay(true).expect("nodelay");
                s
            })
            .collect();
        let mut pings: Vec<u64> = Vec::with_capacity(IDLE);
        for s in &mut idle {
            let t = Instant::now();
            s.write_all(PING).expect("write ping");
            let line = read_wire_line(s);
            pings.push(t.elapsed().as_micros() as u64);
            assert!(line.contains("\"ok\":true"), "bad pong: {line}");
        }
        pings.sort_unstable();

        // Phase 2 — the active subset replays the smoke queries while the
        // idle wall stays parked on the same reactors.
        let (latencies, mut mismatches) = replay(addr, &texts, &expected, ACTIVE, PASSES);

        // Phase 3 — every idle connection must still be answering (a
        // flood: all writes first, then all reads, so a thousand
        // responses are in flight at once).
        for s in &mut idle {
            s.write_all(PING).expect("write ping");
        }
        for s in &mut idle {
            if !read_wire_line(s).contains("\"ok\":true") {
                mismatches += 1;
            }
        }
        drop(idle);
        handle.shutdown();
        handle.join();

        let connections = IDLE + ACTIVE;
        let p99 = percentile_us(&latencies, 99);
        let mut report = ScenarioReport::default();
        report.count("connections", connections);
        report.count("reactor_threads", REACTOR_THREADS);
        report.count("requests", latencies.len());
        report.count("mismatches", mismatches);
        report.metric("ping_p99", "us", percentile_us(&pings, 99));
        report.metric("query_p50", "us", percentile_us(&latencies, 50));
        report.metric("query_p99", "us", p99);
        report.gate(
            "s11.connections_ge_1k_on_le_2_reactors",
            connections >= 1_000 && REACTOR_THREADS <= 2,
            format!("held {connections} connections on {REACTOR_THREADS} reactor threads"),
        );
        report.gate(
            "s11.zero_mismatches",
            mismatches == 0,
            format!(
                "{mismatches} of {} reactor-served responses differ from direct evaluation \
                 (or an idle connection stopped answering)",
                latencies.len()
            ),
        );
        report.gate(
            "s11.query_p99_within_budget",
            p99 <= S11_P99_BUDGET_US,
            format!("query p99 {p99:.0} µs under the wall (budget {S11_P99_BUDGET_US:.0} µs)"),
        );
        report
    }
}
