//! The scenario registry: every experiment the `scaling` binary runs.
//!
//! Wall-clock performance is measured by the repository benchmark
//! (`benchmark/`, declared in `BENCHMARK.json`), which has seeds, spread
//! and noise bands. What lives here is what that harness does not do: the
//! **structural gates** — conditions that repeat exactly on the committed
//! smoke workload ([`WorkloadConfig::bench_smoke`]): solver-call and
//! expanded-node counts, answer parity, recovery and retry bookkeeping —
//! plus the two generous wall-clock ceilings that catch a stalled
//! readiness layer (`s11`) or a load path that fell back to parsing
//! (`s14`), and the diversity-refinement table the benchmark has no metric
//! for (`s5`, ungated).

use std::time::Instant;

use gss_core::jsonio::Value;
use gss_core::{graph_similarity_skyline, GraphDatabase, GraphId, PruneStats, QueryOptions};
use gss_datasets::workload::{Workload, WorkloadConfig};
use gss_graph::Graph;
use gss_server::{Client, Response};

use crate::report::{Scenario, ScenarioReport};

mod churn;
mod coldstart;
mod crash;
mod diversity;
mod index;
mod plans;
mod reactor;
mod serve;
mod solvers;

/// Every scenario, in report order. Adding one is one `impl Scenario` and
/// one line here.
pub fn registry() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(diversity::Diversity),
        Box::new(index::Index),
        Box::new(serve::Serve),
        Box::new(solvers::Solvers),
        Box::new(plans::Plans),
        Box::new(reactor::Reactor),
        Box::new(churn::Churn),
        Box::new(crash::CrashChurn),
        Box::new(coldstart::ColdStart),
    ]
}

/// The committed smoke workload as a database plus its planted query.
fn smoke() -> (GraphDatabase, Graph) {
    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    (GraphDatabase::from_parts(w.vocab, w.graphs), w.query)
}

/// Median wall time of `runs` executions, in microseconds.
fn time_us<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Records the pruning counters of one scan under `prefix`.
fn record_stats(report: &mut ScenarioReport, prefix: &str, s: &PruneStats) {
    report.count(format!("{prefix}.candidates"), s.candidates);
    report.count(format!("{prefix}.verified"), s.verified);
    report.count(format!("{prefix}.pruned"), s.pruned);
    report.count(format!("{prefix}.short_circuited"), s.short_circuited);
    report.count(format!("{prefix}.index_skipped"), s.index_skipped);
}

/// The options every serving scenario runs its server with.
fn prefilter_options() -> QueryOptions {
    QueryOptions {
        prefilter: true,
        ..QueryOptions::default()
    }
}

/// The replayed queries in wire form: the planted query plus every
/// `step`-th database graph (a mix of short-circuit-friendly members and
/// real scans).
fn replay_set(db: &GraphDatabase, query: &Graph, step: usize) -> (Vec<Graph>, Vec<String>) {
    let mut queries = vec![query.clone()];
    queries.extend(
        (0..db.len())
            .step_by(step)
            .map(|i| db.get(GraphId(i)).clone()),
    );
    let texts = queries.iter().map(|q| wire_text(db, q)).collect();
    (queries, texts)
}

/// One graph in the `t/v/e` text form requests carry.
fn wire_text(db: &GraphDatabase, g: &Graph) -> String {
    gss_graph::format::write_database(std::slice::from_ref(g), db.vocab())
}

/// The direct-evaluation oracle for the mismatch gates: what a
/// single-threaded `graph_similarity_skyline` call under the servers'
/// options serializes to.
fn oracle(db: &GraphDatabase, queries: &[Graph]) -> Vec<String> {
    let options = prefilter_options();
    queries
        .iter()
        .map(|q| {
            let r = graph_similarity_skyline(db, q, &options);
            Value::parse(&gss_core::to_json(db, &r))
                .expect("explain output is valid JSON")
                .to_compact()
        })
        .collect()
}

/// Replays `texts` `passes` times over `connections` concurrent typed
/// clients, staggering the order per connection and pass so micro-batches
/// mix distinct queries. Returns the ascending per-request latencies (µs)
/// and how many served result documents differ from `expected` (a refusal
/// counts as a mismatch).
fn replay(
    addr: std::net::SocketAddr,
    texts: &[String],
    expected: &[String],
    connections: usize,
    passes: usize,
) -> (Vec<u64>, usize) {
    let per_connection: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut latencies = Vec::new();
                    let mut mismatches = 0usize;
                    for pass in 0..passes {
                        for k in 0..texts.len() {
                            let k = (k + c + pass) % texts.len();
                            let t = Instant::now();
                            let response = client.query(&texts[k]).expect("query");
                            latencies.push(t.elapsed().as_micros() as u64);
                            let served = match &response {
                                Response::Result { result, .. } => result.as_str(),
                                _ => "",
                            };
                            if served != expected[k] {
                                mismatches += 1;
                            }
                        }
                    }
                    (latencies, mismatches)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut latencies = Vec::new();
    let mut mismatches = 0;
    for (lat, mm) in per_connection {
        latencies.extend(lat);
        mismatches += mm;
    }
    latencies.sort_unstable();
    (latencies, mismatches)
}

/// Mutation payload: database graph `i`'s structure under a fresh name, so
/// the vocabulary never grows, every batch is valid wherever a crash lands
/// and inserted graphs can never be pivots (churn stays on the
/// incremental / partial maintenance path).
fn donor_text(db: &GraphDatabase, i: usize, name: &str) -> String {
    let text = wire_text(db, db.get(GraphId(i % db.len())));
    let body = text.split_once('\n').map_or("", |(_, b)| b);
    format!("t {name}\n{body}")
}

/// A numeric counter out of the server's `stats` document.
fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or_default()
}
