//! The networked subcommands: `gss serve` and `gss client`.
//!
//! `serve` starts a `gss-server` over a database file — wrapped in a live
//! [`GraphStore`] (with the `--index` pivot index maintained across
//! mutations, partial-rebuilding once `--staleness-budget` is exceeded) —
//! and blocks until a client sends the `shutdown` verb (graceful drain).
//! `client` speaks the newline-delimited JSON protocol: one-shot queries
//! (`--query-file`, `-` for stdin), atomic mutation batches
//! (`--insert-file`, `--remove`, `--update` + `--update-file`), counter
//! inspection (`--stats`), drain requests (`--shutdown`) and a load
//! generator (`--bench`) that measures queries/sec and latency
//! percentiles over concurrent connections.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use gss_core::jsonio::Value;
use gss_core::QueryOptions;
use gss_server::{
    percentile_us, Client, ClientBuilder, FaultPlan, GraphStore, RetryPolicy, ServerConfig,
    StoreConfig,
};
use gss_store::{FsyncPolicy, WalConfig};

use crate::args::{ArgError, Args};
use crate::commands::{load_db, load_index, parse_plan, read_text_input};

/// `gss serve` — run the query server until a `shutdown` request drains it.
pub fn serve(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&[
        "db",
        "index",
        "addr",
        "workers",
        "reactor-threads",
        "shards",
        "queue",
        "cache",
        "batch",
        "deadline-ms",
        "plan",
        "staleness-budget",
        "data-dir",
        "fsync",
        "checkpoint-every",
    ])?;
    let db = load_db(args)?;
    let index = load_index(&db, args)?;
    let (plan, shards) = parse_plan(args, index.is_some())?;
    let base = QueryOptions {
        plan,
        shards,
        ..Default::default()
    };
    // The index lives in the live store (not the base options): each
    // mutation epoch maintains it incrementally and queries pick it up
    // from their pinned snapshot.
    let store_config = StoreConfig {
        index: None,
        staleness_budget: args
            .get_parsed_or("staleness-budget", StoreConfig::default().staleness_budget)?,
    };
    let db = Arc::new(db);
    // Chaos testing: GSS_FAULT compiles a deterministic fault plan into
    // the WAL and connection write paths (see gss_store::fault).
    let faults = match std::env::var("GSS_FAULT") {
        Ok(spec) if !spec.trim().is_empty() => {
            Arc::new(FaultPlan::parse(&spec).map_err(|e| ArgError(format!("bad GSS_FAULT: {e}")))?)
        }
        _ => Arc::new(FaultPlan::none()),
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:7878").to_owned(),
        workers: args.get_checked_or("workers", defaults.workers, 1.., "at least 1")?,
        reactor_threads: args.get_checked_or(
            "reactor-threads",
            defaults.reactor_threads,
            1..,
            "at least 1",
        )?,
        queue_capacity: args.get_checked_or("queue", defaults.queue_capacity, 1.., "at least 1")?,
        cache_capacity: args.get_parsed_or("cache", defaults.cache_capacity)?,
        batch_max: args.get_checked_or("batch", defaults.batch_max, 1.., "at least 1")?,
        default_deadline_ms: args.get_checked_or(
            "deadline-ms",
            defaults.default_deadline_ms,
            1..,
            "at least 1",
        )?,
        faults,
    };
    let store = match args.get("data-dir") {
        Some(dir) => {
            // Durable mode: the WAL owns recovery, so the pivot index is
            // rebuilt on the recovered database rather than loaded.
            let durable_config = StoreConfig {
                index: index.as_ref().map(|i| i.config()),
                ..store_config
            };
            let mut wal_config = WalConfig::new(dir);
            if let Some(policy) = args.get("fsync") {
                wal_config.fsync = FsyncPolicy::parse(policy).ok_or_else(|| {
                    ArgError(format!("bad --fsync {policy:?} (always|off|every-N)"))
                })?;
            }
            wal_config.checkpoint_every =
                args.get_parsed_or("checkpoint-every", wal_config.checkpoint_every)?;
            wal_config.faults = Arc::clone(&config.faults);
            GraphStore::open_durable(db, durable_config, wal_config)
                .map_err(|e| ArgError(format!("cannot open --data-dir {dir}: {e}")))?
        }
        None => {
            if args.get("fsync").is_some() || args.get("checkpoint-every").is_some() {
                return Err(ArgError(
                    "--fsync / --checkpoint-every need --data-dir DIR".to_owned(),
                ));
            }
            match index {
                Some(index) => GraphStore::with_index(db, index, store_config)
                    .map_err(|e| ArgError(format!("--index does not match --db: {e}")))?,
                None => GraphStore::new(db, store_config),
            }
        }
    };
    let graphs = store.snapshot().database().len();
    let handle = gss_server::serve_store(Arc::new(store), base, config)
        .map_err(|e| ArgError(format!("cannot start server: {e}")))?;
    // The bound address goes to stderr immediately (stdout is reserved for
    // the final report): with --addr …:0 this is the only place the chosen
    // port appears.
    eprintln!(
        "gss-server listening on {} ({graphs} graphs); send {{\"op\":\"shutdown\"}} to stop",
        handle.addr()
    );
    let final_stats = handle.join();
    Ok(format!("drained; final stats: {final_stats}\n"))
}

/// `gss wal inspect DIR` — offline durability-log inspection: per-file
/// record counts and checksum status plus the recoverable epoch range,
/// without opening (or mutating) the store.
pub fn wal(args: &Args) -> Result<String, ArgError> {
    match args.positional().get(1).map(String::as_str) {
        Some("inspect") => wal_inspect(args),
        other => Err(ArgError(format!(
            "unknown wal subcommand {other:?} (inspect)"
        ))),
    }
}

fn wal_inspect(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&[])?;
    let dir = args
        .positional()
        .get(2)
        .ok_or_else(|| ArgError("usage: gss wal inspect DIR".to_owned()))?;
    let report = gss_store::inspect(std::path::Path::new(dir))
        .map_err(|e| ArgError(format!("cannot inspect {dir}: {e}")))?;

    let status = |s: &gss_store::ArtifactStatus| match s {
        gss_store::ArtifactStatus::Clean => "clean".to_owned(),
        gss_store::ArtifactStatus::TornTail { offset } => {
            format!("torn tail at byte {offset} (recovery truncates)")
        }
        gss_store::ArtifactStatus::Corrupt { detail } => format!("CORRUPT: {detail}"),
    };
    let mut out = String::new();
    let _ = writeln!(out, "wal directory {dir}:");
    for c in &report.checkpoints {
        let graphs = c
            .graphs
            .map(|g| format!("{g} graphs"))
            .unwrap_or_else(|| "? graphs".to_owned());
        let _ = writeln!(
            out,
            "  checkpoint {} epoch {} ({graphs}) — {}",
            c.file,
            c.epoch,
            status(&c.status)
        );
    }
    for s in &report.segments {
        let range = match (s.first_epoch, s.last_epoch) {
            (Some(a), Some(b)) => format!("epochs {a}..={b}"),
            _ => "no complete records".to_owned(),
        };
        let _ = writeln!(
            out,
            "  segment {} ({} bytes, {} records, {range}) — {}",
            s.file,
            s.bytes,
            s.records,
            status(&s.status)
        );
    }
    if report.checkpoints.is_empty() && report.segments.is_empty() {
        let _ = writeln!(out, "  (empty)");
    }
    match report.recoverable {
        Some((from, to)) => {
            let _ = writeln!(out, "recoverable: epochs {from}..={to}");
        }
        None => {
            let _ = writeln!(out, "recoverable: NONE — recovery would refuse this log");
        }
    }
    Ok(out)
}

/// Builds the typed client configuration from the query-option flags
/// (the default builder when none are given).
fn client_builder(args: &Args) -> Result<ClientBuilder, ArgError> {
    let mut builder = Client::builder();
    if let Some(plan) = args.get("plan") {
        builder = builder.plan(gss_core::Plan::parse(plan).ok_or_else(|| {
            ArgError(format!(
                "unknown --plan {plan:?} (auto|naive|prefilter|indexed|sharded)"
            ))
        })?);
    }
    if let Some(ms) = args.get("deadline-ms") {
        builder = builder.deadline_ms(
            ms.parse()
                .map_err(|_| ArgError(format!("bad --deadline-ms {ms:?}")))?,
        );
    }
    if let Some(n) = args.get("retry") {
        let n: u32 = n
            .parse()
            .map_err(|_| ArgError(format!("bad --retry {n:?}")))?;
        builder = builder.retry(RetryPolicy::retries(n));
    }
    Ok(builder)
}

fn connect(addr: &str) -> Result<Client, ArgError> {
    Client::connect(addr).map_err(|e| ArgError(format!("cannot connect to {addr}: {e}")))
}

fn connect_with(builder: ClientBuilder, addr: &str) -> Result<Client, ArgError> {
    builder
        .connect(addr)
        .map_err(|e| ArgError(format!("cannot connect to {addr}: {e}")))
}

fn io_err(e: std::io::Error) -> ArgError {
    ArgError(format!("protocol error: {e}"))
}

/// `gss client` — one-shot queries, stats, shutdown and load generation
/// against a running `gss serve`.
pub fn client(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&[
        "addr",
        "query-file",
        "bench",
        "db",
        "connections",
        "repeat",
        "limit",
        "plan",
        "deadline-ms",
        "retry",
        "stats",
        "shutdown",
        "insert-file",
        "remove",
        "update",
        "update-file",
    ])?;
    let addr = args.require("addr")?;
    let mut out = String::new();
    let mut acted = false;

    if let Some(path) = args.get("query-file") {
        acted = true;
        let text = read_text_input(path, "--query-file")?;
        let response = connect_with(client_builder(args)?, addr)?
            .query(&text)
            .map_err(io_err)?;
        out.push_str(&response.to_line());
    }

    if let Some(path) = args.get("insert-file") {
        acted = true;
        let text = read_text_input(path, "--insert-file")?;
        let response = connect_with(client_builder(args)?, addr)?
            .insert(&text)
            .map_err(io_err)?;
        out.push_str(&response.to_line());
    }

    if let Some(list) = args.get("remove") {
        acted = true;
        let names: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(str::to_owned)
            .collect();
        if names.is_empty() {
            return Err(ArgError(
                "--remove needs at least one graph name".to_owned(),
            ));
        }
        let response = connect_with(client_builder(args)?, addr)?
            .remove(&names)
            .map_err(io_err)?;
        out.push_str(&response.to_line());
    }

    match (args.get("update"), args.get("update-file")) {
        (Some(name), Some(path)) => {
            acted = true;
            let text = read_text_input(path, "--update-file")?;
            let response = connect_with(client_builder(args)?, addr)?
                .update(name, &text)
                .map_err(io_err)?;
            out.push_str(&response.to_line());
        }
        (Some(_), None) => {
            return Err(ArgError(
                "--update needs --update-file FILE with the replacement graph".to_owned(),
            ))
        }
        (None, Some(_)) => {
            return Err(ArgError(
                "--update-file needs --update NAME naming the graph to replace".to_owned(),
            ))
        }
        (None, None) => {}
    }

    if args.flag("bench") {
        acted = true;
        out.push_str(&bench(addr, args)?);
    }

    if args.flag("stats") {
        acted = true;
        let stats = connect(addr)?.stats().map_err(io_err)?;
        let _ = writeln!(out, "{}", stats.to_compact());
        // Render the server's memory section as readable text below the
        // raw JSON (same layout `gss pack` and `gss index stats` print).
        if let Some(mem) = stats.get("memory") {
            let field = |k: &str| mem.get(k).and_then(Value::as_f64).unwrap_or(0.0) as usize;
            out.push_str(&crate::commands::memory_report(
                &gss_core::database::MemoryStats {
                    graphs: field("graphs"),
                    arena_graphs: field("arena_graphs"),
                    materialized: field("materialized"),
                    arena_bytes: field("arena_bytes"),
                    stats_columns_bytes: field("stats_columns_bytes"),
                    pool_entries: field("pool_entries"),
                    pool_bytes: field("pool_bytes"),
                    pointer_rich_bytes: field("pointer_rich_bytes"),
                },
            ));
            if let Some(ms) = mem.get("cold_start_ms").and_then(Value::as_f64) {
                let _ = writeln!(out, "  cold start: {ms:.1} ms");
            }
        }
    }

    if args.flag("shutdown") {
        acted = true;
        let ack = connect(addr)?.shutdown().map_err(io_err)?;
        out.push_str(&ack.to_line());
    }

    if !acted {
        connect(addr)?.ping().map_err(io_err)?;
        let _ = writeln!(out, "pong from {addr}");
    }
    Ok(out)
}

/// The `--bench` load generator: replays every graph of `--db` as a query
/// (`--limit` caps how many), `--repeat` passes over the set so repeated
/// queries exercise the result cache, across `--connections` concurrent
/// connections. Reports client-side throughput and latency percentiles
/// plus the server's own counters.
fn bench(addr: &str, args: &Args) -> Result<String, ArgError> {
    let db = load_db(args)?;
    if db.is_empty() {
        return Err(ArgError("--bench needs a nonempty --db".to_owned()));
    }
    let limit = args
        .get_checked_or("limit", db.len(), 1.., "at least 1")?
        .min(db.len());
    let repeat = args.get_checked_or("repeat", 2usize, 1.., "at least 1")?;
    let connections = args.get_checked_or("connections", 4usize, 1.., "at least 1")?;
    let builder = client_builder(args)?;

    // Each query graph is serialized standalone against the shared vocab.
    let texts: Vec<String> = db
        .iter()
        .take(limit)
        .map(|(_, g)| gss_graph::format::write_database(std::slice::from_ref(g), db.vocab()))
        .collect();

    struct WorkerReport {
        latencies_us: Vec<u64>,
        sent: usize,
        failures: usize,
        retries: u64,
    }

    let started = Instant::now();
    let reports: Vec<Result<WorkerReport, ArgError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                let texts = &texts;
                let builder = builder.clone();
                scope.spawn(move || -> Result<WorkerReport, ArgError> {
                    let mut client = connect_with(builder, addr)?;
                    let mut report = WorkerReport {
                        latencies_us: Vec::new(),
                        sent: 0,
                        failures: 0,
                        retries: 0,
                    };
                    for _pass in 0..repeat {
                        for text in texts.iter().skip(worker).step_by(connections) {
                            let t0 = Instant::now();
                            let response = client.query(text).map_err(io_err)?;
                            report.latencies_us.push(t0.elapsed().as_micros() as u64);
                            report.sent += 1;
                            if !response.is_ok() {
                                report.failures += 1;
                            }
                        }
                    }
                    report.retries = client.retries();
                    Ok(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench worker panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut sent = 0usize;
    let mut failures = 0usize;
    let mut retries = 0u64;
    for r in reports {
        let r = r?;
        latencies.extend(r.latencies_us);
        sent += r.sent;
        failures += r.failures;
        retries += r.retries;
    }
    latencies.sort_unstable();

    let server_stats = connect(addr)?.stats().map_err(io_err)?;
    let hit_rate = server_stats
        .get("cache_hit_rate")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench: {sent} queries ({} distinct × {repeat} passes) over {connections} connections in {:.2} s",
        texts.len(),
        wall
    );
    let _ = writeln!(
        out,
        "throughput: {:.1} queries/s; latency p50 {:.0} µs, p99 {:.0} µs, max {:.0} µs",
        sent as f64 / wall.max(1e-9),
        percentile_us(&latencies, 50),
        percentile_us(&latencies, 99),
        latencies.last().copied().unwrap_or(0) as f64,
    );
    let _ = writeln!(
        out,
        "failures: {failures}; retries: {retries}; server cache hit rate: {:.1}%",
        hit_rate * 100.0
    );
    let _ = writeln!(out, "server stats: {}", server_stats.to_compact());
    if failures > 0 {
        return Err(ArgError(format!(
            "{failures} of {sent} requests failed\n{out}"
        )));
    }
    Ok(out)
}
