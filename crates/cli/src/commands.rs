//! The `gss` subcommand implementations.
//!
//! Every command returns its report as a `String` (testable, pipe-friendly);
//! file-system access is limited to reading `--db`/`--query-file` inputs and
//! optional `--out` writing handled by the binary shell.

use std::fmt::Write as _;
use std::sync::Arc;

use gss_core::{
    graph_similarity_skyline, refine_skyline, top_k_by_measure, GraphDatabase, GraphId,
    MeasureKind, Plan, PruneStats, QueryOptions, RefineOptions, SolverConfig,
};
use gss_datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use gss_ged::{bipartite::bipartite_ged, edit_path_for_mapping, exact_ged, CostModel, GedOptions};
use gss_graph::format::to_dot;
use gss_graph::Graph;
use gss_index::{PivotIndex, PivotIndexConfig};

use crate::args::{ArgError, Args};

/// The `gss help` text.
pub fn help() -> String {
    "\
gss — similarity-skyline graph queries (Abbaci et al., GDM/ICDE 2011)

USAGE:
  gss query    --db FILE (--query-name NAME | --query-file FILE)
               [--refine K] [--approx] [--index IDX]
               [--plan auto|naive|prefilter|indexed|sharded] [--shards N]
               [--threads N] [--format text|json]
  gss measure  --db FILE --a NAME --b NAME
  gss topk     --db FILE --query-name NAME --measure ed|ned|mcs|gu [--k K]
               [--approx] [--threads N]
  gss index    build --db FILE --out IDX [--pivots K] [--rings R]
               [--exclude NAME]
  gss index    stats --index IDX [--db FILE]
  gss serve    --db FILE [--index IDX] [--addr HOST:PORT] [--workers N]
               [--reactor-threads N] [--plan PLAN] [--shards N] [--queue N]
               [--cache N] [--batch N] [--deadline-ms MS] [--approx]
               [--staleness-budget N]
               [--data-dir DIR [--fsync always|off|every-N]
               [--checkpoint-every N]]
  gss client   --addr HOST:PORT [--query-file FILE|-] [--stats] [--shutdown]
               [--insert-file FILE|-] [--remove NAME[,NAME…]]
               [--update NAME --update-file FILE|-]
               [--bench --db FILE [--connections C] [--repeat R] [--limit N]]
               [--approx] [--plan PLAN] [--deadline-ms MS] [--retry N]
  gss wal      inspect DIR
  gss pack     --db FILE --out FILE
  gss generate --kind molecule|uniform --count N [--vertices V] [--seed S]
               [--related FRACTION] [--max-edits E]
  gss convert  --db FILE [--graph NAME]
  gss paper

Databases use the t/v/e text format:
  t <name>
  v <index> <label>
  e <u> <v> <label>

`pack` converts a text database into the compact checksummed binary format
(CSR arenas + precomputed stats columns). Every --db flag accepts either
format — the binary one loads without re-parsing or recomputing
summaries, so `gss serve` over a packed file starts near-instantly. Both
representations answer every query byte-identically.

`query` runs the compound-similarity skyline (DistEd, DistMcs, DistGu).
With --query-name the named graph is removed from the database and queried
against the rest; with --query-file the database is used whole and the
query graph is the first graph of the given file (use `-` to read it from
stdin, so scripts can pipe queries). --plan forces one evaluation strategy
(all strategies return identical answers), and the report names the
strategy that actually ran. The default `auto` runs the filter-and-verify
pipeline (`prefilter`): cheap lower bounds prune candidates before the
exact solvers, and the report includes pruning statistics; `naive` runs
the exact solvers on every candidate. `--plan indexed` also consults the
pivot index given by --index IDX (built by `gss index build`), skipping
whole candidate partitions up front — build with --exclude NAME when
querying by --query-name so the index matches the database the query
actually scans. --shards N without --plan selects `sharded` over N
candidate ranges. --threads and --shards must be at least 1. `serve`
takes the same --plan/--shards as its base options, and `client --plan`
overrides them per query.

`serve` runs the long-lived query server (newline-delimited JSON protocol,
result caching, admission control — see the gss-server crate docs); all
connections share --reactor-threads poll(2) event loops (default 1; any
unix). --reactor-threads, --workers, --queue, --batch and --deadline-ms
must be at least 1, as must the --bench --connections, --repeat and --limit.
The served database is live: `client` mutation flags (--insert-file, --remove,
--update … --update-file) apply atomic batches that bump the store epoch,
maintain the pivot index incrementally (--staleness-budget caps drift
before a partial rebuild), and invalidate cached results. `client` also
does one-shot queries, stats, graceful shutdown, and a --bench load
generator reporting queries/sec and latency percentiles.

With --data-dir the served store is durable: every acknowledged mutation
is appended to a checksummed write-ahead log and fsynced per --fsync
before the ack, periodic snapshot checkpoints (--checkpoint-every) bound
replay time, and a restart from the same directory recovers exactly the
acknowledged mutations (torn tails are truncated, ambiguous logs refused).
`wal inspect` prints segments, record counts, checksum status and the
recoverable epoch range of such a directory. `client --retry N` retries
transient failures and backpressure with exponential backoff and jitter;
retried mutations carry a mutation_id the durable server deduplicates, so
a resend never double-applies.
"
    .to_owned()
}

/// Loads `--db`, sniffing the format: the compact binary format (made by
/// `gss pack`) is adopted without parsing; anything else is `t/v/e` text.
pub(crate) fn load_db(args: &Args) -> Result<GraphDatabase, ArgError> {
    let path = args.require("db")?;
    let data =
        std::fs::read(path).map_err(|e| ArgError(format!("cannot read --db {path}: {e}")))?;
    if GraphDatabase::is_binary(&data) {
        return GraphDatabase::load_bytes(&data)
            .map_err(|e| ArgError(format!("corrupt binary database {path}: {e}")));
    }
    let text = String::from_utf8(data)
        .map_err(|e| ArgError(format!("--db {path} is neither binary nor UTF-8 text: {e}")))?;
    GraphDatabase::from_text(&text).map_err(|e| ArgError(format!("parse error in {path}: {e}")))
}

/// Splits off the named query graph, returning the remaining database and
/// the query.
pub(crate) fn split_query(
    db: GraphDatabase,
    name: &str,
) -> Result<(GraphDatabase, Graph), ArgError> {
    let id = db
        .find_by_name(name)
        .ok_or_else(|| ArgError(format!("no graph named {name:?} in the database")))?;
    let mut rest = GraphDatabase::from_parts(db.vocab().clone(), Vec::new());
    let mut query = None;
    for (gid, g) in db.iter() {
        if gid == id {
            query = Some(g.clone());
        } else {
            rest.push(g.clone());
        }
    }
    Ok((rest, query.expect("id was found")))
}

pub(crate) fn solver_config(args: &Args) -> SolverConfig {
    if args.flag("approx") {
        SolverConfig::Approx
    } else {
        SolverConfig::Exact
    }
}

/// The `--refine K` options: the query's own solvers and thread count.
fn refine_options(args: &Args) -> Result<RefineOptions, ArgError> {
    Ok(RefineOptions {
        solvers: solver_config(args),
        threads: args.get_checked_or("threads", 1usize, 1.., "at least 1")?,
        ..RefineOptions::default()
    })
}

/// Parses `--plan` (default `auto`) and `--shards` (default 1) for
/// `query` and `serve` alike. The plan is validated against the
/// loaded index: the indexed plan without `--index` would panic deep in
/// the engine, so fail with a usable message here instead. Asking for more
/// than one shard without naming a plan means the sharded plan.
pub(crate) fn parse_plan(args: &Args, has_index: bool) -> Result<(Plan, usize), ArgError> {
    let plan = match args.get("plan") {
        None => Plan::Auto,
        Some(token) => Plan::parse(token).ok_or_else(|| {
            ArgError(format!(
                "unknown --plan {token:?} (auto|naive|prefilter|indexed|sharded)"
            ))
        })?,
    };
    if plan == Plan::Indexed && !has_index {
        return Err(ArgError(
            "--plan indexed requires --index IDX (build one with `gss index build`)".to_owned(),
        ));
    }
    let shards = args.get_checked_or("shards", 1usize, 1.., "at least 1")?;
    if args.get("plan").is_none() && shards > 1 {
        return Ok((Plan::Sharded, shards));
    }
    Ok((plan, shards))
}

/// The one-line plan report shown by `query`.
fn plan_line(requested: Plan, resolved: gss_core::ResolvedPlan) -> String {
    if requested == Plan::Auto {
        format!("plan: {} (selected by auto)", resolved.name())
    } else {
        format!("plan: {}", resolved.name())
    }
}

/// The pruning-statistics lines shown by `query` whenever the
/// filter-and-verify pipeline ran.
fn write_prune_stats(out: &mut String, stats: &PruneStats) {
    let _ = writeln!(
        out,
        "\nprefilter: {} verified, {} pruned, {} short-circuited of {} candidates ({:.0}% skipped exact solving)",
        stats.verified,
        stats.pruned,
        stats.short_circuited,
        stats.candidates,
        stats.pruning_rate() * 100.0
    );
    if stats.index_partitions > 0 {
        let _ = writeln!(
            out,
            "index: {} of {} partitions skipped wholesale — {} candidates ({:.0}%) never \
             reached candidate filtering; {} pivot probes",
            stats.index_partitions_skipped,
            stats.index_partitions,
            stats.index_skipped,
            stats.index_skip_rate() * 100.0,
            stats.pivot_probes
        );
    }
}

fn parse_measure(token: &str) -> Result<MeasureKind, ArgError> {
    match token {
        "ed" => Ok(MeasureKind::EditDistance),
        "ned" => Ok(MeasureKind::NormalizedEditDistance),
        "mcs" => Ok(MeasureKind::Mcs),
        "gu" => Ok(MeasureKind::Gu),
        other => Err(ArgError(format!(
            "unknown measure {other:?} (ed|ned|mcs|gu)"
        ))),
    }
}

/// Reads a text input that is either a file path or `-` for stdin (so
/// scripts and the serving client can pipe queries without temp files).
pub(crate) fn read_text_input(path: &str, flag: &str) -> Result<String, ArgError> {
    if path == "-" {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| ArgError(format!("cannot read stdin for {flag}: {e}")))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {flag} {path}: {e}")))
    }
}

/// Resolves the query graph: `--query-name` splits it out of the database,
/// `--query-file` reads it from its own file, or from stdin when the path
/// is `-` (database used whole in both file cases).
fn resolve_query(db: GraphDatabase, args: &Args) -> Result<(GraphDatabase, Graph), ArgError> {
    match (args.get("query-name"), args.get("query-file")) {
        (Some(name), None) => split_query(db, name),
        (None, Some(path)) => {
            let text = read_text_input(path, "--query-file")?;
            let mut db = db;
            let graphs = gss_graph::format::parse_database(&text, db.vocab_mut())
                .map_err(|e| ArgError(format!("parse error in {path}: {e}")))?;
            let q = graphs
                .into_iter()
                .next()
                .ok_or_else(|| ArgError(format!("--query-file {path} contains no graph")))?;
            Ok((db, q))
        }
        _ => Err(ArgError(
            "provide exactly one of --query-name or --query-file".to_owned(),
        )),
    }
}

/// Loads and validates the pivot index named by `--index`, if any.
pub(crate) fn load_index(
    db: &GraphDatabase,
    args: &Args,
) -> Result<Option<Arc<PivotIndex>>, ArgError> {
    let Some(path) = args.get("index") else {
        return Ok(None);
    };
    let index = PivotIndex::load(path).map_err(|e| ArgError(format!("--index {path}: {e}")))?;
    index.validate(db).map_err(|e| {
        ArgError(format!(
            "--index {path}: {e} (with --query-name, build the index with --exclude NAME \
             so it covers the database the query scans)"
        ))
    })?;
    Ok(Some(Arc::new(index)))
}

/// `gss query` — similarity skyline with optional diversity refinement.
pub fn query(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&[
        "db",
        "query-name",
        "query-file",
        "refine",
        "approx",
        "index",
        "plan",
        "shards",
        "threads",
        "format",
    ])?;
    let db = load_db(args)?;
    let (db, q) = resolve_query(db, args)?;
    let index = load_index(&db, args)?;
    let (plan, shards) = parse_plan(args, index.is_some())?;
    let options = QueryOptions {
        solvers: solver_config(args),
        threads: args.get_checked_or("threads", 1usize, 1.., "at least 1")?,
        plan,
        shards,
        index: index.map(|i| i as Arc<dyn gss_core::QueryIndex>),
        ..Default::default()
    };
    let result = graph_similarity_skyline(&db, &q, &options);

    match args.get_or("format", "text") {
        "json" => return Ok(gss_core::explain_json(&db, &result)),
        "text" => {}
        other => return Err(ArgError(format!("unknown --format {other:?} (text|json)"))),
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "database: {} graphs; query: {} ({} vertices, {} edges)",
        db.len(),
        q.name(),
        q.order(),
        q.size()
    );
    let _ = writeln!(out, "{}", plan_line(plan, result.plan));
    let _ = writeln!(
        out,
        "\n{:<20} {:>8} {:>8} {:>8}  skyline",
        "graph", "DistEd", "DistMcs", "DistGu"
    );
    for (i, gcs) in result.gcs.iter().enumerate() {
        let id = GraphId(i);
        let _ = writeln!(
            out,
            "{:<20} {:>8.2} {:>8.3} {:>8.3}  {}",
            db.name_of(id),
            gcs.values[0],
            gcs.values[1],
            gcs.values[2],
            if result.contains(id) {
                "yes"
            } else if !result.is_exact(id) {
                "pruned (bounds shown)"
            } else {
                ""
            }
        );
    }
    let _ = writeln!(
        out,
        "\nsimilarity skyline ({} members):",
        result.skyline.len()
    );
    for id in &result.skyline {
        let _ = writeln!(out, "  {}", db.name_of(*id));
    }
    for w in &result.dominated {
        let _ = writeln!(
            out,
            "  [{} dominated by {}]",
            db.name_of(w.graph),
            db.name_of(w.dominator)
        );
    }
    if let Some(stats) = &result.pruning {
        write_prune_stats(&mut out, stats);
    }

    if let Some(k) = args.get("refine") {
        let k: usize = k
            .parse()
            .map_err(|_| ArgError(format!("--refine needs a number, got {k:?}")))?;
        match refine_skyline(&db, &result.skyline, k, &refine_options(args)?) {
            Ok(refined) => {
                let _ = writeln!(out, "\nmost diverse {k}-subset:");
                for id in &refined.selected {
                    let _ = writeln!(out, "  {}", db.name_of(*id));
                }
                if refined.evaluation.tied.len() > 1 {
                    let _ = writeln!(
                        out,
                        "  ({} candidates tied on rank-sum)",
                        refined.evaluation.tied.len()
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(out, "\nrefinement skipped: {e}");
            }
        }
    }
    Ok(out)
}

/// `gss measure` — all measures plus the optimal edit script for one pair.
pub fn measure(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["db", "a", "b"])?;
    let db = load_db(args)?;
    let name_a = args.require("a")?;
    let name_b = args.require("b")?;
    let a_id = db
        .find_by_name(name_a)
        .ok_or_else(|| ArgError(format!("no graph named {name_a:?}")))?;
    let b_id = db
        .find_by_name(name_b)
        .ok_or_else(|| ArgError(format!("no graph named {name_b:?}")))?;
    let (a, b) = (db.get(a_id), db.get(b_id));

    let cost = CostModel::uniform();
    let warm = bipartite_ged(a, b, &cost);
    let ged = exact_ged(
        a,
        b,
        &GedOptions {
            cost,
            warm_start: Some(warm.mapping),
        },
    );
    let p = gss_core::compute_primitives(a, b, &SolverConfig::default());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} (|g|={}) vs {} (|g|={})",
        a.name(),
        a.size(),
        b.name(),
        b.size()
    );
    let _ = writeln!(out, "  DistEd    = {}", ged.cost);
    let _ = writeln!(out, "  |mcs|     = {}", p.mcs_edges);
    let _ = writeln!(
        out,
        "  DistN-Ed  = {:.4}",
        MeasureKind::NormalizedEditDistance.from_primitives(&p)
    );
    let _ = writeln!(
        out,
        "  DistMcs   = {:.4}",
        MeasureKind::Mcs.from_primitives(&p)
    );
    let _ = writeln!(
        out,
        "  DistGu    = {:.4}",
        MeasureKind::Gu.from_primitives(&p)
    );
    let _ = writeln!(out, "  isomorphic: {}", gss_iso::are_isomorphic(a, b));
    let _ = writeln!(
        out,
        "optimal edit script ({} ops):",
        edit_path_for_mapping(a, b, &ged.mapping).len()
    );
    for op in edit_path_for_mapping(a, b, &ged.mapping) {
        let _ = writeln!(out, "  - {}", op.kind());
    }
    Ok(out)
}

/// `gss topk` — single-measure baseline retrieval.
pub fn topk(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["db", "query-name", "measure", "k", "approx", "threads"])?;
    let db = load_db(args)?;
    let (db, q) = split_query(db, args.require("query-name")?)?;
    let measure = parse_measure(args.get_or("measure", "ed"))?;
    let k = args.get_parsed_or("k", 3usize)?;
    let threads = args.get_checked_or("threads", 1usize, 1.., "at least 1")?;
    let scored = top_k_by_measure(&db, &q, measure, k, &solver_config(args), threads);
    let mut out = String::new();
    let _ = writeln!(out, "top-{k} by {}:", measure.name());
    for s in scored {
        let _ = writeln!(out, "  {:<20} {:.4}", db.name_of(s.id), s.distance);
    }
    Ok(out)
}

/// `gss index build|stats` — build, persist and inspect the pivot index.
pub fn index(args: &Args) -> Result<String, ArgError> {
    match args.positional().get(1).map(String::as_str) {
        Some("build") => index_build(args),
        Some("stats") => index_stats(args),
        other => Err(ArgError(format!(
            "unknown index subcommand {other:?} (build|stats)"
        ))),
    }
}

fn index_build(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["db", "out", "pivots", "rings", "exclude"])?;
    let mut db = load_db(args)?;
    if let Some(name) = args.get("exclude") {
        let (rest, _query) = split_query(db, name)?;
        db = rest;
    }
    let default = PivotIndexConfig::default();
    let config = PivotIndexConfig {
        pivots: args.get_checked_or("pivots", default.pivots, 1.., "at least 1")?,
        rings: args.get_checked_or("rings", default.rings, 1.., "at least 1")?,
    };
    let out_path = args.require("out")?;
    let start = std::time::Instant::now();
    let index = PivotIndex::build(&db, &config);
    let built = start.elapsed();
    let bytes = index.to_bytes();
    std::fs::write(out_path, &bytes)
        .map_err(|e| ArgError(format!("cannot write --out {out_path}: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "built {} in {:.1} ms",
        gss_core::QueryIndex::describe(&index),
        built.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "wrote {out_path} ({} bytes, database fingerprint {:016x})",
        bytes.len(),
        index.database_fingerprint()
    );
    Ok(out)
}

fn index_stats(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["index", "db"])?;
    let path = args.require("index")?;
    let index = PivotIndex::load(path).map_err(|e| ArgError(format!("--index {path}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", gss_core::QueryIndex::describe(&index));
    let _ = writeln!(
        out,
        "config: {} pivots requested, {} rings per pivot cell",
        index.config().pivots,
        index.config().rings
    );
    let _ = writeln!(
        out,
        "pivot graph ids: {:?}",
        index.pivots().iter().map(|g| g.index()).collect::<Vec<_>>()
    );
    let _ = writeln!(
        out,
        "database fingerprint: {:016x}",
        index.database_fingerprint()
    );
    if args.get("db").is_some() {
        let load_start = std::time::Instant::now();
        let db = load_db(args)?;
        let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
        match index.validate(&db) {
            Ok(()) => {
                let _ = writeln!(out, "database match: ok ({} graphs)", db.len());
            }
            Err(e) => {
                let _ = writeln!(out, "database match: MISMATCH — {e}");
            }
        }
        let _ = writeln!(out, "database load: {load_ms:.1} ms");
        out.push_str(&memory_report(&db.memory_stats()));
    }
    Ok(out)
}

/// Renders one memory-stats block as indented text (shared by `pack`,
/// `index stats` and the served `stats` verb's client rendering).
pub(crate) fn memory_report(mem: &gss_core::database::MemoryStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "memory:");
    let _ = writeln!(
        out,
        "  graphs: {} ({} arena-backed, {} materialized)",
        mem.graphs, mem.arena_graphs, mem.materialized
    );
    let _ = writeln!(
        out,
        "  arena: {} bytes ({:.1} B/graph), stats columns {} bytes",
        mem.arena_bytes,
        mem.arena_bytes_per_graph(),
        mem.stats_columns_bytes
    );
    let _ = writeln!(
        out,
        "  pointer-rich estimate: {} bytes ({:.1} B/graph)",
        mem.pointer_rich_bytes,
        mem.pointer_rich_bytes_per_graph()
    );
    let _ = writeln!(
        out,
        "  label pool: {} entries, {} bytes",
        mem.pool_entries, mem.pool_bytes
    );
    out
}

/// `gss pack` — convert a database (either format) into the compact binary
/// format: interned CSR arenas plus precomputed stats columns under one
/// checksummed frame. The written file is verified by reloading it and
/// comparing fingerprints before this command reports success.
pub fn pack(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["db", "out"])?;
    let out_path = args.require("out")?.to_owned();
    let parse_start = std::time::Instant::now();
    let mut db = load_db(args)?;
    let parsed_ms = parse_start.elapsed().as_secs_f64() * 1e3;
    db.compact();
    let bytes = db.save_bytes();
    std::fs::write(&out_path, &bytes)
        .map_err(|e| ArgError(format!("cannot write --out {out_path}: {e}")))?;

    let reload_start = std::time::Instant::now();
    let reloaded = GraphDatabase::load_bytes(&bytes)
        .map_err(|e| ArgError(format!("packed file failed verification: {e}")))?;
    let reload_ms = reload_start.elapsed().as_secs_f64() * 1e3;
    if reloaded.fingerprint() != db.fingerprint() {
        return Err(ArgError(
            "packed file failed verification: fingerprint mismatch".to_owned(),
        ));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "packed {} graphs into {out_path} ({} bytes)",
        db.len(),
        bytes.len()
    );
    let _ = writeln!(
        out,
        "load: source {parsed_ms:.1} ms, packed {reload_ms:.1} ms (zero-parse)"
    );
    out.push_str(&memory_report(&db.memory_stats()));
    Ok(out)
}

/// `gss generate` — emit a synthetic workload in the text format. The query
/// graph appears first, named `query`.
pub fn generate(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["kind", "count", "vertices", "seed", "related", "max-edits"])?;
    let kind = match args.get_or("kind", "molecule") {
        "molecule" => WorkloadKind::Molecule,
        "uniform" => WorkloadKind::Uniform,
        other => {
            return Err(ArgError(format!(
                "unknown --kind {other:?} (molecule|uniform)"
            )))
        }
    };
    let cfg = WorkloadConfig {
        kind,
        database_size: args.get_parsed_or("count", 12usize)?,
        graph_vertices: args.get_checked_or("vertices", 7, 1.., "at least 1")?,
        related_fraction: args.get_checked_or("related", 0.5, 0.0..=1.0, "between 0 and 1")?,
        max_edits: args.get_checked_or("max-edits", 4, 1.., "at least 1")?,
        seed: args.get_parsed_or("seed", 0xDA7Au64)?,
    };
    let w = Workload::generate(&cfg);
    let mut all = vec![w.query.clone()];
    all.extend(w.graphs.iter().cloned());
    Ok(gss_graph::format::write_database(&all, &w.vocab))
}

/// `gss convert` — Graphviz DOT for one graph or the whole database.
pub fn convert(args: &Args) -> Result<String, ArgError> {
    args.reject_unknown(&["db", "graph"])?;
    let db = load_db(args)?;
    let mut out = String::new();
    match args.get("graph") {
        Some(name) => {
            let id = db
                .find_by_name(name)
                .ok_or_else(|| ArgError(format!("no graph named {name:?}")))?;
            out.push_str(&to_dot(db.get(id), db.vocab()));
        }
        None => {
            for (_, g) in db.iter() {
                out.push_str(&to_dot(g, db.vocab()));
                out.push('\n');
            }
        }
    }
    Ok(out)
}

/// `gss paper` — the headline reproduction summary (the full table-by-table
/// report lives in `cargo run --example paper_walkthrough`).
pub fn paper() -> String {
    use gss_datasets::paper::{expected, figure3_database};
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let r = graph_similarity_skyline(&db, &data.query, &QueryOptions::default());
    let members: Vec<GraphId> = r.skyline.clone();
    let refined = refine_skyline(&db, &members, 2, &RefineOptions::default());

    let mut out = String::new();
    let sky: Vec<String> = r
        .skyline
        .iter()
        .map(|g| format!("g{}", g.index() + 1))
        .collect();
    let _ = writeln!(out, "GSS(D, q)     = {sky:?}   (paper: [g1, g4, g5, g7])");
    let ok = r.skyline.iter().map(|g| g.index()).collect::<Vec<_>>() == expected::SKYLINE.to_vec();
    let _ = writeln!(
        out,
        "skyline match = {}",
        if ok { "exact" } else { "DIFFERS" }
    );
    if let Ok(refined) = refined {
        let sel: Vec<String> = refined
            .selected
            .iter()
            .map(|g| format!("g{}", g.index() + 1))
            .collect();
        let _ = writeln!(out, "refined 𝕊     = {sel:?}   (paper: [g1, g4])");
    }
    let _ = writeln!(out, "full report: cargo run --example paper_walkthrough");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp_db() -> (tempdir::TempPath, String) {
        // Small self-contained db: a query-like path and two variants.
        let text = "\
t needle
v 0 A
v 1 B
v 2 C
e 0 1 -
e 1 2 -

t close
v 0 A
v 1 B
v 2 C
e 0 1 -
e 1 2 =

t far
v 0 X
v 1 Y
e 0 1 -
";
        let path = tempdir::write(text);
        let p = path.as_str().to_owned();
        (path, p)
    }

    /// Minimal temp-file helper (std only).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct TempPath(PathBuf);
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().expect("utf-8 temp path")
            }
        }
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub fn write(content: &str) -> TempPath {
            let n = COUNTER.fetch_add(1, Ordering::SeqCst);
            let mut p = std::env::temp_dir();
            p.push(format!("gss-cli-test-{}-{n}.gdb", std::process::id()));
            std::fs::write(&p, content).expect("write temp db");
            TempPath(p)
        }
    }

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn out_of_range_numbers_are_refused_not_clamped() {
        for (option, value) in [
            ("related", "nan"),
            ("related", "2.5"),
            ("related", "-1"),
            ("vertices", "0"),
            ("max-edits", "0"),
        ] {
            let err = generate(&args(&[&format!("--{option}"), value])).expect_err(value);
            assert!(err.0.contains(&format!("--{option} must be")), "{err}");
        }
        let (_keep, path) = write_temp_db();
        let out = format!("{path}.idx");
        for option in ["--pivots", "--rings"] {
            let words = ["index", "build", "--db", &path, "--out", &out, option, "0"];
            let err = index(&args(&words)).expect_err(option);
            assert!(err.0.contains("must be at least 1"), "{err}");
        }
    }

    #[test]
    fn zero_counts_are_refused_by_serve_and_client_bench() {
        let (_keep, path) = write_temp_db();
        // An unusable port (no lookup, no bind, no connect): each refusal
        // must come before the address is ever used.
        let addr = "127.0.0.1:99999";
        let serve = ["serve", "--db", &path, "--addr", addr];
        let bench = ["client", "--db", &path, "--addr", addr, "--bench"];
        type Command = fn(&Args) -> Result<String, ArgError>;
        for (run, base, options) in [
            (
                crate::net::serve as Command,
                &serve[..],
                &[
                    "--workers",
                    "--queue",
                    "--batch",
                    "--reactor-threads",
                    "--deadline-ms",
                ][..],
            ),
            (
                crate::net::client,
                &bench[..],
                &["--connections", "--repeat", "--limit"],
            ),
        ] {
            for &option in options {
                let err = run(&args(&[base, &[option, "0"]].concat())).expect_err(option);
                let expected = format!("{option} must be at least 1");
                assert!(err.0.contains(&expected), "{err}");
            }
        }
    }

    #[test]
    fn zero_counts_are_refused_by_query_refine_and_topk() {
        let (_keep, path) = write_temp_db();
        let query_words = ["--db", &path, "--query-name", "needle"];
        for option in ["--threads", "--shards"] {
            let err = query(&args(&[&query_words[..], &[option, "0"]].concat())).expect_err(option);
            assert!(
                err.0.contains(&format!("{option} must be at least 1")),
                "{err}"
            );
        }
        let refine = [&query_words[..], &["--refine", "2", "--threads", "0"]].concat();
        let err = query(&args(&refine)).expect_err("--refine --threads 0");
        assert!(err.0.contains("--threads must be at least 1"), "{err}");
        let err = refine_options(&args(&["--threads", "0"])).expect_err("refine");
        assert!(err.0.contains("--threads must be at least 1"), "{err}");
        let err = topk(&args(&[&query_words[..], &["--threads", "0"]].concat())).expect_err("topk");
        assert!(err.0.contains("--threads must be at least 1"), "{err}");
    }

    #[test]
    fn query_reports_skyline() {
        let (_keep, path) = write_temp_db();
        let out = query(&args(&["--db", &path, "--query-name", "needle"])).unwrap();
        assert!(out.contains("database: 2 graphs"));
        assert!(out.contains("close"));
        assert!(out.contains("similarity skyline"));
        // `close` (1 edit away) must be in the skyline; `far` is dominated.
        assert!(out.contains("[far dominated by close]"), "{out}");
    }

    #[test]
    fn query_with_approx_and_threads() {
        let (_keep, path) = write_temp_db();
        let out = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--approx",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("similarity skyline"));
    }

    #[test]
    fn refine_follows_the_query_solvers_and_threads() {
        let options = refine_options(&args(&["--approx", "--threads", "3"])).unwrap();
        let default = RefineOptions::default();
        assert_eq!(options.solvers, SolverConfig::Approx);
        assert_eq!(options.threads, 3);
        assert_eq!(options.measures, default.measures);
        assert_eq!(options.max_candidates, default.max_candidates);
        let exact = refine_options(&args(&[])).unwrap();
        assert_eq!(exact.solvers, SolverConfig::Exact);
        assert_eq!(exact.threads, 1);
    }

    #[test]
    fn measure_prints_all_values() {
        let (_keep, path) = write_temp_db();
        let out = measure(&args(&["--db", &path, "--a", "needle", "--b", "close"])).unwrap();
        assert!(out.contains("DistEd    = 1"));
        assert!(out.contains("|mcs|     = 1"));
        assert!(out.contains("edge-relabel"));
        assert!(out.contains("isomorphic: false"));
    }

    #[test]
    fn topk_ranks_by_measure() {
        let (_keep, path) = write_temp_db();
        let out = topk(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--measure",
            "ed",
            "--k",
            "2",
        ]))
        .unwrap();
        let close_pos = out.find("close").expect("close listed");
        let far_pos = out.find("far").expect("far listed");
        assert!(close_pos < far_pos, "close must rank before far:\n{out}");
    }

    #[test]
    fn generate_emits_parseable_database() {
        let out = generate(&args(&[
            "--kind", "molecule", "--count", "5", "--seed", "9",
        ]))
        .unwrap();
        let db = GraphDatabase::from_text(&out).unwrap();
        assert_eq!(db.len(), 6, "query + 5 graphs");
        assert!(db.find_by_name("query").is_some());
        // Determinism.
        let again = generate(&args(&[
            "--kind", "molecule", "--count", "5", "--seed", "9",
        ]))
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn pack_round_trips_and_binary_db_works_everywhere() {
        let (_keep, path) = write_temp_db();
        let packed = std::env::temp_dir().join(format!("gss-pack-test-{}.gsb", std::process::id()));
        let packed_str = packed.to_str().unwrap().to_owned();

        let report = pack(&args(&["--db", &path, "--out", &packed_str])).unwrap();
        assert!(report.contains("packed 3 graphs"), "{report}");
        assert!(report.contains("memory:"), "{report}");
        assert!(report.contains("arena-backed"), "{report}");

        // The packed file answers the same query as the text original.
        let from_text = query(&args(&["--db", &path, "--query-name", "needle"])).unwrap();
        let from_binary = query(&args(&["--db", &packed_str, "--query-name", "needle"])).unwrap();
        assert_eq!(from_text, from_binary);

        // Corruption is refused, not misparsed.
        let mut bytes = std::fs::read(&packed).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&packed, &bytes).unwrap();
        let err = query(&args(&["--db", &packed_str, "--query-name", "needle"])).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        std::fs::remove_file(&packed).unwrap();
    }

    #[test]
    fn convert_produces_dot() {
        let (_keep, path) = write_temp_db();
        let one = convert(&args(&["--db", &path, "--graph", "needle"])).unwrap();
        assert!(one.starts_with("graph needle {"));
        let all = convert(&args(&["--db", &path])).unwrap();
        assert_eq!(all.matches("graph ").count(), 3);
    }

    #[test]
    fn query_json_format() {
        let (_keep, path) = write_temp_db();
        let out = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(out.contains("\"measures\": [\"DistEd\", \"DistMcs\", \"DistGu\"]"));
        assert!(out.contains("\"skyline\": [\"close\"]"));
        assert!(query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--format",
            "yaml"
        ]))
        .is_err());
    }

    #[test]
    fn query_with_prefilter_reports_stats_and_same_skyline() {
        let (_keep, path) = write_temp_db();
        let naive = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "naive",
        ]))
        .unwrap();
        let pruned = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "prefilter",
        ]))
        .unwrap();
        assert!(pruned.contains("prefilter:"), "{pruned}");
        assert!(pruned.contains("candidates"), "{pruned}");
        assert!(
            !naive.contains("prefilter:"),
            "naive runs must not print stats"
        );
        // Same skyline and witness lines in both modes.
        assert!(pruned.contains("[far dominated by close]"), "{pruned}");
        let sky = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("similarity skyline"))
                .take(2)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(sky(&naive), sky(&pruned));
        // JSON gains the pruning object only under the prefilter plan.
        let json = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "prefilter",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(json.contains("\"pruning\": {"), "{json}");
        assert!(json.contains("\"exact\":"), "{json}");
        let naive_json = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "naive",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(!naive_json.contains("\"pruning\""));
    }

    #[test]
    fn index_build_stats_and_indexed_query() {
        let (_keep, path) = write_temp_db();
        let idx_path = {
            let n = std::process::id();
            std::env::temp_dir()
                .join(format!("gss-cli-test-{n}-roundtrip.gsi"))
                .to_str()
                .unwrap()
                .to_owned()
        };

        // Build excluding the query graph, so the index matches the
        // database `gss query --query-name needle` actually scans.
        let built = index(&args(&[
            "index",
            "build",
            "--db",
            &path,
            "--out",
            &idx_path,
            "--exclude",
            "needle",
            "--pivots",
            "2",
            "--rings",
            "2",
        ]))
        .unwrap();
        assert!(built.contains("pivot index"), "{built}");
        assert!(built.contains("wrote"), "{built}");

        let stats = index(&args(&["index", "stats", "--index", &idx_path])).unwrap();
        assert!(stats.contains("pivot index"), "{stats}");
        assert!(stats.contains("database fingerprint"), "{stats}");

        // Indexed query: same skyline as the plain query, plus index stats.
        let naive = query(&args(&["--db", &path, "--query-name", "needle"])).unwrap();
        let indexed = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--index",
            &idx_path,
            "--plan",
            "indexed",
        ]))
        .unwrap();
        assert!(indexed.contains("index: "), "{indexed}");
        assert!(indexed.contains("pivot probes"), "{indexed}");
        let sky = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("similarity skyline"))
                .take(2)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(sky(&naive), sky(&indexed));

        // JSON explain output carries the index fields.
        let json = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--index",
            &idx_path,
            "--plan",
            "indexed",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(json.contains("\"index_skip_rate\""), "{json}");
        assert!(json.contains("\"pivot_probes\""), "{json}");

        // Without --exclude the index covers the whole file and must be
        // rejected against the split database…
        let full_idx = format!("{idx_path}.full");
        index(&args(&[
            "index", "build", "--db", &path, "--out", &full_idx,
        ]))
        .unwrap();
        let err = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--index",
            &full_idx,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("different database"), "{err}");

        // …but works with --query-file, which keeps the database whole.
        let qfile = format!("{idx_path}.query");
        std::fs::write(&qfile, "t q\nv 0 A\nv 1 B\ne 0 1 -\n").unwrap();
        let by_file = query(&args(&[
            "--db",
            &path,
            "--query-file",
            &qfile,
            "--index",
            &full_idx,
            "--plan",
            "indexed",
        ]))
        .unwrap();
        assert!(by_file.contains("database: 3 graphs"), "{by_file}");
        assert!(by_file.contains("index: "), "{by_file}");

        for p in [&idx_path, &full_idx, &qfile] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn query_reports_the_plan_and_accepts_plan_flags() {
        let (_keep, path) = write_temp_db();
        let auto = query(&args(&["--db", &path, "--query-name", "needle"])).unwrap();
        assert!(
            auto.contains("plan: prefilter (selected by auto)"),
            "{auto}"
        );
        assert!(auto.contains("prefilter:"), "{auto}");
        let forced = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "naive",
        ]))
        .unwrap();
        assert!(forced.contains("plan: naive\n"), "{forced}");
        assert!(!forced.contains("prefilter:"), "{forced}");
        // Same skyline regardless of plan.
        let sky = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("similarity skyline"))
                .take(2)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(sky(&auto), sky(&forced));
        // JSON names the resolved plan.
        let json = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(json.contains("\"plan\": \"prefilter\""), "{json}");
        // Bad plans fail loudly; indexed without an index is refused.
        assert!(query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "quantum"
        ]))
        .is_err());
        let err = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--plan",
            "indexed",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--index"), "{err}");
    }

    #[test]
    fn query_rejects_ambiguous_query_source() {
        let (_keep, path) = write_temp_db();
        let err = query(&args(&["--db", &path])).unwrap_err();
        assert!(err.to_string().contains("exactly one of"), "{err}");
        let err = query(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--query-file",
            "also.gdb",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("exactly one of"), "{err}");
    }

    #[test]
    fn index_subcommand_errors() {
        let (_keep, path) = write_temp_db();
        assert!(index(&args(&["index"])).is_err());
        assert!(index(&args(&["index", "frobnicate"])).is_err());
        assert!(
            index(&args(&["index", "build", "--db", &path])).is_err(),
            "--out required"
        );
        assert!(index(&args(&["index", "stats", "--index", "/no/such/file.gsi"])).is_err());
    }

    #[test]
    fn error_paths() {
        let (_keep, path) = write_temp_db();
        assert!(query(&args(&["--db", &path, "--query-name", "nope"])).is_err());
        assert!(query(&args(&["--db", "/no/such/file", "--query-name", "x"])).is_err());
        // `--prefilter` and `--algo` are retired: `--plan` is the one spelling.
        for unknown in [&["--bogus", "1"][..], &["--prefilter"], &["--algo", "bnl"]] {
            let mut words = vec!["--db", &path, "--query-name", "needle"];
            words.extend_from_slice(unknown);
            let err = query(&args(&words)).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("unknown option {}", unknown[0])),
                "{err}"
            );
        }
        assert!(topk(&args(&[
            "--db",
            &path,
            "--query-name",
            "needle",
            "--measure",
            "zzz"
        ]))
        .is_err());
        assert!(generate(&args(&["--kind", "alien"])).is_err());
    }

    #[test]
    fn paper_summary_matches() {
        let out = paper();
        assert!(out.contains("skyline match = exact"));
        assert!(out.contains("[\"g1\", \"g4\"]"));
    }
}
