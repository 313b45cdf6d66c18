//! The parity lattice: a query has one answer, whatever the plan, thread
//! count, representation, epoch or path that computes it.
//!
//! A configuration picks one value on each axis of [`AXES`]. Every drawn
//! scenario builds a workload and checks the [`CORNERS`] plus a pairwise
//! covering set of configurations at two levels:
//!
//! * **answer**, against the reference — Naive × owned × direct × 1 thread
//!   on a database built from scratch with the same graphs: skyline,
//!   witnesses, exact rows, `lb ≤ exact` and counter conservation;
//! * **document**, against the [`canonical`] configuration: the compact
//!   `to_json` answer document the server caches (all the engine path
//!   exposes), and on the direct and batch paths also the compact
//!   `explain_json` document with its per-graph rows.
//!
//! `PARITY_STATUS.md` records the level and scenario count per axis pair;
//! [`parity_status_is_current`] rebuilds it.

mod support;

use std::collections::{hash_map::Entry, BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use similarity_skyline::core::{explain_json, jsonio::escape, to_json};
use similarity_skyline::datasets::{paper::figure3_database, workload::WorkloadKind};
use similarity_skyline::graph::format::parse_database;
use similarity_skyline::prelude::*;
use similarity_skyline::server::{Engine, Request, Response, ServerConfig};
use support::{build_workload, compact, graph_text, renamed_text};

/// Every axis and its values; a new axis is one more entry here and a
/// case in [`Built::eval`].
const AXES: [(&str, &str); 6] = [
    ("plan", "auto naive prefilter indexed sharded"),
    ("shards", "1 2 3"),
    ("threads", "1 3"),
    ("repr", "owned compact image"),
    ("epoch", "fresh mutated"),
    ("path", "direct batch engine"),
];
const PLAN: usize = 0;
const SHARDS: usize = 1;
const THREADS: usize = 2;
const REPR: usize = 3;
const EPOCH: usize = 4;
const PATH: usize = 5;
const AUTO: usize = 0;
const NAIVE: usize = 1;
const PREFILTER: usize = 2;
const INDEXED: usize = 3;
const SHARDED: usize = 4;
const MUTATED: usize = 1;
const DIRECT: usize = 0;
const ENGINE: usize = 2;

/// One value index per axis.
type Config = [usize; AXES.len()];

/// Configurations every scenario checks: an indexed query on a loaded
/// image, after a store epoch, answered from the engine's cache.
const CORNERS: [Config; 1] = [[INDEXED, 0, 1, 2, MUTATED, ENGINE]];

const SCENARIOS: usize = 16;

/// The name of value `v` on `axis`; plan values are plan tokens.
fn token(axis: usize, v: usize) -> &'static str {
    AXES[axis].1.split(' ').nth(v).expect("value in range")
}

fn value(axis: usize, v: usize) -> String {
    format!("{}={}", AXES[axis].0, token(axis, v))
}

fn describe(c: &Config) -> String {
    let values: Vec<String> = c.iter().enumerate().map(|(a, &v)| value(a, v)).collect();
    values.join(" × ")
}

/// The query options `c` names (the index is attached per scenario).
fn options(c: &Config) -> QueryOptions {
    QueryOptions {
        plan: Plan::parse(token(PLAN, c[PLAN])).expect("a plan token"),
        shards: c[SHARDS] + 1,
        threads: [1, 3][c[THREADS]],
        ..QueryOptions::default()
    }
}

/// The configuration whose document `c`'s must equal: owned, direct, one
/// shard (read only by the sharded plan, whose document ignores it), with
/// `c`'s resolved plan (Auto resolves to Prefilter, though every
/// configuration carries an index) and epoch. It keeps `c`'s
/// thread count only where threads change counters: not for the naive and
/// sharded plans, and not on the batch and engine paths, which run each
/// query on one thread.
fn canonical(c: &Config) -> Config {
    let plan = if c[PLAN] == AUTO { PREFILTER } else { c[PLAN] };
    let invariant = plan == NAIVE || plan == SHARDED || c[PATH] != DIRECT;
    let threads = if invariant { 0 } else { c[THREADS] };
    [plan, 0, threads, 0, c[EPOCH], DIRECT]
}

/// The value pairs `c` covers: `(axis, value, later axis, value)`.
fn pairs(c: &Config) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
    (0..c.len()).flat_map(move |a| (a + 1..c.len()).map(move |b| (a, c[a], b, c[b])))
}

/// Every configuration of the lattice.
fn all_configs() -> Vec<Config> {
    let sizes: Vec<usize> = AXES.iter().map(|(_, v)| v.split(' ').count()).collect();
    let mut all = Vec::new();
    for mut i in 0..sizes.iter().product() {
        let mut c = [0; AXES.len()];
        for (a, size) in sizes.iter().enumerate() {
            (c[a], i) = (i % size, i / size);
        }
        all.push(c);
    }
    all
}

/// The corners plus a greedy pairwise covering set: each step takes a
/// configuration covering the most uncovered pairs, ties drawn from `rng`.
fn covering(rng: &mut TestRng) -> Vec<Config> {
    let all = all_configs();
    // Pairs as indices into a dense table: at most 8 axes of 8 values.
    let slot = |(a, va, b, vb): (usize, usize, usize, usize)| ((a * 8 + va) * 8 + b) * 8 + vb;
    let mut uncovered = vec![false; 8 * 8 * 8 * 8];
    all.iter()
        .flat_map(pairs)
        .for_each(|p| uncovered[slot(p)] = true);
    let mut picked = CORNERS.to_vec();
    loop {
        for c in &picked {
            pairs(c).for_each(|p| uncovered[slot(p)] = false);
        }
        let gain = |c: &Config| pairs(c).filter(|&p| uncovered[slot(p)]).count();
        let gains: Vec<usize> = all.iter().map(gain).collect();
        let best = gains.iter().copied().max().unwrap_or(0);
        if best == 0 {
            return picked;
        }
        let ties: Vec<usize> = (0..all.len()).filter(|&i| gains[i] == best).collect();
        picked.push(all[ties[(rng.next_u64() % ties.len() as u64) as usize]]);
    }
}

/// One scenario: the seed of its drawn workload (`None` for the paper's
/// Figure 3 database) and of its mutation, and the configurations it checks.
struct Scenario {
    seed: Option<u64>,
    configs: Vec<Config>,
}

/// The paper's database, then drawn workloads; deterministic because the
/// stream is seeded from a fixed name.
fn scenarios() -> Vec<Scenario> {
    let mut rng = TestRng::from_name("parity::scenarios");
    let mut draw = |i| Scenario {
        seed: (i > 0).then(|| rng.next_u64()),
        configs: covering(&mut rng),
    };
    (0..SCENARIOS).map(&mut draw).collect()
}

/// What one configuration returned: its compact answer document, and its
/// compact explain document and result on the paths that expose them.
struct Eval {
    answer: String,
    explain: Option<String>,
    result: Option<GssResult>,
}

/// A built scenario: per representation, a store's snapshots before and
/// after the epoch, and the scratch-built databases the references run on.
struct Built {
    query: Graph,
    mutation: MutationBatch,
    snapshots: Vec<[Arc<Snapshot>; 2]>,
    references: [GraphDatabase; 2],
}

fn store(db: &Arc<GraphDatabase>, index: &Arc<PivotIndex>) -> GraphStore {
    let (db, index, config) = (Arc::clone(db), Arc::clone(index), StoreConfig::default());
    GraphStore::with_index(db, index, config).expect("index validates")
}

impl Scenario {
    /// The paper's database under the default index, whose pivot bounds
    /// leave stragglers, or a workload of 2 to 11 graphs under 1–4 pivots
    /// and 1–3 rings; the epoch removes one graph and inserts a renamed
    /// copy of another.
    fn build(&self) -> Built {
        let mut rng = Rng::seed_from_u64(self.seed.unwrap_or_default());
        let (db, query, config) = match self.seed {
            None => {
                let paper = figure3_database();
                let db = GraphDatabase::from_parts(paper.vocab, paper.graphs);
                (db, paper.query, PivotIndexConfig::default())
            }
            Some(_) => {
                let size = 2 + rng.gen_index(10);
                let kind = [WorkloadKind::Molecule, WorkloadKind::Uniform][rng.gen_index(2)];
                let (db, query) = build_workload(rng.next_u64(), size, kind);
                let (pivots, rings) = (1 + rng.gen_index(4), 1 + rng.gen_index(3));
                (db, query, PivotIndexConfig { pivots, rings })
            }
        };
        // A retired draw, kept so every scenario keeps its mutation.
        rng.gen_index(4);
        let victim = rng.gen_index(db.len());
        let inserted = renamed_text(&db, rng.gen_index(db.len()), "inserted");
        let mutation = MutationBatch::default()
            .insert(&inserted)
            .remove(db.name_of(GraphId(victim)));
        let mut after: Vec<Graph> = db.iter().map(|(_, g)| g.clone()).collect();
        after.remove(victim);
        let mut vocab = db.vocab().clone();
        after.extend(parse_database(&inserted, &mut vocab).expect("graph text parses"));

        let index = PivotIndex::build(&db, &config);
        let loaded = PivotIndex::from_bytes(&index.to_bytes()).expect("index image loads");
        assert_eq!(loaded, index, "a loaded index equals the built one");
        let mut packed = db.clone();
        packed.compact();
        let image = GraphDatabase::load_bytes(&packed.save_bytes()).expect("image loads");
        let index = Arc::new(index);
        let reprs = [(db.clone(), Arc::clone(&index)), (packed, index)];
        let snapshots = reprs
            .into_iter()
            .chain([(image, Arc::new(loaded))])
            .map(|(db, index)| {
                let store = store(&Arc::new(db), &index);
                let fresh = store.snapshot();
                store.apply(&mutation).expect("the mutation applies");
                [fresh, store.snapshot()]
            })
            .collect();
        let references = [db, GraphDatabase::from_parts(vocab, after)];
        Built {
            query,
            mutation,
            snapshots,
            references,
        }
    }
}

impl Built {
    fn eval(&self, c: &Config) -> Eval {
        if c[PATH] == ENGINE {
            return self.engine(c);
        }
        let snap = &self.snapshots[c[REPR]][c[EPOCH]];
        let mut options = options(c);
        options.index = snap.query_index();
        self.run(c, snap.database(), &options)
    }

    /// The direct path or the batch path.
    fn run(&self, c: &Config, db: &GraphDatabase, options: &QueryOptions) -> Eval {
        let r = if c[PATH] == DIRECT {
            graph_similarity_skyline(db, &self.query, options)
        } else {
            // A batch answers each query as it would alone.
            let neighbour = db.get(GraphId(0)).clone();
            let queries = [neighbour.clone(), self.query.clone()];
            let mut batch = graph_similarity_skyline_batch(db, &queries, options);
            let alone = graph_similarity_skyline(db, &neighbour, options);
            let answer = |r: &GssResult| (r.skyline.clone(), r.dominated.clone());
            assert_eq!(answer(&batch[0]), answer(&alone), "{}: batch", describe(c));
            batch.remove(1)
        };
        Eval {
            answer: compact(&to_json(db, &r)),
            explain: Some(compact(&explain_json(db, &r))),
            result: Some(r),
        }
    }

    /// The engine path: a decoy under another plan warms the cache, the
    /// epoch (if any) goes through the engine, then the query must miss and
    /// its replay hit with the same bytes.
    fn engine(&self, c: &Config) -> Eval {
        let fresh = &self.snapshots[c[REPR]][0];
        let store = store(fresh.database(), fresh.index().expect("an indexed store"));
        let config = ServerConfig {
            workers: options(c).threads,
            ..ServerConfig::default()
        };
        let engine = Engine::with_store(Arc::new(store), options(c), &config);
        let graph = escape(&graph_text(fresh.database(), &self.query));
        let ask = |options: &str| {
            let line = format!(r#"{{"op":"query","graph":"{graph}"{options}}}"#);
            let Ok(Request::Query(job)) = engine.parse_request(&line) else {
                panic!("{}: the query line parses", describe(c));
            };
            let evaluate = || engine.evaluate_batch(std::slice::from_ref(&job)).remove(0);
            match engine.try_cache(&job).unwrap_or_else(evaluate) {
                Response::Result { cached, result, .. } => (cached, result),
                other => panic!("{}: {other:?}", describe(c)),
            }
        };
        let decoy = if c[PLAN] == NAIVE {
            "prefilter"
        } else {
            "naive"
        };
        ask(&format!(r#","options":{{"plan":"{decoy}"}}"#));
        if c[EPOCH] == MUTATED {
            assert!(
                engine.apply_mutation(&self.mutation).is_ok(),
                "the mutation applies"
            );
        }
        let ((miss, answer), (hit, replay)) = (ask(""), ask(""));
        let at = describe(c);
        assert_eq!((miss, hit), (false, true), "{at}: miss, then hit");
        assert_eq!(replay, answer, "{at}: the hit changed the document");
        Eval {
            answer,
            explain: None,
            result: None,
        }
    }
}

/// Checks an evaluation's answer against the reference.
fn check_answer(c: &Config, e: &Eval, reference: &Eval) {
    let (Some(r), Some(want)) = (&e.result, &reference.result) else {
        return;
    };
    let at = describe(c);
    assert_eq!(r.plan.name(), token(PLAN, canonical(c)[PLAN]), "{at}");
    assert_eq!(r.skyline, want.skyline, "{at}: skyline");
    assert_eq!(r.dominated, want.dominated, "{at}: witnesses");
    for (i, (got, exact)) in r.gcs.iter().zip(&want.gcs).enumerate() {
        if r.is_exact(GraphId(i)) {
            assert_eq!(got, exact, "{at}: exact row {i}");
        } else {
            let mut bounds = got.values.iter().zip(&exact.values);
            assert!(bounds.all(|(lb, x)| *lb <= x + 1e-9), "{at}: bound {i}");
        }
    }
    let sum = |p: PruneStats| p.verified + p.pruned + p.short_circuited + p.index_skipped;
    let counted = r.pruning.map(sum);
    let all = (r.plan != ResolvedPlan::Naive).then_some(r.gcs.len());
    assert_eq!(counted, all, "{at}: counters");
}

fn check(s: &Scenario) {
    let built = s.build();
    let mut references = HashMap::new();
    let mut evals: HashMap<Config, Eval> = HashMap::new();
    for c in &s.configs {
        for c in [canonical(c), *c] {
            if let Entry::Vacant(slot) = evals.entry(c) {
                let e = built.eval(&c);
                let reference = references.entry(c[EPOCH]).or_insert_with(|| {
                    let naive = [NAIVE, 0, 0, 0, 0, DIRECT];
                    built.run(&naive, &built.references[c[EPOCH]], &options(&naive))
                });
                check_answer(&c, &e, reference);
                slot.insert(e);
            }
        }
        let (e, want) = (&evals[c], &evals[&canonical(c)]);
        let at = format!("{} vs {}", describe(c), describe(&canonical(c)));
        assert_eq!(e.answer, want.answer, "{at}: answer document");
        if let (Some(explain), Some(want)) = (&e.explain, &want.explain) {
            assert_eq!(explain, want, "{at}: explain document");
        }
    }
}

#[test]
fn lattice_scenarios_0_to_7() {
    scenarios().iter().take(8).for_each(check);
}

#[test]
fn lattice_scenarios_8_to_15() {
    scenarios().iter().skip(8).for_each(check);
}

/// Renders `PARITY_STATUS.md` from the axes and the drawn scenarios.
fn status() -> String {
    let scenarios = scenarios();
    // Per value pair: the scenarios checking it, and those checking it at
    // document level (a configuration compared with another canonical one).
    let mut counts: HashMap<_, (usize, usize)> = HashMap::new();
    for s in &scenarios {
        let mut documented: HashMap<_, bool> = HashMap::new();
        for c in &s.configs {
            pairs(c).for_each(|p| *documented.entry(p).or_default() |= canonical(c) != *c);
        }
        for (p, doc) in documented {
            let (n, d) = counts.entry(p).or_default();
            (*n, *d) = (*n + 1, *d + usize::from(doc));
        }
    }
    let universe: BTreeSet<_> = all_configs().iter().flat_map(pairs).collect();
    let rows: Vec<String> = universe
        .iter()
        .map(|&(a, va, b, vb)| {
            let (n, d) = counts.get(&(a, va, b, vb)).copied().unwrap_or_default();
            let level = [["gap: never drawn"; 2], ["answer", "document"]][usize::from(n > 0)];
            let level = level[usize::from(d > 0)];
            let (a, b) = (value(a, va), value(b, vb));
            format!("| `{a} × {b}` | {level} | {n} | {d} |")
        })
        .collect();
    let covered = rows.iter().filter(|r| !r.contains("gap:")).count();
    let corners: Vec<String> = CORNERS.iter().map(describe).collect();
    format!(
        "# PARITY_STATUS (auto-generated)\n\n\
         Rebuilt by `parity_status_is_current` in `tests/parity.rs` from the lattice axes and \
         its {SCENARIOS} scenarios; it fails on drift and prints the expected text. *answer*: \
         checked against Naive × owned × direct × 1 thread; *document*: also byte-compared \
         with the canonical configuration (same resolved plan, epoch and effective \
         thread count).\n\n\
         **Axis pairs covered: {covered}/{}.** Corners, checked at both levels in every \
         scenario: `{}`.\n\n\
         | Axis pair | Checked at | Scenarios | Scenarios at document level |\n\
         |-----------|------------|-----------|-----------------------------|\n\
         {}\n",
        rows.len(),
        corners.join("`; `"),
        rows.join("\n"),
    )
}

#[test]
fn parity_status_is_current() {
    let expected = status();
    let current = include_str!("../PARITY_STATUS.md") == expected;
    assert!(current, "PARITY_STATUS.md is stale; expected:\n{expected}");
}
