//! The unified query planner and staged execution engine.
//!
//! Every GSS entry point — [`crate::graph_similarity_skyline`], the batch
//! API and [`crate::graph_similarity_skyband`] — runs through the one
//! executor in this module. A query evaluation is four explicit stages:
//!
//! ```text
//!  candidate source ──► bound stage ──► dominance verifier ──► assembly
//!  (full scan, or       (PrefilterSummary  (waves of exact      (skyline +
//!   QueryIndex           lower bounds       solver calls;        witnesses,
//!   partitions,          per candidate)     frontier prunes      or k-skyband
//!   dominated ones                          dominated bounds;    membership)
//!   skipped wholesale)                      CancelToken
//!                                           checkpoints)
//! ```
//!
//! # Plans
//!
//! Which candidate source and bound stage run is decided by a [`Plan`]:
//!
//! * [`Plan::Naive`] — every candidate goes straight to the solvers; no
//!   bounds, no pruning (the reference strategy).
//! * [`Plan::Prefilter`] — the filter-and-verify pipeline: per-candidate
//!   lower bounds, most-promising-first verification, dominance pruning.
//! * [`Plan::Indexed`] — a [`QueryIndex`] partitions the database first;
//!   partitions whose bound vector is dominated are skipped wholesale and
//!   the survivors run through the prefilter stage. Requires
//!   [`QueryOptions::index`].
//! * [`Plan::Sharded`] — the candidate space is split into
//!   [`QueryOptions::shards`] contiguous ranges; each shard runs its own
//!   *sequential* filter-and-verify pipeline (shards, not candidates, are
//!   what [`QueryOptions::threads`] parallelizes), and the per-shard
//!   dominance frontiers are merged into one skyline. This is the fan-out
//!   strategy for one huge query spread across a worker pool; the
//!   reported document is invariant in the shard count by construction
//!   (see [`skyline`]'s sharded assembly).
//! * [`Plan::Auto`] (the default) — picks one of the above from what is
//!   available: an attached index wins, otherwise the prefilter pipeline
//!   for databases of at least [`AUTO_PREFILTER_MIN`] graphs, otherwise
//!   the naive scan (for tiny databases the bound bookkeeping buys
//!   nothing).
//!
//! Every plan returns **byte-identical** answers: the same skyline, the
//! same witnesses, the same exact GCS vectors, the same skyband
//! membership, across solver configurations and thread counts. Plans only
//! change how much work is spent getting there, which the
//! [`PruneStats`]/[`GssResult::pruning`] counters expose.
//!
//! # Cooperative cancellation
//!
//! The executor threads a [`CancelToken`] through every stage and checks
//! it at **wave boundaries**: before each wave of exact solver calls,
//! before each index partition, and between pipeline stages. A fired
//! token (explicit [`CancelToken::cancel`] or an expired
//! [`CancelToken::with_deadline`] deadline) makes the executor return
//! [`Cancelled`] instead of a result, abandoning the remaining scan. This
//! is what lets `gss-server` abort deadline-expired queries *mid-scan*
//! rather than only dropping them while they wait in the queue.
//! Granularity is one wave — an individual solver call is never
//! interrupted, so cancellation latency is bounded by the most expensive
//! single candidate.

use std::cmp::Ordering;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use gss_graph::Graph;
use gss_skyline::{dominance, Algorithm};

use crate::database::{GraphDatabase, GraphId};
use crate::index::QueryIndex;
use crate::measures::GcsVector;
use crate::parallel::{parallel_map_indexed, parallel_map_waves};
use crate::prefilter::{self, PrefilterContext, PrefilterSummary, PruneStats};
use crate::query::{DominationWitness, GssResult, QueryOptions};

/// Smallest database for which [`Plan::Auto`] picks the filter-and-verify
/// pipeline over the naive scan when no index is attached. Below this the
/// frontier bookkeeping cannot amortize; at or above it the pruned scan
/// never runs more solver calls and usually runs far fewer.
pub const AUTO_PREFILTER_MIN: usize = 16;

/// How a query should be evaluated. The executor turns a `Plan` into a
/// [`ResolvedPlan`] per query via [`resolve_plan`]; `Auto` is the only
/// variant whose resolution depends on the database and options.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Plan {
    /// Choose the cheapest sound strategy from the database size and the
    /// attached index (see [`resolve_plan`]). The default.
    #[default]
    Auto,
    /// Full scan, exact solvers for every candidate, no pruning.
    Naive,
    /// Filter-and-verify: per-candidate lower bounds + dominance pruning.
    Prefilter,
    /// Index partitions first, prefilter inside surviving partitions.
    /// Requires [`QueryOptions::index`].
    Indexed,
    /// Static `N`-way partition of the candidate space
    /// ([`QueryOptions::shards`]): each shard runs its own sequential
    /// filter-and-verify pipeline and the per-shard frontiers are merged
    /// into one skyline. Made for huge single queries fanning out across a
    /// worker pool; the answer is byte-identical for every shard count.
    Sharded,
}

impl Plan {
    /// Parses a plan token as used by the CLI and the server protocol.
    pub fn parse(token: &str) -> Option<Plan> {
        match token {
            "auto" => Some(Plan::Auto),
            "naive" => Some(Plan::Naive),
            "prefilter" => Some(Plan::Prefilter),
            "indexed" => Some(Plan::Indexed),
            "sharded" => Some(Plan::Sharded),
            _ => None,
        }
    }

    /// The lowercase token naming this plan (`"auto"`, `"naive"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Plan::Auto => "auto",
            Plan::Naive => "naive",
            Plan::Prefilter => "prefilter",
            Plan::Indexed => "indexed",
            Plan::Sharded => "sharded",
        }
    }
}

/// The concrete strategy a query ran under, reported in
/// [`GssResult::plan`] (an `Auto` request resolves to one of these).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResolvedPlan {
    /// Full scan without pruning.
    Naive,
    /// Filter-and-verify pipeline.
    Prefilter,
    /// Index partition skipping + filter-and-verify.
    Indexed,
    /// Per-shard filter-and-verify with a merged frontier.
    Sharded,
}

impl ResolvedPlan {
    /// The lowercase token naming this strategy.
    pub fn name(self) -> &'static str {
        match self {
            ResolvedPlan::Naive => "naive",
            ResolvedPlan::Prefilter => "prefilter",
            ResolvedPlan::Indexed => "indexed",
            ResolvedPlan::Sharded => "sharded",
        }
    }
}

/// Resolves the strategy for one query.
///
/// Explicit plans win: `Naive` and `Prefilter` ignore any attached index,
/// and `Indexed` **panics** without one (callers that accept user input
/// should validate first). `Auto` picks the cheapest available strategy:
/// the index when attached, the prefilter pipeline when the database has
/// at least [`AUTO_PREFILTER_MIN`] graphs, and the naive scan otherwise.
pub fn resolve_plan(db: &GraphDatabase, options: &QueryOptions) -> ResolvedPlan {
    match options.plan {
        Plan::Naive => ResolvedPlan::Naive,
        Plan::Prefilter => ResolvedPlan::Prefilter,
        Plan::Sharded => ResolvedPlan::Sharded,
        Plan::Indexed => {
            assert!(
                options.index.is_some(),
                "Plan::Indexed requires QueryOptions::index"
            );
            ResolvedPlan::Indexed
        }
        Plan::Auto => {
            if options.index.is_some() {
                ResolvedPlan::Indexed
            } else if db.len() >= AUTO_PREFILTER_MIN {
                ResolvedPlan::Prefilter
            } else {
                ResolvedPlan::Naive
            }
        }
    }
}

/// The error returned by the cancellable entry points when their
/// [`CancelToken`] fired before the scan finished.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("query evaluation cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Checkpoints polled so far, so a test token can fire at its k-th.
    #[cfg(test)]
    polls: std::sync::atomic::AtomicUsize,
    #[cfg(test)]
    fire_at: Option<usize>,
}

/// A cooperative cancellation handle shared between a query evaluation and
/// whoever may want to abort it.
///
/// Clones share state. The executor polls the token at wave boundaries
/// (see the module docs); it never interrupts an individual solver call.
/// A token fires either explicitly ([`CancelToken::cancel`], e.g. from a
/// watchdog or a shutdown path) or implicitly once the deadline passed for
/// tokens built with [`CancelToken::with_deadline`] — the latter is how
/// `gss-server` turns a request's `deadline_ms` into a mid-scan abort
/// without a timer thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires once `deadline` passes (or when cancelled
    /// explicitly, whichever comes first).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenState {
                deadline: Some(deadline),
                ..TokenState::default()
            }),
        }
    }

    /// A token that fires at its `k`-th checkpoint (0-based).
    #[cfg(test)]
    fn firing_at(k: usize) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenState {
                fire_at: Some(k),
                ..TokenState::default()
            }),
        }
    }

    /// Requests cancellation; every clone observes it at its next check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, AtomicOrdering::Relaxed);
    }

    /// True once the token fired (explicitly or by deadline). A deadline
    /// expiry latches, so later calls stay cheap.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(AtomicOrdering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.inner.cancelled.store(true, AtomicOrdering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The wave-boundary check the executor calls: `Err(Cancelled)` once
    /// the token fired.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        #[cfg(test)]
        if self.inner.fire_at == Some(self.inner.polls.fetch_add(1, AtomicOrdering::Relaxed)) {
            self.cancel();
        }
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

/// The result of a `k`-skyband query (see
/// [`crate::graph_similarity_skyband`]): every database graph
/// similarity-dominated by fewer than `k` others.
#[derive(Clone, Debug, PartialEq)]
pub struct SkybandResult {
    /// The dominance threshold the query ran with (`k = 1` is the skyline).
    pub k: usize,
    /// Member ids, ascending. Identical across every [`Plan`].
    pub members: Vec<GraphId>,
    /// The strategy the skyband ran under.
    pub plan: ResolvedPlan,
    /// Pruning counters when the filter-and-verify pipeline ran, `None`
    /// for the naive and sharded scans. Candidates counted
    /// `pruned`/`index_skipped` were proven out of the band by lower
    /// bounds alone — no solver ran.
    pub pruning: Option<PruneStats>,
}

impl SkybandResult {
    /// True when `id` is in the skyband.
    pub fn contains(&self, id: GraphId) -> bool {
        self.members.binary_search(&id).is_ok()
    }
}

/// Candidates per worker thread in one wave of the naive scan — large
/// enough to amortize wave bookkeeping, small enough that a cancellation
/// checkpoint runs every few solver calls.
const NAIVE_WAVE_PER_THREAD: usize = 8;

/// How the dominance frontier prunes: against the non-dominated verified
/// set (skyline queries) or by counting `k` distinct verified dominators
/// (skyband queries).
enum Frontier {
    /// The non-dominated subset of verified vectors. Dominance is
    /// transitive, so testing a bound against this subset is as strong as
    /// testing against every verified vector.
    Skyline(Vec<usize>),
    /// Every verified vector. A bound is only "covered" once `k` distinct
    /// verified vectors dominate it — a candidate excluded this way is
    /// dominated by at least `k` graphs, so it cannot be in the band, and
    /// (by transitivity) anything its exact vector would dominate already
    /// has `k` verified dominators, so skipping it never under-counts.
    Band {
        /// The dominance threshold.
        k: usize,
        /// Indices of every verified vector, in verification order.
        verified: Vec<usize>,
    },
}

/// Shared state of the filter-and-verify pipeline: the verified vectors so
/// far, the pruning frontier over them, and the running counters. Both the
/// prefilter-only source and the indexed source drive one `Verifier`;
/// candidates and partitions can be fed in any order without changing the
/// final answer (only the stats depend on order).
struct Verifier<'a> {
    db: &'a GraphDatabase,
    query: &'a Graph,
    options: &'a QueryOptions,
    cancel: &'a CancelToken,
    exact: Vec<Option<GcsVector>>,
    frontier: Frontier,
    stats: PruneStats,
}

impl<'a> Verifier<'a> {
    fn new(
        db: &'a GraphDatabase,
        query: &'a Graph,
        options: &'a QueryOptions,
        cancel: &'a CancelToken,
        frontier: Frontier,
    ) -> Self {
        Verifier {
            db,
            query,
            options,
            cancel,
            exact: vec![None; db.len()],
            frontier,
            stats: PruneStats {
                candidates: db.len(),
                ..PruneStats::default()
            },
        }
    }

    fn values(&self, i: usize) -> &[f64] {
        &self.exact[i].as_ref().expect("vector is verified").values
    }

    /// True when the verified set already covers `bound` — the one pruning
    /// decision of the pipeline, shared by partitions (index bounds) and
    /// candidates (prefilter lower bounds). For skyline queries this means
    /// one frontier member dominates the bound; for skyband queries it
    /// means `k` distinct verified vectors do.
    fn frontier_dominates(&self, bound: &[f64]) -> bool {
        match &self.frontier {
            Frontier::Skyline(frontier) => frontier
                .iter()
                .any(|&f| dominance::dominates(self.values(f), bound)),
            Frontier::Band { k, verified } => {
                let mut dominators = 0usize;
                for &v in verified {
                    if dominance::dominates(self.values(v), bound) {
                        dominators += 1;
                        if dominators >= *k {
                            return true;
                        }
                    }
                }
                dominators >= *k
            }
        }
    }

    /// Registers a freshly verified vector with the frontier.
    fn frontier_insert(&mut self, i: usize) {
        let exact = &self.exact;
        let point =
            |f: usize| -> &[f64] { &exact[f].as_ref().expect("frontier is verified").values };
        match &mut self.frontier {
            Frontier::Band { verified, .. } => verified.push(i),
            Frontier::Skyline(frontier) => {
                let v = point(i);
                if frontier.iter().any(|&f| dominance::dominates(point(f), v)) {
                    return;
                }
                frontier.retain(|&f| !dominance::dominates(v, point(f)));
                frontier.push(i);
            }
        }
    }

    /// Resolves `i` through the distance-zero short-circuit when its
    /// summary proved isomorphism: exact all-zero vector, no solver runs.
    fn try_short_circuit(&mut self, i: usize, summary: &PrefilterSummary) {
        if summary.isomorphic && self.exact[i].is_none() {
            self.exact[i] = summary.known_exact(&self.options.measures);
            self.stats.short_circuited += 1;
            self.frontier_insert(i);
        }
    }

    /// Runs the per-candidate filter-and-verify loop over `candidates`
    /// (already-resolved entries are skipped).
    ///
    /// Verification order is most promising first (smallest lower-bound
    /// sum, ties by id): near-answers verify early and build a strong
    /// pruning frontier for the long tail. Exact solving proceeds in waves
    /// of up to `threads` candidates so it still parallelizes; each wave
    /// refreshes the frontier before the next pruning decision, and each
    /// wave boundary is a cancellation checkpoint.
    /// `threads == 1` is the classic sequential filter-and-verify loop.
    fn run(
        &mut self,
        candidates: &[usize],
        summaries: &[Option<PrefilterSummary>],
    ) -> Result<(), Cancelled> {
        let lower = |i: usize| {
            &summaries[i]
                .as_ref()
                .expect("candidates fed to run() are summarized")
                .lower
                .values
        };
        let mut order: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| self.exact[i].is_none())
            .collect();
        order.sort_by(|&a, &b| {
            let sa: f64 = lower(a).iter().sum();
            let sb: f64 = lower(b).iter().sum();
            sa.partial_cmp(&sb)
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });

        let threads = self.options.threads.max(1);
        let mut cursor = 0usize;
        while cursor < order.len() {
            self.cancel.checkpoint()?;
            let mut batch: Vec<usize> = Vec::with_capacity(threads);
            while cursor < order.len() && batch.len() < threads {
                let i = order[cursor];
                cursor += 1;
                if self.frontier_dominates(lower(i)) {
                    self.stats.pruned += 1;
                } else {
                    batch.push(i);
                }
            }
            if batch.is_empty() {
                continue;
            }
            let results: Vec<GcsVector> = parallel_map_indexed(batch.len(), threads, |k| {
                GcsVector::compute(
                    self.db.get(GraphId(batch[k])),
                    self.query,
                    &self.options.measures,
                    &self.options.solvers,
                )
            });
            for (k, v) in results.into_iter().enumerate() {
                let i = batch[k];
                self.exact[i] = Some(v);
                self.stats.verified += 1;
                self.frontier_insert(i);
            }
        }
        Ok(())
    }
}

/// Bound stage over the whole database: one [`PrefilterSummary`] per
/// candidate (cheap, linear-time each), fed from the cached per-graph
/// [`gss_graph::stats::GraphStats`].
fn summarize_all(
    db: &GraphDatabase,
    query: &Graph,
    options: &QueryOptions,
    ctx: &PrefilterContext,
) -> Vec<Option<PrefilterSummary>> {
    parallel_map_indexed(db.len(), options.threads, |i| {
        let id = GraphId(i);
        // The graph thunk keeps arena-backed candidates unmaterialized
        // unless the WL short-circuit actually needs the full graph.
        Some(prefilter::summarize_deferred(
            || db.get(id),
            db.stats(id),
            query,
            &options.measures,
            ctx,
        ))
    })
}

/// The naive verify stage: exact vectors for every candidate, computed in
/// cancellable waves (results are order-independent, so the wave structure
/// never changes them).
fn naive_verify(
    db: &GraphDatabase,
    query: &Graph,
    options: &QueryOptions,
    cancel: &CancelToken,
) -> Result<Vec<GcsVector>, Cancelled> {
    let threads = options.threads.max(1);
    parallel_map_waves(
        db.len(),
        threads,
        threads * NAIVE_WAVE_PER_THREAD,
        || cancel.checkpoint(),
        |i| {
            GcsVector::compute(
                db.get(GraphId(i)),
                query,
                &options.measures,
                &options.solvers,
            )
        },
    )
}

/// The candidate source stage of an indexed scan: partitions from the
/// index plan, most promising first; a partition whose bound vector is
/// covered by the frontier is skipped **wholesale** — its members get
/// neither a prefilter summary nor a solver call (`summaries` stays `None`
/// for them). Members of surviving partitions are summarized and run
/// through the ordinary per-candidate filter-and-verify stage. Returns
/// `partition_of`: the plan partition index of every *skipped* candidate
/// (usize::MAX elsewhere), which the skyline assembly uses for straggler
/// accounting.
fn run_partitions(
    v: &mut Verifier<'_>,
    index: &dyn QueryIndex,
    ctx: &PrefilterContext,
    summaries: &mut [Option<PrefilterSummary>],
) -> Result<Vec<usize>, Cancelled> {
    let n = v.db.len();
    let plan = index.plan(v.db, v.query, &v.options.measures);
    crate::index::validate_plan(&plan, n);
    for p in &plan.partitions {
        assert_eq!(
            p.bound.values.len(),
            v.options.measures.len(),
            "index partition bound must match the measure count"
        );
    }
    v.stats.index_partitions = plan.partitions.len();
    v.stats.pivot_probes = plan.pivot_probes;

    let mut partition_of: Vec<usize> = vec![usize::MAX; n];
    for pi in plan.most_promising_order() {
        v.cancel.checkpoint()?;
        let part = &plan.partitions[pi];
        if part.members.is_empty() {
            continue;
        }
        if v.frontier_dominates(&part.bound.values) {
            v.stats.index_skipped += part.members.len();
            v.stats.index_partitions_skipped += 1;
            for id in &part.members {
                partition_of[id.index()] = pi;
            }
            continue;
        }
        let members: Vec<usize> = part.members.iter().map(|g| g.index()).collect();
        let batch: Vec<PrefilterSummary> =
            parallel_map_indexed(members.len(), v.options.threads, |k| {
                let id = GraphId(members[k]);
                prefilter::summarize_deferred(
                    || v.db.get(id),
                    v.db.stats(id),
                    v.query,
                    &v.options.measures,
                    ctx,
                )
            });
        for (k, s) in batch.into_iter().enumerate() {
            summaries[members[k]] = Some(s);
        }
        for &i in &members {
            v.try_short_circuit(i, summaries[i].as_ref().expect("just summarized"));
        }
        v.run(&members, summaries)?;
    }
    Ok(partition_of)
}

/// The verify phase of the prefilter plan: exact vectors for every
/// candidate that survives lower-bound domination, `None` for the pruned.
fn prefilter_verify(
    v: &mut Verifier<'_>,
    summaries: &[Option<PrefilterSummary>],
) -> Result<(), Cancelled> {
    let n = v.db.len();
    for (i, summary) in summaries.iter().enumerate() {
        v.try_short_circuit(i, summary.as_ref().expect("all summarized"));
    }
    let all: Vec<usize> = (0..n).collect();
    v.run(&all, summaries)
}

/// The contiguous candidate range of shard `s` under an `S`-way static
/// split (ranges cover `0..n` exactly, sizes differ by at most one).
fn shard_range(n: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    (s * n / shards)..((s + 1) * n / shards)
}

/// The verify phase of the sharded plan: each shard runs its own
/// *sequential* [`Verifier`] over its candidate range — shards, not
/// candidates, are the unit [`QueryOptions::threads`] parallelizes — and
/// returns its final frontier plus every exact vector it computed.
/// `band_k` selects the skyband frontier; `None` is a skyline scan.
///
/// Within a shard, the final skyline frontier equals the shard's *true
/// local skyline*: a local skyline member's lower bound is never covered
/// (a dominator of its bound would dominate its exact vector), so it is
/// always verified and survives the frontier; and any frontier survivor
/// dominated by a pruned candidate's exact vector would transitively be
/// dominated by that candidate's verified dominator, contradicting
/// survival. The per-shard frontiers are therefore deterministic — the
/// shard *and* thread counts only decide how much extra verification
/// happened along the way.
///
/// Each shard yields its frontier (candidate indices) and every exact
/// vector it computed along the way.
type ShardOutput = (Vec<usize>, Vec<(usize, GcsVector)>);

fn sharded_verify(
    db: &GraphDatabase,
    query: &Graph,
    options: &QueryOptions,
    cancel: &CancelToken,
    summaries: &[Option<PrefilterSummary>],
    band_k: Option<usize>,
) -> Result<Vec<ShardOutput>, Cancelled> {
    let n = db.len();
    let shards = options.shards.max(1).min(n.max(1));
    let per_shard = QueryOptions {
        threads: 1,
        ..options.clone()
    };
    let results = parallel_map_indexed(shards, options.threads, |s| {
        let frontier = match band_k {
            None => Frontier::Skyline(Vec::new()),
            Some(k) => Frontier::Band {
                k,
                verified: Vec::new(),
            },
        };
        let mut v = Verifier::new(db, query, &per_shard, cancel, frontier);
        let members: Vec<usize> = shard_range(n, shards, s).collect();
        for &i in &members {
            v.try_short_circuit(i, summaries[i].as_ref().expect("all summarized"));
        }
        v.run(&members, summaries)?;
        let computed: Vec<(usize, GcsVector)> = members
            .iter()
            .filter_map(|&i| v.exact[i].take().map(|g| (i, g)))
            .collect();
        let frontier = match v.frontier {
            Frontier::Skyline(f) => f,
            Frontier::Band { verified, .. } => verified,
        };
        Ok((frontier, computed))
    });
    results.into_iter().collect()
}

/// Computes `GSS(D, q)` through the staged executor under the resolved
/// plan, with cooperative cancellation. This is the engine behind
/// [`crate::graph_similarity_skyline`]; see the module docs for the stage
/// pipeline and [`resolve_plan`] for plan selection.
pub fn skyline(
    db: &GraphDatabase,
    query: &Graph,
    options: &QueryOptions,
    cancel: &CancelToken,
) -> Result<GssResult, Cancelled> {
    assert!(
        !options.measures.is_empty(),
        "at least one measure is required"
    );
    let n = db.len();
    let plan = resolve_plan(db, options);
    cancel.checkpoint()?;

    // Bound-stage context: the query-side invariants are hoisted once per
    // scan; the isomorphism short-circuit stays off for naive scans and
    // approximate solvers.
    let ctx = PrefilterContext::for_query(query, &options.solvers, plan != ResolvedPlan::Naive);

    let (exact, summaries, pruning) = match plan {
        ResolvedPlan::Naive => {
            // Summaries still materialize (the witness rule consumes
            // per-candidate lower bounds), but nothing is pruned.
            let summaries = summarize_all(db, query, options, &ctx);
            cancel.checkpoint()?;
            let gcs = naive_verify(db, query, options, cancel)?;
            (gcs.into_iter().map(Some).collect(), summaries, None)
        }
        ResolvedPlan::Prefilter => {
            let summaries = summarize_all(db, query, options, &ctx);
            cancel.checkpoint()?;
            let mut v = Verifier::new(db, query, options, cancel, Frontier::Skyline(Vec::new()));
            prefilter_verify(&mut v, &summaries)?;
            (v.exact, summaries, Some(v.stats))
        }
        ResolvedPlan::Indexed => {
            let index = options
                .index
                .as_ref()
                .expect("resolved Indexed implies an index")
                .clone();
            let mut summaries: Vec<Option<PrefilterSummary>> = vec![None; n];
            let mut v = Verifier::new(db, query, options, cancel, Frontier::Skyline(Vec::new()));
            let partition_of = run_partitions(&mut v, index.as_ref(), &ctx, &mut summaries)?;

            // Materialize summaries for the members of skipped partitions:
            // the witness rule and the reported GCS matrix consume
            // per-candidate lower bounds for every excluded graph. This is
            // the reporting half of the bargain — linear-time per
            // candidate, no solver involved — and runs only after the scan
            // decided what to verify.
            let skipped: Vec<usize> = (0..n).filter(|&i| summaries[i].is_none()).collect();
            let batch: Vec<PrefilterSummary> =
                parallel_map_indexed(skipped.len(), options.threads, |k| {
                    let id = GraphId(skipped[k]);
                    prefilter::summarize_with_stats(
                        db.get(id),
                        db.stats(id),
                        query,
                        &options.measures,
                        &ctx,
                    )
                });
            for (k, s) in batch.into_iter().enumerate() {
                summaries[skipped[k]] = Some(s);
            }

            // Witness parity: the canonical witness rule resolves an
            // excluded graph through the first skyline member dominating
            // its *own* lower bound, falling back to its exact vector. A
            // skipped candidate's own bound can be looser than its
            // partition's (the pivot triangle bound sees structure the
            // label-alignment bounds cannot), so the frontier may dominate
            // the partition while missing the candidate's bound — verify
            // those rare stragglers so they resolve exactly as the naive
            // scan would. Their exact vectors are provably dominated (the
            // skip was justified by an admissible partition bound), so the
            // skyline cannot change; and a prefilter-only scan verifies
            // the same candidates (a candidate whose bound no verified
            // vector dominates is never pruned), so this never costs more
            // solver calls than the prefilter plan.
            let stragglers: Vec<usize> = skipped
                .iter()
                .copied()
                .filter(|&i| {
                    !v.frontier_dominates(
                        &summaries[i]
                            .as_ref()
                            .expect("skipped candidates were just summarized")
                            .lower
                            .values,
                    )
                })
                .collect();
            v.stats.index_skipped -= stragglers.len();
            // A partition that produced a straggler was not skipped
            // *wholesale* after all — keep the partition counter
            // consistent with the candidate counter in explain output and
            // the benchmark artifact.
            let mut demoted: Vec<usize> = stragglers.iter().map(|&i| partition_of[i]).collect();
            demoted.sort_unstable();
            demoted.dedup();
            v.stats.index_partitions_skipped -= demoted.len();
            v.run(&stragglers, &summaries)?;

            (v.exact, summaries, Some(v.stats))
        }
        ResolvedPlan::Sharded => {
            let summaries = summarize_all(db, query, options, &ctx);
            cancel.checkpoint()?;
            let shard_results = sharded_verify(db, query, options, cancel, &summaries, None)?;

            // Divide-and-conquer merge: the skyline of the union of the
            // per-shard skylines is the skyline of the whole database —
            // every global member is locally non-dominated (so pooled),
            // and every pooled non-member is dominated by a global member
            // that is itself in the pool.
            let mut computed: Vec<Option<GcsVector>> = vec![None; n];
            let mut pool: Vec<usize> = Vec::new();
            for (frontier, exacts) in shard_results {
                pool.extend(frontier);
                for (i, g) in exacts {
                    computed[i] = Some(g);
                }
            }
            pool.sort_unstable();
            let pool_points: Vec<Vec<f64>> = pool
                .iter()
                .map(|&i| {
                    computed[i]
                        .as_ref()
                        .expect("pooled frontiers are verified")
                        .values
                        .clone()
                })
                .collect();
            let sky: Vec<usize> = gss_skyline::skyline(&pool_points, Algorithm::default())
                .into_iter()
                .map(|j| pool[j])
                .collect();

            // Reporting invariance: the document must not depend on the
            // shard count, so exact vectors are reported for exactly the
            // skyline plus the *stragglers* — excluded candidates whose
            // own lower bound no skyline member's exact vector dominates
            // (the same set every unsharded plan resolves through the
            // second witness rule). Extra vectors individual shards
            // happened to verify are deliberately dropped; vectors the
            // shards did not compute are filled here. Stragglers are
            // provably dominated, so the skyline cannot change.
            let mut in_sky = vec![false; n];
            for &i in &sky {
                in_sky[i] = true;
            }
            let sky_dominates_lower = |i: usize| {
                let lower = &summaries[i].as_ref().expect("all summarized").lower.values;
                sky.iter().any(|&m| {
                    dominance::dominates(
                        &computed[m].as_ref().expect("skyline is verified").values,
                        lower,
                    )
                })
            };
            let stragglers: Vec<usize> = (0..n)
                .filter(|&i| !in_sky[i] && !sky_dominates_lower(i))
                .collect();
            let missing: Vec<usize> = stragglers
                .iter()
                .copied()
                .filter(|&i| computed[i].is_none())
                .collect();
            let threads = options.threads.max(1);
            let fresh = parallel_map_waves(
                missing.len(),
                threads,
                threads * NAIVE_WAVE_PER_THREAD,
                || cancel.checkpoint(),
                |j| {
                    GcsVector::compute(
                        db.get(GraphId(missing[j])),
                        query,
                        &options.measures,
                        &options.solvers,
                    )
                },
            )?;
            for (j, g) in fresh.into_iter().enumerate() {
                computed[missing[j]] = Some(g);
            }

            let mut exact: Vec<Option<GcsVector>> = vec![None; n];
            for &i in sky.iter().chain(stragglers.iter()) {
                exact[i] = computed[i].take();
            }

            // The pruning counters are *derived* from the reported set —
            // not from the per-shard scans, whose incidental verification
            // totals vary with the shard count — so the stats block is
            // invariant too. A candidate outside the reported set was
            // excluded by lower bounds alone, which is exactly what
            // `pruned` means in the other pruned plans.
            let reported = sky.len() + stragglers.len();
            let short_circuited = sky
                .iter()
                .chain(stragglers.iter())
                .filter(|&&i| summaries[i].as_ref().expect("all summarized").isomorphic)
                .count();
            let stats = PruneStats {
                candidates: n,
                verified: reported - short_circuited,
                pruned: n - reported,
                short_circuited,
                ..PruneStats::default()
            };
            (exact, summaries, Some(stats))
        }
    };

    // Assembly: skyline over the verified GCS matrix. Pruned candidates
    // are provably dominated, and removing dominated points never changes
    // a skyline, so running the algorithm on the verified subset yields
    // exactly `GSS(D, q)`.
    let verified: Vec<usize> = (0..n).filter(|&i| exact[i].is_some()).collect();
    let points: Vec<Vec<f64>> = verified
        .iter()
        .map(|&i| exact[i].as_ref().expect("verified").values.clone())
        .collect();
    let skyline: Vec<GraphId> = gss_skyline::skyline(&points, Algorithm::default())
        .into_iter()
        .map(|k| GraphId(verified[k]))
        .collect();

    // Witnesses for the excluded graphs — the identical rule in every
    // plan consumes per-candidate lower bounds. Every plan returns
    // fully-materialized summaries (the indexed source fills in skipped
    // partitions itself, after the verify loop), so this is a plain
    // unwrap.
    let summaries: Vec<PrefilterSummary> = summaries
        .into_iter()
        .map(|s| s.expect("every candidate source materializes all summaries"))
        .collect();
    let dominated = compute_witnesses(n, &skyline, &exact, &summaries);

    // Exact vectors where verified, lower bounds elsewhere.
    let mut evaluated = Vec::with_capacity(n);
    let mut gcs = Vec::with_capacity(n);
    for (i, e) in exact.into_iter().enumerate() {
        match e {
            Some(v) => {
                evaluated.push(true);
                gcs.push(v);
            }
            None => {
                evaluated.push(false);
                gcs.push(summaries[i].lower.clone());
            }
        }
    }

    Ok(GssResult {
        measures: options.measures.clone(),
        plan,
        gcs,
        evaluated,
        skyline,
        dominated,
        pruning,
    })
}

/// Runs one skyline query per input over a shared database, spreading the
/// queries across [`QueryOptions::threads`] workers with one
/// [`CancelToken`] per query (`cancels.len()` must equal `queries.len()`;
/// each query aborts independently). Results are in query order; each
/// entry is what [`skyline`] returns for that query with `threads = 1` —
/// except a *single* [`Plan::Sharded`] query, which keeps the full thread
/// budget so one huge query fans out across its shards instead of running
/// one shard at a time (the sharded document is thread-invariant, so the
/// bytes are unchanged).
pub fn skyline_batch(
    db: &GraphDatabase,
    queries: &[Graph],
    options: &QueryOptions,
    cancels: &[CancelToken],
) -> Vec<Result<GssResult, Cancelled>> {
    assert_eq!(
        queries.len(),
        cancels.len(),
        "one CancelToken per batch query"
    );
    let fan_out = queries.len() == 1 && options.plan == Plan::Sharded;
    let per_query = QueryOptions {
        threads: if fan_out { options.threads } else { 1 },
        ..options.clone()
    };
    parallel_map_indexed(queries.len(), options.threads, |i| {
        skyline(db, &queries[i], &per_query, &cancels[i])
    })
}

/// Computes the `k`-skyband through the staged executor: every database
/// graph similarity-dominated by fewer than `k` others, under any
/// [`Plan`], with cooperative cancellation.
///
/// The pruned plans use the band frontier: a
/// candidate whose lower-bound vector is dominated by `k` distinct
/// verified exact vectors is excluded without solving — those `k` vectors
/// dominate its exact vector too, and by transitivity anything *it* would
/// have dominated already has `k` verified dominators, so membership of
/// every other graph is decided identically to the naive scan.
pub fn skyband(
    db: &GraphDatabase,
    query: &Graph,
    k: usize,
    options: &QueryOptions,
    cancel: &CancelToken,
) -> Result<SkybandResult, Cancelled> {
    assert!(
        !options.measures.is_empty(),
        "at least one measure is required"
    );
    let n = db.len();
    let plan = resolve_plan(db, options);
    cancel.checkpoint()?;
    let ctx = PrefilterContext::for_query(query, &options.solvers, plan != ResolvedPlan::Naive);

    let (exact, pruning): (Vec<Option<GcsVector>>, Option<PruneStats>) = match plan {
        ResolvedPlan::Naive => {
            let gcs = naive_verify(db, query, options, cancel)?;
            (gcs.into_iter().map(Some).collect(), None)
        }
        ResolvedPlan::Prefilter => {
            let summaries = summarize_all(db, query, options, &ctx);
            cancel.checkpoint()?;
            let mut v = Verifier::new(
                db,
                query,
                options,
                cancel,
                Frontier::Band {
                    k,
                    verified: Vec::new(),
                },
            );
            prefilter_verify(&mut v, &summaries)?;
            (v.exact, Some(v.stats))
        }
        ResolvedPlan::Indexed => {
            let index = options
                .index
                .as_ref()
                .expect("resolved Indexed implies an index")
                .clone();
            let mut summaries: Vec<Option<PrefilterSummary>> = vec![None; n];
            let mut v = Verifier::new(
                db,
                query,
                options,
                cancel,
                Frontier::Band {
                    k,
                    verified: Vec::new(),
                },
            );
            // No straggler pass and no summary backfill: the skyband
            // reports membership only, and a skipped partition's bound
            // already proves `k` dominators for every member (the bound is
            // ≤ each member's exact vector per dimension).
            run_partitions(&mut v, index.as_ref(), &ctx, &mut summaries)?;
            (v.exact, Some(v.stats))
        }
        ResolvedPlan::Sharded => {
            let summaries = summarize_all(db, query, options, &ctx);
            cancel.checkpoint()?;
            // Each shard runs the band frontier over its own range; a
            // local exclusion needs `k` *local* verified dominators, which
            // are true dominators, so no band member is ever excluded. For
            // the merged count the argument mirrors the band frontier's:
            // an unverified dominator of a candidate implies `k` verified
            // dominators by transitivity, so members (fewer than `k` true
            // dominators) have every dominator verified and the count over
            // the merged verified set is exact. Stats are not reported —
            // the per-shard verification totals vary with the shard count,
            // and unlike the skyline there is no invariant reported set to
            // derive them from.
            let shard_results = sharded_verify(db, query, options, cancel, &summaries, Some(k))?;
            let mut exact: Vec<Option<GcsVector>> = vec![None; n];
            for (_, exacts) in shard_results {
                for (i, g) in exacts {
                    exact[i] = Some(g);
                }
            }
            (exact, None)
        }
    };

    Ok(SkybandResult {
        k,
        members: band_members(&exact, k),
        plan,
        pruning,
    })
}

/// Skyband assembly: membership by final dominator count over the
/// verified vectors, delegated to [`gss_skyline::k_skyband`] on the
/// compacted verified subset (mirroring how the skyline assembly
/// delegates to [`gss_skyline::skyline`]). Pruned candidates are excluded
/// (they have ≥ `k` dominators by construction), and for a verified
/// candidate the verified-only count equals the true count — any
/// unverified dominator would imply ≥ `k` verified dominators by
/// transitivity.
fn band_members(exact: &[Option<GcsVector>], k: usize) -> Vec<GraphId> {
    let verified: Vec<usize> = (0..exact.len()).filter(|&i| exact[i].is_some()).collect();
    let points: Vec<Vec<f64>> = verified
        .iter()
        .map(|&i| exact[i].as_ref().expect("verified").values.clone())
        .collect();
    gss_skyline::k_skyband(&points, k)
        .into_iter()
        .map(|j| GraphId(verified[j]))
        .collect()
}

/// One witness per excluded graph: the first skyline member (ascending)
/// whose exact vector dominates the graph's lower-bound vector, else the
/// first dominating its exact vector. Lower bounds never exceed exact
/// values, so a lower-bound dominator is always a true dominator; the
/// two-step rule exists so pruned graphs (whose exact vector is unknown)
/// and verified graphs resolve through the same deterministic procedure.
fn compute_witnesses(
    n: usize,
    skyline: &[GraphId],
    exact: &[Option<GcsVector>],
    summaries: &[PrefilterSummary],
) -> Vec<DominationWitness> {
    let sky_point = |s: &GraphId| {
        &exact[s.index()]
            .as_ref()
            .expect("skyline members are verified")
            .values
    };
    let mut dominated = Vec::new();
    for i in 0..n {
        let id = GraphId(i);
        if skyline.binary_search(&id).is_ok() {
            continue;
        }
        let lower = &summaries[i].lower.values;
        let dominator = skyline
            .iter()
            .find(|s| dominance::dominates(sky_point(s), lower))
            .or_else(|| {
                let ev = &exact[i]
                    .as_ref()
                    .expect(
                        "an excluded graph is either pruned (lower-bound dominated) or verified",
                    )
                    .values;
                skyline
                    .iter()
                    .find(|s| dominance::dominates(sky_point(s), ev))
            })
            .copied()
            .expect("every excluded point has a skyline dominator");
        dominated.push(DominationWitness {
            graph: id,
            dominator,
        });
    }
    dominated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexPartition, IndexPlan};
    use crate::measures::MeasureKind;
    use crate::query::graph_similarity_skyline;
    use gss_datasets::paper::figure3_database;
    use gss_datasets::workload::{Workload, WorkloadConfig};
    use std::time::Duration;

    fn paper_db() -> (GraphDatabase, Graph) {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        (db, data.query)
    }

    #[test]
    fn plan_tokens_round_trip() {
        for plan in [
            Plan::Auto,
            Plan::Naive,
            Plan::Prefilter,
            Plan::Indexed,
            Plan::Sharded,
        ] {
            assert_eq!(Plan::parse(plan.name()), Some(plan));
        }
        assert_eq!(Plan::parse("quantum"), None);
        assert_eq!(Plan::default(), Plan::Auto);
    }

    #[test]
    fn auto_resolution_rules() {
        let (db, _) = paper_db(); // 7 graphs: below AUTO_PREFILTER_MIN
        let base = QueryOptions::default();
        assert_eq!(resolve_plan(&db, &base), ResolvedPlan::Naive);
        let explicit = QueryOptions {
            plan: Plan::Prefilter,
            ..base.clone()
        };
        assert_eq!(resolve_plan(&db, &explicit), ResolvedPlan::Prefilter);
        let forced_naive = QueryOptions {
            plan: Plan::Naive,
            ..base.clone()
        };
        assert_eq!(resolve_plan(&db, &forced_naive), ResolvedPlan::Naive);

        // A big database flips Auto to the prefilter pipeline.
        let mut big = db.clone();
        let filler = big.get(GraphId(0)).clone();
        while big.len() < AUTO_PREFILTER_MIN {
            big.push(filler.clone());
        }
        assert_eq!(resolve_plan(&big, &base), ResolvedPlan::Prefilter);
    }

    #[test]
    #[should_panic(expected = "requires QueryOptions::index")]
    fn indexed_plan_without_index_panics() {
        let (db, _) = paper_db();
        resolve_plan(
            &db,
            &QueryOptions {
                plan: Plan::Indexed,
                ..QueryOptions::default()
            },
        );
    }

    #[test]
    fn cancel_token_fires_explicitly_and_by_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.checkpoint().is_ok());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share state");
        assert_eq!(t.checkpoint(), Err(Cancelled));

        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
        assert_eq!(format!("{Cancelled}"), "query evaluation cancelled");
    }

    /// Every graph alone in a partition under an all-zero (trivially
    /// admissible) bound, so the indexed plan runs its partition loop.
    #[derive(Debug)]
    struct SingletonIndex;

    impl QueryIndex for SingletonIndex {
        fn plan(&self, db: &GraphDatabase, _: &Graph, measures: &[MeasureKind]) -> IndexPlan {
            let partitions = (0..db.len())
                .map(|i| IndexPartition {
                    members: vec![GraphId(i)],
                    bound: GcsVector {
                        values: vec![0.0; measures.len()],
                    },
                })
                .collect();
            IndexPlan {
                partitions,
                pivot_probes: 0,
            }
        }

        fn describe(&self) -> String {
            "singleton partitions".to_owned()
        }
    }

    /// The cancellation contract of every plan, for skyline and skyband:
    /// a token firing at any checkpoint the uncancelled run polls aborts
    /// the query, and the run polls at least once per wave of solver calls.
    #[test]
    fn pre_cancelled_token_aborts_every_plan() {
        let w = Workload::generate(&WorkloadConfig {
            graph_vertices: 6,
            related_fraction: 0.0,
            ..WorkloadConfig::default()
        });
        let db = GraphDatabase::from_parts(w.vocab, w.graphs);
        let q = w.query;
        // Each plan with its wave width at threads = 1.
        for (plan, wave) in [
            (Plan::Naive, NAIVE_WAVE_PER_THREAD),
            (Plan::Prefilter, 1),
            (Plan::Indexed, 1),
            (Plan::Sharded, 1),
        ] {
            let opts = QueryOptions {
                plan,
                shards: 3,
                index: Some(Arc::new(SingletonIndex)),
                ..QueryOptions::default()
            };
            // The candidates a query verified with a solver (a lower bound
            // where the plan reports no counters).
            let run = |what: &str, t: &CancelToken| match what {
                "skyline" => {
                    skyline(&db, &q, &opts, t).map(|r| r.pruning.map_or(db.len(), |p| p.verified))
                }
                _ => skyband(&db, &q, 2, &opts, t)
                    .map(|r| r.pruning.map_or(r.members.len(), |p| p.verified)),
            };
            for what in ["skyline", "skyband"] {
                let counting = CancelToken::new();
                let verified = run(what, &counting).expect("an unfired token never cancels");
                let polls = counting.inner.polls.load(AtomicOrdering::Relaxed);
                assert!(
                    polls * wave >= verified,
                    "{plan:?} {what}: {polls} checkpoints for {verified} verified"
                );
                for k in 0..polls {
                    assert_eq!(
                        run(what, &CancelToken::firing_at(k)),
                        Err(Cancelled),
                        "{plan:?} {what}: fired at checkpoint {k} of {polls}"
                    );
                }
            }
        }
    }

    #[test]
    fn expired_deadline_token_aborts_the_scan() {
        let (db, q) = paper_db();
        let token = CancelToken::with_deadline(Instant::now());
        assert_eq!(
            skyline(&db, &q, &QueryOptions::default(), &token).err(),
            Some(Cancelled)
        );
    }

    #[test]
    fn batch_cancels_queries_independently() {
        let (db, q) = paper_db();
        let queries = vec![q.clone(), q];
        let live = CancelToken::new();
        let dead = CancelToken::new();
        dead.cancel();
        let results = skyline_batch(
            &db,
            &queries,
            &QueryOptions::default(),
            &[live, dead.clone()],
        );
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().err(), Some(&Cancelled));
    }

    #[test]
    fn result_reports_the_resolved_plan() {
        let (db, q) = paper_db();
        let naive = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        assert_eq!(naive.plan, ResolvedPlan::Naive);
        let pruned = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                plan: Plan::Prefilter,
                ..QueryOptions::default()
            },
        );
        assert_eq!(pruned.plan, ResolvedPlan::Prefilter);
        assert_eq!(pruned.skyline, naive.skyline);
        assert_eq!(pruned.dominated, naive.dominated);
    }

    #[test]
    fn sharded_plan_matches_unsharded_answers_for_every_shard_count() {
        let (db, q) = paper_db();
        let naive = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let mut docs: Vec<String> = Vec::new();
        // 7 candidates: exercise one shard, balanced splits, more shards
        // than candidates (clamped), and a degenerate giant count.
        for shards in [1usize, 2, 3, 7, 64] {
            let opts = QueryOptions::default().with_shards(shards);
            let r = graph_similarity_skyline(&db, &q, &opts);
            assert_eq!(r.plan, ResolvedPlan::Sharded, "shards={shards}");
            assert_eq!(r.skyline, naive.skyline, "shards={shards}");
            assert_eq!(r.dominated, naive.dominated, "shards={shards}");
            docs.push(crate::explain::to_json(&db, &r));
        }
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(
                doc, &docs[0],
                "sharded documents must be byte-identical across shard counts (case {i})"
            );
        }
    }

    #[test]
    fn sharded_document_is_thread_invariant() {
        let (db, q) = paper_db();
        let sequential = QueryOptions::default().with_shards(3);
        let threaded = QueryOptions {
            threads: 4,
            ..sequential.clone()
        };
        let a = graph_similarity_skyline(&db, &q, &sequential);
        let b = graph_similarity_skyline(&db, &q, &threaded);
        assert_eq!(
            crate::explain::to_json(&db, &a),
            crate::explain::to_json(&db, &b)
        );
    }

    #[test]
    fn sharded_skyband_matches_every_other_plan() {
        let (db, q) = paper_db();
        for k in 1..=3 {
            let naive =
                crate::query::graph_similarity_skyband(&db, &q, k, &QueryOptions::default());
            for shards in [1usize, 2, 5] {
                let opts = QueryOptions::default().with_shards(shards);
                let sharded = crate::query::graph_similarity_skyband(&db, &q, k, &opts);
                assert_eq!(sharded.members, naive.members, "k={k} shards={shards}");
                assert_eq!(sharded.plan, ResolvedPlan::Sharded);
                assert_eq!(sharded.pruning, None);
            }
        }
    }

    #[test]
    fn shard_ranges_cover_the_database_exactly() {
        for n in [0usize, 1, 2, 7, 16, 33] {
            for shards in 1..=9usize {
                let mut seen = Vec::new();
                for s in 0..shards {
                    seen.extend(shard_range(n, shards, s));
                }
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn band_members_counts_dominators() {
        let v = |values: Vec<f64>| Some(GcsVector { values });
        // p0 and p3 are incomparable; both dominate p1, which dominates
        // p2, so dominator counts are p0: 0, p1: 2, p2: 3, p3: 0.
        let exact = vec![
            v(vec![0.0, 1.0]),
            v(vec![1.0, 1.0]),
            v(vec![2.0, 2.0]),
            v(vec![1.0, 0.0]),
        ];
        assert_eq!(band_members(&exact, 0), Vec::<GraphId>::new());
        assert_eq!(band_members(&exact, 1), vec![GraphId(0), GraphId(3)]);
        assert_eq!(band_members(&exact, 2), vec![GraphId(0), GraphId(3)]);
        assert_eq!(
            band_members(&exact, 3),
            vec![GraphId(0), GraphId(1), GraphId(3)]
        );
        // A pruned (None) entry neither votes nor appears.
        let mut with_hole = exact.clone();
        with_hole[1] = None;
        assert_eq!(band_members(&with_hole, 1), vec![GraphId(0), GraphId(3)]);
    }
}
