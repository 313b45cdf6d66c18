//! The unified query planner and staged execution engine.
//!
//! Every GSS entry point — [`crate::graph_similarity_skyline`] and the
//! batch API — runs through the one pipeline in this module. A query
//! evaluation is four stages:
//!
//! ```text
//!  candidate source ──► summarize ──► Verifier ──► assembly
//!  (every candidate,    (one Prefilter-  (the one exact-    (skyline +
//!   index partitions     Summary per      vector loop:       witnesses)
//!   most promising       candidate,       waves of solver
//!   first, or shards)    lower bounds)    calls; frontier
//!                                         prunes covered
//!                                         bounds)
//! ```
//!
//! The verifier keeps one frontier, the non-dominated verified set, and
//! prunes a candidate whose lower bound a frontier member dominates.
//!
//! # Plans
//!
//! A [`Plan`] picks the candidate source; everything downstream is shared:
//!
//! * [`Plan::Naive`] — every candidate, under a frontier that never
//!   prunes: every candidate meets the solvers (the reference strategy).
//! * [`Plan::Prefilter`] — every candidate, most promising first, with
//!   dominance pruning on per-candidate lower bounds.
//! * [`Plan::Indexed`] — a [`crate::QueryIndex`] partitions the database
//!   first; partitions whose bound vector is dominated are skipped
//!   wholesale and the survivors run through the prefilter stage. Requires
//!   [`QueryOptions::index`].
//! * [`Plan::Sharded`] — the candidate space is split into
//!   [`QueryOptions::shards`] contiguous ranges; each shard runs its own
//!   *sequential* verifier (shards, not candidates, are what
//!   [`QueryOptions::threads`] parallelizes), and their vectors merge into
//!   one skyline. This is the fan-out strategy for one huge query spread
//!   across a worker pool; the reported document is invariant in the shard
//!   count by construction (see [`skyline`]).
//! * [`Plan::Auto`] (the default) — the prefilter pipeline, at every
//!   database size and whether or not an index is attached.
//!
//! Every plan returns **byte-identical** answers: the same skyline, the
//! same witnesses and the same exact GCS vectors, across solver
//! configurations and thread counts. One witness
//! rule serves them all: an excluded graph's witness is the first skyline
//! member dominating its lower bound, else its exact vector — and the
//! *stragglers* that need the latter are verified during assembly,
//! whichever plan left them unverified. Plans only change how much work is
//! spent getting there, which the [`PruneStats`]/[`GssResult::pruning`]
//! counters expose.
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
use gss_skyline::dominance;

use crate::database::{GraphDatabase, GraphId};
use crate::measures::GcsVector;
use crate::parallel::parallel_map_indexed;
use crate::prefilter::{self, PrefilterContext, PrefilterSummary, PruneStats};
use crate::query::{DominationWitness, GssResult, QueryOptions};

/// How a query should be evaluated. The executor turns a `Plan` into a
/// [`ResolvedPlan`] per query via [`resolve_plan`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Plan {
    /// The default: the filter-and-verify pipeline (see [`resolve_plan`]).
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
/// [`GssResult::plan`] (an `Auto` request resolves to `Prefilter`).
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
/// `Auto` is `Prefilter`, at every database size and with or without an
/// attached index. `Naive` and `Prefilter` ignore any attached index, and
/// `Indexed` **panics** without one (callers that accept user input
/// should validate first).
pub fn resolve_plan(options: &QueryOptions) -> ResolvedPlan {
    match options.plan {
        Plan::Naive => ResolvedPlan::Naive,
        Plan::Auto | Plan::Prefilter => ResolvedPlan::Prefilter,
        Plan::Sharded => ResolvedPlan::Sharded,
        Plan::Indexed => {
            assert!(
                options.index.is_some(),
                "Plan::Indexed requires QueryOptions::index"
            );
            ResolvedPlan::Indexed
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

/// The verify stage shared by every plan: the verified vectors so far, the
/// frontier over them, and the running counters. Candidates and
/// partitions can be fed in any order without changing the final answer
/// (only the stats depend on order).
struct Verifier<'a> {
    db: &'a GraphDatabase,
    query: &'a Graph,
    options: &'a QueryOptions,
    cancel: &'a CancelToken,
    exact: Vec<Option<GcsVector>>,
    /// The non-dominated subset of verified vectors. Dominance is
    /// transitive, so testing a bound against this subset is as strong as
    /// testing against every verified vector.
    frontier: Vec<usize>,
    /// Whether the frontier covers bounds. False for the naive scan, and
    /// for the sharded plan's merged verifier, whose only work is
    /// stragglers (whose bounds no skyline member covers, by definition):
    /// every candidate fed to [`Verifier::run`] is then verified.
    prunes: bool,
    stats: PruneStats,
}

impl<'a> Verifier<'a> {
    fn new(
        db: &'a GraphDatabase,
        query: &'a Graph,
        options: &'a QueryOptions,
        cancel: &'a CancelToken,
        prunes: bool,
    ) -> Self {
        Verifier {
            db,
            query,
            options,
            cancel,
            exact: vec![None; db.len()],
            frontier: Vec::new(),
            prunes,
            stats: PruneStats {
                candidates: db.len(),
                ..PruneStats::default()
            },
        }
    }

    fn values(&self, i: usize) -> &[f64] {
        &self.exact[i].as_ref().expect("vector is verified").values
    }

    /// True when a frontier member dominates `bound` — the one pruning
    /// decision of the pipeline, shared by partitions (index bounds) and
    /// candidates (prefilter lower bounds).
    fn frontier_dominates(&self, bound: &[f64]) -> bool {
        self.prunes
            && self
                .frontier
                .iter()
                .any(|&f| dominance::dominates(self.values(f), bound))
    }

    /// Registers a freshly verified vector with the frontier.
    fn frontier_insert(&mut self, i: usize) {
        let exact = &self.exact;
        let point =
            |f: usize| -> &[f64] { &exact[f].as_ref().expect("frontier is verified").values };
        let v = point(i);
        if self
            .frontier
            .iter()
            .any(|&f| dominance::dominates(point(f), v))
        {
            return;
        }
        self.frontier
            .retain(|&f| !dominance::dominates(v, point(f)));
        self.frontier.push(i);
    }

    /// The non-dominated verified set, ascending. Once every candidate is
    /// verified or provably dominated, this is exactly `GSS(D, q)`.
    fn skyline(&self) -> Vec<GraphId> {
        let mut skyline: Vec<GraphId> = self.frontier.iter().map(|&i| GraphId(i)).collect();
        skyline.sort_unstable();
        skyline
    }

    /// Runs the per-candidate filter-and-verify loop over `candidates`
    /// (already-resolved entries are skipped). This is the only place an
    /// exact GCS vector is computed.
    ///
    /// A candidate whose summary proved isomorphism resolves through the
    /// distance-zero short-circuit first: exact all-zero vector, no solver.
    /// The rest verify most promising first (smallest lower-bound sum, ties
    /// by id): near-answers verify early and build a strong pruning
    /// frontier for the long tail. Exact solving proceeds in waves of up to
    /// `threads` candidates so it still parallelizes; each wave refreshes
    /// the frontier before the next pruning decision, and each wave
    /// boundary is a cancellation checkpoint.
    /// `threads == 1` is the classic sequential filter-and-verify loop.
    fn run(
        &mut self,
        candidates: &[usize],
        summaries: &[Option<PrefilterSummary>],
    ) -> Result<(), Cancelled> {
        let summary = |i: usize| {
            summaries[i]
                .as_ref()
                .expect("candidates fed to run() are summarized")
        };
        for &i in candidates {
            if summary(i).isomorphic && self.exact[i].is_none() {
                self.exact[i] = summary(i).known_exact(&self.options.measures);
                self.stats.short_circuited += 1;
                self.frontier_insert(i);
            }
        }
        let lower = |i: usize| &summary(i).lower.values;
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

/// What a plan's candidate source leaves for assembly: the verifier (exact
/// vectors and counters), the per-candidate bounds, and — for the indexed
/// plan — the partition each candidate was skipped in wholesale.
struct Scan<'a> {
    plan: ResolvedPlan,
    ctx: PrefilterContext,
    v: Verifier<'a>,
    /// `None` until the candidate is summarized; members of skipped index
    /// partitions stay `None` through the scan.
    summaries: Vec<Option<PrefilterSummary>>,
    skipped_in: Vec<Option<usize>>,
}

/// Runs the resolved plan's candidate source through one [`Verifier`] —
/// the single dispatch behind [`skyline`].
///
/// * Naive and Prefilter summarize every candidate and verify them all,
///   the naive scan under a frontier that never prunes.
/// * Indexed feeds the verifier partition by partition (see
///   [`Scan::partitions`]).
/// * Sharded runs one sequential verifier per shard (see [`Scan::shards`])
///   and merges their vectors into a verifier that never prunes.
fn execute<'a>(
    db: &'a GraphDatabase,
    query: &'a Graph,
    options: &'a QueryOptions,
    cancel: &'a CancelToken,
) -> Result<Scan<'a>, Cancelled> {
    assert!(
        !options.measures.is_empty(),
        "at least one measure is required"
    );
    let n = db.len();
    let plan = resolve_plan(options);
    cancel.checkpoint()?;
    let prunes = matches!(plan, ResolvedPlan::Prefilter | ResolvedPlan::Indexed);
    let mut scan = Scan {
        plan,
        // The query-side invariants are hoisted once per scan; the
        // isomorphism short-circuit stays off for naive scans.
        ctx: PrefilterContext::for_query(query, &options.solvers, plan != ResolvedPlan::Naive),
        v: Verifier::new(db, query, options, cancel, prunes),
        summaries: vec![None; n],
        skipped_in: vec![None; n],
    };
    if plan == ResolvedPlan::Indexed {
        scan.partitions()?;
        return Ok(scan);
    }
    let all: Vec<usize> = (0..n).collect();
    scan.summarize(&all);
    cancel.checkpoint()?;
    if plan == ResolvedPlan::Sharded {
        scan.shards()?;
    } else {
        scan.v.run(&all, &scan.summaries)?;
    }
    Ok(scan)
}

impl Scan<'_> {
    /// The bound stage: one [`PrefilterSummary`] per id in `ids` (cheap,
    /// linear-time each), fed from the cached per-graph
    /// [`gss_graph::stats::GraphStats`]. The graph thunk keeps arena-backed
    /// candidates unmaterialized unless the WL short-circuit actually needs
    /// the full graph.
    fn summarize(&mut self, ids: &[usize]) {
        let (db, query, options, ctx) = (self.v.db, self.v.query, self.v.options, &self.ctx);
        let batch = parallel_map_indexed(ids.len(), options.threads, |k| {
            let id = GraphId(ids[k]);
            prefilter::summarize_deferred(
                || db.get(id),
                db.stats(id),
                query,
                &options.measures,
                ctx,
            )
        });
        for (&i, s) in ids.iter().zip(batch) {
            self.summaries[i] = Some(s);
        }
    }

    /// The indexed candidate source: partitions from the index plan, most
    /// promising first; a partition whose bound vector the frontier covers
    /// is skipped **wholesale** — its members get neither a summary nor a
    /// solver call, and `skipped_in` records the partition. Members of
    /// surviving partitions are summarized and verified.
    fn partitions(&mut self) -> Result<(), Cancelled> {
        let (db, query, options) = (self.v.db, self.v.query, self.v.options);
        let index = options
            .index
            .as_ref()
            .expect("resolved Indexed implies an index");
        let plan = index.plan(db, query, &options.measures);
        crate::index::validate_plan(&plan, db.len());
        for p in &plan.partitions {
            assert_eq!(
                p.bound.values.len(),
                options.measures.len(),
                "index partition bound must match the measure count"
            );
        }
        self.v.stats.index_partitions = plan.partitions.len();
        self.v.stats.pivot_probes = plan.pivot_probes;
        for pi in plan.most_promising_order() {
            self.v.cancel.checkpoint()?;
            let part = &plan.partitions[pi];
            if part.members.is_empty() {
                continue;
            }
            if self.v.frontier_dominates(&part.bound.values) {
                self.v.stats.index_skipped += part.members.len();
                self.v.stats.index_partitions_skipped += 1;
                for id in &part.members {
                    self.skipped_in[id.index()] = Some(pi);
                }
                continue;
            }
            let members: Vec<usize> = part.members.iter().map(|g| g.index()).collect();
            self.summarize(&members);
            self.v.run(&members, &self.summaries)?;
        }
        Ok(())
    }

    /// The sharded candidate source: each of [`QueryOptions::shards`]
    /// contiguous ranges runs its own *sequential*, pruning [`Verifier`] —
    /// shards, not candidates, are the unit [`QueryOptions::threads`]
    /// parallelizes — and every exact vector a shard computed is merged
    /// into this scan's verifier and its frontier.
    ///
    /// Within a shard, a local skyline member's lower bound is never
    /// covered (a dominator of its bound would dominate its exact vector),
    /// so every global skyline member is verified, and every other merged
    /// vector is dominated by one: the skyline of the merged vectors is the
    /// skyline of the database.
    fn shards(&mut self) -> Result<(), Cancelled> {
        let (db, query, options, cancel) = (self.v.db, self.v.query, self.v.options, self.v.cancel);
        let n = db.len();
        let shards = options.shards.max(1).min(n.max(1));
        let per_shard = QueryOptions {
            threads: 1,
            ..options.clone()
        };
        let summaries = &self.summaries;
        let results = parallel_map_indexed(shards, options.threads, |s| {
            let mut v = Verifier::new(db, query, &per_shard, cancel, true);
            let members: Vec<usize> = shard_range(n, shards, s).collect();
            v.run(&members, summaries)?;
            Ok(members
                .into_iter()
                .filter_map(|i| v.exact[i].take().map(|g| (i, g)))
                .collect::<Vec<_>>())
        });
        for computed in results {
            for (i, g) in computed? {
                self.v.exact[i] = Some(g);
                self.v.frontier_insert(i);
            }
        }
        Ok(())
    }
}

/// The contiguous candidate range of shard `s` under an `S`-way static
/// split (ranges cover `0..n` exactly, sizes differ by at most one).
fn shard_range(n: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    (s * n / shards)..((s + 1) * n / shards)
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
    let mut scan = execute(db, query, options, cancel)?;
    let n = db.len();

    // Members of skipped index partitions get their bounds only now, after
    // the scan decided what to verify: the witness rule and the reported
    // GCS rows consume a lower bound for every excluded graph. Every other
    // plan summarized everything already.
    let unsummarized: Vec<usize> = (0..n).filter(|&i| scan.summaries[i].is_none()).collect();
    scan.summarize(&unsummarized);
    let summaries = std::mem::take(&mut scan.summaries);
    let summary = |i: usize| {
        summaries[i]
            .as_ref()
            .expect("every candidate is summarized")
    };

    // Assembly: the frontier is the skyline of the verified vectors.
    // Unverified candidates are provably dominated, and removing dominated
    // points never changes a skyline, so this is exactly `GSS(D, q)`.
    let skyline = scan.v.skyline();
    let mut in_sky = vec![false; n];
    for s in &skyline {
        in_sky[s.index()] = true;
    }

    // Witness rule, first half: an excluded graph's witness is the first
    // skyline member dominating its *own* lower bound. A graph with no
    // such member is a straggler and resolves through its exact vector,
    // so one is computed wherever missing. For Naive and Prefilter none is
    // (an unverified candidate there was pruned by a verified vector, which
    // is a skyline member or dominated by one). An indexed candidate's
    // bound can be looser than its partition's (the pivot triangle bound
    // sees structure the label-alignment bounds cannot), and a sharded
    // candidate was pruned by a local vector only. Stragglers are provably
    // dominated (an admissible bound was), so the skyline cannot change,
    // and the prefilter plan verifies them too (a bound no verified vector
    // dominates is never pruned), so no plan costs more solver calls.
    let lower_witness: Vec<Option<GraphId>> = (0..n)
        .map(|i| {
            if in_sky[i] {
                None
            } else {
                first_dominator(&scan.v.exact, &skyline, &summary(i).lower.values)
            }
        })
        .collect();
    let stragglers: Vec<usize> = (0..n)
        .filter(|&i| !in_sky[i] && lower_witness[i].is_none())
        .collect();
    scan.v.run(&stragglers, &summaries)?;

    // A partition that produced a straggler was not skipped wholesale
    // after all: keep the partition counter consistent with the candidate
    // counter.
    let mut demoted: Vec<usize> = stragglers
        .iter()
        .filter_map(|&i| scan.skipped_in[i])
        .collect();
    scan.v.stats.index_skipped -= demoted.len();
    demoted.sort_unstable();
    demoted.dedup();
    scan.v.stats.index_partitions_skipped -= demoted.len();

    // The pruned plans report the verifier's own counters. The naive scan
    // reports none, and the sharded plan's per-shard totals vary with the
    // shard count, so it derives invariant ones from its reported set.
    let mut pruning = scan.v.prunes.then_some(scan.v.stats);
    if scan.plan == ResolvedPlan::Sharded {
        // The document must not depend on the shard count, so exact vectors
        // are reported for exactly the skyline plus the stragglers (extra
        // vectors individual shards happened to verify are dropped), and
        // the counters are derived from that set: a candidate outside it
        // was excluded by lower bounds alone, which is what `pruned` means
        // in the other pruned plans.
        for (e, w) in scan.v.exact.iter_mut().zip(&lower_witness) {
            if w.is_some() {
                *e = None;
            }
        }
        let reported = skyline.len() + stragglers.len();
        let short_circuited = skyline
            .iter()
            .map(|s| s.index())
            .chain(stragglers.iter().copied())
            .filter(|&i| summary(i).isomorphic)
            .count();
        pruning = Some(PruneStats {
            candidates: n,
            verified: reported - short_circuited,
            pruned: n - reported,
            short_circuited,
            ..PruneStats::default()
        });
    }
    let exact = scan.v.exact;

    // Witness rule, second half: stragglers through their exact vectors.
    let dominated: Vec<DominationWitness> = (0..n)
        .filter(|&i| !in_sky[i])
        .map(|i| DominationWitness {
            graph: GraphId(i),
            dominator: lower_witness[i]
                .or_else(|| {
                    let v = &exact[i].as_ref().expect("stragglers are verified").values;
                    first_dominator(&exact, &skyline, v)
                })
                .expect("every excluded point has a skyline dominator"),
        })
        .collect();

    // Exact vectors where verified, lower bounds elsewhere.
    let evaluated: Vec<bool> = exact.iter().map(Option::is_some).collect();
    let gcs: Vec<GcsVector> = exact
        .into_iter()
        .enumerate()
        .map(|(i, e)| e.unwrap_or_else(|| summary(i).lower.clone()))
        .collect();

    Ok(GssResult {
        measures: options.measures.clone(),
        plan: scan.plan,
        gcs,
        evaluated,
        skyline,
        dominated,
        pruning,
    })
}

/// The first skyline member (ascending) whose exact vector dominates
/// `point`. Lower bounds never exceed exact values, so a member dominating
/// a graph's lower bound dominates the graph.
fn first_dominator(
    exact: &[Option<GcsVector>],
    skyline: &[GraphId],
    point: &[f64],
) -> Option<GraphId> {
    skyline.iter().copied().find(|s| {
        let member = &exact[s.index()]
            .as_ref()
            .expect("skyline members are verified")
            .values;
        dominance::dominates(member, point)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexPartition, IndexPlan, QueryIndex};
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
        let base = QueryOptions::default();
        let indexed = base.clone().with_index(Arc::new(SingletonIndex));
        for options in [&base, &indexed] {
            assert_eq!(resolve_plan(options), ResolvedPlan::Prefilter);
            for (plan, resolved) in [
                (Plan::Naive, ResolvedPlan::Naive),
                (Plan::Prefilter, ResolvedPlan::Prefilter),
                (Plan::Sharded, ResolvedPlan::Sharded),
            ] {
                assert_eq!(resolve_plan(&options.clone().with_plan(plan)), resolved);
            }
        }
        assert_eq!(
            resolve_plan(&indexed.with_plan(Plan::Indexed)),
            ResolvedPlan::Indexed
        );
    }

    #[test]
    #[should_panic(expected = "requires QueryOptions::index")]
    fn indexed_plan_without_index_panics() {
        resolve_plan(&QueryOptions::default().with_plan(Plan::Indexed));
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

    /// The cancellation contract of every plan: a token firing at any checkpoint the uncancelled run polls aborts
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
        // Every plan verifies through one loop whose waves hold `threads`
        // candidates, so at threads = 1 each solver call gets a checkpoint.
        for plan in [Plan::Naive, Plan::Prefilter, Plan::Indexed, Plan::Sharded] {
            let opts = QueryOptions {
                plan,
                shards: 3,
                index: Some(Arc::new(SingletonIndex)),
                ..QueryOptions::default()
            };
            // The candidates a query verified with a solver (all of them
            // where the plan reports no counters).
            let run = |t: &CancelToken| {
                skyline(&db, &q, &opts, t).map(|r| r.pruning.map_or(db.len(), |p| p.verified))
            };
            let counting = CancelToken::new();
            let verified = run(&counting).expect("an unfired token never cancels");
            let polls = counting.inner.polls.load(AtomicOrdering::Relaxed);
            assert!(
                polls >= verified,
                "{plan:?}: {polls} checkpoints for {verified} verified"
            );
            for k in 0..polls {
                assert_eq!(
                    run(&CancelToken::firing_at(k)),
                    Err(Cancelled),
                    "{plan:?}: fired at checkpoint {k} of {polls}"
                );
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
        let pruned = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        assert_eq!(pruned.plan, ResolvedPlan::Prefilter);
        let naive =
            graph_similarity_skyline(&db, &q, &QueryOptions::default().with_plan(Plan::Naive));
        assert_eq!(naive.plan, ResolvedPlan::Naive);
        assert_eq!(pruned.skyline, naive.skyline);
        assert_eq!(pruned.dominated, naive.dominated);
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
}
