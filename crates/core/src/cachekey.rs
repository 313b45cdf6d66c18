//! Cache-key fingerprinting for queries and options.
//!
//! A long-lived query service (the `gss-server` crate) answers repeated
//! queries from a result cache. A cached answer may only be reused when
//! *everything* that could change the response bytes matches:
//!
//! 1. the **database** — [`crate::GraphDatabase::fingerprint`];
//! 2. the **query graph** — [`query_fingerprint`], a structural hash over
//!    label *strings* (not interned ids, which are vocabulary-relative);
//! 3. the **options** — [`options_fingerprint`], covering the measures,
//!    the requested plan, and the attached index's identity.
//!
//! [`QueryKey`] bundles the three. Notably **excluded** is
//! [`QueryOptions::threads`]: thread count never changes the skyline or
//! witnesses, and a server normalizes evaluation to per-query
//! single-threaded scans (via [`crate::graph_similarity_skyline_batch`]),
//! so per-candidate counters are thread-invariant too.
//!
//! The query fingerprint is **encoding-sensitive, not
//! isomorphism-invariant**: two textually identical graphs (same vertex
//! order, edge order and labels) collide; an isomorphic re-encoding does
//! not. That is the right trade-off for a cache key — false negatives
//! only cost a re-computation, while canonical hashing would cost an
//! isomorphism canonization per request. The graph's *name* is excluded,
//! matching [`crate::GraphDatabase::fingerprint`] semantics.

use gss_graph::{Graph, Vocabulary};

use crate::database::codec::Fnv64;
use crate::database::GraphDatabase;
use crate::query::QueryOptions;

/// The composite cache key of one query evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    /// [`crate::GraphDatabase::fingerprint`] of the database served.
    pub database: u64,
    /// [`query_fingerprint`] of the query graph.
    pub query: u64,
    /// [`options_fingerprint`] of the evaluation options.
    pub options: u64,
}

impl QueryKey {
    /// Builds the key for evaluating `query` against `db` under `options`.
    ///
    /// `db.fingerprint()` is linear in the database size — long-lived
    /// services should compute it once and use [`QueryKey::with_database`].
    pub fn new(db: &GraphDatabase, query: &Graph, options: &QueryOptions) -> QueryKey {
        QueryKey::with_database(db.fingerprint(), db.vocab(), query, options)
    }

    /// Builds the key from a pre-computed database fingerprint.
    pub fn with_database(
        database: u64,
        vocab: &Vocabulary,
        query: &Graph,
        options: &QueryOptions,
    ) -> QueryKey {
        QueryKey {
            database,
            query: query_fingerprint(query, vocab),
            options: options_fingerprint(options),
        }
    }
}

fn hash_str(h: &mut Fnv64, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// A structural fingerprint of one graph: vertex count, edge count, vertex
/// labels in vertex order and edges (endpoints + label) in edge order,
/// with labels hashed as their vocabulary strings. The graph's name is
/// excluded. Graphs built against different [`Vocabulary`] instances hash
/// equal iff their label strings and structure match.
pub fn query_fingerprint(query: &Graph, vocab: &Vocabulary) -> u64 {
    let mut h = Fnv64::new();
    let label = |h: &mut Fnv64, l: gss_graph::Label| {
        hash_str(h, vocab.name(l).unwrap_or(""));
    };
    h.write_u64(query.order() as u64);
    h.write_u64(query.size() as u64);
    for v in query.vertices() {
        label(&mut h, query.vertex_label(v));
    }
    for e in query.edges() {
        let edge = query.edge(e);
        h.write_u64(edge.u.index() as u64);
        h.write_u64(edge.v.index() as u64);
        label(&mut h, edge.label);
    }
    h.finish()
}

/// A fingerprint of everything in [`QueryOptions`] that can change the
/// response: measures (order-sensitive), the requested [`crate::Plan`],
/// and the attached index's identity
/// ([`crate::QueryIndex::describe`]). `threads` and `shards` are
/// deliberately excluded — see the module docs.
///
/// The exhaustive destructuring is the completeness check: a new
/// [`QueryOptions`] field does not compile here until it is hashed or
/// bound as `_` with the reason it cannot change the response.
pub fn options_fingerprint(options: &QueryOptions) -> u64 {
    let QueryOptions {
        measures,
        // One solver pair: `SolverConfig` has a single variant.
        solvers: _,
        // Thread count never changes the result bytes: the server
        // normalizes every evaluation to wave-parallel batches with
        // per-query threads = 1, and the wave schedule is deterministic.
        threads: _,
        // The shard count never changes the result bytes: the stragglers
        // (excluded graphs whose lower bound no skyline member dominates)
        // are fixed by the skyline and the bounds, and a sharded result
        // reports exact vectors for exactly the skyline ∪ stragglers, with
        // counters derived from that set, however the candidates were split.
        shards: _,
        plan,
        index,
    } = options;
    let mut h = Fnv64::new();
    h.write_u64(measures.len() as u64);
    for m in measures {
        hash_str(&mut h, m.name());
    }
    // The requested plan is part of the key: plans never change answers,
    // but they do change the response document (the plan name and pruning
    // stats), and `Auto` always resolves to `Prefilter`.
    hash_str(&mut h, "plan:");
    hash_str(&mut h, plan.name());
    match index {
        None => hash_str(&mut h, "index:none"),
        Some(index) => {
            hash_str(&mut h, "index:");
            hash_str(&mut h, &index.describe());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::MeasureKind;
    use gss_graph::GraphBuilder;

    fn build(vocab: &mut Vocabulary, name: &str, edge_label: &str) -> Graph {
        GraphBuilder::new(name, vocab)
            .vertices(&["x", "y", "z"], "C")
            .path(&["x", "y", "z"], edge_label)
            .build()
            .unwrap()
    }

    #[test]
    fn query_fingerprint_is_structural_and_vocab_independent() {
        let mut v1 = Vocabulary::new();
        // Pre-intern extra labels so the same strings get different ids in
        // the two vocabularies.
        v1.intern("Zr");
        v1.intern("He");
        let mut v2 = Vocabulary::new();
        let a = build(&mut v1, "a", "-");
        let b = build(&mut v2, "renamed", "-");
        assert_eq!(
            query_fingerprint(&a, &v1),
            query_fingerprint(&b, &v2),
            "same structure + strings, different interning and name"
        );
        let c = build(&mut v2, "c", "=");
        assert_ne!(
            query_fingerprint(&b, &v2),
            query_fingerprint(&c, &v2),
            "an edge relabel must change the fingerprint"
        );
    }

    #[test]
    fn options_fingerprint_tracks_result_affecting_fields_only() {
        let base = QueryOptions::default();
        let fp = options_fingerprint(&base);
        assert_eq!(fp, options_fingerprint(&base), "deterministic");

        let threads = QueryOptions {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(
            fp,
            options_fingerprint(&threads),
            "thread count must not fragment the cache"
        );

        let shards = QueryOptions {
            shards: 8,
            ..base.clone()
        };
        assert_eq!(
            fp,
            options_fingerprint(&shards),
            "shard count must not fragment the cache (the sharded document is shard-invariant)"
        );

        let sharded_plan = QueryOptions {
            plan: crate::exec::Plan::Sharded,
            ..base.clone()
        };
        assert_ne!(
            fp,
            options_fingerprint(&sharded_plan),
            "the plan itself stays in the key"
        );

        let prefilter = QueryOptions {
            plan: crate::exec::Plan::Prefilter,
            ..base.clone()
        };
        assert_ne!(fp, options_fingerprint(&prefilter));

        let measures = QueryOptions {
            measures: vec![MeasureKind::EditDistance],
            ..base.clone()
        };
        assert_ne!(fp, options_fingerprint(&measures));

        let plan = QueryOptions {
            plan: crate::exec::Plan::Naive,
            ..base
        };
        assert_ne!(
            fp,
            options_fingerprint(&plan),
            "the requested plan changes the response document"
        );
    }

    #[test]
    fn query_key_combines_all_three_dimensions() {
        let mut db = GraphDatabase::new();
        db.add("g", |b| b.vertices(&["a", "b"], "C").edge("a", "b", "-"))
            .unwrap();
        let q = db.build_query("q", |b| b.vertex("x", "C")).unwrap();
        let opts = QueryOptions::default();
        let k1 = QueryKey::new(&db, &q, &opts);
        assert_eq!(k1, QueryKey::new(&db, &q, &opts));

        let q2 = db.build_query("q2", |b| b.vertex("x", "N")).unwrap();
        assert_ne!(k1, QueryKey::new(&db, &q2, &opts));

        let mut db2 = GraphDatabase::new();
        db2.add("g", |b| b.vertices(&["a", "b"], "C").edge("a", "b", "="))
            .unwrap();
        let q_db2 = db2.build_query("q", |b| b.vertex("x", "C")).unwrap();
        assert_ne!(k1, QueryKey::new(&db2, &q_db2, &opts));
    }
}
