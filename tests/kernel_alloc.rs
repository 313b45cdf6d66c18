//! Heap allocations of the solver kernels, counted by a global allocator.
//!
//! * The `gss_graph::bitset` operations and the `GraphArena` accessors
//!   allocate nothing: zero allocations across a 10 000-iteration loop, in
//!   any build.
//! * One exact solver call — `exact_ged`, `maximum_common_subgraph_expanded`,
//!   VF2 `find_embedding` — allocates at most a
//!   ceiling linear in its input size, never once per search node. Every
//!   sample includes calls that expand more nodes than their ceiling, so a
//!   per-node allocation trips the check. It is asserted in release builds
//!   only, because the debug-only bound rescans allocate per node by
//!   design: run `cargo test --release --test kernel_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use similarity_skyline::datasets::workload::{Workload, WorkloadConfig};
use similarity_skyline::ged::{exact_ged, GedOptions};
use similarity_skyline::graph::{random_graph, BitMatrix, Bitset, GraphArena};
use similarity_skyline::iso::{find_embedding, MatchMode};
use similarity_skyline::mcs::{maximum_common_subgraph_expanded, Objective};
use similarity_skyline::prelude::*;

thread_local! {
    /// Allocations made by this thread. Per thread, so tests running in
    /// parallel do not count each other's work.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations. The default `alloc_zeroed`
/// and `realloc` go through `alloc`, so each of those counts too.
struct Counting;

// SAFETY: both methods pass their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn bitset_ops_and_arena_accessors_never_allocate() {
    let n = 150;
    let mut m = BitMatrix::new(n, n);
    let (mut b, mut c) = (Bitset::new(n), Bitset::new(n));
    for i in 0..n {
        m.set_sym(i, (i * 7 + 3) % n);
        if i % 2 == 0 {
            b.insert(i);
        }
        if i % 3 == 0 {
            c.insert(i);
        }
    }
    let mut a = Bitset::new(n);
    let w = Workload::generate(&WorkloadConfig::default());
    let arena = GraphArena::from_graphs(&w.graphs, &w.vocab);

    let (sum, allocs) = allocations(|| {
        let mut sum = 0usize;
        for i in 0..10_000 {
            let row = i % n;
            a.assign_row(&m, row);
            a.difference_with(&b);
            a.difference_with(&c);
            a.insert(row);
            a.remove((row + 1) % n);
            sum += a.iter().sum::<usize>() + usize::from(a.contains(row));
            sum += usize::from(m.test(row, (row + 3) % n));

            let g = arena.graph(i % arena.len());
            sum += g.name().len() + g.order() + g.size();
            for v in g.vertices() {
                sum += g.vertex_label(v).index();
            }
            for e in g.edges() {
                let (u, v) = g.edge_endpoints(e);
                sum += u.index() + v.index() + g.edge_label(e).index();
            }
            sum += arena.pool().get((i % arena.pool().len()) as u32).len();
        }
        black_box(sum)
    });
    assert!(sum > 0);
    assert_eq!(allocs, 0, "bitset ops or arena accessors allocated");
}

/// Allocations allowed per input vertex (plus one) in one solver call:
/// the same literal for every solver.
const PER_VERTEX: u64 = 4;

/// One solver's sample: `(case, input vertices, expanded nodes,
/// allocations)` per call. Some call must expand more nodes than its
/// ceiling, so that one allocation per node would trip it; in release
/// builds every call must stay under its ceiling.
fn check(solver: &str, calls: &[(String, usize, u64, u64)]) {
    let ceiling = |vertices: usize| PER_VERTEX * (vertices as u64 + 1);
    assert!(
        calls.iter().any(|c| c.2 > ceiling(c.1)),
        "{solver}: no sampled call expands more nodes than its ceiling"
    );
    if cfg!(debug_assertions) {
        return;
    }
    for (what, vertices, expanded, allocs) in calls {
        assert!(
            *allocs <= ceiling(*vertices),
            "{solver} {what}: {allocs} allocations over {expanded} expanded nodes"
        );
    }
}

/// Runs `solve`, which returns its expanded-node count, on random pairs
/// of 4 to 9 vertices a side over a small alphabet: few labels mean weak
/// bounds and deep searches.
fn on_pairs(solve: impl Fn(&Graph, &Graph) -> u64) -> Vec<(String, usize, u64, u64)> {
    let mut rng = Rng::seed_from_u64(0xA110C);
    let mut graph = |n: usize| random_graph(&mut rng, n, n + n / 2, 2, 1);
    (4..=9)
        .flat_map(|n| [(n, n), (n, 13 - n)])
        .map(|(n1, n2)| {
            let (g1, g2) = (graph(n1), graph(n2));
            let (expanded, allocs) = allocations(|| solve(&g1, &g2));
            (format!("{n1}x{n2}"), n1 + n2, expanded, allocs)
        })
        .collect()
}

#[test]
fn exact_ged_allocates_linearly_per_call() {
    let calls = on_pairs(|g1, g2| exact_ged(g1, g2, &GedOptions::default()).expanded);
    check("exact_ged", &calls);
}

#[test]
fn exact_mcs_allocates_linearly_per_call() {
    let calls = on_pairs(|g1, g2| maximum_common_subgraph_expanded(g1, g2, Objective::Edges).1);
    check("maximum_common_subgraph_expanded", &calls);
}

#[test]
fn vf2_allocates_linearly_per_call() {
    // VF2 reports no node count, so `nodes` below is a lower bound. A
    // 7-cycle has no embedding in the bipartite K(5,5) (an odd cycle), so
    // VF2 visits every consistent path prefix before failing: at least
    // 10 · 5 · 4 · 3 = 600 of depth four, far past the ceiling. The other
    // cases succeed, visiting at least one node per pattern vertex.
    let mut vocab = Vocabulary::new();
    let cycle = GraphBuilder::new("cycle", &mut vocab)
        .vertices(&["a", "b", "c", "d", "e", "f", "g"], "C")
        .cycle(&["a", "b", "c", "d", "e", "f", "g"], "-")
        .build()
        .expect("valid cycle");
    let sides = ["l0", "l1", "l2", "l3", "l4", "r0", "r1", "r2", "r3", "r4"];
    let mut k55 = GraphBuilder::new("k55", &mut vocab).vertices(&sides, "C");
    for l in &sides[..5] {
        for r in &sides[5..] {
            k55 = k55.edge(l, r, "-");
        }
    }
    let k55 = k55.build().expect("valid K(5,5)");
    let prefixes = 10 * 5 * 4 * 3;
    let mut calls = Vec::new();
    for (pattern, target, mode, found, nodes) in [
        (&cycle, &k55, MatchMode::SubgraphNonInduced, false, prefixes),
        (&k55, &k55, MatchMode::Isomorphism, true, 10),
        (&cycle, &cycle, MatchMode::Isomorphism, true, 7),
    ] {
        let what = format!("{} in {}", pattern.name(), target.name());
        let (embedding, allocs) = allocations(|| find_embedding(pattern, target, mode));
        assert_eq!(embedding.is_some(), found, "{what}");
        calls.push((what, pattern.order() + target.order(), nodes, allocs));
    }
    check("find_embedding", &calls);
}
