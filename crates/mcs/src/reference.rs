//! Retained reference implementation of the pre-bitset connected-MCS
//! kernel, compiled only under test.
//!
//! [`crate::exact`] was rewritten for speed; this is the straightforward
//! implementation it replaced, kept verbatim (plus an expanded-node
//! counter) so that the unit tests below can assert the kernel returns
//! identical witnesses and expanded-node counts on random inputs and on
//! the committed smoke workload. Nothing in the query pipeline calls it.

use gss_graph::stats::mcs_upper_bound;
use gss_graph::{Graph, VertexId};

use crate::exact::{Mcs, Objective};

const UNMAPPED: u32 = u32::MAX;

/// The original connected-MCS branch-and-bound solver (per-node `Vec`
/// allocation in `candidates`, full rescans in the potential bound), kept
/// as the byte-identical-witness reference for [`crate::exact`]. Returns
/// the witness plus the number of search nodes expanded.
fn maximum_common_subgraph_reference(g1: &Graph, g2: &Graph, objective: Objective) -> (Mcs, u64) {
    let global_bound = mcs_upper_bound(g1, g2) as usize;
    let mut solver = RefSolver {
        g1,
        g2,
        objective,
        map1: vec![UNMAPPED; g1.order()],
        map2: vec![UNMAPPED; g2.order()],
        banned: vec![false; g1.order()],
        score_edges: 0,
        best: Mcs::default(),
        best_key: (0, 0),
        global_bound,
        done: false,
        expanded: 0,
    };
    for root in 0..g1.order() {
        if solver.done {
            break;
        }
        let u = VertexId::new(root);
        for v in g2.vertices() {
            if g1.vertex_label(u) != g2.vertex_label(v) {
                continue;
            }
            solver.map1[u.index()] = v.0;
            solver.map2[v.index()] = u.0;
            solver.extend();
            solver.map1[u.index()] = UNMAPPED;
            solver.map2[v.index()] = UNMAPPED;
            if solver.done {
                break;
            }
        }
        solver.banned[root] = true;
    }
    (solver.best, solver.expanded)
}

struct RefSolver<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    objective: Objective,
    map1: Vec<u32>,
    map2: Vec<u32>,
    banned: Vec<bool>,
    score_edges: usize,
    best: Mcs,
    best_key: (usize, usize),
    global_bound: usize,
    done: bool,
    expanded: u64,
}

impl RefSolver<'_> {
    fn key(&self, edges: usize, vertices: usize) -> (usize, usize) {
        match self.objective {
            Objective::Edges => (edges, vertices),
            Objective::Vertices => (vertices, edges),
        }
    }

    fn mapped_vertices(&self) -> usize {
        self.map1.iter().filter(|&&m| m != UNMAPPED).count()
    }

    fn record_if_better(&mut self) {
        let vertices = self.mapped_vertices();
        let key = self.key(self.score_edges, vertices);
        if key > self.best_key {
            self.best_key = key;
            self.best = self.snapshot();
            if self.objective == Objective::Edges && self.score_edges >= self.global_bound {
                self.done = true; // provably optimal
            }
        }
    }

    fn snapshot(&self) -> Mcs {
        let mut vertex_pairs = Vec::new();
        for (i, &m) in self.map1.iter().enumerate() {
            if m != UNMAPPED {
                vertex_pairs.push((VertexId::new(i), VertexId(m)));
            }
        }
        let mut edge_pairs = Vec::new();
        for e1 in self.g1.edges() {
            let edge = self.g1.edge(e1);
            let (mu, mv) = (self.map1[edge.u.index()], self.map1[edge.v.index()]);
            if mu == UNMAPPED || mv == UNMAPPED {
                continue;
            }
            if let Some(e2) = self.g2.edge_between(VertexId(mu), VertexId(mv)) {
                if self.g2.edge_label(e2) == edge.label {
                    edge_pairs.push((e1, e2));
                }
            }
        }
        Mcs {
            vertex_pairs,
            edge_pairs,
        }
    }

    fn potential1(&self) -> usize {
        self.g1
            .edges()
            .filter(|&e| {
                let edge = self.g1.edge(e);
                let (u, v) = (edge.u.index(), edge.v.index());
                if self.banned[u] || self.banned[v] {
                    return false;
                }
                self.map1[u] == UNMAPPED || self.map1[v] == UNMAPPED
            })
            .count()
    }

    fn potential2(&self) -> usize {
        self.g2
            .edges()
            .filter(|&e| {
                let edge = self.g2.edge(e);
                self.map2[edge.u.index()] == UNMAPPED || self.map2[edge.v.index()] == UNMAPPED
            })
            .count()
    }

    fn gain(&self, u: VertexId, v: VertexId) -> usize {
        let mut gain = 0;
        for (w, ew) in self.g1.neighbors(u) {
            let mw = self.map1[w.index()];
            if mw == UNMAPPED {
                continue;
            }
            if let Some(e2) = self.g2.edge_between(v, VertexId(mw)) {
                if self.g2.edge_label(e2) == self.g1.edge_label(ew) {
                    gain += 1;
                }
            }
        }
        gain
    }

    fn candidates(&self) -> Vec<(VertexId, VertexId)> {
        let mut out: Vec<(VertexId, VertexId)> = Vec::new();
        for (i, &m) in self.map1.iter().enumerate() {
            if m == UNMAPPED {
                continue;
            }
            let u_mapped = VertexId::new(i);
            let v_mapped = VertexId(m);
            for (u, eu) in self.g1.neighbors(u_mapped) {
                if self.map1[u.index()] != UNMAPPED || self.banned[u.index()] {
                    continue;
                }
                for (v, ev) in self.g2.neighbors(v_mapped) {
                    if self.map2[v.index()] != UNMAPPED {
                        continue;
                    }
                    if self.g1.vertex_label(u) != self.g2.vertex_label(v) {
                        continue;
                    }
                    if self.g1.edge_label(eu) != self.g2.edge_label(ev) {
                        continue;
                    }
                    if !out.contains(&(u, v)) {
                        out.push((u, v));
                    }
                }
            }
        }
        out.sort_by_key(|&(u, v)| std::cmp::Reverse(self.gain(u, v)));
        out
    }

    fn extend(&mut self) {
        if self.done {
            return;
        }
        self.expanded += 1;
        self.record_if_better();
        if self.done {
            return;
        }
        let potential = self.potential1().min(self.potential2());
        let bound_key = match self.objective {
            Objective::Edges => (self.score_edges + potential, usize::MAX),
            Objective::Vertices => (self.mapped_vertices() + potential, usize::MAX),
        };
        if bound_key <= self.best_key {
            return;
        }
        for (u, v) in self.candidates() {
            let gain = self.gain(u, v);
            debug_assert!(gain >= 1, "candidates must attach via a shared edge");
            self.map1[u.index()] = v.0;
            self.map2[v.index()] = u.0;
            self.score_edges += gain;
            self.extend();
            self.score_edges -= gain;
            self.map1[u.index()] = UNMAPPED;
            self.map2[v.index()] = UNMAPPED;
            if self.done {
                return;
            }
        }
    }
}

/// Parity of the bitset kernel against the reference. The rewrite
/// preserves the search order, so witnesses *and* expanded-node counts
/// must be identical for both objectives.
mod tests {
    use super::*;
    use crate::exact::maximum_common_subgraph_expanded;
    use gss_datasets::workload::{Workload, WorkloadConfig};
    use gss_graph::{random_graph, Rng};

    /// A connected-MCS solver: witness and expanded-node count.
    type McsSolver = fn(&Graph, &Graph, Objective) -> (Mcs, u64);

    /// `[kernel, reference]` under one signature: if either side's
    /// signature drifts, this array stops compiling.
    const MCS: [McsSolver; 2] = [
        maximum_common_subgraph_expanded,
        maximum_common_subgraph_reference,
    ];

    #[test]
    fn connected_mcs_is_bit_identical_to_reference_both_objectives() {
        let mut rng = Rng::seed_from_u64(0x9a417e);
        for case in 0..120 {
            let (n1, m1) = (1 + rng.gen_index(6), rng.gen_index(8));
            let (n2, m2) = (1 + rng.gen_index(6), rng.gen_index(8));
            let labels = 1 + rng.gen_index(3) as u32;
            let g1 = random_graph(&mut rng, n1, m1, labels, 2);
            let g2 = random_graph(&mut rng, n2, m2, labels, 2);
            for objective in [Objective::Edges, Objective::Vertices] {
                let [(fast, fast_nodes), (slow, slow_nodes)] =
                    MCS.map(|solve| solve(&g1, &g2, objective));
                assert_eq!(
                    fast.vertex_pairs, slow.vertex_pairs,
                    "case {case} {objective:?}: vertex witness"
                );
                assert_eq!(
                    fast.edge_pairs, slow.edge_pairs,
                    "case {case} {objective:?}: edge witness"
                );
                assert_eq!(
                    fast_nodes, slow_nodes,
                    "case {case} {objective:?}: search order must be preserved"
                );
            }
        }
    }

    /// Pinned node-count regression on a fixed workload: the rewrite must
    /// match the reference count and its recorded total exactly.
    #[test]
    fn pinned_node_counts_on_fixed_workload() {
        let mut rng = Rng::seed_from_u64(0xf1bed);
        let (mut mcs_new, mut mcs_ref) = (0u64, 0u64);
        for _ in 0..20 {
            let g1 = random_graph(&mut rng, 6, 8, 2, 2);
            let g2 = random_graph(&mut rng, 6, 8, 2, 2);
            let [new, reference] = MCS.map(|solve| solve(&g1, &g2, Objective::Edges).1);
            mcs_new += new;
            mcs_ref += reference;
        }
        assert_eq!(
            mcs_new, mcs_ref,
            "connected-MCS search order must be preserved"
        );
        assert_eq!(mcs_new, 1_196, "expanded nodes vs recorded total");
    }

    /// The MCS half of the solver sweep over every query/candidate pair of
    /// the committed smoke workload ([`WorkloadConfig::bench_smoke`]). The
    /// kernel is deterministic, so the expanded-node total repeats exactly,
    /// and it preserves the reference search order exactly.
    #[test]
    fn smoke_workload_solver_sweep_stays_within_recorded_expansion_baselines() {
        // Recorded baseline: total search nodes the exact solver expands
        // over all 120 pairs. Any change is a search-order or bound change;
        // re-record deliberately when the workload, the candidate ordering
        // or the bound changes.
        const MCS_EXPANDED_BASELINE: u64 = 1_536;

        let w = Workload::generate(&WorkloadConfig::bench_smoke());
        let (mut mcs, mut mcs_ref) = (0u64, 0u64);
        for g in &w.graphs {
            let [new, reference] = MCS.map(|solve| solve(g, &w.query, Objective::Edges).1);
            mcs += new;
            mcs_ref += reference;
        }
        assert_eq!(w.graphs.len(), 120, "the sweep covers all 120 pairs");
        assert_eq!(
            mcs, MCS_EXPANDED_BASELINE,
            "expanded nodes vs recorded baseline"
        );
        assert_eq!(mcs, mcs_ref, "MCS kernel vs reference expanded nodes");
    }
}
