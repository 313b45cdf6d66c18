//! The reconstructed datasets of the paper's figures and tables.
//!
//! Figures 1–3 of Abbaci et al. exist only as images; the concrete graphs
//! are not recoverable from the text. The graphs below were **reconstructed
//! from the published numbers**: our exact GED/MCS solvers (not hard-coded
//! constants) reproduce every value of Tables II and III, the worked
//! Examples 2–4, and 16 of the 18 cells of Table IV.
//!
//! The two deviating cells are *provably unattainable* under the paper's own
//! Definition 8. `DistEd(q,g4) = 2`, `DistEd(q,g7) = 4` and `g7 ⊇ q` with
//! `|g7|−|q| = 4` force any `g4 → g7` edit path to have even length, so the
//! reported `DistEd(g4,g7) = 5` is impossible (we realize 6), and the coupling
//! `DistEd(g5,g7) = 3` pins `g7`'s extra edges in a way that makes
//! `DistEd(g1,g7) = 7` incompatible with `DistEd(g1,g4) = 6` (we realize 6).
//! All skyline-level conclusions of the paper (Table II, Table III, the
//! skyline `{g1, g4, g5, g7}`, the dominance witnesses, and the refined
//! subset `{g1, g4}`) hold on this reconstruction.
//!
//! ## Shape of the reconstruction
//!
//! The query `q` is a 5-cycle `a(A) b(B) c(C) d(D) e(E)` plus a pendant
//! `f(F)` attached at `a`; every database graph is a controlled perturbation
//! of `q` (label swaps, extra chords, alternate `=` edge labels) chosen so
//! the exact distances land on the published values.

use gss_graph::{Graph, GraphBuilder, Vocabulary};

/// The Figure 1 pair (`g1`, `g2` in the paper's Example 2 numbering).
#[derive(Debug, Clone)]
pub struct Figure1Pair {
    /// Shared label vocabulary.
    pub vocab: Vocabulary,
    /// The paper's Fig. 1 left graph.
    pub left: Graph,
    /// The paper's Fig. 1 right graph, at uniform edit distance 4 from
    /// `left` via exactly the op kinds of Example 2 (one edge deletion, one
    /// edge relabeling, one vertex relabeling, one edge insertion).
    pub right: Graph,
}

/// Builds the Figure 1 pair: `DistEd = 4`, `|mcs| = 4`,
/// `DistMcs = 1 − 4/6 = 0.33…`, `DistGu = 1 − 4/8 = 0.50`.
pub fn figure1_pair() -> Figure1Pair {
    let mut vocab = Vocabulary::new();
    let left = GraphBuilder::new("fig1-left", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("f", "F")
        .cycle(&["a", "b", "c", "d", "e"], "-")
        .edge("a", "f", "-")
        .build()
        .expect("static graph");
    // From `left`: delete edge b-c, relabel vertex f→X, relabel edge a-f
    // (now a-x) to "=", insert edge b-d.
    let right = GraphBuilder::new("fig1-right", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("x", "X")
        .edge("a", "b", "-")
        .edge("c", "d", "-")
        .edge("d", "e", "-")
        .edge("e", "a", "-")
        .edge("a", "x", "=")
        .edge("b", "d", "-")
        .build()
        .expect("static graph");
    Figure1Pair { vocab, left, right }
}

/// The Figure 3 database `D = {g1, …, g7}` and query `q`.
#[derive(Debug, Clone)]
pub struct Figure3Database {
    /// Shared label vocabulary.
    pub vocab: Vocabulary,
    /// The graph similarity query `q` (6 edges).
    pub query: Graph,
    /// `g1 … g7`, in paper order (index 0 is `g1`).
    pub graphs: Vec<Graph>,
}

/// Builds the Figure 3 database. Sizes: `|g1..g7| = 6,7,7,6,8,9,10`,
/// `|q| = 6`; `g7 ⊃ q` as the paper notes.
pub fn figure3_database() -> Figure3Database {
    let mut vocab = Vocabulary::new();

    let query = GraphBuilder::new("q", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("f", "F")
        .cycle(&["a", "b", "c", "d", "e"], "-")
        .edge("a", "f", "-")
        .build()
        .expect("static graph");

    // g1: drop ab and af from q, add two "="-labeled edges into f.
    // → GED 4, |mcs| 4 (path b-c-d-e-a).
    let g1 = GraphBuilder::new("g1", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("f", "F")
        .path(&["b", "c", "d", "e", "a"], "-")
        .edge("c", "f", "=")
        .edge("e", "f", "=")
        .build()
        .expect("static graph");

    // g2: relabel c→M, relabel both m-edges to "=", add chord bd.
    // → GED 4, |mcs| 4 (ab ∪ ea ∪ de ∪ af around a).
    let g2 = GraphBuilder::new("g2", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("m", "M")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("f", "F")
        .edge("a", "b", "-")
        .edge("b", "m", "=")
        .edge("m", "d", "=")
        .edge("d", "e", "-")
        .edge("e", "a", "-")
        .edge("a", "f", "-")
        .edge("b", "d", "-")
        .build()
        .expect("static graph");

    // g3: like g2 but only one relabeled edge. → GED 3, |mcs| 4.
    let g3 = GraphBuilder::new("g3", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("n", "N")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("f", "F")
        .edge("a", "b", "-")
        .edge("b", "n", "=")
        .edge("n", "d", "-")
        .edge("d", "e", "-")
        .edge("e", "a", "-")
        .edge("a", "f", "-")
        .edge("b", "d", "-")
        .build()
        .expect("static graph");

    // g4: q with C→Z and F→Y. → GED 2, |mcs| 3 (path d-e-a-b).
    let g4 = GraphBuilder::new("g4", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("z", "Z")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("y", "Y")
        .cycle(&["a", "b", "z", "d", "e"], "-")
        .edge("a", "y", "-")
        .build()
        .expect("static graph");

    // g5: q with F→G plus edges cg, eg. → GED 3, |mcs| 5 (the 5-cycle).
    let g5 = GraphBuilder::new("g5", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("g", "G")
        .cycle(&["a", "b", "c", "d", "e"], "-")
        .edge("a", "g", "-")
        .edge("c", "g", "-")
        .edge("e", "g", "-")
        .build()
        .expect("static graph");

    // g6: q with F→K plus edges bk, ck, dk. → GED 4, |mcs| 5.
    let g6 = GraphBuilder::new("g6", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("k", "K")
        .cycle(&["a", "b", "c", "d", "e"], "-")
        .edge("a", "k", "-")
        .edge("b", "k", "-")
        .edge("c", "k", "-")
        .edge("d", "k", "-")
        .build()
        .expect("static graph");

    // g7: q plus chords cf, ef, bd, be — a strict supergraph of q.
    // → GED 4, |mcs| 6.
    let g7 = GraphBuilder::new("g7", &mut vocab)
        .vertex("a", "A")
        .vertex("b", "B")
        .vertex("c", "C")
        .vertex("d", "D")
        .vertex("e", "E")
        .vertex("f", "F")
        .cycle(&["a", "b", "c", "d", "e"], "-")
        .edge("a", "f", "-")
        .edge("c", "f", "-")
        .edge("e", "f", "-")
        .edge("b", "d", "-")
        .edge("b", "e", "-")
        .build()
        .expect("static graph");

    Figure3Database {
        vocab,
        query,
        graphs: vec![g1, g2, g3, g4, g5, g6, g7],
    }
}

/// The hotels of Table I as `(names, [price, distance])` rows.
pub fn hotels() -> (Vec<&'static str>, Vec<Vec<f64>>) {
    (
        vec!["H1", "H2", "H3", "H4", "H5", "H6", "H7"],
        vec![
            vec![4.0, 150.0],
            vec![3.0, 110.0],
            vec![2.5, 240.0],
            vec![2.0, 180.0],
            vec![1.7, 270.0],
            vec![1.0, 195.0],
            vec![1.2, 210.0],
        ],
    )
}

/// The values the paper publishes, for paper-vs-measured reporting.
pub mod expected {
    /// Table II: `|mcs(gi, q)|` for `g1 … g7`.
    pub const TABLE2_MCS: [usize; 7] = [4, 4, 4, 3, 5, 5, 6];
    /// Table III column `DistEd(gi, q)`.
    pub const TABLE3_ED: [f64; 7] = [4.0, 4.0, 3.0, 2.0, 3.0, 4.0, 4.0];
    /// Graph sizes `|g1| … |g7|` as printed in Section VI.
    pub const SIZES: [usize; 7] = [6, 7, 7, 6, 8, 9, 10];
    /// `|q|`.
    pub const QUERY_SIZE: usize = 6;
    /// 0-based indices (into `g1…g7`) of the published skyline
    /// `GSS(D, q) = {g1, g4, g5, g7}`.
    pub const SKYLINE: [usize; 4] = [0, 3, 4, 6];
    /// Published dominance witnesses: (dominated, dominator) — g2 ≺ g7,
    /// g3 ≺ g5, g6 ≺ g1 (0-based).
    pub const DOMINANCE_WITNESSES: [(usize, usize); 3] = [(1, 6), (2, 4), (5, 0)];
    /// Table IV paper values, rows S1..S6 = pairs of the skyline in
    /// lexicographic order ((g1,g4),(g1,g5),(g1,g7),(g4,g5),(g4,g7),(g5,g7));
    /// columns (v1 = normalized GED, v2 = DistMcs, v3 = DistGu).
    pub const TABLE4: [[f64; 3]; 6] = [
        [0.86, 0.67, 0.80],
        [0.83, 0.50, 0.60],
        [0.87, 0.60, 0.67],
        [0.80, 0.62, 0.73],
        [0.83, 0.70, 0.77],
        [0.75, 0.50, 0.61],
    ];
    /// Pairwise GED values implied by Table IV (v1 = x/(1+x)).
    pub const TABLE4_GED: [f64; 6] = [6.0, 5.0, 7.0, 4.0, 5.0, 3.0];
    /// Pairwise `|mcs|` values implied by Table IV columns v2/v3.
    pub const TABLE4_MCS: [usize; 6] = [2, 4, 4, 3, 3, 5];
    /// Table V rank sums for S1..S6.
    pub const TABLE5_VAL: [usize; 6] = [5, 14, 9, 10, 6, 15];
    /// The published refined subset 𝕊 = S1 = {g1, g4} (0-based indices).
    pub const REFINED: [usize; 2] = [0, 3];
    /// Table I skyline (0-based hotel indices of H2, H4, H6).
    pub const HOTEL_SKYLINE: [usize; 3] = [1, 3, 5];
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::algo::is_connected;

    #[test]
    fn figure3_sizes_match_paper() {
        let db = figure3_database();
        assert_eq!(db.query.size(), expected::QUERY_SIZE);
        let sizes: Vec<usize> = db.graphs.iter().map(Graph::size).collect();
        assert_eq!(sizes, expected::SIZES.to_vec());
        for g in &db.graphs {
            assert!(is_connected(g), "{} must be connected", g.name());
        }
        assert!(is_connected(&db.query));
    }

    #[test]
    fn figure1_sizes() {
        let pair = figure1_pair();
        assert_eq!(pair.left.size(), 6);
        assert_eq!(pair.right.size(), 6);
        assert!(is_connected(&pair.left));
        assert!(is_connected(&pair.right));
    }

    #[test]
    fn g7_is_supergraph_of_query() {
        let db = figure3_database();
        assert!(gss_iso::is_subgraph_isomorphic(&db.query, &db.graphs[6]));
    }

    #[test]
    fn graphs_share_one_vocabulary() {
        let db = figure3_database();
        // Every label used in any graph resolves in db.vocab.
        for g in db.graphs.iter().chain(std::iter::once(&db.query)) {
            for v in g.vertices() {
                assert!(db.vocab.name(g.vertex_label(v)).is_some());
            }
            for e in g.edges() {
                assert!(db.vocab.name(g.edge_label(e)).is_some());
            }
        }
    }

    #[test]
    fn hotels_table_shape() {
        let (names, rows) = hotels();
        assert_eq!(names.len(), 7);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.len() == 2));
    }
}
