//! Benchmark workloads: databases of graphs with a planted query.
//!
//! A workload consists of a query graph and a database derived from it by
//! controlled perturbation (so ground-truth "good answers" exist by
//! construction), mixed with unrelated decoys. Used by the property and
//! structural-gate tests and by the repository benchmark; the one ablation
//! kept as a test runs on the paper's Figure 3 database instead (see
//! `tests/paper_tables.rs::structure_weighted_edit_costs_admit_g3_into_the_skyline`).

use gss_graph::{Graph, Rng, VertexId, Vocabulary};

use crate::synth::{
    molecule_like_graph, perturb_typed, random_connected_graph, MoleculeConfig, PerturbationStyle,
    RandomGraphConfig,
};

/// The flavour of graphs a workload contains.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniform random connected labeled graphs.
    Uniform,
    /// Molecule-like graphs (element labels, valence caps, bond labels).
    Molecule,
}

/// Configuration for [`Workload::generate`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Graph flavour.
    pub kind: WorkloadKind,
    /// Database size (number of graphs).
    pub database_size: usize,
    /// Approximate size (vertices) of each graph.
    pub graph_vertices: usize,
    /// Fraction of the database derived from the query by perturbation
    /// (the rest are independent decoys). In `[0, 1]`.
    pub related_fraction: f64,
    /// Maximum number of perturbation edits for related graphs (each related
    /// graph uses `1..=max_edits` edits, increasing with its index).
    pub max_edits: usize,
    /// RNG seed; equal seeds give identical workloads.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            kind: WorkloadKind::Molecule,
            database_size: 20,
            graph_vertices: 8,
            related_fraction: 0.5,
            max_edits: 4,
            seed: 0xDA7A,
        }
    }
}

impl WorkloadConfig {
    /// The committed smoke workload: the 120-graph molecule database the
    /// structural-gate tests pin their literals to (README "Structural
    /// gates and their tests"). One definition keeps "the committed smoke
    /// workload" unambiguous — the recorded gate baselines (expanded-node
    /// totals, skip rates) are exact on these values, so don't change them
    /// without re-recording and a CHANGES.md note.
    pub fn bench_smoke() -> WorkloadConfig {
        WorkloadConfig {
            kind: WorkloadKind::Molecule,
            database_size: 120,
            graph_vertices: 7,
            related_fraction: 0.3,
            max_edits: 4,
            seed: 0x56,
        }
    }
}

/// A generated workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Shared vocabulary for query and database.
    pub vocab: Vocabulary,
    /// The query graph.
    pub query: Graph,
    /// The database `D`.
    pub graphs: Vec<Graph>,
    /// Indices of database graphs derived from the query ("relevant" ground
    /// truth for recall experiments), with their edit budgets.
    pub planted: Vec<(usize, usize)>,
}

impl Workload {
    /// Generates the workload described by `cfg` (deterministic in `seed`).
    pub fn generate(cfg: &WorkloadConfig) -> Workload {
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(cfg.seed);

        let make = |name: &str, vocab: &mut Vocabulary, rng: &mut Rng| -> Graph {
            match cfg.kind {
                WorkloadKind::Uniform => {
                    let rc = RandomGraphConfig {
                        vertices: cfg.graph_vertices.max(1),
                        edges: cfg.graph_vertices + cfg.graph_vertices / 3,
                        ..Default::default()
                    };
                    random_connected_graph(name, &rc, vocab, rng)
                }
                WorkloadKind::Molecule => {
                    let mc = MoleculeConfig {
                        atoms: cfg.graph_vertices.max(1),
                        ..Default::default()
                    };
                    molecule_like_graph(name, &mc, vocab, rng)
                }
            }
        };

        let query = make("query", &mut vocab, &mut rng);
        let related =
            ((cfg.database_size as f64) * cfg.related_fraction.clamp(0.0, 1.0)).round() as usize;
        let related = related.min(cfg.database_size);

        let mut graphs = Vec::with_capacity(cfg.database_size);
        let mut planted = Vec::new();
        for i in 0..cfg.database_size {
            if i < related {
                // Rotate perturbation styles *with coupled edit budgets* so
                // the planted graphs trade off differently against the three
                // measures, mirroring Section VI (g4 = cheap relabels with a
                // damaged common subgraph, g7 = a pricier supergraph with a
                // perfect one). A 1-edit supergraph would achieve the global
                // minimum on every dimension at once and collapse the
                // skyline, so Grow always gets ≥ 2 edits while Relabel gets
                // the small budgets.
                let round = i / 4;
                let (style, edits) = match i % 4 {
                    0 => (PerturbationStyle::Grow, 2 + round % 3),
                    1 => (PerturbationStyle::Relabel, 1 + round % 2),
                    // Shrink-1 would be a near-free edit with minimal MCS
                    // damage (it would dominate everything); start at 2.
                    2 => (PerturbationStyle::Shrink, 2 + round % 2),
                    _ => (PerturbationStyle::Mixed, 3 + round % 2),
                };
                let edits = edits.min(cfg.max_edits.max(1));
                let mut p = perturb_typed(
                    &query,
                    style,
                    edits,
                    &mut vocab,
                    &mut rng,
                    &format!("W{i}_"),
                );
                p.set_name(format!("related{i}"));
                planted.push((i, edits));
                graphs.push(p);
            } else {
                graphs.push(make(&format!("decoy{i}"), &mut vocab, &mut rng));
            }
        }
        Workload {
            vocab,
            query,
            graphs,
            planted,
        }
    }

    /// `graphs` random graphs and a query drawn the same way, over one
    /// vocabulary and with nothing planted: each has 2..=`max_vertices`
    /// vertices (`max_vertices ≥ 2`) labelled `C`/`N`/`O`, a spanning path
    /// and up to `n − 1` random chords, bonds labelled `-`/`=`/`#`.
    /// Deterministic in `seed`; the on-disk format digests pinned in
    /// `gss-core`'s storage tests are taken over one of these databases.
    pub fn random(seed: u64, graphs: usize, max_vertices: usize) -> Workload {
        let mut rng = Rng::seed_from_u64(seed);
        let mut vocab = Vocabulary::new();
        let mut draw = |name: String| {
            let mut label = |rng: &mut Rng, names: [&str; 3]| vocab.intern(names[rng.gen_index(3)]);
            let n = 2 + rng.gen_index(max_vertices - 1);
            let mut g = Graph::new(name);
            for _ in 0..n {
                g.add_vertex(label(&mut rng, ["C", "N", "O"]));
            }
            let mut join = |g: &mut Graph, u: usize, v: usize, rng: &mut Rng| {
                let bond = label(rng, ["-", "=", "#"]);
                g.add_edge(VertexId::new(u), VertexId::new(v), bond)
                    .expect("a new pair of distinct vertices");
            };
            for i in 1..n {
                join(&mut g, i - 1, i, &mut rng);
            }
            for _ in 0..rng.gen_index(n) {
                let (u, v) = (rng.gen_index(n), rng.gen_index(n));
                if u != v && !g.has_edge(VertexId::new(u), VertexId::new(v)) {
                    join(&mut g, u, v, &mut rng);
                }
            }
            g
        };
        let query = draw("query".to_owned());
        let graphs = (0..graphs).map(|i| draw(format!("g{i}"))).collect();
        Workload {
            vocab,
            query,
            graphs,
            planted: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = WorkloadConfig {
            database_size: 12,
            related_fraction: 0.5,
            ..Default::default()
        };
        let w = Workload::generate(&cfg);
        assert_eq!(w.graphs.len(), 12);
        assert_eq!(w.planted.len(), 6);
        assert!(w.query.order() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig {
            seed: 7,
            ..Default::default()
        };
        let a = Workload::generate(&cfg);
        let b = Workload::generate(&cfg);
        assert_eq!(
            gss_graph::format::write_database(&a.graphs, &a.vocab),
            gss_graph::format::write_database(&b.graphs, &b.vocab),
        );
        let c = Workload::generate(&WorkloadConfig { seed: 8, ..cfg });
        assert_ne!(
            gss_graph::format::write_database(&a.graphs, &a.vocab),
            gss_graph::format::write_database(&c.graphs, &c.vocab),
            "different seeds should differ"
        );
    }

    #[test]
    fn planted_graphs_stay_close_to_query() {
        let cfg = WorkloadConfig {
            database_size: 8,
            graph_vertices: 6,
            related_fraction: 1.0,
            max_edits: 3,
            seed: 21,
            ..Default::default()
        };
        let w = Workload::generate(&cfg);
        for &(idx, edits) in &w.planted {
            let d = gss_ged::ged(&w.query, &w.graphs[idx]);
            assert!(
                d <= edits as f64 + 1e-9,
                "planted graph {idx} drifted: {d} > {edits}"
            );
        }
    }

    #[test]
    fn bench_smoke_workload_is_stable() {
        let cfg = WorkloadConfig::bench_smoke();
        assert_eq!(cfg.database_size, 120);
        let w = Workload::generate(&cfg);
        assert_eq!(w.graphs.len(), 120);
        assert_eq!(w.planted.len(), 36, "30% of the smoke workload is planted");
    }

    #[test]
    fn uniform_kind_also_works() {
        let cfg = WorkloadConfig {
            kind: WorkloadKind::Uniform,
            database_size: 6,
            related_fraction: 0.0,
            ..Default::default()
        };
        let w = Workload::generate(&cfg);
        assert_eq!(w.graphs.len(), 6);
        assert!(w.planted.is_empty());
        for g in &w.graphs {
            assert!(gss_graph::algo::is_connected(g));
        }
    }
}
