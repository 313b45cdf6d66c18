//! Seeded input generators: the database, the query stream and the
//! mutation script of one workload. Everything derives from `--seed`; the
//! program under test only ever sees the generated graphs and request
//! texts.

use std::collections::HashSet;

use crate::sut::{
    graph_text, molecule_like_graph, perturb_typed, wl_fingerprint, write_database, Fnv64, Graph,
    MoleculeConfig, PerturbationStyle, Rng, Vocabulary, Workload, WorkloadConfig, WorkloadKind,
};

/// How a workload's queries relate to its database.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `1..=max_edits`-edit perturbations of random database graphs,
    /// rotating through `styles`; never a database member, so the
    /// isomorphism short-circuit cannot answer them.
    Perturbed {
        max_edits: usize,
        styles: &'static [PerturbationStyle],
    },
    /// Molecules generated independently of the database, so no candidate
    /// dominates early and the exact solvers carry the query.
    Independent,
}

/// Sizes of one workload's inputs.
#[derive(Copy, Clone, Debug)]
pub struct GenSpec {
    pub graphs: usize,
    pub vertices: usize,
    pub queries: usize,
    pub query_kind: QueryKind,
    pub mutations: usize,
}

/// One single-op mutation batch of the script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    Insert { name: String, text: String },
    Remove { name: String },
    Update { name: String, text: String },
}

impl Mutation {
    /// Bytes of user data the batch carries: graph text, or the name.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Mutation::Insert { text, .. } | Mutation::Update { text, .. } => text.len(),
            Mutation::Remove { name } => name.len(),
        }
    }
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub vocab: Vocabulary,
    pub graphs: Vec<Graph>,
    pub queries: Vec<Graph>,
    pub query_texts: Vec<String>,
    pub mutations: Vec<Mutation>,
    /// FNV-1a over everything above, in generation order.
    pub hash: u64,
}

/// Edge insertions and deletions only: near-duplicates that mint no labels.
pub const GROW_SHRINK: &[PerturbationStyle] = &[PerturbationStyle::Grow, PerturbationStyle::Shrink];
/// The same plus the uniform mix, whose relabels mint labels the database
/// has never seen.
pub const GROW_SHRINK_MIXED: &[PerturbationStyle] = &[
    PerturbationStyle::Grow,
    PerturbationStyle::Shrink,
    PerturbationStyle::Mixed,
];

/// WL refinement rounds for the membership screen — the depth the
/// prefilter's own isomorphism short-circuit uses.
const WL_ROUNDS: usize = 3;

/// Most script-inserted graphs alive at once, as a share of the database:
/// keeps `|D|` within +4 % however long the script runs.
fn live_cap(graphs: usize) -> usize {
    (graphs / 25).max(2)
}

pub fn generate(spec: &GenSpec, seed: u64) -> Inputs {
    let w = Workload::generate(&WorkloadConfig {
        kind: WorkloadKind::Molecule,
        database_size: spec.graphs,
        graph_vertices: spec.vertices,
        related_fraction: 0.0,
        max_edits: 1,
        seed,
    });
    let (mut vocab, graphs) = (w.vocab, w.graphs);
    let mut rng = Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);

    let members: HashSet<u64> = graphs
        .iter()
        .map(|g| wl_fingerprint(g, WL_ROUNDS))
        .collect();
    let queries: Vec<Graph> = (0..spec.queries)
        .map(|i| {
            let name = format!("q{i}");
            match spec.query_kind {
                QueryKind::Independent => {
                    let cfg = MoleculeConfig {
                        atoms: spec.vertices,
                        ..MoleculeConfig::default()
                    };
                    molecule_like_graph(name, &cfg, &mut vocab, &mut rng)
                }
                QueryKind::Perturbed { max_edits, styles } => loop {
                    let base = &graphs[rng.gen_index(graphs.len())];
                    let (style, edits) = (styles[i % styles.len()], 1 + i % max_edits);
                    let prefix = format!("Q{i}_");
                    let mut q = perturb_typed(base, style, edits, &mut vocab, &mut rng, &prefix);
                    // A WL-equal graph may be a member; draw again (rare).
                    if !members.contains(&wl_fingerprint(&q, WL_ROUNDS)) {
                        q.set_name(name);
                        break q;
                    }
                },
            }
        })
        .collect();
    let query_texts: Vec<String> = queries.iter().map(|q| graph_text(q, &vocab)).collect();

    // The mutation script: 40 % insert / 40 % remove of an earlier insert /
    // 20 % update of one, never touching an original graph (so never an
    // index pivot). Grow/Shrink perturbations mint no labels, so the
    // store's vocabulary stays fixed however long the script runs.
    let cap = live_cap(spec.graphs);
    let mut live: Vec<String> = Vec::new();
    let fresh = |k: usize, name: &str, rng: &mut Rng, vocab: &mut Vocabulary| {
        let base = &graphs[rng.gen_index(graphs.len())];
        let mut g = perturb_typed(base, GROW_SHRINK[k % 2], 1 + k % 3, vocab, rng, "M");
        g.set_name(name);
        graph_text(&g, vocab)
    };
    let mutations: Vec<Mutation> = (0..spec.mutations)
        .map(|k| {
            let roll = rng.gen_index(10);
            if live.is_empty() || (roll < 4 && live.len() < cap) {
                let name = format!("churn{k}");
                let text = fresh(k, &name, &mut rng, &mut vocab);
                live.push(name.clone());
                Mutation::Insert { name, text }
            } else if roll < 8 {
                let name = live.swap_remove(rng.gen_index(live.len()));
                Mutation::Remove { name }
            } else {
                let name = live[rng.gen_index(live.len())].clone();
                let text = fresh(k, &name, &mut rng, &mut vocab);
                Mutation::Update { name, text }
            }
        })
        .collect();

    let mut h = Fnv64::new();
    h.write(write_database(&graphs, &vocab).as_bytes());
    for text in &query_texts {
        h.write(text.as_bytes());
    }
    for m in &mutations {
        h.write(format!("{m:?}").as_bytes());
    }
    Inputs {
        hash: h.finish(),
        vocab,
        graphs,
        queries,
        query_texts,
        mutations,
    }
}

/// The seeded skewed draw of the server workloads: half of the requests
/// go to a hot set (the first `hot` queries), half uniformly to all.
pub fn skewed_draw(rng: &mut Rng, hot: usize, total: usize) -> usize {
    if rng.gen_bool(0.5) {
        rng.gen_index(hot.min(total))
    } else {
        rng.gen_index(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::are_isomorphic;

    fn spec(query_kind: QueryKind) -> GenSpec {
        GenSpec {
            graphs: 60,
            vertices: 7,
            queries: 24,
            query_kind,
            mutations: 400,
        }
    }

    #[test]
    fn shapes_follow_the_spec() {
        let inputs = generate(&spec(QueryKind::Independent), 7);
        assert_eq!(inputs.graphs.len(), 60);
        assert_eq!(inputs.queries.len(), 24);
        assert_eq!(inputs.query_texts.len(), 24);
        assert_eq!(inputs.mutations.len(), 400);
        assert!(inputs.graphs.iter().all(|g| g.order() == 7));
        assert!(inputs.queries.iter().all(|q| q.order() == 7));
    }

    #[test]
    fn one_seed_one_input_and_seeds_differ() {
        let kind = QueryKind::Perturbed {
            max_edits: 3,
            styles: GROW_SHRINK_MIXED,
        };
        let a = generate(&spec(kind), 11);
        let b = generate(&spec(kind), 11);
        let c = generate(&spec(kind), 12);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.mutations, b.mutations);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn perturbed_queries_are_never_database_members() {
        let kind = QueryKind::Perturbed {
            max_edits: 1,
            styles: GROW_SHRINK,
        };
        let inputs = generate(&spec(kind), 3);
        for q in &inputs.queries {
            assert!(
                !inputs.graphs.iter().any(|g| are_isomorphic(g, q)),
                "query {} is a database member",
                q.name()
            );
        }
    }

    #[test]
    fn mutation_mix_keeps_the_database_size() {
        let inputs = generate(&spec(QueryKind::Independent), 5);
        let (mut live, mut kinds) = (HashSet::new(), [0usize; 3]);
        for m in &inputs.mutations {
            match m {
                Mutation::Insert { name, .. } => {
                    assert!(live.insert(name.clone()), "insert of a live name");
                    kinds[0] += 1;
                }
                Mutation::Remove { name } => {
                    assert!(live.remove(name), "remove of a dead name");
                    kinds[1] += 1;
                }
                Mutation::Update { name, .. } => {
                    assert!(live.contains(name), "update of a dead name");
                    kinds[2] += 1;
                }
            }
            // |D| stays within +5 % (it never drops below the original).
            assert!(live.len() * 20 <= inputs.graphs.len());
        }
        assert!(kinds.iter().all(|&k| k > 40), "mix {kinds:?}");
    }

    #[test]
    fn skewed_draw_favours_the_hot_set() {
        let mut rng = Rng::seed_from_u64(1);
        let hot = (0..4000)
            .filter(|_| skewed_draw(&mut rng, 8, 64) < 8)
            .count();
        // Expected share 0.5 + 0.5 × 8/64 = 0.5625.
        assert!((2100..2400).contains(&hot), "{hot}");
    }
}
