//! Connectivity and component utilities.

use crate::graph::{EdgeId, Graph, VertexId};

/// Connected components as lists of vertex ids (each sorted ascending;
/// components ordered by their smallest vertex).
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let mut comp = vec![usize::MAX; g.order()];
    let mut components = Vec::new();
    for v in g.vertices() {
        if comp[v.index()] != usize::MAX {
            continue;
        }
        let idx = components.len();
        let mut members = Vec::new();
        let mut stack = vec![v];
        comp[v.index()] = idx;
        while let Some(u) = stack.pop() {
            members.push(u);
            for (n, _) in g.neighbors(u) {
                if comp[n.index()] == usize::MAX {
                    comp[n.index()] = idx;
                    stack.push(n);
                }
            }
        }
        members.sort();
        components.push(members);
    }
    components
}

/// True when the graph is connected (the empty graph counts as connected;
/// a single isolated vertex does too).
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).len() <= 1
}

/// Size (in edges) of the largest connected component of the subgraph formed
/// by exactly the given `edges` of `g`.
///
/// This is the reference implementation of the paper's "largest *connected*
/// common subgraph" size used to cross-check the MCS solver: isolated
/// vertices contribute components of zero edges.
pub fn largest_connected_edge_component(g: &Graph, edges: &[EdgeId]) -> usize {
    if edges.is_empty() {
        return 0;
    }
    // Union-find over vertices touched by the edge set.
    let mut parent: Vec<usize> = (0..g.order()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut edge_count = vec![0usize; g.order()];
    for &e in edges {
        let edge = g.edge(e);
        let a = find(&mut parent, edge.u.index());
        let b = find(&mut parent, edge.v.index());
        if a == b {
            edge_count[a] += 1;
        } else {
            // Union by arbitrary orientation; accumulate edge counts at root.
            parent[a] = b;
            edge_count[b] += edge_count[a] + 1;
            edge_count[a] = 0;
        }
    }
    (0..g.order())
        .filter(|&v| find(&mut parent, v) == v)
        .map(|v| edge_count[v])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::label::Vocabulary;

    fn two_triangles() -> Graph {
        let mut v = Vocabulary::new();
        GraphBuilder::new("tt", &mut v)
            .vertices(&["a", "b", "c", "x", "y", "z"], "C")
            .cycle(&["a", "b", "c"], "-")
            .cycle(&["x", "y", "z"], "-")
            .build()
            .unwrap()
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = two_triangles();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 3);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connectivity_edge_cases() {
        let mut v = Vocabulary::new();
        let empty = GraphBuilder::new("e", &mut v).build().unwrap();
        assert!(is_connected(&empty));
        let single = GraphBuilder::new("s", &mut v)
            .vertex("a", "A")
            .build()
            .unwrap();
        assert!(is_connected(&single));
        let pair = GraphBuilder::new("p", &mut v)
            .vertices(&["a", "b"], "A")
            .build()
            .unwrap();
        assert!(!is_connected(&pair));
    }

    #[test]
    fn largest_edge_component_counts_edges_not_vertices() {
        let g = two_triangles();
        let all: Vec<_> = g.edges().collect();
        // Both triangles have 3 edges; max connected edge component = 3.
        assert_eq!(largest_connected_edge_component(&g, &all), 3);
        // One triangle + a single edge of the other: max stays 3.
        assert_eq!(largest_connected_edge_component(&g, &all[..4]), 3);
        // Two edges of the first triangle only.
        assert_eq!(largest_connected_edge_component(&g, &all[..2]), 2);
        assert_eq!(largest_connected_edge_component(&g, &[]), 0);
    }

    #[test]
    fn largest_edge_component_with_internal_cycle_edges() {
        // Square with diagonal: component edge counting must include edges
        // that close cycles (union finds them in the same set already).
        let mut v = Vocabulary::new();
        let g = GraphBuilder::new("sq", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .cycle(&["a", "b", "c", "d"], "-")
            .edge("a", "c", "-")
            .build()
            .unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(largest_connected_edge_component(&g, &all), 5);
    }
}
