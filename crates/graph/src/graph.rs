//! The core labeled, undirected, simple graph type.

use crate::error::GraphError;
use crate::label::Label;

/// Dense vertex identifier, assigned in insertion order.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The id as a `usize`, suitable for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `VertexId` from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        VertexId(index as u32)
    }
}

/// Dense edge identifier, assigned in insertion order.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize`, suitable for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an `EdgeId` from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(index as u32)
    }
}

/// A labeled vertex.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Vertex {
    /// The vertex label (interned).
    pub label: Label,
}

/// A labeled undirected edge between `u` and `v`.
///
/// Endpoints are stored in insertion order but the edge is undirected;
/// use [`Edge::other`] to walk across it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// First endpoint (as inserted).
    pub u: VertexId,
    /// Second endpoint (as inserted).
    pub v: VertexId,
    /// The edge label (interned).
    pub label: Label,
}

impl Edge {
    /// Given one endpoint, returns the opposite one.
    ///
    /// # Panics
    /// Panics if `w` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, w: VertexId) -> VertexId {
        if w == self.u {
            self.v
        } else if w == self.v {
            self.u
        } else {
            panic!("vertex {w:?} is not an endpoint of edge {self:?}");
        }
    }

    /// Endpoints with the smaller id first — a canonical undirected key.
    #[inline]
    pub fn key(&self) -> (VertexId, VertexId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// An undirected simple graph with labeled vertices and labeled edges
/// (Definition 3 of the paper).
///
/// The graph keeps an adjacency list for O(degree) neighborhood scans and an
/// (implicit) edge set for O(degree) `edge_between` lookups — graphs in this
/// domain are small and sparse, so no hash index is kept per graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    name: String,
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    /// `adj[v]` lists `(neighbor, edge)` pairs.
    adj: Vec<Vec<(VertexId, EdgeId)>>,
    /// Per-row capacity hint for new `adj` rows — the expected average
    /// degree, derived from the `size` passed to [`Graph::with_capacity`].
    /// 0 (the `new`/`Default` value) means "no hint, allocate lazily".
    adj_hint: usize,
}

impl Graph {
    /// Creates an empty graph with a display `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            vertices: Vec::new(),
            edges: Vec::new(),
            adj: Vec::new(),
            adj_hint: 0,
        }
    }

    /// Creates an empty graph pre-allocating room for `order` vertices and
    /// `size` edges.
    ///
    /// Besides pre-sizing the vertex/edge/adjacency spines, the expected
    /// average degree (`⌈2·size / order⌉`) is remembered and every
    /// adjacency row created by [`Graph::add_vertex`] is pre-sized to it,
    /// so bulk construction (corpus load, arena materialization) stops
    /// reallocating per-row as edges stream in.
    pub fn with_capacity(name: impl Into<String>, order: usize, size: usize) -> Self {
        Graph {
            name: name.into(),
            vertices: Vec::with_capacity(order),
            edges: Vec::with_capacity(size),
            adj: Vec::with_capacity(order),
            adj_hint: if order > 0 {
                (2 * size).div_ceil(order)
            } else {
                0
            },
        }
    }

    /// The graph's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of vertices, `|V(g)|`.
    #[inline]
    pub fn order(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges — the paper's `|g|` (Definition 3).
    #[inline]
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Adds a vertex and returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::new(self.vertices.len());
        self.vertices.push(Vertex { label });
        // `with_capacity(0)` does not allocate, so the no-hint path stays
        // exactly as lazy as `Vec::new()`.
        self.adj.push(Vec::with_capacity(self.adj_hint));
        id
    }

    /// Adds an undirected edge `{u, v}` with `label`.
    ///
    /// Rejects out-of-range endpoints, self-loops and duplicate edges.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: Label,
    ) -> Result<EdgeId, GraphError> {
        let order = self.order();
        if u.index() >= order {
            return Err(GraphError::InvalidVertex {
                index: u.index(),
                order,
            });
        }
        if v.index() >= order {
            return Err(GraphError::InvalidVertex {
                index: v.index(),
                order,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u.index() });
        }
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::DuplicateEdge {
                u: u.index(),
                v: v.index(),
            });
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { u, v, label });
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        Ok(id)
    }

    /// The vertex behind `v`.
    ///
    /// # Panics
    /// Panics on out-of-range ids (ids are dense; this indicates a logic bug).
    #[inline]
    pub fn vertex(&self, v: VertexId) -> &Vertex {
        &self.vertices[v.index()]
    }

    /// The edge behind `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// The label of vertex `v`.
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> Label {
        self.vertices[v.index()].label
    }

    /// The label of edge `e`.
    #[inline]
    pub fn edge_label(&self, e: EdgeId) -> Label {
        self.edges[e.index()].label
    }

    /// Relabels vertex `v` in place (used by perturbation workloads).
    pub fn relabel_vertex(&mut self, v: VertexId, label: Label) -> Result<(), GraphError> {
        let order = self.order();
        self.vertices
            .get_mut(v.index())
            .map(|vert| vert.label = label)
            .ok_or(GraphError::InvalidVertex {
                index: v.index(),
                order,
            })
    }

    /// Relabels edge `e` in place (used by perturbation workloads).
    pub fn relabel_edge(&mut self, e: EdgeId, label: Label) -> Result<(), GraphError> {
        let size = self.size();
        self.edges
            .get_mut(e.index())
            .map(|edge| edge.label = label)
            .ok_or(GraphError::InvalidEdge {
                index: e.index(),
                size,
            })
    }

    /// Iterates over all vertex ids in order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len()).map(VertexId::new)
    }

    /// Iterates over all edge ids in order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// Iterates over `(neighbor, edge)` pairs of `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// The edge between `u` and `v` if present (either orientation).
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u.index() >= self.order() || v.index() >= self.order() {
            return None;
        }
        // Scan the smaller adjacency list.
        let (base, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[base.index()]
            .iter()
            .find(|(n, _)| *n == target)
            .map(|(_, e)| *e)
    }

    /// True when `{u, v}` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Returns a copy of this graph without the given edges.
    ///
    /// Vertex ids are preserved; edge ids are re-densified. This is the
    /// building block of edit-perturbation workloads (removal is rare enough
    /// that an O(n+m) rebuild keeps the main type simple).
    pub fn without_edges(&self, remove: &[EdgeId]) -> Graph {
        let mut g = Graph::with_capacity(self.name.clone(), self.order(), self.size());
        for v in &self.vertices {
            g.add_vertex(v.label);
        }
        for (i, e) in self.edges.iter().enumerate() {
            if !remove.contains(&EdgeId::new(i)) {
                g.add_edge(e.u, e.v, e.label)
                    .expect("rebuild of a valid graph cannot fail");
            }
        }
        g
    }

    /// Returns the subgraph consisting of exactly the given edges and
    /// **only their endpoint vertices** (vertex ids are re-densified in
    /// first-occurrence order).
    ///
    /// This is the literal "subgraph" of the paper's Definition 7: a set of
    /// selected vertices plus selected edges among them, with no isolated
    /// leftovers.
    pub fn edge_induced_subgraph(&self, keep: &[EdgeId]) -> Graph {
        let mut remap: Vec<Option<VertexId>> = vec![None; self.order()];
        let mut g =
            Graph::with_capacity(format!("{}[edges]", self.name), keep.len() + 1, keep.len());
        let map_vertex =
            |remap: &mut Vec<Option<VertexId>>, g: &mut Graph, v: VertexId, label: Label| {
                if let Some(id) = remap[v.index()] {
                    id
                } else {
                    let id = g.add_vertex(label);
                    remap[v.index()] = Some(id);
                    id
                }
            };
        for &eid in keep {
            let e = *self.edge(eid);
            let u = map_vertex(&mut remap, &mut g, e.u, self.vertex_label(e.u));
            let v = map_vertex(&mut remap, &mut g, e.v, self.vertex_label(e.v));
            g.add_edge(u, v, e.label)
                .expect("edge subset of a valid graph cannot clash");
        }
        g
    }
}

/// A dense `order × order` edge-id table for `O(1)` [`Graph::edge_between`]
/// answers.
///
/// The adjacency-list scan behind `edge_between` is the single most
/// frequent operation in the exact solvers' inner loops (every candidate
/// evaluation probes several vertex pairs); a solver builds one `EdgeLookup`
/// per input graph in `O(|V|² + |E|)` and turns each probe into one array
/// read. Quadratic memory, intended for the small graphs of this domain.
#[derive(Clone, Debug)]
pub struct EdgeLookup {
    n: usize,
    /// `cells[u * n + v]` is `edge id + 1`, or 0 for "no edge".
    cells: Vec<u32>,
}

impl EdgeLookup {
    /// Builds the table for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.order();
        let mut cells = vec![0u32; n * n];
        for e in g.edges() {
            let edge = g.edge(e);
            let id = e.0 + 1;
            cells[edge.u.index() * n + edge.v.index()] = id;
            cells[edge.v.index() * n + edge.u.index()] = id;
        }
        EdgeLookup { n, cells }
    }

    /// The edge between `u` and `v`, if present — identical answers to
    /// [`Graph::edge_between`] in `O(1)`.
    #[inline]
    pub fn get(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let cell = self.cells[u.index() * self.n + v.index()];
        (cell != 0).then(|| EdgeId(cell - 1))
    }

    /// True when `{u, v}` is an edge.
    #[inline]
    pub fn has(&self, u: VertexId, v: VertexId) -> bool {
        self.cells[u.index() * self.n + v.index()] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Vocabulary;

    fn labels() -> (Vocabulary, Label, Label, Label) {
        let mut v = Vocabulary::new();
        let a = v.intern("A");
        let b = v.intern("B");
        let bond = v.intern("-");
        (v, a, b, bond)
    }

    #[test]
    fn build_path_graph() {
        let (_v, a, b, bond) = labels();
        let mut g = Graph::new("path");
        let v0 = g.add_vertex(a);
        let v1 = g.add_vertex(b);
        let v2 = g.add_vertex(a);
        g.add_edge(v0, v1, bond).unwrap();
        g.add_edge(v1, v2, bond).unwrap();
        assert_eq!(g.order(), 3);
        assert_eq!(g.size(), 2);
        assert_eq!(g.degree(v1), 2);
        assert_eq!(g.degree(v0), 1);
        assert!(g.has_edge(v1, v0));
        assert!(!g.has_edge(v0, v2));
        assert_eq!(g.vertices().map(|v| g.degree(v)).sum::<usize>(), 4);
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let (_v, a, _b, bond) = labels();
        let mut g = Graph::new("g");
        let v0 = g.add_vertex(a);
        let v1 = g.add_vertex(a);
        assert_eq!(
            g.add_edge(v0, v0, bond),
            Err(GraphError::SelfLoop { vertex: 0 })
        );
        g.add_edge(v0, v1, bond).unwrap();
        assert_eq!(
            g.add_edge(v1, v0, bond),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
        assert_eq!(
            g.add_edge(v0, VertexId::new(9), bond),
            Err(GraphError::InvalidVertex { index: 9, order: 2 })
        );
    }

    #[test]
    fn edge_other_and_key() {
        let (_v, a, b, bond) = labels();
        let mut g = Graph::new("g");
        let v0 = g.add_vertex(a);
        let v1 = g.add_vertex(b);
        let e = g.add_edge(v1, v0, bond).unwrap();
        let edge = g.edge(e);
        assert_eq!(edge.other(v0), v1);
        assert_eq!(edge.other(v1), v0);
        assert_eq!(edge.key(), (v0, v1));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let (_v, a, _b, bond) = labels();
        let mut g = Graph::new("g");
        let v0 = g.add_vertex(a);
        let v1 = g.add_vertex(a);
        let v2 = g.add_vertex(a);
        let e = g.add_edge(v0, v1, bond).unwrap();
        let _ = g.edge(e).other(v2);
    }

    #[test]
    fn relabeling() {
        let (mut voc, a, b, bond) = labels();
        let dbl = voc.intern("=");
        let mut g = Graph::new("g");
        let v0 = g.add_vertex(a);
        let v1 = g.add_vertex(a);
        let e = g.add_edge(v0, v1, bond).unwrap();
        g.relabel_vertex(v1, b).unwrap();
        g.relabel_edge(e, dbl).unwrap();
        assert_eq!(g.vertex_label(v1), b);
        assert_eq!(g.edge_label(e), dbl);
        assert!(g.relabel_vertex(VertexId::new(5), a).is_err());
        assert!(g.relabel_edge(EdgeId::new(5), bond).is_err());
    }

    #[test]
    fn without_edges_rebuilds_densely() {
        let (_v, a, _b, bond) = labels();
        let mut g = Graph::new("g");
        let vs: Vec<_> = (0..4).map(|_| g.add_vertex(a)).collect();
        let e01 = g.add_edge(vs[0], vs[1], bond).unwrap();
        let _e12 = g.add_edge(vs[1], vs[2], bond).unwrap();
        let _e23 = g.add_edge(vs[2], vs[3], bond).unwrap();
        let h = g.without_edges(&[e01]);
        assert_eq!(h.order(), 4);
        assert_eq!(h.size(), 2);
        assert!(!h.has_edge(vs[0], vs[1]));
        assert!(h.has_edge(vs[1], vs[2]));
        // ids re-densified
        assert_eq!(h.edges().count(), 2);
    }

    #[test]
    fn edge_induced_subgraph_drops_isolated_vertices() {
        let (_v, a, b, bond) = labels();
        let mut g = Graph::new("g");
        let vs: Vec<_> = (0..4)
            .map(|i| g.add_vertex(if i == 0 { a } else { b }))
            .collect();
        let e0 = g.add_edge(vs[0], vs[1], bond).unwrap();
        let _e1 = g.add_edge(vs[1], vs[2], bond).unwrap();
        let _e2 = g.add_edge(vs[2], vs[3], bond).unwrap();
        let s = g.edge_induced_subgraph(&[e0]);
        assert_eq!(s.order(), 2, "only the two endpoints survive");
        assert_eq!(s.size(), 1);
        assert_eq!(s.vertex_label(VertexId::new(0)), a);
        assert_eq!(s.vertex_label(VertexId::new(1)), b);
        // Empty selection → empty graph.
        let empty = g.edge_induced_subgraph(&[]);
        assert_eq!(empty.order(), 0);
        assert_eq!(empty.size(), 0);
    }

    #[test]
    fn edge_lookup_matches_edge_between() {
        let (_v, a, b, bond) = labels();
        let mut g = Graph::new("g");
        let vs: Vec<_> = (0..5)
            .map(|i| g.add_vertex(if i % 2 == 0 { a } else { b }))
            .collect();
        g.add_edge(vs[0], vs[1], bond).unwrap();
        g.add_edge(vs[1], vs[2], bond).unwrap();
        g.add_edge(vs[4], vs[0], bond).unwrap();
        let lut = EdgeLookup::new(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(lut.get(u, v), g.edge_between(u, v), "{u:?}-{v:?}");
                assert_eq!(lut.has(u, v), g.has_edge(u, v));
            }
        }
        // Empty graph.
        let empty = Graph::new("e");
        let _ = EdgeLookup::new(&empty);
    }

    #[test]
    fn with_capacity_and_names() {
        let mut g = Graph::with_capacity("n", 10, 20);
        assert_eq!(g.name(), "n");
        g.set_name("m");
        assert_eq!(g.name(), "m");
        assert!(g.is_empty());
    }
}
