//! Fluent construction of labeled graphs from string names and labels.

use std::collections::HashMap;

use crate::error::GraphError;
use crate::graph::{Graph, VertexId};
use crate::label::Vocabulary;

/// A fluent builder that assembles a [`Graph`] from *named* vertices and
/// string labels, interning labels into a shared [`Vocabulary`].
///
/// Errors (duplicate names, unknown endpoints, self-loops, parallel edges)
/// are accumulated and reported by [`GraphBuilder::build`], which keeps the
/// fluent chain tidy.
///
/// ```
/// use gss_graph::{GraphBuilder, Vocabulary};
///
/// let mut vocab = Vocabulary::new();
/// let g = GraphBuilder::new("q", &mut vocab)
///     .vertex("a", "A")
///     .vertex("b", "B")
///     .edge("a", "b", "-")
///     .build()
///     .unwrap();
/// assert_eq!(g.order(), 2);
/// assert_eq!(g.size(), 1);
/// ```
pub struct GraphBuilder<'v> {
    graph: Graph,
    vocab: &'v mut Vocabulary,
    names: HashMap<String, VertexId>,
    first_error: Option<GraphError>,
}

impl<'v> GraphBuilder<'v> {
    /// Starts building a graph called `name`, interning labels in `vocab`.
    pub fn new(name: impl Into<String>, vocab: &'v mut Vocabulary) -> Self {
        GraphBuilder {
            graph: Graph::new(name),
            vocab,
            names: HashMap::new(),
            first_error: None,
        }
    }

    /// Declares a vertex called `name` with `label`.
    pub fn vertex(mut self, name: &str, label: &str) -> Self {
        if self.first_error.is_some() {
            return self;
        }
        if self.names.contains_key(name) {
            self.first_error = Some(GraphError::DuplicateVertexName {
                name: name.to_owned(),
            });
            return self;
        }
        let l = self.vocab.intern(label);
        let id = self.graph.add_vertex(l);
        self.names.insert(name.to_owned(), id);
        self
    }

    /// Declares several vertices sharing one label.
    pub fn vertices(mut self, names: &[&str], label: &str) -> Self {
        for n in names {
            self = self.vertex(n, label);
        }
        self
    }

    /// Declares an edge between the named endpoints with `label`.
    pub fn edge(mut self, u: &str, v: &str, label: &str) -> Self {
        if self.first_error.is_some() {
            return self;
        }
        let Some(&ui) = self.names.get(u) else {
            self.first_error = Some(GraphError::UnknownVertexName { name: u.to_owned() });
            return self;
        };
        let Some(&vi) = self.names.get(v) else {
            self.first_error = Some(GraphError::UnknownVertexName { name: v.to_owned() });
            return self;
        };
        let l = self.vocab.intern(label);
        if let Err(e) = self.graph.add_edge(ui, vi, l) {
            self.first_error = Some(e);
        }
        self
    }

    /// Declares a chain of `-`-separated edges all carrying `label`:
    /// `path(&["a","b","c"], "-")` adds edges a–b and b–c.
    pub fn path(mut self, names: &[&str], label: &str) -> Self {
        for w in names.windows(2) {
            self = self.edge(w[0], w[1], label);
        }
        self
    }

    /// Declares a closed cycle through `names` (requires ≥ 3 names).
    pub fn cycle(mut self, names: &[&str], label: &str) -> Self {
        self = self.path(names, label);
        if names.len() >= 3 {
            self = self.edge(names[names.len() - 1], names[0], label);
        }
        self
    }

    /// Finishes construction, returning the graph or the first error hit.
    pub fn build(self) -> Result<Graph, GraphError> {
        match self.first_error {
            Some(e) => Err(e),
            None => Ok(self.graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_cycle_with_pendant() {
        // The paper's reconstructed query graph shape: 5-cycle + pendant.
        let mut vocab = Vocabulary::new();
        let g = GraphBuilder::new("q", &mut vocab)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .vertex("d", "D")
            .vertex("e", "E")
            .vertex("f", "F")
            .cycle(&["a", "b", "c", "d", "e"], "-")
            .edge("a", "f", "-")
            .build()
            .unwrap();
        assert_eq!(g.order(), 6);
        assert_eq!(g.size(), 6);
    }

    #[test]
    fn duplicate_vertex_name_fails() {
        let mut vocab = Vocabulary::new();
        let err = GraphBuilder::new("g", &mut vocab)
            .vertex("a", "A")
            .vertex("a", "B")
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateVertexName { name: "a".into() });
    }

    #[test]
    fn unknown_endpoint_fails() {
        let mut vocab = Vocabulary::new();
        let err = GraphBuilder::new("g", &mut vocab)
            .vertex("a", "A")
            .edge("a", "zz", "-")
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownVertexName { name: "zz".into() });
    }

    #[test]
    fn error_is_sticky_and_first_wins() {
        let mut vocab = Vocabulary::new();
        let err = GraphBuilder::new("g", &mut vocab)
            .edge("x", "y", "-") // unknown x — first error
            .vertex("x", "A")
            .vertex("x", "A") // would be a duplicate, but builder already failed
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownVertexName { name: "x".into() });
    }

    #[test]
    fn vertices_and_path_helpers() {
        let mut vocab = Vocabulary::new();
        let g = GraphBuilder::new("p", &mut vocab)
            .vertices(&["x", "y", "z"], "C")
            .path(&["x", "y", "z"], "-")
            .build()
            .unwrap();
        assert_eq!(g.order(), 3);
        assert_eq!(g.size(), 2);
    }

    #[test]
    fn cycle_of_two_does_not_duplicate() {
        let mut vocab = Vocabulary::new();
        // A "cycle" of 2 would need a parallel edge; builder only closes
        // cycles of length >= 3, so this stays a single edge.
        let g = GraphBuilder::new("c2", &mut vocab)
            .vertices(&["x", "y"], "C")
            .cycle(&["x", "y"], "-")
            .build()
            .unwrap();
        assert_eq!(g.size(), 1);
    }
}
