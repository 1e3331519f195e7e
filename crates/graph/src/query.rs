//! Temporal query graphs (Definition II.2).
//!
//! A query graph is a connected, simple, vertex-labelled graph over at most
//! 64 vertices/edges, an optional direction and label on each edge (the
//! paper's §II extension, needed for the Netflow workload), and a strict
//! partial order `≺` on its edges.

use crate::bitset::Set64;
use crate::error::GraphError;
use crate::order::TemporalOrder;
use crate::{EdgeLabel, Label, EDGE_LABEL_ANY};
use serde::{Deserialize, Serialize};

/// Index of a query vertex (`u` in the paper).
pub type QVertexId = usize;
/// Index of a query edge (`ε` in the paper).
pub type QEdgeId = usize;

/// Hard upper bound on query vertices *and* edges.
///
/// Downstream hot-path structures bake this limit into their layout —
/// `Set64` edge/vertex sets, the filter's `rank_tbl[u · MAX_QUERY_DIM + e]`
/// lookup table, and the one-word `pending_pos: u64` worklist bitmask —
/// so exceeding it is a *typed* construction-time error
/// ([`GraphError::QueryTooLarge`]) here at the only gate through which
/// queries enter the system (builders, parsers, and the network daemon all
/// construct through [`QueryGraph::new`]), never a silent truncation or a
/// downstream panic.
pub const MAX_QUERY_DIM: usize = 64;

/// Direction requirement of a query edge with respect to its `(a, b)`
/// endpoint order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Matches data edges in either direction (undirected semantics, §II).
    Undirected,
    /// Matches only data edges directed from the image of `a` to the image
    /// of `b`.
    AToB,
}

/// One query edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryEdge {
    /// First endpoint.
    pub a: QVertexId,
    /// Second endpoint.
    pub b: QVertexId,
    /// Direction requirement relative to `(a, b)`.
    pub direction: Direction,
    /// Required edge label ([`EDGE_LABEL_ANY`] = unconstrained).
    pub label: EdgeLabel,
}

impl QueryEdge {
    /// Given one endpoint, returns the opposite one.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, v: QVertexId) -> QVertexId {
        if v == self.a {
            self.b
        } else {
            debug_assert_eq!(v, self.b);
            self.a
        }
    }
}

/// A temporal query graph `q = (V, E, L_q, ≺)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryGraph {
    labels: Vec<Label>,
    edges: Vec<QueryEdge>,
    order: TemporalOrder,
    /// Per-vertex incident edges: `(edge id, other endpoint)`.
    adj: Vec<Vec<(QEdgeId, QVertexId)>>,
    /// Per-vertex incident-edge set as a bitmask.
    incident: Vec<Set64>,
    /// Per-edge endpoint set `{a, b}` as a bitmask.
    endpoints: Vec<Set64>,
}

impl QueryGraph {
    /// Validates and builds a query graph. See [`QueryGraphBuilder`] for an
    /// incremental interface.
    pub fn new(
        labels: Vec<Label>,
        edges: Vec<QueryEdge>,
        order: TemporalOrder,
    ) -> Result<QueryGraph, GraphError> {
        let n = labels.len();
        if n > MAX_QUERY_DIM {
            return Err(GraphError::QueryTooLarge("vertices", n));
        }
        if edges.len() > MAX_QUERY_DIM {
            return Err(GraphError::QueryTooLarge("edges", edges.len()));
        }
        if order.num_edges() != edges.len() {
            return Err(GraphError::UnknownEdge(order.num_edges()));
        }
        let mut seen_pairs = crate::fx::FxHashSet::default();
        for e in &edges {
            if e.a >= n {
                return Err(GraphError::UnknownVertex(e.a as u32));
            }
            if e.b >= n {
                return Err(GraphError::UnknownVertex(e.b as u32));
            }
            if e.a == e.b {
                return Err(GraphError::SelfLoop(e.a as u32));
            }
            let key = (e.a.min(e.b), e.a.max(e.b));
            if !seen_pairs.insert(key) {
                return Err(GraphError::DuplicateQueryEdge(key.0 as u32, key.1 as u32));
            }
        }
        let mut adj = vec![Vec::new(); n];
        let mut incident = vec![Set64::EMPTY; n];
        for (i, e) in edges.iter().enumerate() {
            adj[e.a].push((i, e.b));
            adj[e.b].push((i, e.a));
            incident[e.a].insert(i);
            incident[e.b].insert(i);
        }
        let endpoints = edges
            .iter()
            .map(|e| Set64::singleton(e.a).union(Set64::singleton(e.b)))
            .collect();
        let q = QueryGraph {
            labels,
            edges,
            order,
            adj,
            incident,
            endpoints,
        };
        if q.num_vertices() > 0 && !q.is_connected() {
            return Err(GraphError::DisconnectedQuery);
        }
        Ok(q)
    }

    fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(_, w) in &self.adj[u] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Number of query vertices `|V(q)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of query edges `|E(q)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Label of vertex `u`.
    #[inline]
    pub fn label(&self, u: QVertexId) -> Label {
        self.labels[u]
    }

    /// Edge by id.
    #[inline]
    pub fn edge(&self, e: QEdgeId) -> &QueryEdge {
        &self.edges[e]
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// The temporal order `≺`.
    #[inline]
    pub fn order(&self) -> &TemporalOrder {
        &self.order
    }

    /// Incident edges of `u` as `(edge id, other endpoint)` pairs.
    #[inline]
    pub fn incident_edges(&self, u: QVertexId) -> &[(QEdgeId, QVertexId)] {
        &self.adj[u]
    }

    /// Incident edge ids of `u` as a bitmask.
    #[inline]
    pub fn incident_set(&self, u: QVertexId) -> Set64 {
        self.incident[u]
    }

    /// The two endpoints of edge `e` as a bitmask over query vertices.
    #[inline]
    pub fn endpoint_set(&self, e: QEdgeId) -> Set64 {
        self.endpoints[e]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: QVertexId) -> usize {
        self.adj[u].len()
    }

    /// Edge id between `a` and `b` if one exists (in either endpoint order).
    pub fn edge_between(&self, a: QVertexId, b: QVertexId) -> Option<QEdgeId> {
        self.adj[a].iter().find(|&&(_, w)| w == b).map(|&(e, _)| e)
    }
}

/// Convenience builder used by examples, tests and the query generator.
#[derive(Default, Clone, Debug)]
pub struct QueryGraphBuilder {
    labels: Vec<Label>,
    edges: Vec<QueryEdge>,
    pairs: Vec<(usize, usize)>,
}

impl QueryGraphBuilder {
    /// New empty builder.
    pub fn new() -> QueryGraphBuilder {
        QueryGraphBuilder::default()
    }

    /// Adds a vertex with the given label; returns its id.
    pub fn vertex(&mut self, label: Label) -> QVertexId {
        self.labels.push(label);
        self.labels.len() - 1
    }

    /// Adds an undirected, unlabelled edge; returns its id.
    pub fn edge(&mut self, a: QVertexId, b: QVertexId) -> QEdgeId {
        self.edge_full(a, b, Direction::Undirected, EDGE_LABEL_ANY)
    }

    /// Adds an edge with explicit direction and label; returns its id.
    pub fn edge_full(
        &mut self,
        a: QVertexId,
        b: QVertexId,
        direction: Direction,
        label: EdgeLabel,
    ) -> QEdgeId {
        self.edges.push(QueryEdge {
            a,
            b,
            direction,
            label,
        });
        self.edges.len() - 1
    }

    /// Declares `a ≺ b` (transitively closed at build time).
    pub fn precede(&mut self, a: QEdgeId, b: QEdgeId) -> &mut Self {
        self.pairs.push((a, b));
        self
    }

    /// Validates and builds the query graph.
    pub fn build(self) -> Result<QueryGraph, GraphError> {
        let order = TemporalOrder::new(self.edges.len(), &self.pairs)?;
        QueryGraph::new(self.labels, self.edges, order)
    }
}

/// Builds the running-example query of the paper (Figure 2c):
/// five vertices `u1..u5` with distinct labels (the figure's colours), six
/// edges `ε1..ε6` (0-indexed here), and the temporal constraints used
/// throughout §IV's examples.
pub fn paper_running_example() -> QueryGraph {
    let mut b = QueryGraphBuilder::new();
    let u1 = b.vertex(0);
    let u2 = b.vertex(1);
    let u3 = b.vertex(2);
    let u4 = b.vertex(3);
    let u5 = b.vertex(4);
    let e1 = b.edge(u1, u2); // ε1
    let e2 = b.edge(u1, u3); // ε2
    let e3 = b.edge(u2, u4); // ε3
    let e4 = b.edge(u3, u4); // ε4
    let e5 = b.edge(u4, u5); // ε5
    let e6 = b.edge(u3, u5); // ε6
    b.precede(e1, e3)
        .precede(e1, e5)
        .precede(e2, e4)
        .precede(e2, e5)
        .precede(e2, e6)
        .precede(e4, e6);
    b.build().expect("running example is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = QueryGraphBuilder::new();
        let v0 = b.vertex(7);
        let v1 = b.vertex(8);
        let v2 = b.vertex(7);
        let e0 = b.edge(v0, v1);
        let e1 = b.edge(v1, v2);
        b.precede(e0, e1);
        let q = b.build().unwrap();
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 2);
        assert_eq!(q.label(v2), 7);
        assert!(q.order().precedes(e0, e1));
        assert_eq!(q.edge_between(v1, v0), Some(e0));
        assert_eq!(q.edge_between(v0, v2), None);
        assert_eq!(q.degree(v1), 2);
        assert_eq!(q.incident_set(v1).len(), 2);
    }

    #[test]
    fn rejects_self_loop_duplicate_disconnected() {
        let mut b = QueryGraphBuilder::new();
        let v0 = b.vertex(0);
        b.edge(v0, v0);
        assert!(matches!(b.build().unwrap_err(), GraphError::SelfLoop(_)));

        let mut b = QueryGraphBuilder::new();
        let v0 = b.vertex(0);
        let v1 = b.vertex(0);
        b.edge(v0, v1);
        b.edge(v1, v0);
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::DuplicateQueryEdge(_, _)
        ));

        let mut b = QueryGraphBuilder::new();
        let v0 = b.vertex(0);
        let v1 = b.vertex(0);
        let _v2 = b.vertex(0);
        b.edge(v0, v1);
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::DisconnectedQuery
        ));
    }

    #[test]
    fn rejects_oversized_queries_with_typed_error() {
        // 65 vertices on a path: exceeds MAX_QUERY_DIM on the vertex axis.
        let mut b = QueryGraphBuilder::new();
        let vs: Vec<_> = (0..MAX_QUERY_DIM + 1).map(|_| b.vertex(0)).collect();
        for w in vs.windows(2) {
            b.edge(w[0], w[1]);
        }
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::QueryTooLarge("vertices", n) if n == MAX_QUERY_DIM + 1
        ));

        // 33 vertices arranged so the edge count (65) exceeds the limit
        // while the vertex count does not: a path plus chords.
        let mut b = QueryGraphBuilder::new();
        let vs: Vec<_> = (0..33).map(|_| b.vertex(0)).collect();
        for w in vs.windows(2) {
            b.edge(w[0], w[1]); // 32 path edges
        }
        for i in 0..31 {
            b.edge(vs[i], vs[i + 2]); // 31 chords
        }
        b.edge(vs[0], vs[3]);
        b.edge(vs[0], vs[4]); // total 65 edges
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::QueryTooLarge("edges", m) if m == MAX_QUERY_DIM + 1
        ));

        // Exactly MAX_QUERY_DIM vertices is accepted.
        let mut b = QueryGraphBuilder::new();
        let vs: Vec<_> = (0..MAX_QUERY_DIM).map(|_| b.vertex(0)).collect();
        for w in vs.windows(2) {
            b.edge(w[0], w[1]);
        }
        let q = b.build().unwrap();
        assert_eq!(q.num_vertices(), MAX_QUERY_DIM);
    }

    #[test]
    fn running_example_shape() {
        let q = paper_running_example();
        assert_eq!(q.num_vertices(), 5);
        assert_eq!(q.num_edges(), 6);
        // ε2 ≺ ε6 directly and ε2 ≺ ε6 via ε4 as well; closure keeps 6+... pairs
        assert!(q.order().precedes(1, 5));
        assert!(q.order().precedes(1, 3));
        assert!(!q.order().related(0, 1));
        // Density 0.5 in the paper's terms is approximate; just sanity-check.
        assert!(q.order().num_pairs() >= 6);
    }

    #[test]
    fn other_endpoint() {
        let e = QueryEdge {
            a: 3,
            b: 5,
            direction: Direction::Undirected,
            label: EDGE_LABEL_ANY,
        };
        assert_eq!(e.other(3), 5);
        assert_eq!(e.other(5), 3);
    }
}
