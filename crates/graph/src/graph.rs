//! Undirected simple graph with dynamic edge removal.
//!
//! Node ids are dense `u32`s (the matching pipeline interns record ids before
//! building the graph). Adjacency is a `Vec` of hash sets: edge insertion,
//! removal, and membership are O(1), neighbor iteration is O(degree), and
//! memory stays proportional to the number of edges — the prediction graphs
//! of Table 4 reach ~1M edges.

use gralmatch_util::FxHashSet;

/// Dense node identifier.
pub type NodeId = u32;

/// An undirected edge, always stored with `a <= b` by [`Edge::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Create a canonical (sorted) edge. `a == b` self-loops are not allowed.
    #[inline]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        debug_assert_ne!(a, b, "self-loop");
        if a <= b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }

    /// The endpoint that is not `n`. Panics in debug builds if `n` is not an
    /// endpoint.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        debug_assert!(n == self.a || n == self.b);
        if n == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// Undirected simple graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<FxHashSet<NodeId>>,
    num_edges: usize,
}

impl Graph {
    /// Empty graph with no nodes.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Graph with `n` isolated nodes `0..n`.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adj: vec![FxHashSet::default(); n],
            num_edges: 0,
        }
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Node slots allocated (at least [`num_nodes`](Graph::num_nodes)).
    /// Growing the node range past it reallocates every slot.
    #[inline]
    pub fn node_capacity(&self) -> usize {
        self.adj.capacity()
    }

    /// Ensure node `id` exists (extends the node range).
    pub fn ensure_node(&mut self, id: NodeId) {
        if (id as usize) >= self.adj.len() {
            self.adj.resize_with(id as usize + 1, FxHashSet::default);
        }
    }

    /// Add an undirected edge, creating nodes as needed.
    /// Returns `true` if the edge was newly inserted.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert_ne!(a, b, "self-loops are not representable");
        self.ensure_node(a.max(b));
        let inserted = self.adj[a as usize].insert(b);
        if inserted {
            self.adj[b as usize].insert(a);
            self.num_edges += 1;
        }
        inserted
    }

    /// Remove an edge if present. Returns `true` if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if (a as usize) >= self.adj.len() || (b as usize) >= self.adj.len() {
            return false;
        }
        let removed = self.adj[a as usize].remove(&b);
        if removed {
            self.adj[b as usize].remove(&a);
            self.num_edges -= 1;
        }
        removed
    }

    /// Whether the edge `{a, b}` exists.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj.get(a as usize).is_some_and(|s| s.contains(&b))
    }

    /// Degree of a node (0 for out-of-range ids).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj.get(n as usize).map_or(0, |s| s.len())
    }

    /// Iterate the neighbors of `n`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj
            .get(n as usize)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Iterate all edges once (canonical orientation `a < b`).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, nbrs)| {
            let a = a as NodeId;
            nbrs.iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| Edge { a, b })
        })
    }

    /// Iterate all node ids, including isolated nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.adj.len() as NodeId
    }

    /// Remove a batch of edges; returns how many actually existed.
    pub fn remove_edges(&mut self, edges: &[Edge]) -> usize {
        edges.iter().filter(|e| self.remove_edge(e.a, e.b)).count()
    }

    /// Build a graph from an edge list.
    pub fn from_edges(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Graph::new();
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut g = Graph::new();
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge (reversed) rejected");
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let mut g = Graph::from_edges([(0, 1), (1, 2)]);
        assert!(g.remove_edge(1, 0));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.remove_edge(0, 1), "double-remove is a no-op");
    }

    #[test]
    fn degree_and_neighbors() {
        let g = Graph::from_edges([(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degree(99), 0);
        let mut nbrs: Vec<_> = g.neighbors(0).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 2, 3]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges([(0, 1), (1, 2), (2, 0)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort();
        assert_eq!(es, vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]);
    }

    #[test]
    fn isolated_nodes_counted() {
        let mut g = Graph::with_nodes(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        g.ensure_node(9);
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new();
        g.add_edge(3, 3);
    }

    #[test]
    fn edge_canonical_order() {
        let e = Edge::new(7, 2);
        assert_eq!((e.a, e.b), (2, 7));
        assert_eq!(e.other(2), 7);
        assert_eq!(e.other(7), 2);
    }

    #[test]
    fn remove_edges_batch() {
        let mut g = Graph::from_edges([(0, 1), (1, 2), (2, 3)]);
        let removed = g.remove_edges(&[Edge::new(0, 1), Edge::new(5, 6)]);
        assert_eq!(removed, 1);
        assert_eq!(g.num_edges(), 2);
    }
}
