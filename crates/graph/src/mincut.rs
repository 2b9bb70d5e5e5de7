//! Global minimum edge cut.
//!
//! The Graph Cleanup's first phase removes a *minimum edge cut* of the
//! largest component (paper Section 4.2, Algorithm 1 lines 3–6): the
//! smallest set of edges whose removal disconnects the component. False
//! positive pairwise predictions are usually the only link between two
//! densely connected groups, so the min cut is exactly those few edges.
//!
//! Two kernels; [`global_min_cut`] runs Stoer–Wagner on components of up to
//! [`SW_NODE_LIMIT`] nodes and the flow method above it:
//!
//! * **Stoer–Wagner** ([`stoer_wagner`]): exact global min cut by n − 1
//!   maximum-adjacency phases over sparse super-node adjacency lists, with
//!   an indexed max-heap picking the next node. A phase costs
//!   O((n + m) log n) and a merge touches only the merged nodes'
//!   neighbours, so a cut costs O(n (n + m) log n) time and O(n + m) memory
//!   (n nodes, m edges) — against the dense formulation's O(n³) time and
//!   O(n²) memory.
//! * **Flow-based** ([`global_min_cut_flow`]): fixes the highest-degree node
//!   as source and runs capped Dinic min s–t cuts to every other node on one
//!   reused network, stopping at the first cut of weight 1 (a bridge: no
//!   connected graph has a smaller one).
//!
//! Both return a minimum *weight*, but a component usually has several
//! minimum cuts and each kernel picks its own, so which edges Algorithm 1
//! removes is part of each kernel's contract. Stoer–Wagner's choice:
//!
//! * every phase starts from the smallest live super-node id;
//! * each step adds the node with the largest connection to the added set,
//!   the smallest id among equal connections;
//! * the last node of a phase merges into the one added before it, and the
//!   merged node keeps that earlier node's id;
//! * the earliest phase with the smallest cut-of-the-phase wins, and its side
//!   is the last node's members, reported as the smaller half (ties keep the
//!   last node's members).
//!
//! This is the decision sequence of the textbook dense O(n³) formulation;
//! the test suite keeps that dense kernel as the oracle and checks full
//! [`MinCut`] equality against it. Since the kernels pick different tied
//! cuts, [`SW_NODE_LIMIT`] chooses which cut a component gets, not only how
//! fast it is found.

use crate::components::Subgraph;
use crate::maxflow::Dinic;

/// Components of up to this many nodes are cut by [`stoer_wagner`], larger
/// ones by [`global_min_cut_flow`]. The two pick different cuts among tied
/// minima, so this constant decides which edges a cleanup removes.
pub const SW_NODE_LIMIT: usize = 256;

/// Result of a minimum-cut computation on a [`Subgraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCut {
    /// Number of edges crossing the cut (all edges have unit weight).
    pub weight: u32,
    /// Local indices of one side of the partition (the smaller side).
    pub side: Vec<u32>,
    /// The cut edges, as local index pairs (canonical `a < b`).
    pub cut_edges: Vec<(u32, u32)>,
}

/// Compute a global minimum edge cut of a connected subgraph with >= 2 nodes.
///
/// Returns `None` for subgraphs with fewer than 2 nodes or no edges (nothing
/// to cut). The input must be connected; this is the caller's invariant
/// (components are connected by construction) and is debug-asserted.
pub fn global_min_cut(sub: &Subgraph) -> Option<MinCut> {
    if sub.num_nodes() < 2 || sub.num_edges() == 0 {
        return None;
    }
    debug_assert!(sub.is_connected(), "min cut requires a connected component");
    let cut = if sub.num_nodes() <= SW_NODE_LIMIT {
        stoer_wagner(sub)
    } else {
        global_min_cut_flow(sub)
    };
    Some(cut)
}

/// Derive the cut edge set and normalized (smaller) side from a side marker.
fn finish_cut(sub: &Subgraph, in_side: &[bool], weight: u32) -> MinCut {
    let n = sub.num_nodes();
    let side_count = in_side.iter().filter(|&&b| b).count();
    // Normalize: keep the smaller side for stable output (ties keep marked side).
    let keep_marked = side_count * 2 <= n;
    let mut side: Vec<u32> = (0..n as u32)
        .filter(|&i| in_side[i as usize] == keep_marked)
        .collect();
    side.sort_unstable();
    let mut cut_edges: Vec<(u32, u32)> = sub
        .edges
        .iter()
        .copied()
        .filter(|&(a, b)| in_side[a as usize] != in_side[b as usize])
        .collect();
    cut_edges.sort_unstable();
    debug_assert_eq!(cut_edges.len() as u32, weight);
    MinCut {
        weight,
        side,
        cut_edges,
    }
}

/// Stoer–Wagner minimum cut with unit edge weights.
///
/// Repeatedly runs a maximum adjacency search, records the cut of the phase
/// (the last added super-node against the rest), then merges the last two
/// added nodes; the best phase cut is a global minimum cut. Ties are broken
/// as the module documentation states.
pub fn stoer_wagner(sub: &Subgraph) -> MinCut {
    const NONE: u32 = u32::MAX;
    let n = sub.num_nodes();
    assert!(n >= 2);
    // adj[v] = (neighbour, weight) of super-node v.
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for &(a, b) in &sub.edges {
        debug_assert_ne!(a, b, "a subgraph has no self-loops");
        adj[a as usize].push((b, 1));
        adj[b as usize].push((a, 1));
    }
    // Members of super-node v: v, then next[v], next[next[v]], ... to
    // tail[v].
    let mut next = vec![NONE; n];
    let mut tail: Vec<u32> = (0..n as u32).collect();
    // Live super-node ids, ascending.
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut key = vec![0u32; n];
    let mut added = vec![false; n];
    let mut queue = AdjacencyQueue::new(n);
    // slot[u] = position of u in the list being folded into, or NONE.
    let mut slot = vec![NONE; n];

    let mut best_weight = u32::MAX;
    let mut best_side: Vec<u32> = Vec::new();

    while live.len() > 1 {
        // Maximum adjacency search from the smallest live id.
        for &v in &live {
            key[v as usize] = 0;
            added[v as usize] = false;
        }
        let (mut prev, mut last) = (NONE, NONE);
        for _ in 0..live.len() {
            // The queue is empty when the phase starts, and later only when
            // nothing unadded touches the added set (disconnected input):
            // then take the smallest unadded id.
            let pick = match queue.pop(&key) {
                Some(v) => v,
                None => *live
                    .iter()
                    .find(|&&v| !added[v as usize])
                    .expect("a phase adds every live node"),
            };
            prev = last;
            last = pick;
            added[pick as usize] = true;
            for &(u, w) in &adj[pick as usize] {
                if !added[u as usize] {
                    key[u as usize] += w;
                    queue.raise(&key, u);
                }
            }
        }
        // Cut of the phase: super-node `last` against the rest.
        let phase_weight = key[last as usize];
        if phase_weight < best_weight {
            best_weight = phase_weight;
            best_side.clear();
            let mut member = last;
            while member != NONE {
                best_side.push(member);
                member = next[member as usize];
            }
        }

        // Merge `last` into `prev`: fold the member lists, then the edges.
        let (p, l) = (prev as usize, last as usize);
        next[tail[p] as usize] = last;
        tail[p] = tail[l];
        let folded = std::mem::take(&mut adj[l]);
        adj[p].retain(|&(u, _)| u != last);
        for (at, &(u, _)) in adj[p].iter().enumerate() {
            slot[u as usize] = at as u32;
        }
        for &(u, w) in &folded {
            if u == prev {
                continue;
            }
            let to_last = adj[u as usize]
                .iter()
                .position(|&(x, _)| x == last)
                .expect("adjacency is symmetric");
            match slot[u as usize] {
                NONE => {
                    adj[u as usize][to_last].0 = prev;
                    slot[u as usize] = adj[p].len() as u32;
                    adj[p].push((u, w));
                }
                at => {
                    adj[p][at as usize].1 += w;
                    let theirs = &mut adj[u as usize];
                    theirs.swap_remove(to_last);
                    let to_prev = theirs
                        .iter()
                        .position(|&(x, _)| x == prev)
                        .expect("adjacency is symmetric");
                    theirs[to_prev].1 += w;
                }
            }
        }
        for &(u, _) in &adj[p] {
            slot[u as usize] = NONE;
        }
        let at = live.binary_search(&last).expect("last is live");
        live.remove(at);
    }

    let mut in_side = vec![false; n];
    for &v in &best_side {
        in_side[v as usize] = true;
    }
    finish_cut(sub, &in_side, best_weight)
}

/// The unadded super-nodes of a maximum adjacency search with a positive
/// key, as a binary max-heap ordered by key and then by smallest id, with
/// each node's heap position so a growing key moves up in place.
struct AdjacencyQueue {
    heap: Vec<u32>,
    /// Node → index in `heap`, or `u32::MAX` when not queued.
    pos: Vec<u32>,
}

impl AdjacencyQueue {
    fn new(n: usize) -> Self {
        AdjacencyQueue {
            heap: Vec::with_capacity(n),
            pos: vec![u32::MAX; n],
        }
    }

    /// Whether `a` comes before `b`: larger key, then smaller id.
    fn before(key: &[u32], a: u32, b: u32) -> bool {
        let (ka, kb) = (key[a as usize], key[b as usize]);
        ka > kb || (ka == kb && a < b)
    }

    fn place(&mut self, at: usize, v: u32) {
        self.heap[at] = v;
        self.pos[v as usize] = at as u32;
    }

    /// `v`'s key grew: queue it, or move it up.
    fn raise(&mut self, key: &[u32], v: u32) {
        let mut at = match self.pos[v as usize] {
            u32::MAX => {
                self.heap.push(v);
                self.heap.len() - 1
            }
            at => at as usize,
        };
        while at > 0 {
            let parent = (at - 1) / 2;
            if !Self::before(key, v, self.heap[parent]) {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, v);
    }

    /// Remove and return the first node.
    fn pop(&mut self, key: &[u32]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = u32::MAX;
        let moved = self.heap.pop().expect("non-empty");
        if self.heap.is_empty() {
            return Some(top);
        }
        let len = self.heap.len();
        let mut at = 0;
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && Self::before(key, self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !Self::before(key, self.heap[child], moved) {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, moved);
        Some(top)
    }
}

/// Flow-based global min cut: min over t of min-cut(s, t) for a fixed s.
///
/// Correct because any global cut separates s from *some* t. Early exits on a
/// weight-1 cut (optimal in a connected graph) and caps each Dinic run at the
/// best weight so far (a run reaching the cap cannot improve the answer).
/// One network serves every sink: its capacities are restored between runs.
pub fn global_min_cut_flow(sub: &Subgraph) -> MinCut {
    let n = sub.num_nodes();
    assert!(n >= 2);
    // Fix the max-degree node as source: it is least likely to be on the
    // small side of the cut, so s-t cuts tend to find the real cut quickly.
    let s = (0..n)
        .max_by_key(|&i| sub.adj[i].len())
        .expect("non-empty subgraph") as u32;

    let mut best: Option<MinCut> = None;
    let mut dinic = Dinic::from_subgraph(sub);
    for t in 0..n as u32 {
        if t == s {
            continue;
        }
        let cap = best.as_ref().map_or(u32::MAX, |b| b.weight);
        dinic.restore_capacities();
        let flow = dinic.max_flow_capped(s, t, cap);
        if flow >= cap {
            continue; // cannot improve
        }
        let in_side = dinic.min_cut_side(s);
        let cut = finish_cut(sub, &in_side, flow);
        let done = cut.weight == 1;
        best = Some(cut);
        if done {
            break; // a bridge: no smaller cut exists in a connected graph
        }
    }
    best.expect("connected subgraph with >= 2 nodes has a cut")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, Graph};

    fn sub_of(edges: &[(u32, u32)]) -> Subgraph {
        let g = Graph::from_edges(edges.iter().copied());
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        Subgraph::induce(&g, &nodes)
    }

    /// Two triangles joined by one bridge: min cut = that bridge.
    fn barbell() -> Subgraph {
        sub_of(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    }

    #[test]
    fn bridge_is_min_cut_sw() {
        let cut = stoer_wagner(&barbell());
        assert_eq!(cut.weight, 1);
        assert_eq!(cut.cut_edges, vec![(2, 3)]);
        assert_eq!(cut.side.len(), 3);
    }

    #[test]
    fn bridge_is_min_cut_flow() {
        let cut = global_min_cut_flow(&barbell());
        assert_eq!(cut.weight, 1);
        assert_eq!(cut.cut_edges, vec![(2, 3)]);
    }

    #[test]
    fn double_link_cut() {
        // Two triangles joined by two edges: min cut weight 2. The optimum
        // is not unique (isolating a degree-2 node also costs 2), so only
        // the weight and the disconnection property are asserted.
        let sub = sub_of(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (2, 3),
            (0, 5),
        ]);
        let cut = stoer_wagner(&sub);
        assert_eq!(cut.weight, 2);
        assert_eq!(cut.cut_edges.len(), 2);
        let mut g = Graph::from_edges(sub.edges.iter().copied());
        g.remove_edges(
            &cut.cut_edges
                .iter()
                .map(|&(a, b)| Edge::new(a, b))
                .collect::<Vec<_>>(),
        );
        assert!(crate::components::connected_components(&g).len() >= 2);
        let flow_cut = global_min_cut_flow(&sub);
        assert_eq!(flow_cut.weight, 2);
    }

    #[test]
    fn path_graph_cut_is_one() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 3)]);
        let cut = global_min_cut(&sub).unwrap();
        assert_eq!(cut.weight, 1);
    }

    #[test]
    fn complete_graph_cut_is_degree() {
        // K4: min cut isolates one vertex, weight 3.
        let sub = sub_of(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cut = stoer_wagner(&sub);
        assert_eq!(cut.weight, 3);
        assert_eq!(cut.side.len(), 1);
        assert_eq!(global_min_cut_flow(&sub).weight, 3);
    }

    #[test]
    fn two_node_graph() {
        let sub = sub_of(&[(0, 1)]);
        let cut = global_min_cut(&sub).unwrap();
        assert_eq!(cut.weight, 1);
        assert_eq!(cut.cut_edges, vec![(0, 1)]);
    }

    #[test]
    fn removing_cut_disconnects() {
        let sub = barbell();
        let cut = global_min_cut(&sub).unwrap();
        let mut g = Graph::from_edges(sub.edges.iter().map(|&(a, b)| (a, b)));
        for &(a, b) in &cut.cut_edges {
            g.remove_edge(a, b);
        }
        let comps = crate::components::connected_components(&g);
        assert!(comps.len() >= 2, "cut must disconnect the component");
    }

    #[test]
    fn singleton_and_empty_return_none() {
        let g = Graph::with_nodes(1);
        let sub = Subgraph::induce(&g, &[0]);
        assert!(global_min_cut(&sub).is_none());
    }

    #[test]
    fn side_is_smaller_half() {
        // Star graph: cut isolates a leaf; side must be the single leaf.
        let sub = sub_of(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let cut = global_min_cut(&sub).unwrap();
        assert_eq!(cut.weight, 1);
        assert_eq!(cut.side.len(), 1);
        assert_ne!(cut.side[0], 0, "center cannot be the small side");
    }
}
