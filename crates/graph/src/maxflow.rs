//! Dinic max-flow / min s–t cut on unit-capacity undirected graphs.
//!
//! Serves two purposes: (1) the flow-based global-min-cut kernel for
//! components above the Stoer–Wagner node limit, and (2) an independent
//! oracle for property-testing the Stoer–Wagner implementation (their cut
//! weights must agree).
//!
//! Undirected unit edges are modelled as a pair of arcs with capacity 1 each
//! sharing residuals, the standard reduction (flow pushed one way consumes
//! the reverse arc's residual).

use crate::components::Subgraph;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct Arc {
    to: u32,
    cap: u32,
}

/// Dinic solver over the local indices of a [`Subgraph`].
#[derive(Debug, Clone)]
pub struct Dinic {
    arcs: Vec<Arc>,
    // head[v] = indices into `arcs` of v's outgoing arcs.
    head: Vec<Vec<u32>>,
    level: Vec<i32>,
    iter: Vec<usize>,
    // BFS queue, reused across phases and runs.
    queue: VecDeque<u32>,
}

impl Dinic {
    /// Build the flow network from a subgraph (each undirected edge becomes
    /// two capacity-1 arcs that are each other's residual).
    pub fn from_subgraph(sub: &Subgraph) -> Self {
        let n = sub.num_nodes();
        let mut arcs = Vec::with_capacity(sub.edges.len() * 2);
        let mut head = vec![Vec::new(); n];
        for &(a, b) in &sub.edges {
            head[a as usize].push(arcs.len() as u32);
            arcs.push(Arc { to: b, cap: 1 });
            head[b as usize].push(arcs.len() as u32);
            arcs.push(Arc { to: a, cap: 1 });
        }
        Dinic {
            arcs,
            head,
            level: vec![-1; n],
            iter: vec![0; n],
            queue: VecDeque::new(),
        }
    }

    /// Undo every flow pushed so far: the network is again as
    /// [`from_subgraph`](Self::from_subgraph) built it, arcs in the same
    /// order, so the next run gives what a fresh solver would.
    pub(crate) fn restore_capacities(&mut self) {
        self.arcs.iter_mut().for_each(|arc| arc.cap = 1);
    }

    fn bfs(&mut self, s: u32, t: u32) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        self.level[s as usize] = 0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            for &ai in &self.head[u as usize] {
                let arc = self.arcs[ai as usize];
                if arc.cap > 0 && self.level[arc.to as usize] < 0 {
                    self.level[arc.to as usize] = self.level[u as usize] + 1;
                    self.queue.push_back(arc.to);
                }
            }
        }
        self.level[t as usize] >= 0
    }

    fn dfs(&mut self, u: u32, t: u32, pushed: u32) -> u32 {
        if u == t {
            return pushed;
        }
        while self.iter[u as usize] < self.head[u as usize].len() {
            let ai = self.head[u as usize][self.iter[u as usize]] as usize;
            let Arc { to, cap } = self.arcs[ai];
            if cap > 0 && self.level[to as usize] == self.level[u as usize] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > 0 {
                    self.arcs[ai].cap -= d;
                    // Paired arc: even index pairs with +1, odd with -1.
                    let pair = ai ^ 1;
                    self.arcs[pair].cap += d;
                    return d;
                }
            }
            self.iter[u as usize] += 1;
        }
        0
    }

    /// Maximum flow from `s` to `t`, stopping early once `cap` is reached
    /// (useful when only cuts smaller than `cap` are interesting).
    pub fn max_flow_capped(&mut self, s: u32, t: u32, cap: u32) -> u32 {
        assert_ne!(s, t);
        let mut flow = 0;
        while flow < cap && self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(s, t, u32::MAX);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
                if flow >= cap {
                    break;
                }
            }
        }
        flow
    }

    /// Maximum flow from `s` to `t`.
    pub fn max_flow(&mut self, s: u32, t: u32) -> u32 {
        self.max_flow_capped(s, t, u32::MAX)
    }

    /// After a max-flow run, the s-side of the min cut: nodes reachable from
    /// `s` in the residual network. Returned as a boolean marker per node.
    pub fn min_cut_side(&self, s: u32) -> Vec<bool> {
        let n = self.head.len();
        let mut side = vec![false; n];
        let mut queue = VecDeque::new();
        side[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &ai in &self.head[u as usize] {
                let arc = self.arcs[ai as usize];
                if arc.cap > 0 && !side[arc.to as usize] {
                    side[arc.to as usize] = true;
                    queue.push_back(arc.to);
                }
            }
        }
        side
    }
}

/// Convenience: the min s–t cut (weight and s-side marker) of a subgraph.
pub fn min_st_cut(sub: &Subgraph, s: u32, t: u32) -> (u32, Vec<bool>) {
    let mut dinic = Dinic::from_subgraph(sub);
    let flow = dinic.max_flow(s, t);
    (flow, dinic.min_cut_side(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn sub_of(edges: &[(u32, u32)]) -> Subgraph {
        let g = Graph::from_edges(edges.iter().copied());
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        Subgraph::induce(&g, &nodes)
    }

    #[test]
    fn single_edge_flow() {
        let sub = sub_of(&[(0, 1)]);
        let (flow, side) = min_st_cut(&sub, 0, 1);
        assert_eq!(flow, 1);
        assert_eq!(side, vec![true, false]);
    }

    #[test]
    fn parallel_paths() {
        // 0-1-3 and 0-2-3: two edge-disjoint paths, flow 2.
        let sub = sub_of(&[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let (flow, _) = min_st_cut(&sub, 0, 3);
        assert_eq!(flow, 2);
    }

    #[test]
    fn bottleneck_bridge() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let (flow, side) = min_st_cut(&sub, 0, 5);
        assert_eq!(flow, 1);
        // s-side should be the first triangle.
        assert_eq!(side[..3], [true, true, true]);
        assert_eq!(side[3..], [false, false, false]);
    }

    #[test]
    fn complete_graph_k4() {
        let sub = sub_of(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let (flow, _) = min_st_cut(&sub, 0, 3);
        assert_eq!(flow, 3, "edge connectivity of K4 is 3");
    }

    #[test]
    fn capped_flow_stops_early() {
        let sub = sub_of(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut dinic = Dinic::from_subgraph(&sub);
        let flow = dinic.max_flow_capped(0, 3, 2);
        assert!(flow >= 2, "must reach the cap");
    }

    #[test]
    fn undirected_flow_symmetric() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)];
        let sub = sub_of(&edges);
        let (f_ab, _) = min_st_cut(&sub, 0, 2);
        let (f_ba, _) = min_st_cut(&sub, 2, 0);
        assert_eq!(f_ab, f_ba);
    }

    #[test]
    fn cut_side_partitions_flow_value() {
        // Cut edges crossing the side must equal the flow value.
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (1, 3), (3, 4)];
        let sub = sub_of(&edges);
        let (flow, side) = min_st_cut(&sub, 0, 4);
        let crossing = sub
            .edges
            .iter()
            .filter(|&&(a, b)| side[a as usize] != side[b as usize])
            .count();
        assert_eq!(crossing as u32, flow);
    }
}
