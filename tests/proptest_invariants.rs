//! Property-style tests on the core algorithmic invariants.
//!
//! The offline build cannot pull in `proptest`, so these run the same
//! invariants over deterministic seeded random instances: every case draws
//! its structure from a [`SplitRng`] stream, so failures reproduce exactly
//! by seed (printed in every assertion message).

use gralmatch::core::{entity_groups, graph_cleanup, prediction_graph, CleanupConfig};
use gralmatch::graph::{
    connected_components, edge_betweenness, find_bridges, global_min_cut, min_st_cut,
    mincut::{global_min_cut_flow, stoer_wagner, SW_NODE_LIMIT},
    Graph, Subgraph, UnionFind,
};
use gralmatch::records::{RecordId, RecordPair};
use gralmatch::util::SplitRng;

mod support;

/// Random connected graph: a random tree plus extra random edges.
fn connected_graph(rng: &mut SplitRng, max_nodes: usize, extra_edges: usize) -> Graph {
    let n = rng.range_inclusive(2, max_nodes.max(2));
    let mut graph = Graph::with_nodes(n);
    for child in 1..n as u32 {
        let parent = rng.next_below(child as usize) as u32;
        graph.add_edge(parent, child);
    }
    for _ in 0..rng.next_below(extra_edges + 1) {
        let a = rng.next_below(n) as u32;
        let b = rng.next_below(n) as u32;
        if a != b {
            graph.add_edge(a, b);
        }
    }
    graph
}

fn full_subgraph(graph: &Graph) -> Subgraph {
    let nodes: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    Subgraph::induce(graph, &nodes)
}

#[test]
fn mincut_disconnects() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC1).split_index(case);
        let graph = connected_graph(&mut rng, 24, 20);
        let sub = full_subgraph(&graph);
        let cut = global_min_cut(&sub).expect("connected, >=2 nodes");
        let mut pruned = graph.clone();
        for &(a, b) in &cut.cut_edges {
            pruned.remove_edge(a, b);
        }
        let comps = connected_components(&pruned);
        assert!(
            comps.len() >= 2,
            "case {case}: cut of weight {} failed to disconnect",
            cut.weight
        );
    }
}

#[test]
fn stoer_wagner_matches_flow_cut_weight() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC2).split_index(case);
        let graph = connected_graph(&mut rng, 16, 12);
        let sub = full_subgraph(&graph);
        let sw = stoer_wagner(&sub);
        // Global min cut == min over t of min s-t cut for fixed s.
        let n = sub.num_nodes() as u32;
        let mut best = u32::MAX;
        for t in 1..n {
            let (flow, _) = min_st_cut(&sub, 0, t);
            best = best.min(flow);
        }
        assert_eq!(sw.weight, best, "case {case}");
    }
}

/// `n` nodes, edges added as given, then relabelled by a random
/// permutation half of the time (so tie-breaks meet every id order).
fn relabelled(rng: &mut SplitRng, n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut label: Vec<u32> = (0..n as u32).collect();
    if rng.chance(0.5) {
        rng.shuffle(&mut label);
    }
    let mut graph = Graph::with_nodes(n);
    for &(a, b) in edges {
        graph.add_edge(label[a], label[b]);
    }
    graph
}

fn clique(base: usize, k: usize, edges: &mut Vec<(usize, usize)>) {
    for i in base..base + k {
        edges.extend((i + 1..base + k).map(|j| (i, j)));
    }
}

/// A connected graph of one of the min-cut kernel's test families: random
/// sparse, tie-heavy symmetric shapes (cliques, cycles, ladders, grids),
/// cliques chained by 2–3 edges, and prediction-like regions (small dense
/// groups chained by a few false-positive edges, ≈ 4 edges per node).
fn kernel_case(rng: &mut SplitRng, family: u64, max_nodes: usize) -> Graph {
    let mut edges = Vec::new();
    let n = match family {
        0 => {
            let n = rng.range_inclusive(2, max_nodes);
            for child in 1..n {
                edges.push((rng.next_below(child), child));
            }
            for _ in 0..rng.next_below(2 * n + 1) {
                let (a, b) = (rng.next_below(n), rng.next_below(n));
                if a != b {
                    edges.push((a, b));
                }
            }
            n
        }
        1 => {
            let k = rng.range_inclusive(2, 24.min(max_nodes));
            clique(0, k, &mut edges);
            k
        }
        2 => {
            let k = rng.range_inclusive(3, max_nodes);
            edges.extend((0..k).map(|i| (i, (i + 1) % k)));
            k
        }
        3 | 4 => {
            // A ladder is a 2-row grid.
            let rows = if family == 3 {
                2
            } else {
                rng.range_inclusive(2, 16)
            };
            let cols = rng.range_inclusive(2, (max_nodes / rows).max(2));
            for r in 0..rows {
                for c in 0..cols {
                    let at = r * cols + c;
                    if c + 1 < cols {
                        edges.push((at, at + 1));
                    }
                    if r + 1 < rows {
                        edges.push((at, at + cols));
                    }
                }
            }
            rows * cols
        }
        5 | 6 => {
            // Groups chained in order; family 5 joins cliques by 2–3 edges,
            // family 6 joins sparse-dense groups by 1–3.
            let target = rng.range_inclusive(8, max_nodes);
            let mut starts = vec![0];
            while *starts.last().unwrap() < target {
                let size = if family == 5 {
                    rng.range_inclusive(3, 12)
                } else {
                    rng.range_inclusive(1, 10)
                };
                let base = *starts.last().unwrap();
                if base + size > max_nodes {
                    break;
                }
                if family == 5 {
                    clique(base, size, &mut edges);
                } else {
                    for i in base + 1..base + size {
                        edges.push((base + rng.next_below(i - base), i));
                    }
                    for _ in 0..size * 2 {
                        let a = base + rng.next_below(size);
                        let b = base + rng.next_below(size);
                        if a != b {
                            edges.push((a, b));
                        }
                    }
                }
                starts.push(base + size);
            }
            for pair in starts.windows(3) {
                let (lo, mid, hi) = (pair[0], pair[1], pair[2]);
                let links = rng.range_inclusive(if family == 5 { 2 } else { 1 }, 3);
                for _ in 0..links {
                    edges.push((
                        lo + rng.next_below(mid - lo),
                        mid + rng.next_below(hi - mid),
                    ));
                }
            }
            (*starts.last().unwrap()).max(2)
        }
        _ => unreachable!("seven families"),
    };
    if n == 2 && edges.is_empty() {
        edges.push((0, 1));
    }
    relabelled(rng, n, &edges)
}

/// The heap-driven Stoer–Wagner must return exactly the dense kernel's cut
/// (weight, side and cut edges) — its tie-break is part of Algorithm 1's
/// output — and the flow kernel's reused network must return exactly what
/// a fresh network per sink does.
#[test]
fn mincut_kernels_equal_their_oracles() {
    let mut sizes = Vec::new();
    for case in 0..560u64 {
        let mut rng = SplitRng::new(0xC9).split_index(case);
        // Mostly small graphs, one in eight up to the kernel's node limit.
        let max_nodes = if case % 8 == 7 { SW_NODE_LIMIT } else { 48 };
        let graph = kernel_case(&mut rng, case % 7, max_nodes);
        assert_eq!(connected_components(&graph).len(), 1, "case {case}");
        let sub = full_subgraph(&graph);
        sizes.push(sub.num_nodes());
        assert_eq!(
            stoer_wagner(&sub),
            support::dense_stoer_wagner(&sub),
            "case {case}: {} nodes, {} edges",
            sub.num_nodes(),
            sub.num_edges()
        );
    }
    assert!(
        sizes.iter().any(|&n| n > 192),
        "the sizes that cost are covered"
    );
    for case in 0..3u64 {
        let mut rng = SplitRng::new(0xCA).split_index(case);
        let graph = loop {
            let graph = kernel_case(&mut rng, [0, 4, 6][case as usize], 600);
            if graph.num_nodes() > SW_NODE_LIMIT {
                break graph;
            }
        };
        let sub = full_subgraph(&graph);
        assert_eq!(
            global_min_cut_flow(&sub),
            support::fresh_network_flow_cut(&sub),
            "flow case {case}: {} nodes",
            sub.num_nodes()
        );
    }
}

#[test]
fn bridges_are_weight_one_cuts() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC3).split_index(case);
        let graph = connected_graph(&mut rng, 20, 8);
        let sub = full_subgraph(&graph);
        let bridges = find_bridges(&sub);
        for &(a, b) in &bridges {
            let mut pruned = graph.clone();
            pruned.remove_edge(a, b);
            assert_eq!(
                connected_components(&pruned).len(),
                2,
                "case {case}: removing bridge ({a},{b}) must split into exactly 2 components"
            );
        }
        // Conversely: a min cut of weight 1 implies at least one bridge.
        if let Some(cut) = global_min_cut(&sub) {
            if cut.weight == 1 {
                assert!(!bridges.is_empty(), "case {case}");
            }
        }
    }
}

#[test]
fn betweenness_nonnegative_and_bridge_dominant() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC4).split_index(case);
        let graph = connected_graph(&mut rng, 16, 10);
        let sub = full_subgraph(&graph);
        let centrality = edge_betweenness(&sub);
        // Every edge lies on at least its own endpoints' shortest path.
        assert!(
            centrality.iter().all(|&c| c >= 1.0 - 1e-9),
            "case {case}: {centrality:?}"
        );
    }
}

#[test]
fn unionfind_agrees_with_bfs() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC5).split_index(case);
        let mut graph = Graph::with_nodes(30);
        let mut uf = UnionFind::new(30);
        for _ in 0..rng.next_below(60) {
            let a = rng.next_below(30) as u32;
            let b = rng.next_below(30) as u32;
            if a != b {
                graph.add_edge(a, b);
                uf.union(a, b);
            }
        }
        let comps = connected_components(&graph);
        assert_eq!(comps.len(), uf.num_sets(), "case {case}");
        for comp in comps {
            for pair in comp.windows(2) {
                assert!(uf.connected(pair[0], pair[1]), "case {case}");
            }
        }
    }
}

#[test]
fn cleanup_caps_component_sizes() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC6).split_index(case);
        let graph = connected_graph(&mut rng, 40, 50);
        let mu = rng.range_inclusive(2, 7);
        let gamma = mu + 4;
        let mut working = graph.clone();
        graph_cleanup(&mut working, &CleanupConfig::new(gamma, mu));
        for comp in connected_components(&working) {
            assert!(
                comp.len() <= mu,
                "case {case}: component of {} > mu {mu}",
                comp.len()
            );
        }
    }
}

#[test]
fn cleanup_only_removes_edges() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC7).split_index(case);
        let graph = connected_graph(&mut rng, 30, 30);
        let mut working = graph.clone();
        graph_cleanup(&mut working, &CleanupConfig::new(10, 5));
        assert!(working.num_edges() <= graph.num_edges(), "case {case}");
        // Every surviving edge existed before.
        for edge in working.edges() {
            assert!(graph.has_edge(edge.a, edge.b), "case {case}");
        }
    }
}

#[test]
fn groups_partition_records() {
    for case in 0..64u64 {
        let mut rng = SplitRng::new(0xC8).split_index(case);
        let mut record_pairs: Vec<RecordPair> = Vec::new();
        for _ in 0..rng.next_below(80) {
            let a = rng.next_below(50) as u32;
            let b = rng.next_below(50) as u32;
            if a != b {
                record_pairs.push(RecordPair::new(RecordId(a), RecordId(b)));
            }
        }
        let graph = prediction_graph(50, &record_pairs);
        let groups = entity_groups(&graph);
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for group in &groups {
            for &record in group {
                assert!(seen.insert(record), "case {case}: {record:?} in two groups");
                total += 1;
            }
        }
        assert_eq!(total, 50, "case {case}");
    }
}
