//! Ablation: Stoer–Wagner vs flow-based global min cut.
//!
//! The paper notes both phases of Algorithm 1 are O(mn) worst case but the
//! min-cut tends to run faster in practice; this bench times both kernels on
//! two inputs: barbell components (two dense groups joined by a
//! false-positive bridge — the canonical cleanup input) and sparse
//! prediction-like regions at the sizes the cleanup spends its time on
//! (64 / 160 / 256 nodes at ≈ 4 edges per node; 256 is the largest
//! component Stoer–Wagner is given).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gralmatch_graph::{mincut::global_min_cut_flow, mincut::stoer_wagner, Graph, Subgraph};
use gralmatch_util::SplitRng;
use std::hint::black_box;

/// Two k-cliques joined by one bridge.
fn barbell(k: usize) -> Subgraph {
    let mut graph = Graph::new();
    for base in [0u32, k as u32] {
        for i in 0..k as u32 {
            for j in (i + 1)..k as u32 {
                graph.add_edge(base + i, base + j);
            }
        }
    }
    graph.add_edge(k as u32 - 1, k as u32);
    let nodes: Vec<u32> = (0..2 * k as u32).collect();
    Subgraph::induce(&graph, &nodes)
}

/// A prediction-like region of `n` nodes: near-clique groups of 4–14
/// records, each linked to earlier groups by 1–3 false-positive edges, then
/// random cross-group edges up to 4 edges per node.
fn prediction_region(n: usize) -> Subgraph {
    let mut rng = SplitRng::new(n as u64);
    let mut graph = Graph::with_nodes(n);
    let mut start = 0;
    while start < n {
        let size = rng.range_inclusive(4, 14).min(n - start);
        for i in start..start + size {
            for j in i + 1..start + size {
                // The path i — i+1 keeps the group connected.
                if j == i + 1 || rng.chance(0.7) {
                    graph.add_edge(i as u32, j as u32);
                }
            }
        }
        if start > 0 {
            for _ in 0..rng.range_inclusive(1, 3) {
                let (a, b) = (rng.next_below(start), start + rng.next_below(size));
                graph.add_edge(a as u32, b as u32);
            }
        }
        start += size;
    }
    while graph.num_edges() < 4 * n {
        let (a, b) = (rng.next_below(n) as u32, rng.next_below(n) as u32);
        if a != b {
            graph.add_edge(a, b);
        }
    }
    let nodes: Vec<u32> = (0..n as u32).collect();
    Subgraph::induce(&graph, &nodes)
}

fn bench_mincut(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_min_cut");
    let inputs = [8usize, 16, 32, 64]
        .map(|k| ("", 2 * k, barbell(k)))
        .into_iter()
        .chain([64usize, 160, 256].map(|n| ("_sparse", n, prediction_region(n))));
    for (shape, n, sub) in inputs {
        let sw = BenchmarkId::new(format!("stoer_wagner{shape}"), n);
        group.bench_with_input(sw, &sub, |b, sub| {
            b.iter(|| black_box(stoer_wagner(black_box(sub))));
        });
        let flow = BenchmarkId::new(format!("flow_based{shape}"), n);
        group.bench_with_input(flow, &sub, |b, sub| {
            b.iter(|| black_box(global_min_cut_flow(black_box(sub))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mincut
}
criterion_main!(benches);
