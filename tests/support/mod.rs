//! Checks and oracles shared by the integration suites (`mod support;`).

use gralmatch::blocking::Blocker;
use gralmatch::core::{PipelineConfig, PipelineState};
use gralmatch::graph::{Dinic, Edge, Graph, MinCut, Subgraph};
use gralmatch::lm::PairScorer;
use gralmatch::records::Record;

#[allow(dead_code)] // not used by every suite
fn sorted_edges(graph: &Graph) -> Vec<Edge> {
    let mut edges: Vec<Edge> = graph.edges().collect();
    edges.sort_unstable();
    edges
}

/// The per-batch form of "incremental equals one-shot": after a batch,
/// the state's standing predictions and cleaned graph must equal those of
/// a fresh one-shot load of its live records (one insert-only batch
/// against an empty state, where every component is cleaned from
/// scratch). Comparing only the groups at the end of a replay would miss
/// a divergence that a later batch happens to repair.
#[allow(dead_code)] // not used by every suite
pub fn assert_matches_fresh_load<R: Record + Clone + Sync>(
    state: &PipelineState<R>,
    strategies: &[Box<dyn Blocker<R> + '_>],
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
    context: &str,
) {
    let (fresh, _) = PipelineState::initial_load(
        state.plan(),
        state.live_records().to_vec(),
        strategies,
        scorer,
        config,
    )
    .unwrap_or_else(|e| panic!("{context}: one-shot load failed: {e:?}"));
    assert_eq!(
        state.predicted().sorted(),
        fresh.predicted().sorted(),
        "{context}: standing predictions diverged from a one-shot load"
    );
    assert_eq!(
        sorted_edges(state.cleaned()),
        sorted_edges(fresh.cleaned()),
        "{context}: cleaned graph diverged from a one-shot load"
    );
}

/// Derive the cut edge set and normalized (smaller) side from a side
/// marker, as the shipped kernels report a cut.
#[allow(dead_code)] // not used by every suite
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

/// Oracle for `mincut::stoer_wagner`: the textbook dense O(n³)
/// Stoer–Wagner over an n × n weight matrix, whose scan order defines the
/// shipped kernel's tie-break (smallest live id starts a phase, first
/// strictly greater weight wins a pick, the merged node keeps `prev`'s id,
/// the earliest minimal phase wins).
///
/// Classic "minimum cut phase" formulation: repeatedly run maximum adjacency
/// search, record the cut-of-the-phase (the last added super-node against the
/// rest), then merge the last two added nodes. The best phase cut is a global
/// minimum cut. We track which original nodes each super-node contains so the
/// partition can be reported.
#[allow(dead_code)] // not used by every suite
pub fn dense_stoer_wagner(sub: &Subgraph) -> MinCut {
    let n = sub.num_nodes();
    assert!(n >= 2);
    // Dense weight matrix of the contracted graph.
    let mut w = vec![0u32; n * n];
    for &(a, b) in &sub.edges {
        w[a as usize * n + b as usize] += 1;
        w[b as usize * n + a as usize] += 1;
    }
    // merged[v] = original local nodes currently contracted into v.
    let mut merged: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
    let mut active: Vec<usize> = (0..n).collect();

    let mut best_weight = u32::MAX;
    let mut best_side: Vec<u32> = Vec::new();

    while active.len() > 1 {
        // Maximum adjacency search starting from active[0].
        let m = active.len();
        let mut in_a = vec![false; m];
        let mut weights_to_a: Vec<u32> = active.iter().map(|&v| w[active[0] * n + v]).collect();
        in_a[0] = true;
        let mut prev = 0usize; // index into `active`
        let mut last = 0usize;
        for _ in 1..m {
            // Pick the unadded node most tightly connected to A.
            let mut best_i = usize::MAX;
            let mut best_w = 0u32;
            for i in 0..m {
                if !in_a[i] && (best_i == usize::MAX || weights_to_a[i] > best_w) {
                    best_i = i;
                    best_w = weights_to_a[i];
                }
            }
            prev = last;
            last = best_i;
            in_a[best_i] = true;
            let v_last = active[best_i];
            for i in 0..m {
                if !in_a[i] {
                    weights_to_a[i] += w[v_last * n + active[i]];
                }
            }
        }
        // Cut of the phase: super-node `last` vs the rest.
        let phase_weight = weights_to_a[last];
        if phase_weight < best_weight {
            best_weight = phase_weight;
            best_side = merged[active[last]].clone();
        }
        // Merge `last` into `prev`.
        let (v_prev, v_last) = (active[prev], active[last]);
        let moved = std::mem::take(&mut merged[v_last]);
        merged[v_prev].extend(moved);
        for &u in active.iter().take(m) {
            let add = w[v_last * n + u];
            w[v_prev * n + u] += add;
            w[u * n + v_prev] += add;
        }
        w[v_prev * n + v_prev] = 0;
        active.remove(last);
    }

    let mut in_side = vec![false; n];
    for &v in &best_side {
        in_side[v as usize] = true;
    }
    finish_cut(sub, &in_side, best_weight)
}

/// Oracle for `mincut::global_min_cut_flow`: the same search (highest-degree
/// source, capped flows to every sink, stop at a bridge) with a freshly
/// built network for every sink.
#[allow(dead_code)] // not used by every suite
pub fn fresh_network_flow_cut(sub: &Subgraph) -> MinCut {
    let n = sub.num_nodes();
    assert!(n >= 2);
    let s = (0..n)
        .max_by_key(|&i| sub.adj[i].len())
        .expect("non-empty subgraph") as u32;
    let mut best: Option<MinCut> = None;
    for t in (0..n as u32).filter(|&t| t != s) {
        let cap = best.as_ref().map_or(u32::MAX, |b| b.weight);
        let mut dinic = Dinic::from_subgraph(sub);
        let flow = dinic.max_flow_capped(s, t, cap);
        if flow >= cap {
            continue;
        }
        let cut = finish_cut(sub, &dinic.min_cut_side(s), flow);
        let done = cut.weight == 1;
        best = Some(cut);
        if done {
            break;
        }
    }
    best.expect("connected subgraph with >= 2 nodes has a cut")
}
