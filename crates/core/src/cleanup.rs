//! GraLMatch Graph Cleanup — Algorithm 1 of the paper, plus the
//! Pre Graph Cleanup of Section 4.2.1.
//!
//! ```text
//! Input: matches graph G = (V, E), size thresholds γ and μ
//! 1: C = connected components of G
//! 2: c* ← largest component
//! 3: while |c*| > γ:
//! 4:     E_mincut ← MinEdgeCut(c*)
//! 5:     G ← (V, E \ E_mincut)
//! 6:     c* ← largest component
//! 7: while |c*| > μ:
//! 8:     e_maxBC ← argmax BetweennessCentrality(e), e ∈ c*
//! 9:     G ← (V, E \ e_maxBC)
//! 10:    c* ← largest component
//! 11: Output: connected components of G
//! ```
//!
//! μ is set to the number of data sources ("each group is expected to have
//! at most one record per data source"); γ controls the crossover from the
//! cheaper min-cut phase to the more conservative betweenness phase. The
//! sensitivity variants of Table 4 — MEC-only (γ = μ), BC-only (γ = ∞), ½γ —
//! are expressed through [`CleanupConfig::variant`].
//!
//! ## Scaling
//!
//! Connected components are independent under edge *removal*, so the
//! cleanup decomposes perfectly: [`graph_cleanup_with_pool`] fans dirty
//! components out across a [`WorkerPool`] and applies each component's
//! removed edges back into the global graph in a deterministic order
//! (components sorted by minimum node id, removals in per-component
//! discovery order). Within a component, the per-component worker keeps one
//! mutable scratch graph for the whole lineage of splits — removals mutate
//! it in place and the split sides are tracked directly from the cut, so a
//! round costs O(region) instead of O(component) and nothing is re-induced
//! from the global graph after the first copy. Oversized regions are first
//! attacked with [`most_balanced_bridge`] (a bridge is a weight-1 min cut,
//! found in O(V+E)) and only fall back to Stoer–Wagner / max-flow
//! [`global_min_cut`] when the region is 2-edge-connected. The seed
//! implementation survives as [`reference_graph_cleanup`] for benchmarking
//! and fallback-injection tests.

use gralmatch_graph::{
    betweenness::max_betweenness_edge, component_of, connected_components, global_min_cut,
    most_balanced_bridge, CutIndex, Edge, Graph, Subgraph,
};
use gralmatch_util::{Stopwatch, WorkerPool};

/// Thresholds for Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanupConfig {
    /// Components above γ are split with minimum edge cuts.
    pub gamma: usize,
    /// Components above μ (but ≤ γ) are split by removing max-betweenness
    /// edges; μ is set to the number of data sources.
    pub mu: usize,
    /// Pre-cleanup: inside components larger than this, drop positively
    /// predicted token-overlap edges (None disables; companies use 50).
    pub pre_cleanup_threshold: Option<usize>,
}

impl CleanupConfig {
    /// Table 2 thresholds for the given dataset shape.
    pub fn new(gamma: usize, mu: usize) -> Self {
        CleanupConfig {
            gamma,
            mu,
            pre_cleanup_threshold: None,
        }
    }

    /// Enable pre-cleanup at the paper's 50-record threshold.
    pub fn with_pre_cleanup(mut self, threshold: usize) -> Self {
        self.pre_cleanup_threshold = Some(threshold);
        self
    }

    /// Apply a sensitivity variant (Section 5.2.1).
    pub fn variant(mut self, variant: CleanupVariant) -> Self {
        match variant {
            CleanupVariant::Full => {}
            CleanupVariant::MinCutOnly => self.gamma = self.mu,
            CleanupVariant::BetweennessOnly => self.gamma = usize::MAX,
            CleanupVariant::HalfGamma => self.gamma = (self.gamma / 2).max(self.mu),
        }
        self
    }
}

/// The Table 4 sensitivity variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanupVariant {
    /// Algorithm 1 as published.
    Full,
    /// γ = μ: only the Minimum Edge Cut phase runs (suffix “-MEC”).
    MinCutOnly,
    /// γ = ∞: only the Betweenness Centrality phase runs (suffix “-BC”).
    BetweennessOnly,
    /// γ halved (the “(½γ)” row).
    HalfGamma,
}

/// What the cleanup did (diagnostics + the runtime ablations).
#[derive(Debug, Clone, Default)]
pub struct CleanupReport {
    /// Edges removed by the pre-cleanup.
    pub pre_cleanup_removed: usize,
    /// Edges removed by min cuts (phase 1).
    pub mincut_removed: usize,
    /// Edges removed by betweenness (phase 2).
    pub betweenness_removed: usize,
    /// Min-cut invocations (bridge or Stoer–Wagner).
    pub mincut_rounds: usize,
    /// Betweenness invocations.
    pub betweenness_rounds: usize,
    /// Wall-clock seconds of the whole cleanup (pre-cleanup + both phases).
    pub seconds: f64,
    /// Wall-clock seconds spent in pre-cleanup.
    pub pre_cleanup_seconds: f64,
    /// Wall-clock seconds spent in the min-cut phase (summed across
    /// components, so under a parallel pool this can exceed `seconds`).
    pub mincut_seconds: f64,
    /// Wall-clock seconds spent in the betweenness phase (summed across
    /// components).
    pub betweenness_seconds: f64,
    /// Min-cut rounds answered from a persistent [`CutIndex`] without a
    /// Tarjan scan of the region (0 on the non-indexed path).
    pub bridge_cache_hits: usize,
    /// Nodes the [`CutIndex`] had to Tarjan-rescan (dirty blocks plus
    /// cold/invalidated regions; 0 on the non-indexed path).
    pub rescanned_nodes: usize,
    /// Region rescans the [`CutIndex`] needed that no fed delta explains
    /// ([`CutIndexStats::heals`](gralmatch_graph::CutIndexStats::heals));
    /// 0 under a complete delta feed and on the non-indexed path.
    pub heals: usize,
}

impl CleanupReport {
    /// Fold another report into this one: counters and per-phase seconds
    /// all add. Used to combine per-component outcomes and to accumulate
    /// per-shard / per-batch reports into run totals.
    pub fn merge(&mut self, other: &CleanupReport) {
        self.pre_cleanup_removed += other.pre_cleanup_removed;
        self.mincut_removed += other.mincut_removed;
        self.betweenness_removed += other.betweenness_removed;
        self.mincut_rounds += other.mincut_rounds;
        self.betweenness_rounds += other.betweenness_rounds;
        self.seconds += other.seconds;
        self.pre_cleanup_seconds += other.pre_cleanup_seconds;
        self.mincut_seconds += other.mincut_seconds;
        self.betweenness_seconds += other.betweenness_seconds;
        self.bridge_cache_hits += other.bridge_cache_hits;
        self.rescanned_nodes += other.rescanned_nodes;
        self.heals += other.heals;
    }

    /// The per-phase timing split, in the shape trace consumers expect.
    pub fn phases(&self) -> crate::trace::CleanupPhases {
        crate::trace::CleanupPhases {
            pre_cleanup_seconds: self.pre_cleanup_seconds,
            mincut_seconds: self.mincut_seconds,
            betweenness_seconds: self.betweenness_seconds,
            bridge_cache_hits: self.bridge_cache_hits,
            rescanned_nodes: self.rescanned_nodes,
            heals: self.heals,
        }
    }
}

/// Remove token-overlap-sourced edges inside oversized components
/// (Section 4.2.1). `is_removable(a, b)` decides whether the edge `(a, b)`
/// (canonical `a < b`, global record ids) came from the Token Overlap
/// blocking (and not from an identifier blocking).
///
/// Walks the adjacency of each oversized component directly — no induced
/// subgraph, no per-edge pair construction — so the pass is O(component
/// edges) with a single batch removal at the end.
pub fn pre_cleanup(
    graph: &mut Graph,
    threshold: usize,
    is_removable: impl Fn(u32, u32) -> bool,
) -> usize {
    let components = connected_components(graph);
    pre_cleanup_edges(graph, &components, threshold, is_removable).len()
}

/// [`pre_cleanup`] over the given connected components of `graph` only,
/// returning the removed edges themselves — callers maintaining a
/// [`CutIndex`] over the graph feed them in as deltas. Components left
/// out must already be pre-cleaned (the incremental merge passes just the
/// components a batch rebuilt).
pub fn pre_cleanup_edges(
    graph: &mut Graph,
    components: &[Vec<u32>],
    threshold: usize,
    is_removable: impl Fn(u32, u32) -> bool,
) -> Vec<Edge> {
    let mut to_remove: Vec<Edge> = Vec::new();
    for component in components {
        if component.len() <= threshold {
            continue;
        }
        for &a in component {
            for b in graph.neighbors(a) {
                if a < b && is_removable(a, b) {
                    to_remove.push(Edge::new(a, b));
                }
            }
        }
    }
    graph.remove_edges(&to_remove);
    to_remove
}

/// Everything one component's cleanup decided: the global edges it removed
/// (in removal order) and its share of the report.
struct ComponentOutcome {
    removed: Vec<Edge>,
    report: CleanupReport,
}

/// Region ids still to the left of `side` after splitting: `region` minus
/// `side`, both sorted — one merge walk.
fn complement_of(region: &[u32], side: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(region.len() - side.len());
    let mut side_iter = side.iter().peekable();
    for &node in region {
        if side_iter.peek() == Some(&&node) {
            side_iter.next();
        } else {
            out.push(node);
        }
    }
    out
}

/// Run both phases of Algorithm 1 on a single connected component of
/// `graph`, without mutating it. The component is copied once into a
/// mutable scratch graph; every subsequent round induces only the region
/// it is splitting and tracks the split sides directly from the cut, so no
/// global `connected_components` pass ever runs.
///
/// Invariant: the regions in the work queues are exactly the connected
/// components of the scratch graph that may still exceed a threshold, so
/// a BFS from inside a region never escapes it.
fn cleanup_component(graph: &Graph, component: &[u32], config: &CleanupConfig) -> ComponentOutcome {
    let mut report = CleanupReport::default();
    let mut removed: Vec<Edge> = Vec::new();

    let phase1_watch = Stopwatch::start();
    let sub = Subgraph::induce(graph, component);
    let n = sub.num_nodes();
    // One mutable scratch graph per component lineage (local ids 0..n).
    let mut scratch = Graph::with_nodes(n);
    for &(a, b) in &sub.edges {
        scratch.add_edge(a, b);
    }

    // Phase 1: minimum edge cuts while |region| > γ. Bridge-first: a
    // Tarjan bridge is a weight-1 min cut found in O(V+E); Stoer–Wagner
    // only runs on 2-edge-connected regions.
    let mut phase2: Vec<Vec<u32>> = Vec::new();
    let mut queue: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
    while let Some(region) = queue.pop() {
        if region.len() <= config.gamma {
            if region.len() > config.mu {
                phase2.push(region);
            }
            continue;
        }
        let rsub = Subgraph::induce(&scratch, &region);
        let (cut_edges, side) = match most_balanced_bridge(&rsub) {
            Some(split) => (vec![split.edge], split.child_side),
            None => match global_min_cut(&rsub) {
                Some(cut) => (cut.cut_edges, cut.side),
                None => {
                    if region.len() > config.mu {
                        phase2.push(region);
                    }
                    continue;
                }
            },
        };
        report.mincut_rounds += 1;
        for &(a, b) in &cut_edges {
            let (sa, sb) = (rsub.locals[a as usize], rsub.locals[b as usize]);
            if scratch.remove_edge(sa, sb) {
                report.mincut_removed += 1;
                removed.push(Edge::new(sub.locals[sa as usize], sub.locals[sb as usize]));
            }
        }
        // The cut disconnects the region into exactly `side` and its
        // complement; `region` and `side` are sorted, so mapping the side
        // through `rsub.locals` (monotone) keeps both parts sorted.
        let side: Vec<u32> = side.iter().map(|&i| rsub.locals[i as usize]).collect();
        let other = complement_of(&region, &side);
        for part in [side, other] {
            if part.len() > config.gamma {
                queue.push(part);
            } else if part.len() > config.mu {
                phase2.push(part);
            }
        }
    }
    report.mincut_seconds = phase1_watch.elapsed_secs();

    // Phase 2: betweenness-centrality removal while |region| > μ. After a
    // removal, one BFS from an endpoint decides connectivity — the region
    // either survives intact or splits into the BFS side + complement.
    let phase2_watch = Stopwatch::start();
    while let Some(region) = phase2.pop() {
        if region.len() <= config.mu {
            continue;
        }
        let rsub = Subgraph::induce(&scratch, &region);
        let Some(((a, b), _)) = max_betweenness_edge(&rsub) else {
            continue;
        };
        report.betweenness_rounds += 1;
        let (sa, sb) = (rsub.locals[a as usize], rsub.locals[b as usize]);
        if scratch.remove_edge(sa, sb) {
            report.betweenness_removed += 1;
            removed.push(Edge::new(sub.locals[sa as usize], sub.locals[sb as usize]));
        }
        let side = component_of(&scratch, sa);
        if side.binary_search(&sb).is_ok() {
            // Still connected: same region, one edge lighter.
            phase2.push(region);
        } else {
            let other = complement_of(&region, &side);
            for part in [side, other] {
                if part.len() > config.mu {
                    phase2.push(part);
                }
            }
        }
    }
    report.betweenness_seconds = phase2_watch.elapsed_secs();

    ComponentOutcome { removed, report }
}

/// A bridge carried through the indexed phase-1 recursion:
/// `(component-local edge, dense block of .0, dense block of .1)`.
type BlockBridge = ((u32, u32), u32, u32);

/// [`cleanup_component`] with the per-round Tarjan scan replaced by a
/// lookup against the persistent [`CutIndex`].
///
/// The index is consulted **once** per component for its bridge/block
/// structure (a cache hit when the caller kept the delta feed complete; a
/// region rescan otherwise — the oracle computation). Each phase-1 round
/// then answers `most_balanced_bridge` by walking the carried block tree
/// — O(bridges in region) instead of O(region) — which is exact because
/// cutting a bridge removes a block-tree edge and changes nothing else:
/// the two sides inherit their blocks and bridges verbatim. The first
/// Stoer–Wagner fallback inside a region invalidates that region's carried
/// structure (a multi-edge cut rips through block interiors), so its
/// descendants fall back to the oracle scan — keeping the output
/// bit-for-bit identical to [`cleanup_component`] on every input.
fn cleanup_component_indexed(
    graph: &Graph,
    component: &[u32],
    config: &CleanupConfig,
    index: &mut CutIndex,
) -> ComponentOutcome {
    let mut report = CleanupReport::default();
    let mut removed: Vec<Edge> = Vec::new();

    let phase1_watch = Stopwatch::start();
    let sub = Subgraph::induce(graph, component);
    let n = sub.num_nodes();
    let mut scratch = Graph::with_nodes(n);
    for &(a, b) in &sub.edges {
        scratch.add_edge(a, b);
    }

    let before = index.stats;
    let structure = index.structure_for(&sub, component);
    report.rescanned_nodes = index.stats.rescanned_nodes - before.rescanned_nodes;
    report.heals = index.stats.heals - before.heals;
    let block_of = structure.block_of;
    let num_blocks = structure.num_blocks as usize;

    // Reusable per-round buffers over the (fixed) block id space.
    let mut counts: Vec<u32> = vec![0; num_blocks];
    let mut block_adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_blocks]; // (other block, bridge idx)
    let mut on_side: Vec<bool> = vec![false; num_blocks];

    let mut phase2: Vec<Vec<u32>> = Vec::new();
    let mut queue: Vec<(Vec<u32>, Option<Vec<BlockBridge>>)> =
        vec![((0..n as u32).collect(), Some(structure.bridges))];
    while let Some((region, blocks)) = queue.pop() {
        if region.len() <= config.gamma {
            if region.len() > config.mu {
                phase2.push(region);
            }
            continue;
        }
        let cached = blocks.as_ref().is_some_and(|bridges| !bridges.is_empty());
        if !cached {
            // No usable structure (post-Stoer–Wagner region) or a
            // 2-edge-connected region: exactly the oracle's round.
            let bridge_known_absent = blocks.is_some();
            let rsub = Subgraph::induce(&scratch, &region);
            let split = if bridge_known_absent {
                debug_assert!(most_balanced_bridge(&rsub).is_none());
                None
            } else {
                most_balanced_bridge(&rsub)
            };
            let (cut_edges, side) = match split {
                Some(split) => (vec![split.edge], split.child_side),
                None => match global_min_cut(&rsub) {
                    Some(cut) => (cut.cut_edges, cut.side),
                    None => {
                        if region.len() > config.mu {
                            phase2.push(region);
                        }
                        continue;
                    }
                },
            };
            report.mincut_rounds += 1;
            for &(a, b) in &cut_edges {
                let (sa, sb) = (rsub.locals[a as usize], rsub.locals[b as usize]);
                if scratch.remove_edge(sa, sb) {
                    report.mincut_removed += 1;
                    removed.push(Edge::new(sub.locals[sa as usize], sub.locals[sb as usize]));
                }
            }
            let side: Vec<u32> = side.iter().map(|&i| rsub.locals[i as usize]).collect();
            let other = complement_of(&region, &side);
            for part in [side, other] {
                if part.len() > config.gamma {
                    queue.push((part, None));
                } else if part.len() > config.mu {
                    phase2.push(part);
                }
            }
            continue;
        }

        // Cached round: answer most_balanced_bridge from the block tree.
        let bridges = blocks.unwrap();
        let mut touched: Vec<u32> = Vec::new();
        for &node in &region {
            let block = block_of[node as usize] as usize;
            if counts[block] == 0 {
                touched.push(block as u32);
            }
            counts[block] += 1;
        }
        for (i, &(_, x, y)) in bridges.iter().enumerate() {
            block_adj[x as usize].push((y, i as u32));
            block_adj[y as usize].push((x, i as u32));
        }
        // Subtree weights below each bridge, away from the region
        // minimum's block — the size the oracle's Tarjan assigns to the
        // bridge's child side.
        let root = block_of[region[0] as usize];
        let mut order: Vec<u32> = Vec::with_capacity(touched.len());
        let mut child_block: Vec<u32> = vec![u32::MAX; bridges.len()];
        let mut parent_bridge: Vec<u32> = vec![u32::MAX; num_blocks];
        let mut stack: Vec<u32> = vec![root];
        parent_bridge[root as usize] = u32::MAX - 1; // visited marker
        while let Some(block) = stack.pop() {
            order.push(block);
            for &(next, bridge) in &block_adj[block as usize] {
                if parent_bridge[next as usize] == u32::MAX {
                    parent_bridge[next as usize] = bridge;
                    child_block[bridge as usize] = next;
                    stack.push(next);
                }
            }
        }
        let mut subtree: Vec<u32> = vec![0; num_blocks];
        for &block in &touched {
            subtree[block as usize] = counts[block as usize];
        }
        for &block in order.iter().rev() {
            let bridge = parent_bridge[block as usize];
            if bridge < u32::MAX - 1 {
                let (_, x, y) = bridges[bridge as usize];
                let parent = if child_block[bridge as usize] == x {
                    y
                } else {
                    x
                };
                subtree[parent as usize] += subtree[block as usize];
            }
        }
        let (best, _) = bridges
            .iter()
            .enumerate()
            .max_by_key(|&(i, (edge, _, _))| {
                let size = subtree[child_block[i] as usize] as usize;
                (size.min(region.len() - size), std::cmp::Reverse(*edge))
            })
            .expect("bridges non-empty");
        // Child side: every block hanging below the chosen bridge. The
        // oracle roots its DFS at the region minimum, so its child side
        // is exactly the side not containing `root`.
        let mut side_blocks: Vec<u32> = vec![child_block[best]];
        on_side[child_block[best] as usize] = true;
        let mut walk = vec![child_block[best]];
        while let Some(block) = walk.pop() {
            for &(next, bridge) in &block_adj[block as usize] {
                if bridge != best as u32 && !on_side[next as usize] {
                    on_side[next as usize] = true;
                    side_blocks.push(next);
                    walk.push(next);
                }
            }
        }
        let side: Vec<u32> = region
            .iter()
            .copied()
            .filter(|&node| on_side[block_of[node as usize] as usize])
            .collect();

        let ((la, lb), _, _) = bridges[best];
        report.mincut_rounds += 1;
        report.bridge_cache_hits += 1;
        if scratch.remove_edge(la, lb) {
            report.mincut_removed += 1;
            removed.push(Edge::new(sub.locals[la as usize], sub.locals[lb as usize]));
        }
        let mut side_bridges: Vec<BlockBridge> = Vec::new();
        let mut other_bridges: Vec<BlockBridge> = Vec::new();
        for (i, &bridge) in bridges.iter().enumerate() {
            if i == best {
                continue;
            }
            if on_side[bridge.1 as usize] {
                side_bridges.push(bridge);
            } else {
                other_bridges.push(bridge);
            }
        }
        // Reset the reusable buffers before the region vectors move.
        for &block in &touched {
            counts[block as usize] = 0;
            block_adj[block as usize].clear();
            parent_bridge[block as usize] = u32::MAX;
        }
        for &block in &side_blocks {
            on_side[block as usize] = false;
        }
        let other = complement_of(&region, &side);
        for (part, part_bridges) in [(side, side_bridges), (other, other_bridges)] {
            if part.len() > config.gamma {
                queue.push((part, Some(part_bridges)));
            } else if part.len() > config.mu {
                phase2.push(part);
            }
        }
    }
    report.mincut_seconds = phase1_watch.elapsed_secs();

    // Phase 2 is identical to the oracle's: betweenness removal on the
    // scratch graph.
    let phase2_watch = Stopwatch::start();
    while let Some(region) = phase2.pop() {
        if region.len() <= config.mu {
            continue;
        }
        let rsub = Subgraph::induce(&scratch, &region);
        let Some(((a, b), _)) = max_betweenness_edge(&rsub) else {
            continue;
        };
        report.betweenness_rounds += 1;
        let (sa, sb) = (rsub.locals[a as usize], rsub.locals[b as usize]);
        if scratch.remove_edge(sa, sb) {
            report.betweenness_removed += 1;
            removed.push(Edge::new(sub.locals[sa as usize], sub.locals[sb as usize]));
        }
        let side = component_of(&scratch, sa);
        if side.binary_search(&sb).is_ok() {
            phase2.push(region);
        } else {
            let other = complement_of(&region, &side);
            for part in [side, other] {
                if part.len() > config.mu {
                    phase2.push(part);
                }
            }
        }
    }
    report.betweenness_seconds = phase2_watch.elapsed_secs();

    ComponentOutcome { removed, report }
}

/// Run Algorithm 1 in place like [`graph_cleanup_with_pool`] over the
/// given connected components of `graph` (sorted members each),
/// consulting (and maintaining) a persistent [`CutIndex`] so steady-state
/// churn pays O(affected region) instead of re-scanning every dirty
/// component. Components left out must already be clean; the incremental
/// merge passes just the components a batch rebuilt, a whole-graph caller
/// passes [`connected_components`].
///
/// The caller owns the index across calls and must have fed every edge
/// mutation of `graph` since the index was last rebuilt (the engine's
/// merge path does); the removals this cleanup applies are fed back here,
/// so afterwards the index mirrors the cleaned graph again. Components
/// run sequentially (the index is a single mutable structure), in the
/// same sorted order as the pooled path, producing a bit-identical
/// removed-edge sequence and report counters — plus the
/// `bridge_cache_hits` / `rescanned_nodes` / `heals` diagnostics.
pub fn graph_cleanup_with_index(
    graph: &mut Graph,
    components: &[Vec<u32>],
    config: &CleanupConfig,
    index: &mut CutIndex,
) -> CleanupReport {
    let stopwatch = Stopwatch::start();
    let mut report = CleanupReport::default();

    let mut components: Vec<&Vec<u32>> = components
        .iter()
        .filter(|component| component.len() > config.mu.min(config.gamma))
        .collect();
    components.sort_unstable_by_key(|component| component[0]);

    for component in components {
        let outcome = cleanup_component_indexed(graph, component, config, index);
        for edge in &outcome.removed {
            graph.remove_edge(edge.a, edge.b);
            index.remove_edge(edge.a, edge.b);
        }
        report.merge(&outcome.report);
    }
    report.seconds = stopwatch.elapsed_secs();
    report
}

/// Run Algorithm 1 in place, sequentially. Returns a report; the graph's
/// final components are the output groups. Equivalent to
/// [`graph_cleanup_with_pool`] with one worker.
pub fn graph_cleanup(graph: &mut Graph, config: &CleanupConfig) -> CleanupReport {
    graph_cleanup_with_pool(graph, config, &WorkerPool::new(1))
}

/// Run Algorithm 1 in place, cleaning independent oversized components in
/// parallel on `pool`.
///
/// Deterministic regardless of worker count: components are processed in
/// ascending minimum-node-id order, each component's decisions depend only
/// on its own induced subgraph, and the pool preserves input order, so the
/// removed-edge sequence and the report counters are bit-identical to the
/// sequential run.
pub fn graph_cleanup_with_pool(
    graph: &mut Graph,
    config: &CleanupConfig,
    pool: &WorkerPool,
) -> CleanupReport {
    let stopwatch = Stopwatch::start();
    let mut report = CleanupReport::default();

    let mut components: Vec<Vec<u32>> = connected_components(graph)
        .into_iter()
        .filter(|component| component.len() > config.mu.min(config.gamma))
        .collect();
    // Deterministic work order: by minimum node id (members are sorted).
    components.sort_unstable_by_key(|component| component[0]);

    let shared: &Graph = graph;
    let outcomes = pool.map(&components, |component| {
        cleanup_component(shared, component, config)
    });
    for outcome in &outcomes {
        for edge in &outcome.removed {
            graph.remove_edge(edge.a, edge.b);
        }
        report.merge(&outcome.report);
    }
    // Per-component seconds sum worker time; the headline number is wall.
    report.seconds = stopwatch.elapsed_secs();
    report
}

/// The seed implementation of Algorithm 1: re-induce the whole component
/// from the global graph and rebuild a fresh local graph after **every**
/// edge removal, with a full `connected_components` pass per round.
///
/// Kept as the wall-clock baseline for the hub bench (`hubbench`) and for
/// verifying that the perf gate catches a regression to sequential
/// full-recompute behaviour. Produces the same final components as
/// [`graph_cleanup`] (all ≤ μ) but may choose different cut edges, so do
/// not compare removed-edge sets across the two.
pub fn reference_graph_cleanup(graph: &mut Graph, config: &CleanupConfig) -> CleanupReport {
    let stopwatch = Stopwatch::start();
    let mut report = CleanupReport::default();

    let mut queue: Vec<Vec<u32>> = connected_components(graph)
        .into_iter()
        .filter(|component| component.len() > config.mu.min(config.gamma))
        .collect();

    // Phase 1: minimum edge cuts while |c| > γ.
    let phase1_watch = Stopwatch::start();
    let mut phase2: Vec<Vec<u32>> = Vec::new();
    while let Some(component) = queue.pop() {
        if component.len() <= config.gamma {
            phase2.push(component);
            continue;
        }
        let sub = Subgraph::induce(graph, &component);
        let Some(cut) = global_min_cut(&sub) else {
            phase2.push(component);
            continue;
        };
        report.mincut_rounds += 1;
        for &(a, b) in &cut.cut_edges {
            if graph.remove_edge(sub.locals[a as usize], sub.locals[b as usize]) {
                report.mincut_removed += 1;
            }
        }
        let local_graph = {
            let mut g = Graph::with_nodes(sub.num_nodes());
            for &(a, b) in &sub.edges {
                g.add_edge(a, b);
            }
            for &(a, b) in &cut.cut_edges {
                g.remove_edge(a, b);
            }
            g
        };
        for part in connected_components(&local_graph) {
            let originals: Vec<u32> = part.iter().map(|&i| sub.locals[i as usize]).collect();
            if originals.len() > config.mu {
                queue.push(originals);
            }
        }
    }
    report.mincut_seconds = phase1_watch.elapsed_secs();

    // Phase 2: betweenness-centrality removal while |c| > μ.
    let phase2_watch = Stopwatch::start();
    while let Some(component) = phase2.pop() {
        if component.len() <= config.mu {
            continue;
        }
        let sub = Subgraph::induce(graph, &component);
        let Some(((a, b), _)) = max_betweenness_edge(&sub) else {
            continue;
        };
        report.betweenness_rounds += 1;
        if graph.remove_edge(sub.locals[a as usize], sub.locals[b as usize]) {
            report.betweenness_removed += 1;
        }
        let local_graph = {
            let mut g = Graph::with_nodes(sub.num_nodes());
            for &edge in &sub.edges {
                g.add_edge(edge.0, edge.1);
            }
            g.remove_edge(a, b);
            g
        };
        for part in connected_components(&local_graph) {
            let originals: Vec<u32> = part.iter().map(|&i| sub.locals[i as usize]).collect();
            if originals.len() > config.mu {
                phase2.push(originals);
            }
        }
    }
    report.betweenness_seconds = phase2_watch.elapsed_secs();

    report.seconds = stopwatch.elapsed_secs();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_graph::largest_component;

    /// Two K4 cliques joined by one false edge.
    fn two_cliques_bridged() -> Graph {
        let mut graph = Graph::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    graph.add_edge(base + i, base + j);
                }
            }
        }
        graph.add_edge(3, 4); // the false positive
        graph
    }

    #[test]
    fn bridge_removed_by_mincut_phase() {
        let mut graph = two_cliques_bridged();
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.mincut_removed, 1);
        assert!(!graph.has_edge(3, 4));
        let components = connected_components(&graph);
        assert_eq!(components.len(), 2);
        assert_eq!(components[0].len(), 4);
    }

    #[test]
    fn bridge_removed_by_betweenness_phase() {
        let mut graph = two_cliques_bridged();
        let config = CleanupConfig::new(5, 4).variant(CleanupVariant::BetweennessOnly);
        let report = graph_cleanup(&mut graph, &config);
        assert_eq!(report.betweenness_removed, 1);
        assert!(!graph.has_edge(3, 4));
    }

    #[test]
    fn all_components_below_mu_afterwards() {
        // Chain of 4 triangles — a long straggly component.
        let mut graph = Graph::new();
        for k in 0..4u32 {
            let base = k * 3;
            graph.add_edge(base, base + 1);
            graph.add_edge(base + 1, base + 2);
            graph.add_edge(base + 2, base);
            if k > 0 {
                graph.add_edge(base - 1, base);
            }
        }
        graph_cleanup(&mut graph, &CleanupConfig::new(6, 3));
        let largest = largest_component(&graph).unwrap();
        assert!(largest.len() <= 3, "largest {}", largest.len());
    }

    #[test]
    fn clean_graph_untouched() {
        // Components already within μ: nothing removed.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (3, 4)]);
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(40, 8));
        assert_eq!(report.mincut_removed + report.betweenness_removed, 0);
        assert_eq!(graph.num_edges(), 3);
    }

    #[test]
    fn mec_only_variant_skips_betweenness() {
        let mut graph = two_cliques_bridged();
        let config = CleanupConfig::new(5, 4).variant(CleanupVariant::MinCutOnly);
        assert_eq!(config.gamma, config.mu);
        let report = graph_cleanup(&mut graph, &config);
        assert_eq!(report.betweenness_rounds, 0);
        assert!(report.mincut_rounds > 0);
    }

    #[test]
    fn half_gamma_variant() {
        let config = CleanupConfig::new(40, 8).variant(CleanupVariant::HalfGamma);
        assert_eq!(config.gamma, 20);
        // Never below μ.
        let config2 = CleanupConfig::new(9, 8).variant(CleanupVariant::HalfGamma);
        assert_eq!(config2.gamma, 8);
    }

    #[test]
    fn pre_cleanup_drops_marked_edges_in_big_components() {
        // A 6-node path; threshold 4 → the component qualifies; mark every
        // edge removable.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let removed = pre_cleanup(&mut graph, 4, |_, _| true);
        assert_eq!(removed, 5);
        assert_eq!(graph.num_edges(), 0);
    }

    #[test]
    fn pre_cleanup_spares_small_components() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2)]);
        let removed = pre_cleanup(&mut graph, 4, |_, _| true);
        assert_eq!(removed, 0);
        assert_eq!(graph.num_edges(), 2);
    }

    #[test]
    fn pre_cleanup_respects_predicate() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let removed = pre_cleanup(&mut graph, 4, |a, _| a == 0);
        assert_eq!(removed, 1);
        assert!(!graph.has_edge(0, 1));
        assert!(graph.has_edge(1, 2));
    }

    #[test]
    fn report_counts_rounds() {
        let mut graph = two_cliques_bridged();
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(5, 4));
        assert!(report.mincut_rounds >= 1);
        assert!(report.seconds >= 0.0);
        // The phase split is populated and consistent with the rounds.
        assert!(report.mincut_seconds >= 0.0);
        assert!(report.betweenness_seconds >= 0.0);
    }

    #[test]
    fn report_merge_sums_all_fields() {
        let mut total = CleanupReport {
            pre_cleanup_removed: 1,
            mincut_removed: 2,
            betweenness_removed: 3,
            mincut_rounds: 4,
            betweenness_rounds: 5,
            seconds: 0.5,
            pre_cleanup_seconds: 0.1,
            mincut_seconds: 0.2,
            betweenness_seconds: 0.2,
            bridge_cache_hits: 6,
            rescanned_nodes: 7,
            heals: 8,
        };
        let part = CleanupReport {
            pre_cleanup_removed: 10,
            mincut_removed: 20,
            betweenness_removed: 30,
            mincut_rounds: 40,
            betweenness_rounds: 50,
            seconds: 1.0,
            pre_cleanup_seconds: 0.25,
            mincut_seconds: 0.5,
            betweenness_seconds: 0.25,
            bridge_cache_hits: 60,
            rescanned_nodes: 70,
            heals: 80,
        };
        total.merge(&part);
        assert_eq!(total.pre_cleanup_removed, 11);
        assert_eq!(total.mincut_removed, 22);
        assert_eq!(total.betweenness_removed, 33);
        assert_eq!(total.mincut_rounds, 44);
        assert_eq!(total.betweenness_rounds, 55);
        assert!((total.seconds - 1.5).abs() < 1e-12);
        assert!((total.pre_cleanup_seconds - 0.35).abs() < 1e-12);
        assert!((total.mincut_seconds - 0.7).abs() < 1e-12);
        assert!((total.betweenness_seconds - 0.45).abs() < 1e-12);
        assert_eq!(total.bridge_cache_hits, 66);
        assert_eq!(total.rescanned_nodes, 77);
        assert_eq!(total.heals, 88);
    }

    /// A miniature hub: `groups` cliques of `size` nodes, the first node of
    /// each clique linked to one shared hub node (node 0).
    fn hub_graph(groups: u32, size: u32) -> Graph {
        let mut graph = Graph::new();
        graph.ensure_node(0);
        for g in 0..groups {
            let base = 1 + g * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    graph.add_edge(base + i, base + j);
                }
            }
            graph.add_edge(0, base);
        }
        graph
    }

    #[test]
    fn bridge_first_shatters_hub_component() {
        // 12 cliques of 4 around one hub: a 49-node mega-component whose
        // false edges are all bridges. γ=5, μ=4 → every clique survives and
        // the hub is isolated. Phase 1 peels one clique per bridge round
        // until the region is hub + one clique (5 nodes, ≤ γ but > μ),
        // which routes to phase 2 for the final bridge.
        let mut graph = hub_graph(12, 4);
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.mincut_removed, 11);
        assert_eq!(report.betweenness_removed, 1);
        let components = connected_components(&graph);
        // 12 cliques of 4 plus the isolated hub.
        assert_eq!(components[0].len(), 4);
        assert!(largest_component(&graph).unwrap().len() <= 4);
        for g in 0..12u32 {
            assert!(!graph.has_edge(0, 1 + g * 4));
        }
    }

    #[test]
    fn parallel_pool_matches_sequential_bit_for_bit() {
        let build = || {
            let mut graph = hub_graph(8, 5);
            // A second oversized component: chain of triangles offset high.
            for k in 0..4u32 {
                let base = 1000 + k * 3;
                graph.add_edge(base, base + 1);
                graph.add_edge(base + 1, base + 2);
                graph.add_edge(base + 2, base);
                if k > 0 {
                    graph.add_edge(base - 1, base);
                }
            }
            graph
        };
        let config = CleanupConfig::new(6, 4);
        let mut sequential = build();
        let seq_report = graph_cleanup(&mut sequential, &config);
        let mut parallel = build();
        let par_report = graph_cleanup_with_pool(&mut parallel, &config, &WorkerPool::new(4));
        let mut seq_edges: Vec<Edge> = sequential.edges().collect();
        let mut par_edges: Vec<Edge> = parallel.edges().collect();
        seq_edges.sort_unstable();
        par_edges.sort_unstable();
        assert_eq!(seq_edges, par_edges);
        assert_eq!(seq_report.mincut_removed, par_report.mincut_removed);
        assert_eq!(
            seq_report.betweenness_removed,
            par_report.betweenness_removed
        );
        assert_eq!(seq_report.mincut_rounds, par_report.mincut_rounds);
        assert_eq!(seq_report.betweenness_rounds, par_report.betweenness_rounds);
    }

    #[test]
    fn reference_cleanup_reaches_same_size_bound() {
        let config = CleanupConfig::new(5, 4);
        let mut fast = hub_graph(10, 4);
        let mut reference = hub_graph(10, 4);
        graph_cleanup(&mut fast, &config);
        reference_graph_cleanup(&mut reference, &config);
        assert!(largest_component(&fast).unwrap().len() <= 4);
        assert!(largest_component(&reference).unwrap().len() <= 4);
    }

    fn sorted_edges(graph: &Graph) -> Vec<Edge> {
        let mut edges: Vec<Edge> = graph.edges().collect();
        edges.sort_unstable();
        edges
    }

    /// Run the indexed and the plain cleanup on copies of `graph` and
    /// assert the results are bit-for-bit identical; returns the indexed
    /// report (carrying the cache diagnostics).
    fn assert_indexed_matches(graph: &Graph, config: &CleanupConfig) -> CleanupReport {
        let mut plain = graph.clone();
        let plain_report = graph_cleanup(&mut plain, config);
        let mut indexed = graph.clone();
        let mut index = CutIndex::new();
        index.rebuild_from(&indexed);
        let components = connected_components(&indexed);
        let indexed_report =
            graph_cleanup_with_index(&mut indexed, &components, config, &mut index);
        assert_eq!(sorted_edges(&plain), sorted_edges(&indexed));
        assert_eq!(plain_report.mincut_removed, indexed_report.mincut_removed);
        assert_eq!(plain_report.mincut_rounds, indexed_report.mincut_rounds);
        assert_eq!(
            plain_report.betweenness_removed,
            indexed_report.betweenness_removed
        );
        assert_eq!(
            plain_report.betweenness_rounds,
            indexed_report.betweenness_rounds
        );
        indexed_report
    }

    #[test]
    fn indexed_cleanup_matches_plain_on_hub() {
        // Every false edge is a bridge: the indexed path should answer all
        // phase-1 rounds from the cached block tree without rescanning.
        let graph = hub_graph(12, 4);
        let report = assert_indexed_matches(&graph, &CleanupConfig::new(5, 4));
        assert!(report.bridge_cache_hits > 0);
        assert_eq!(report.rescanned_nodes, 0, "freshly built index is warm");
    }

    #[test]
    fn indexed_cleanup_matches_plain_on_two_edge_connected() {
        // Two K4s joined by two parallel link edges: no bridge exists, so
        // the indexed path must take the Stoer–Wagner fallback and still
        // match the oracle exactly.
        let mut graph = two_cliques_bridged();
        graph.add_edge(1, 5); // second link alongside (0, 4)
        let report = assert_indexed_matches(&graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.bridge_cache_hits, 0, "no bridges to cache");
    }

    #[test]
    fn indexed_cleanup_matches_plain_on_mixed_structure() {
        // Hub of cliques with one pair of cliques double-linked: the first
        // rounds run from the cache, the 2-edge-connected remnant falls
        // back to min cut, and its descendants re-enter the oracle path.
        let mut graph = hub_graph(8, 4);
        graph.add_edge(2, 6); // weld clique 0 to clique 1 (bridges stay elsewhere)
        graph.add_edge(3, 7);
        let report = assert_indexed_matches(&graph, &CleanupConfig::new(5, 4));
        assert!(report.bridge_cache_hits > 0);
    }

    #[test]
    fn indexed_cleanup_is_warm_across_churn_batches() {
        // Steady-state churn: re-adding the cut bridges and cleaning again
        // must reuse the maintained index with zero Tarjan rescans, while
        // staying identical to a from-scratch cleanup of the same graph.
        let config = CleanupConfig::new(5, 4);
        let mut graph = hub_graph(12, 4);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        let before = sorted_edges(&graph);
        let components = connected_components(&graph);
        graph_cleanup_with_index(&mut graph, &components, &config, &mut index);
        for round in 0..3 {
            // Re-add every edge the cleanup removed (the hub bridges).
            let cleaned = sorted_edges(&graph);
            for edge in &before {
                if cleaned.binary_search(edge).is_err() {
                    graph.add_edge(edge.a, edge.b);
                    index.insert_edge(edge.a, edge.b);
                }
            }
            let mut oracle = graph.clone();
            let oracle_report = graph_cleanup(&mut oracle, &config);
            let components = connected_components(&graph);
            let report = graph_cleanup_with_index(&mut graph, &components, &config, &mut index);
            assert_eq!(sorted_edges(&oracle), sorted_edges(&graph));
            assert_eq!(report.mincut_removed, oracle_report.mincut_removed);
            assert_eq!(report.rescanned_nodes, 0, "round {round} should be warm");
            assert_eq!(report.heals, 0);
            assert!(report.bridge_cache_hits > 0);
        }
    }
}
