//! Incremental cut-structure maintenance: the [`CutIndex`].
//!
//! The cleanup's phase-1 workhorse is [`most_balanced_bridge`]: per round
//! it re-induces the region it is splitting and runs a Tarjan scan —
//! O(region) per round even when the batch only re-added a handful of
//! known hub bridges. The `CutIndex` makes that structure *persistent
//! across batches*: it caches, per cleaned-graph component, the
//! Tarjan-derived decomposition — 2-edge-connected blocks (a growable
//! union-find over block ids), the bridge set, and the bridge forest
//! linking blocks — and maintains it under [`insert_edge`] /
//! [`remove_edge`] deltas:
//!
//! * an insert inside one block is a no-op (the block stays
//!   2-edge-connected);
//! * an insert that closes a cycle merges the blocks along the bridge-tree
//!   path between its endpoints — pure union-find, no rescan;
//! * an insert that joins two components links their trees (the new edge
//!   is exactly the new bridge);
//! * a remove of a bridge cuts the tree — an exact split;
//! * a remove *inside* a block may create bridges, so it only marks that
//!   block dirty — the Tarjan scan re-runs lazily over the dirty block's
//!   region (never the whole component) at the next query, reducing dirty
//!   structure to a fixpoint the way the CFS analysis collapses regions.
//!
//! Every query ([`structure_for`]) revalidates what it hands out: block
//! weights must match the region, the recorded bridges must form a
//! spanning tree over the region's blocks, and any inconsistency —
//! including deltas the caller failed to feed — degrades to a full region
//! rescan, which *is* the oracle computation. The fast path can therefore
//! only ever return the exact structure a fresh Tarjan scan would.
//!
//! Such a fallback is *planned* when the index itself recorded the
//! staleness: a dirty block that a removal split across components (or
//! the remnant such a split leaves behind once one side was rescanned).
//! Every other fallback is a *heal* — structure no delta marked stale,
//! i.e. a mutation the caller failed to feed — and is counted apart in
//! [`CutIndexStats::heals`], so a broken delta feed shows up as a counter
//! instead of a slowdown.
//!
//! [`insert_edge`]: CutIndex::insert_edge
//! [`remove_edge`]: CutIndex::remove_edge
//! [`structure_for`]: CutIndex::structure_for
//! [`most_balanced_bridge`]: crate::bridges::most_balanced_bridge

use crate::bridges::cut_structure;
use crate::components::{connected_components, Subgraph};
use crate::graph::{Edge, Graph};
use gralmatch_util::{FxHashMap, FxHashSet};

/// Maintenance counters, surfaced in cleanup stage traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutIndexStats {
    /// Nodes covered by Tarjan rescans the index had to run (dirty blocks
    /// plus full-region fallbacks). Steady-state churn should keep this
    /// near zero; a cold or invalidated index pays one region scan per
    /// touched component.
    pub rescanned_nodes: usize,
    /// Region rescans no recorded delta explains (a node the index never
    /// saw, a clean block whose recorded shape no longer matches, a
    /// bridge leaving its region or breaking the block tree). Zero under
    /// a complete delta feed; their nodes are also in `rescanned_nodes`.
    pub heals: usize,
}

/// The cut structure of one region (a connected component), in the
/// region's local coordinates — directly comparable to what
/// [`cut_structure`] computes from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionStructure {
    /// Dense block id (`0..num_blocks`) per local node, first-seen in
    /// ascending local-node order.
    pub block_of: Vec<u32>,
    /// Number of 2-edge-connected blocks in the region.
    pub num_blocks: u32,
    /// Bridges as `(local edge, block of .0, block of .1)`.
    pub bridges: Vec<((u32, u32), u32, u32)>,
    /// False when the index had to fall back to a full region rescan.
    pub from_cache: bool,
}

/// Persistent incremental bridge / 2-edge-connected-block index over a
/// mutable graph (see the module docs for the maintenance rules).
///
/// The index does not own the graph: the caller applies each mutation to
/// its graph *and* feeds the same delta here. Queries take the induced
/// subgraph of the region being asked about, so rescans read the caller's
/// current adjacency.
#[derive(Debug, Default)]
pub struct CutIndex {
    /// Wholesale-invalidation epoch (model swap / recovery), bumped by
    /// [`invalidate_all`](CutIndex::invalidate_all).
    epoch: u64,
    /// Union-find parent per block id; fresh ids are appended by rescans,
    /// making stale unions unreachable (the union-find never splits).
    uf: Vec<u32>,
    /// Union-by-rank ranks.
    rank: Vec<u8>,
    /// Node count of each block, valid at root ids.
    weight: Vec<u32>,
    /// Block id per node (`u32::MAX` = unindexed), resolved through the
    /// union-find on read.
    node_block: Vec<u32>,
    /// Bridge forest: child block root → (parent block hint, bridge edge).
    /// Hints are resolved through the union-find on read.
    tree_parent: FxHashMap<u32, (u32, Edge)>,
    /// Node → neighbors across recorded bridges.
    bridge_adj: FxHashMap<u32, Vec<u32>>,
    /// Block roots whose interior may have lost 2-edge-connectivity.
    dirty: FxHashSet<u32>,
    /// Remnants of dirty blocks a region rescan split off: block root →
    /// nodes still assigned to it. Their recorded weight is knowingly
    /// stale, so the rescan their next query takes is planned, not a heal.
    split: FxHashMap<u32, u32>,
    /// Maintenance counters.
    pub stats: CutIndexStats,
}

impl CutIndex {
    /// An empty index: every query falls back to a region rescan until
    /// the structure is (re)built.
    pub fn new() -> Self {
        CutIndex::default()
    }

    /// The wholesale-invalidation epoch (bumped by
    /// [`invalidate_all`](CutIndex::invalidate_all) and
    /// [`rebuild_from`](CutIndex::rebuild_from)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drop all cached structure and bump the epoch. Queries degrade to
    /// full region rescans until components are touched again.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
        self.uf.clear();
        self.rank.clear();
        self.weight.clear();
        self.node_block.clear();
        self.tree_parent.clear();
        self.bridge_adj.clear();
        self.dirty.clear();
        self.split.clear();
    }

    /// Invalidate, then eagerly rebuild the structure of every component
    /// of `graph` (one scan pass, O(V + E)). Required after wholesale
    /// graph replacement: delta maintenance assumes an indexed node's
    /// edges are all represented, which only holds if the index was built
    /// from the same graph the deltas apply to.
    pub fn rebuild_from(&mut self, graph: &Graph) {
        self.invalidate_all();
        let rescans_before = self.stats.rescanned_nodes;
        for component in connected_components(graph) {
            if component.len() < 2 {
                continue;
            }
            let sub = Subgraph::induce(graph, &component);
            self.install_region_scan(&sub, &component);
        }
        // A rebuild is a bulk load, not a cache miss worth alarming on.
        self.stats.rescanned_nodes = rescans_before;
    }

    fn find(&mut self, mut b: u32) -> u32 {
        while self.uf[b as usize] != b {
            let grand = self.uf[self.uf[b as usize] as usize];
            self.uf[b as usize] = grand;
            b = grand;
        }
        b
    }

    fn fresh_block(&mut self, weight: u32) -> u32 {
        let id = self.uf.len() as u32;
        self.uf.push(id);
        self.rank.push(0);
        self.weight.push(weight);
        id
    }

    /// Union two block roots; weights add, dirtiness is inherited.
    /// Returns the surviving root.
    fn union_roots(&mut self, a: u32, b: u32) -> u32 {
        debug_assert!(self.uf[a as usize] == a && self.uf[b as usize] == b);
        if a == b {
            return a;
        }
        let (winner, loser) = if self.rank[a as usize] >= self.rank[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        if self.rank[winner as usize] == self.rank[loser as usize] {
            self.rank[winner as usize] += 1;
        }
        let (loser_split, winner_split) = (self.split.remove(&loser), self.split.remove(&winner));
        if loser_split.is_some() || winner_split.is_some() {
            let live = loser_split.unwrap_or(self.weight[loser as usize])
                + winner_split.unwrap_or(self.weight[winner as usize]);
            self.split.insert(winner, live);
        }
        self.uf[loser as usize] = winner;
        self.weight[winner as usize] += self.weight[loser as usize];
        if self.dirty.remove(&loser) {
            self.dirty.insert(winner);
        }
        winner
    }

    /// Current block root of a node, if the node is indexed.
    fn block_root(&mut self, node: u32) -> Option<u32> {
        let slot = *self.node_block.get(node as usize)?;
        if slot == u32::MAX {
            return None;
        }
        Some(self.find(slot))
    }

    /// Block root of a node, creating a fresh singleton block for nodes
    /// the index has never seen (their first edge is being inserted).
    fn block_root_or_singleton(&mut self, node: u32) -> u32 {
        if self.node_block.len() <= node as usize {
            self.node_block.resize(node as usize + 1, u32::MAX);
        }
        match self.block_root(node) {
            Some(root) => root,
            None => {
                let block = self.fresh_block(1);
                self.node_block[node as usize] = block;
                block
            }
        }
    }

    /// The path of block roots from `start` to its tree root (inclusive).
    /// Corrupted parent chains (cycles) are cut short; the query-time
    /// validation turns whatever garbage remains into a region rescan.
    fn root_path(&mut self, start: u32) -> Vec<u32> {
        let mut path = vec![start];
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        seen.insert(start);
        let mut cur = start;
        while let Some(&(hint, _)) = self.tree_parent.get(&cur) {
            let parent = self.find(hint);
            if !seen.insert(parent) {
                break;
            }
            path.push(parent);
            cur = parent;
        }
        path
    }

    fn record_bridge(&mut self, a: u32, b: u32) {
        self.bridge_adj.entry(a).or_default().push(b);
        self.bridge_adj.entry(b).or_default().push(a);
    }

    fn erase_bridge(&mut self, a: u32, b: u32) {
        for (u, v) in [(a, b), (b, a)] {
            if let Some(list) = self.bridge_adj.get_mut(&u) {
                if let Some(pos) = list.iter().position(|&w| w == v) {
                    list.swap_remove(pos);
                }
                if list.is_empty() {
                    self.bridge_adj.remove(&u);
                }
            }
        }
    }

    /// Reverse the parent links along `path` (a [`root_path`] result) so
    /// the path's first block becomes the root of its tree.
    fn evert(&mut self, path: &[u32]) {
        let mut reversed: Vec<(u32, (u32, Edge))> = Vec::with_capacity(path.len());
        for window in path.windows(2) {
            let (child, parent) = (window[0], window[1]);
            if let Some((_, edge)) = self.tree_parent.remove(&child) {
                reversed.push((parent, (child, edge)));
            }
        }
        for (block, entry) in reversed {
            self.tree_parent.insert(block, entry);
        }
    }

    /// Feed one edge insertion (the caller has already added it to its
    /// graph). O(tree depth) plus union-find work.
    pub fn insert_edge(&mut self, a: u32, b: u32) {
        let ba = self.block_root_or_singleton(a);
        let bb = self.block_root_or_singleton(b);
        let (ra, rb) = (self.find(ba), self.find(bb));
        if ra == rb {
            // Inside one 2-edge-connected block: nothing changes.
            return;
        }
        let path_a = self.root_path(ra);
        let path_b = self.root_path(rb);
        if path_a.last() != path_b.last() {
            // Two components: the new edge is exactly the new bridge.
            // Re-root `b`'s tree at its own block, then hang it below
            // `a`'s block.
            self.evert(&path_b);
            self.tree_parent.insert(rb, (ra, Edge::new(a, b)));
            self.record_bridge(a, b);
        } else {
            // Same tree: the edge closes a cycle through the tree path
            // ra ‥ LCA ‥ rb — every block on it merges into one, and the
            // path's bridges stop being bridges. Pure union-find.
            let on_a: FxHashSet<u32> = path_a.iter().copied().collect();
            let lca = *path_b.iter().find(|block| on_a.contains(block)).unwrap();
            let mut merged: Vec<u32> = Vec::new();
            for path in [&path_a, &path_b] {
                for &block in path.iter().take_while(|&&block| block != lca) {
                    merged.push(block);
                }
            }
            merged.push(lca);
            let saved_parent = self.tree_parent.remove(&lca);
            for &block in &merged {
                if block == lca {
                    continue;
                }
                if let Some((_, edge)) = self.tree_parent.remove(&block) {
                    self.erase_bridge(edge.a, edge.b);
                }
            }
            let mut root = merged[0];
            for &block in &merged[1..] {
                root = self.union_roots(root, block);
            }
            if let Some(entry) = saved_parent {
                self.tree_parent.insert(root, entry);
            }
        }
    }

    /// Feed one edge removal (the caller has already removed it from its
    /// graph). Removing a recorded bridge cuts the tree exactly; removing
    /// a block-interior edge marks only that block dirty — the scan runs
    /// lazily, scoped to the block, at the next query.
    pub fn remove_edge(&mut self, a: u32, b: u32) {
        let (Some(ra), Some(rb)) = (self.block_root(a), self.block_root(b)) else {
            // An unindexed endpoint means the edge was never represented.
            return;
        };
        if ra == rb {
            self.dirty.insert(ra);
            return;
        }
        let edge = Edge::new(a, b);
        let child = [ra, rb].into_iter().find(|root| {
            self.tree_parent
                .get(root)
                .is_some_and(|(_, tree_edge)| *tree_edge == edge)
        });
        match child {
            Some(child) => {
                // Exact cut: the child side becomes its own tree root.
                self.tree_parent.remove(&child);
                self.erase_bridge(a, b);
            }
            None => {
                // The index never recorded this inter-block edge as the
                // tree link — stale structure. Degrade both sides to a
                // rescan rather than guess.
                self.erase_bridge(a, b);
                self.dirty.insert(ra);
                self.dirty.insert(rb);
            }
        }
    }

    /// The cut structure of `region` (a connected component of the
    /// caller's graph, sorted node ids), with `sub` its induced subgraph
    /// (`sub.locals == region`). Served from the maintained structure
    /// when it validates; dirty blocks are rescanned in place (scoped to
    /// the block); anything inconsistent falls back to one full region
    /// rescan — the from-scratch oracle.
    pub fn structure_for(&mut self, sub: &Subgraph, region: &[u32]) -> RegionStructure {
        debug_assert_eq!(sub.locals, region);
        // Pass 1: resolve blocks and rescan dirty ones, to fixpoint
        // (fresh blocks are clean and exact, so one round suffices).
        let Some(roots) = self.region_roots(region) else {
            return self.heal(sub, region);
        };
        let mut by_root: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (local, &root) in roots.iter().enumerate() {
            by_root.entry(root).or_default().push(local as u32);
        }
        // A block that bleeds outside the region (or lost nodes) cannot be
        // trusted at all. That is planned when a removal split a dirty
        // block (or this is what a rescan left of one), a heal otherwise.
        let mut bleeding = by_root
            .iter()
            .filter(|(&root, locals)| self.weight[root as usize] as usize != locals.len())
            .map(|(&root, _)| root)
            .peekable();
        if bleeding.peek().is_some() {
            let planned =
                bleeding.all(|root| self.dirty.contains(&root) || self.split.contains_key(&root));
            return if planned {
                self.rescan_region(sub, region)
            } else {
                self.heal(sub, region)
            };
        }
        let mut needs_block_rescan: Vec<u32> = by_root
            .keys()
            .copied()
            .filter(|root| self.dirty.contains(root))
            .collect();
        if !needs_block_rescan.is_empty() {
            // Deterministic rescan order (affects only fresh-id layout).
            needs_block_rescan.sort_unstable_by_key(|root| by_root[root][0]);
            for root in needs_block_rescan {
                self.rescan_block(sub, region, &by_root[&root], root);
            }
        }
        // Pass 2: dense labels in first-seen region order, bridge
        // enumeration, and tree validation.
        let Some(roots) = self.region_roots(region) else {
            return self.heal(sub, region);
        };
        let mut dense: FxHashMap<u32, u32> = FxHashMap::default();
        let mut block_of: Vec<u32> = Vec::with_capacity(region.len());
        for &root in &roots {
            let next = dense.len() as u32;
            block_of.push(*dense.entry(root).or_insert(next));
        }
        let num_blocks = dense.len() as u32;
        let mut bridges: Vec<((u32, u32), u32, u32)> = Vec::new();
        for (local, &node) in region.iter().enumerate() {
            let Some(list) = self.bridge_adj.get(&node) else {
                continue;
            };
            for &other in list {
                if node >= other {
                    continue;
                }
                let Ok(other_local) = region.binary_search(&other) else {
                    // A recorded bridge leaving the region: stale.
                    return self.heal(sub, region);
                };
                let (x, y) = (block_of[local], block_of[other_local]);
                if x == y {
                    return self.heal(sub, region);
                }
                bridges.push(((local as u32, other_local as u32), x, y));
            }
        }
        if !blocks_form_spanning_tree(num_blocks, &bridges) {
            return self.heal(sub, region);
        }
        RegionStructure {
            block_of,
            num_blocks,
            bridges,
            from_cache: true,
        }
    }

    /// Block root per region node, or `None` if any node is unindexed.
    fn region_roots(&mut self, region: &[u32]) -> Option<Vec<u32>> {
        region
            .iter()
            .map(|&node| self.block_root(node))
            .collect::<Option<Vec<u32>>>()
    }

    /// Drop every recorded trace of the given nodes' blocks and bridges.
    /// A dirty block (or an earlier remnant) that keeps nodes outside
    /// `nodes` leaves a remnant behind in `split`.
    fn purge_nodes(&mut self, nodes: &[u32]) {
        // Block root → (nodes purged from it, whether its staleness was
        // recorded: dirty or already a remnant).
        let mut purged: FxHashMap<u32, (u32, bool)> = FxHashMap::default();
        for &node in nodes {
            if let Some(root) = self.block_root(node) {
                let recorded = self.dirty.contains(&root) || self.split.contains_key(&root);
                purged.entry(root).or_insert((0, recorded)).0 += 1;
                self.dirty.remove(&root);
                self.tree_parent.remove(&root);
            }
            if let Some(list) = self.bridge_adj.remove(&node) {
                for other in list {
                    self.erase_bridge(node, other);
                }
            }
            if (node as usize) < self.node_block.len() {
                self.node_block[node as usize] = u32::MAX;
            }
        }
        for (root, (count, recorded)) in purged {
            let live = self
                .split
                .remove(&root)
                .unwrap_or(self.weight[root as usize]);
            if recorded && live > count {
                self.split.insert(root, live - count);
            }
        }
    }

    /// Install a fresh scan of a whole region: fresh block ids, bridges,
    /// and a bridge tree rooted at the region minimum's block.
    fn install_region_scan(&mut self, sub: &Subgraph, region: &[u32]) -> RegionStructure {
        if let Some(&max) = region.last() {
            if self.node_block.len() <= max as usize {
                self.node_block.resize(max as usize + 1, u32::MAX);
            }
        }
        self.purge_nodes(region);
        let cs = cut_structure(sub);
        let fresh: Vec<u32> = (0..cs.num_blocks).map(|_| self.fresh_block(0)).collect();
        for (local, &block) in cs.block_of.iter().enumerate() {
            let id = fresh[block as usize];
            self.node_block[region[local] as usize] = id;
            self.weight[id as usize] += 1;
        }
        let mut bridges: Vec<((u32, u32), u32, u32)> = Vec::with_capacity(cs.bridges.len());
        let mut block_adj: FxHashMap<u32, Vec<(u32, Edge)>> = FxHashMap::default();
        for &(la, lb) in &cs.bridges {
            let (ga, gb) = (region[la as usize], region[lb as usize]);
            self.record_bridge(ga, gb);
            let (x, y) = (cs.block_of[la as usize], cs.block_of[lb as usize]);
            bridges.push(((la, lb), x, y));
            let edge = Edge::new(ga, gb);
            block_adj.entry(x).or_default().push((y, edge));
            block_adj.entry(y).or_default().push((x, edge));
        }
        self.link_tree(&fresh, cs.block_of[0], &block_adj, None);
        self.stats.rescanned_nodes += region.len();
        RegionStructure {
            block_of: cs.block_of,
            num_blocks: cs.num_blocks,
            bridges,
            from_cache: false,
        }
    }

    /// BFS the (dense-labeled) block forest from `root`, writing parent
    /// links; `external_parent` hangs the root below an existing block.
    fn link_tree(
        &mut self,
        fresh: &[u32],
        root: u32,
        block_adj: &FxHashMap<u32, Vec<(u32, Edge)>>,
        external_parent: Option<(u32, Edge)>,
    ) {
        if let Some(entry) = external_parent {
            self.tree_parent.insert(fresh[root as usize], entry);
        }
        let mut visited = vec![false; fresh.len()];
        visited[root as usize] = true;
        let mut queue = vec![root];
        while let Some(block) = queue.pop() {
            let Some(neighbors) = block_adj.get(&block) else {
                continue;
            };
            for &(next, edge) in neighbors {
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    self.tree_parent
                        .insert(fresh[next as usize], (fresh[block as usize], edge));
                    queue.push(next);
                }
            }
        }
    }

    fn rescan_region(&mut self, sub: &Subgraph, region: &[u32]) -> RegionStructure {
        self.install_region_scan(sub, region)
    }

    /// A region rescan no recorded delta explains.
    fn heal(&mut self, sub: &Subgraph, region: &[u32]) -> RegionStructure {
        self.stats.heals += 1;
        self.rescan_region(sub, region)
    }

    /// Rescan one dirty block in place: fresh blocks for its interior,
    /// re-attached to the surrounding tree through the block's unchanged
    /// external bridges. `locals` are the block's nodes as local indices
    /// into `sub` / `region` (ascending).
    fn rescan_block(&mut self, sub: &Subgraph, region: &[u32], locals: &[u32], old_root: u32) {
        // External bridges before the purge: recorded bridges from a
        // block node to a node outside the block.
        let globals: Vec<u32> = locals.iter().map(|&l| region[l as usize]).collect();
        let member: FxHashSet<u32> = globals.iter().copied().collect();
        let mut external: Vec<(u32, u32)> = Vec::new();
        for &g in &globals {
            if let Some(list) = self.bridge_adj.get(&g) {
                for &h in list {
                    if !member.contains(&h) {
                        external.push((g, h));
                    }
                }
            }
        }
        let old_parent = self.tree_parent.remove(&old_root);
        self.dirty.remove(&old_root);
        for &g in &globals {
            self.node_block[g as usize] = u32::MAX;
        }
        // Scan the block's interior only.
        let bsub = induce_within(sub, locals);
        let cs = cut_structure(&bsub);
        let fresh: Vec<u32> = (0..cs.num_blocks).map(|_| self.fresh_block(0)).collect();
        for (i, &block) in cs.block_of.iter().enumerate() {
            let id = fresh[block as usize];
            self.node_block[globals[i] as usize] = id;
            self.weight[id as usize] += 1;
        }
        let mut block_adj: FxHashMap<u32, Vec<(u32, Edge)>> = FxHashMap::default();
        for &(ba, bb) in &cs.bridges {
            let (ga, gb) = (globals[ba as usize], globals[bb as usize]);
            self.record_bridge(ga, gb);
            let edge = Edge::new(ga, gb);
            let (x, y) = (cs.block_of[ba as usize], cs.block_of[bb as usize]);
            block_adj.entry(x).or_default().push((y, edge));
            block_adj.entry(y).or_default().push((x, edge));
        }
        // Re-root the interior tree at the sub-block holding the old
        // parent bridge's interior endpoint, preserving the upward link.
        let inner_local = |g: u32| globals.binary_search(&g).ok();
        let root = old_parent
            .as_ref()
            .and_then(|&(_, edge)| inner_local(edge.a).or(inner_local(edge.b)))
            .map(|i| cs.block_of[i])
            .unwrap_or_else(|| cs.block_of[0]);
        self.link_tree(&fresh, root, &block_adj, old_parent);
        // Children hanging below the old block re-point at whichever
        // fresh sub-block actually carries their bridge endpoint.
        for &(g_in, h_out) in &external {
            let Some(child) = self.block_root(h_out) else {
                continue;
            };
            let matches = self
                .tree_parent
                .get(&child)
                .is_some_and(|&(_, edge)| edge == Edge::new(g_in, h_out));
            if matches {
                let sub_block = fresh[cs.block_of[inner_local(g_in).unwrap()] as usize];
                self.tree_parent
                    .insert(child, (sub_block, Edge::new(g_in, h_out)));
            }
        }
        self.stats.rescanned_nodes += locals.len();
    }
}

/// The recorded bridges must connect the region's blocks into exactly one
/// tree — the invariant the fast path rests on.
fn blocks_form_spanning_tree(num_blocks: u32, bridges: &[((u32, u32), u32, u32)]) -> bool {
    if bridges.len() + 1 != num_blocks as usize {
        return false;
    }
    if num_blocks == 1 {
        return true;
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_blocks as usize];
    for &(_, x, y) in bridges {
        adj[x as usize].push(y);
        adj[y as usize].push(x);
    }
    let mut seen = vec![false; num_blocks as usize];
    seen[0] = true;
    let mut stack = vec![0u32];
    let mut count = 1usize;
    while let Some(block) = stack.pop() {
        for &next in &adj[block as usize] {
            if !seen[next as usize] {
                seen[next as usize] = true;
                count += 1;
                stack.push(next);
            }
        }
    }
    count == num_blocks as usize
}

/// Induce the subgraph of `sub` on a subset of its local nodes
/// (ascending). The result's `locals` are the *original* graph ids, so a
/// nested region can be rescanned without going back to the owner graph.
fn induce_within(sub: &Subgraph, locals: &[u32]) -> Subgraph {
    let mut index: FxHashMap<u32, u32> = FxHashMap::default();
    for (i, &l) in locals.iter().enumerate() {
        index.insert(l, i as u32);
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); locals.len()];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, &l) in locals.iter().enumerate() {
        for &m in &sub.adj[l as usize] {
            if let Some(&j) = index.get(&m) {
                adj[i].push(j);
                if (i as u32) < j {
                    edges.push((i as u32, j));
                }
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    edges.sort_unstable();
    Subgraph {
        locals: locals.iter().map(|&l| sub.locals[l as usize]).collect(),
        adj,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridges::find_bridges;

    /// Oracle: the index's answer for every component must match a
    /// from-scratch scan of that component.
    fn assert_matches_scratch(index: &mut CutIndex, graph: &Graph) {
        for component in connected_components(graph) {
            if component.len() < 2 {
                continue;
            }
            let sub = Subgraph::induce(graph, &component);
            let structure = index.structure_for(&sub, &component);
            let scratch = cut_structure(&sub);
            let mut got: Vec<(u32, u32)> =
                structure.bridges.iter().map(|&(edge, _, _)| edge).collect();
            got.sort_unstable();
            assert_eq!(got, scratch.bridges, "bridges for {component:?}");
            assert_eq!(structure.num_blocks, scratch.num_blocks);
            // Same partition (labels may differ): equal label ⇔ equal label.
            let mut mapping: FxHashMap<u32, u32> = FxHashMap::default();
            for (i, &b) in structure.block_of.iter().enumerate() {
                let expect = scratch.block_of[i];
                assert_eq!(
                    *mapping.entry(b).or_insert(expect),
                    expect,
                    "block partition mismatch for {component:?}"
                );
            }
            // Bridges must be real bridges of the current subgraph.
            assert_eq!(
                got,
                find_bridges(&sub),
                "recorded bridges stale for {component:?}"
            );
        }
    }

    #[test]
    fn insert_joining_components_is_a_bridge() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        graph.add_edge(2, 3);
        index.insert_edge(2, 3);
        assert_matches_scratch(&mut index, &graph);
        assert_eq!(index.stats.rescanned_nodes, 0, "no rescan for a link");
    }

    #[test]
    fn insert_closing_cycle_merges_blocks_without_rescan() {
        // Path 0-1-2-3: four singleton blocks, three bridges.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        graph.add_edge(0, 3);
        index.insert_edge(0, 3);
        assert_matches_scratch(&mut index, &graph);
        assert_eq!(
            index.stats.rescanned_nodes, 0,
            "cycle merge is pure union-find"
        );
    }

    #[test]
    fn insert_inside_block_is_noop() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        graph.add_edge(0, 2);
        index.insert_edge(0, 2);
        // Parallel-edge-free graph: (0,2) already existed, but even a
        // genuinely new chord inside a block changes nothing.
        graph.add_edge(1, 3);
        index.insert_edge(1, 3);
        assert_matches_scratch(&mut index, &graph);
    }

    #[test]
    fn remove_bridge_splits_exactly() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        graph.remove_edge(2, 3);
        index.remove_edge(2, 3);
        assert_matches_scratch(&mut index, &graph);
        assert_eq!(index.stats.rescanned_nodes, 0, "bridge cut is exact");
    }

    #[test]
    fn remove_interior_edge_rescans_only_the_block() {
        // A 4-cycle block hanging off a pendant chain.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (4, 5)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        // Drop one cycle edge: block {1,2,3,4} decays into a path.
        graph.remove_edge(2, 3);
        index.remove_edge(2, 3);
        assert_matches_scratch(&mut index, &graph);
        assert_eq!(
            index.stats.rescanned_nodes, 4,
            "only the dirty block rescans, not the 6-node component"
        );
    }

    #[test]
    fn component_splitting_missed_delta_degrades_to_rescan() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        // Remove the bridge behind the index's back: the recorded bridge
        // now points out of the queried region, which validation catches.
        graph.remove_edge(2, 3);
        assert_matches_scratch(&mut index, &graph);
        assert!(
            index.stats.rescanned_nodes > 0,
            "validation must catch this"
        );
        assert!(index.stats.heals > 0, "an unfed delta counts as a heal");
    }

    #[test]
    fn fed_split_of_a_dirty_block_is_planned_not_a_heal() {
        // A 4-cycle is one block; removing two opposite edges splits it
        // into two components. Both sides fall back to region rescans —
        // the second through the remnant the first rescan left behind —
        // and neither is a heal, because every removal was fed.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        for (a, b) in [(0, 1), (2, 3)] {
            graph.remove_edge(a, b);
            index.remove_edge(a, b);
        }
        assert_matches_scratch(&mut index, &graph);
        assert_eq!(index.stats.rescanned_nodes, 4);
        assert_eq!(index.stats.heals, 0);
        assert!(index.split.is_empty(), "both remnants were rescanned");
    }

    #[test]
    fn invalidate_all_bumps_epoch_and_forgets() {
        let graph = Graph::from_edges([(0, 1), (1, 2)]);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        let epoch = index.epoch();
        index.invalidate_all();
        assert!(index.epoch() > epoch);
        let mut index2 = index;
        assert_matches_scratch(&mut index2, &graph);
        assert!(index2.stats.rescanned_nodes > 0, "cold after invalidation");
    }

    #[test]
    fn random_churn_always_matches_scratch() {
        // Deterministic xorshift so the test needs no external RNG.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let n = 24u32;
        let mut graph = Graph::with_nodes(n as usize);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        let mut present: Vec<(u32, u32)> = Vec::new();
        for step in 0..400 {
            let remove = !present.is_empty() && next() % 3 == 0;
            if remove {
                let pick = (next() % present.len() as u64) as usize;
                let (a, b) = present.swap_remove(pick);
                graph.remove_edge(a, b);
                index.remove_edge(a, b);
            } else {
                let a = (next() % n as u64) as u32;
                let b = (next() % n as u64) as u32;
                if a == b {
                    continue;
                }
                if graph.add_edge(a, b) {
                    present.push(if a < b { (a, b) } else { (b, a) });
                    index.insert_edge(a, b);
                }
            }
            if step % 7 == 0 {
                assert_matches_scratch(&mut index, &graph);
            }
        }
        assert_matches_scratch(&mut index, &graph);
    }
}
