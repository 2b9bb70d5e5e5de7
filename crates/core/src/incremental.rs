//! Incremental upserts: apply delta batches against a persisted
//! [`PipelineState`] instead of re-running the pipeline from scratch.
//!
//! Real catalogs (companies, securities, products) mutate daily, and the
//! paper's pairwise-to-group propagation (Section 4) means a handful of
//! changed records can rewire whole transitive components. The engine here
//! treats a delta batch as a synthetic shard over the standing
//! [`ShardPlan`]:
//!
//! 1. **Re-block only what moved.** The cheap cross-shard hash joins
//!    ([`Blocker::cross_shard`]) re-run over the full live population —
//!    they are near-linear, and their degeneracy guards are *non-monotone*
//!    (a code crossing [`MAX_CODE_HOLDERS`] retracts standing pairs), so a
//!    probe-only join could not stay exact. The quadratic text blockers
//!    are shard-local, and a shard-local blocker that offers a maintained
//!    index ([`Blocker::shard_index`], kept per shard in a
//!    [`BlockingIndex`]) re-blocks **only the records whose token
//!    neighbourhood the batch changed**, returning the exact pairs added
//!    and removed; one that offers none is recounted over each touched
//!    shard through [`Blocker::block_delta`]. Either way the shard's
//!    candidate set and the union over all sources are edited from that
//!    pair delta, provenance bits kept exact; untouched shards keep their
//!    standing candidate sets verbatim. See `docs/BLOCKING.md`.
//! 2. **Re-score only new or invalidated pairs.** Every standing candidate
//!    pair whose endpoints did not change keeps its score; pairs touching
//!    an updated/deleted record, and pairs the re-block newly proposed,
//!    go to the scorer.
//! 3. **Reconcile in place.** The standing cleaned graph and the edges
//!    the cleanup cut from it (together the raw prediction graph) are
//!    edited, never rebuilt: the retracted positives (those at a changed
//!    record, and those whose pair left the candidate set) come out, the
//!    new positives go in. The raw components holding a changed record, a
//!    retracted edge's endpoint or a new positive are found by walking the
//!    raw graph from those nodes; each gets its raw edges back and passes
//!    through pre-cleanup + Algorithm 1 again, with the [`CutIndex`] fed
//!    the exact edge delta. All other components keep their cleaned edges
//!    untouched — they are already cleaned, and both passes are idempotent
//!    on them — so the merge costs the touched components, not the id
//!    space.
//!
//! Because every step preserves the pipeline's observable state exactly —
//! the candidate set (with provenance), the raw positive predictions, and
//! the per-component cleanup of the raw prediction graph — an initial load
//! followed by **any** partition of the remaining records into upsert
//! batches lands on the same groups as a one-shot [`run_sharded`] over the
//! final population, and holds the predictions and cleaned graph of a
//! one-shot load after every batch (property-tested in
//! `tests/upsert_equivalence.rs` and `tests/dynamic_bridges.rs`). The
//! initial load itself is just an insert-only batch against an empty
//! state, so there is one reconciliation code path, not two.
//!
//! Every parallel step sizes its pool by the batch's record count (see
//! [`Parallelism`]): a delta batch runs on the writer's core, a bootstrap
//! fans out.
//!
//! [`run_sharded`]: crate::shard::run_sharded
//! [`MAX_CODE_HOLDERS`]: gralmatch_blocking::MAX_CODE_HOLDERS

use crate::cleanup::{graph_cleanup_with_index, pre_cleanup_edges, CleanupConfig, CleanupReport};
use crate::groups::entity_groups;
use crate::pipeline::PipelineConfig;
use crate::shard::{ShardKey, ShardPlan};
use crate::trace::{stage_names, PipelineTrace, StageTrace};
use gralmatch_blocking::{
    text_only_provenance, Blocker, BlockerRun, BlockingContext, CandidateSet, PairDelta, ShardIndex,
};
use gralmatch_graph::{component_of, CutIndex, Graph};
use gralmatch_lm::{predict_positive_with, PairScorer};
use gralmatch_records::{Record, RecordId, RecordPair};
use gralmatch_util::{
    Error, FromJson, FxHashMap, FxHashSet, Json, JsonError, Parallelism, Stopwatch, ToJson,
};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// One delta batch in the global record-id space.
///
/// Ids are **stable**: an update carries the same id as the record it
/// replaces, a delete names a live id, an insert brings a previously
/// unseen id. Deleted ids may be re-inserted by a later batch.
#[derive(Debug, Clone, Default)]
pub struct UpsertBatch<R> {
    /// Records with ids not currently live.
    pub inserts: Vec<R>,
    /// New versions of currently live records (matched by id).
    pub updates: Vec<R>,
    /// Ids of live records to remove.
    pub deletes: Vec<RecordId>,
}

impl<R> UpsertBatch<R> {
    /// Empty batch.
    pub fn new() -> Self {
        UpsertBatch {
            inserts: Vec::new(),
            updates: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Insert-only batch.
    pub fn inserting(inserts: Vec<R>) -> Self {
        UpsertBatch {
            inserts,
            updates: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Total mutations in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.updates.len() + self.deletes.len()
    }

    /// Whether the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `j`-th delete/re-insert churn window over an initially loaded
/// prefix of `initial` records: a small slice (width 3) of already-loaded
/// records that replay harnesses delete in batch `j` and re-insert in
/// batch `j + 1`, so a replay exercises retraction and component
/// re-cleaning, not just growth. One definition shared by the equivalence
/// suites and the serve bootstrap, so the windowing arithmetic cannot
/// drift between copies (`stride` staggers successive windows apart).
pub fn churn_window(initial: usize, j: usize, stride: usize) -> std::ops::Range<usize> {
    const WIDTH: usize = 3;
    let start = (j * stride) % initial.saturating_sub(WIDTH + 1).max(1);
    start..(start + WIDTH).min(initial)
}

impl<R: ToJson> ToJson for UpsertBatch<R> {
    fn to_json(&self) -> Json {
        Json::obj([
            ("inserts", self.inserts.to_json()),
            ("updates", self.updates.to_json()),
            ("deletes", self.deletes.to_json()),
        ])
    }
}

impl<R: FromJson> FromJson for UpsertBatch<R> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // Absent sections default to empty so hand-written batch files
        // (serve stdin/`--apply`) can name only what they mutate.
        let empty = Json::Arr(Vec::new());
        let section = |key: &str| json.field(key).unwrap_or(&empty);
        Ok(UpsertBatch {
            inserts: Vec::from_json(section("inserts"))?,
            updates: Vec::from_json(section("updates"))?,
            deletes: Vec::from_json(section("deletes"))?,
        })
    }
}

/// What one [`PipelineState::apply`] call did — per-batch latency lives in
/// `trace`, reconciliation scope in the counters. The groups themselves
/// are not copied out per batch: read them from
/// [`MatchEngine::groups`](crate::engine::MatchEngine::groups) or
/// [`PipelineState::groups`].
#[derive(Debug, Clone)]
pub struct UpsertOutcome {
    /// Entity groups after the batch (live singletons included), as the
    /// engine's group index counts them — equal to
    /// `PipelineState::groups().len()`. 0 when the batch was applied
    /// directly to a [`PipelineState`], outside an engine.
    pub num_groups: usize,
    /// Blocking / inference / merge wall-clock for this batch.
    pub trace: PipelineTrace,
    /// Per-recipe blocking diagnostics for this batch (shape-stable: every
    /// executed recipe reports, zero-candidate ones included).
    pub blocker_runs: Vec<BlockerRun>,
    /// Records inserted.
    pub inserted: usize,
    /// Records updated (replaced in place by id).
    pub updated: usize,
    /// Records deleted.
    pub deleted: usize,
    /// Shards holding a record the batch added, changed or removed.
    pub touched_shards: usize,
    /// Records whose shard-local candidates were recomputed: the affected
    /// sets of the maintained indexes, plus every record of a shard that
    /// was recounted in full (an index's first touch, a blocker that keeps
    /// none). Exact and deterministic — the measure of "delta-proportional".
    pub blocking_affected_records: usize,
    /// Tokens whose holder set changed and whose useful/useless status
    /// (singleton floor, document-frequency cut) flipped with it, summed
    /// over the maintained indexes.
    pub blocking_flipped_tokens: usize,
    /// Candidate pairs sent to the scorer (new or invalidated).
    pub pairs_scored: usize,
    /// Positive predictions gained this batch.
    pub new_predictions: usize,
    /// Standing positive predictions retracted (endpoint changed, or the
    /// pair fell out of the candidate set).
    pub retracted_predictions: usize,
    /// Raw-graph components rebuilt and re-cleaned.
    pub touched_components: usize,
    /// New positive edges that connected two previously distinct
    /// components.
    pub boundary_merges: usize,
    /// Nodes the merge's walk over the raw prediction graph reached: the
    /// members of the touched components, nothing else.
    pub merge_visited_nodes: usize,
    /// Structures the merge (re)allocated at the size of the whole id
    /// space — the cleaned graph's node range growing past its capacity.
    /// 0 for a batch that brings no id beyond that capacity.
    pub population_allocations: usize,
    /// Every record id whose group membership may have changed this batch
    /// (the batch's own ids plus all members of rebuilt components),
    /// sorted. Records outside this set kept their exact standing group —
    /// the invalidation set for the engine's record-id → group index.
    pub changed_nodes: Vec<u32>,
    /// Edges removed by this batch's component re-cleanup.
    pub cleanup: CleanupReport,
    /// Epoch of the [`GroupSnapshot`] published for this batch (0 when the
    /// batch was applied directly to a [`PipelineState`], outside an
    /// engine).
    ///
    /// [`GroupSnapshot`]: crate::snapshot::GroupSnapshot
    pub epoch: u64,
    /// Wall-clock seconds the engine spent building and publishing the
    /// batch's snapshot (0 outside an engine).
    pub snapshot_publish_seconds: f64,
    /// Snapshot buckets rebuilt for this batch — the unit of publish cost;
    /// everything else was shared with the previous epoch (0 outside an
    /// engine).
    pub snapshot_buckets_rebuilt: usize,
}

/// The standing state an incremental pipeline reconciles against:
/// live records with their shard membership, per-shard text-blocking
/// candidates, the global hash-join candidates, and the raw and cleaned
/// prediction graphs. Round-trips through [`ToJson`]/[`FromJson`] so a
/// long-running matcher can persist between batches.
///
/// The raw positive predictions are held as the cleaned graph plus the
/// edges the cleanup cut from it: the cleaned graph is a subgraph of the
/// raw one, so the two together are the raw graph, per node, with no
/// second id-space graph. [`predicted`](Self::predicted) views them as
/// one edge set.
#[derive(Debug, Clone)]
pub struct PipelineState<R> {
    plan: ShardPlan,
    /// Id-space size (max record id ever seen + 1); deleted ids stay
    /// inside the space so graphs and union-finds stay index-stable.
    num_ids: usize,
    /// Live records, unordered.
    records: Vec<R>,
    /// Record id → position in `records`.
    index_of: FxHashMap<u32, u32>,
    /// Record id → shard (under `plan`).
    shard_of: FxHashMap<u32, u32>,
    /// Per-shard candidates from the shard-local (text) blockers.
    local: Vec<CandidateSet>,
    /// Candidates from the cross-shard hash joins over the full live
    /// population (within-shard and boundary pairs alike).
    global: CandidateSet,
    /// Union of `global` and all `local` sets (derived; kept because the
    /// next batch diffs against it to skip already-scored pairs).
    candidates: CandidateSet,
    /// Standing cleaned prediction graph (per-component cleanup of the raw
    /// predictions), spanning the id space.
    cleaned: Graph,
    /// Raw positive predictions the cleanup removed; with `cleaned`, the
    /// raw prediction graph.
    cut: CutEdges,
}

/// The raw positive predictions a cleanup removed, per endpoint. Small
/// next to the cleaned graph (the cleanup cuts a few edges per oversized
/// component), so a hash map keyed by node instead of an id-space table.
#[derive(Debug, Clone, Default)]
struct CutEdges {
    adj: FxHashMap<u32, Vec<u32>>,
    len: usize,
}

impl CutEdges {
    fn neighbors(&self, node: u32) -> &[u32] {
        self.adj.get(&node).map_or(&[], Vec::as_slice)
    }

    fn contains(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Record a cut edge (absent before).
    fn insert(&mut self, a: u32, b: u32) {
        self.adj.entry(a).or_default().push(b);
        self.adj.entry(b).or_default().push(a);
        self.len += 1;
    }

    /// Forget a cut edge; false if it was not recorded.
    fn remove(&mut self, a: u32, b: u32) -> bool {
        let mut unlink = |from: u32, to: u32| {
            let Entry::Occupied(mut entry) = self.adj.entry(from) else {
                return false;
            };
            let Some(position) = entry.get().iter().position(|&n| n == to) else {
                return false;
            };
            entry.get_mut().swap_remove(position);
            if entry.get().is_empty() {
                entry.remove();
            }
            true
        };
        let removed = unlink(a, b) && unlink(b, a);
        self.len -= usize::from(removed);
        removed
    }

    fn pairs(&self) -> impl Iterator<Item = RecordPair> + '_ {
        self.adj.iter().flat_map(|(&a, list)| {
            list.iter()
                .filter(move |&&b| a < b)
                .map(move |&b| RecordPair::new(RecordId(a), RecordId(b)))
        })
    }
}

/// Neighbours of `node` in the raw prediction graph.
fn raw_neighbors<'g>(
    cleaned: &'g Graph,
    cut: &'g CutEdges,
    node: u32,
) -> impl Iterator<Item = u32> + 'g {
    cleaned
        .neighbors(node)
        .chain(cut.neighbors(node).iter().copied())
}

/// The standing raw positive predictions as one edge set (see
/// [`PipelineState::predicted`]). Iterates as [`RecordPair`]s in no
/// particular order; [`sorted`](Predictions::sorted) is the canonical
/// list the codecs write.
#[derive(Debug, Clone, Copy)]
pub struct Predictions<'s> {
    cleaned: &'s Graph,
    cut: &'s CutEdges,
}

impl<'s> Predictions<'s> {
    /// Number of positive predictions.
    pub fn len(&self) -> usize {
        self.cleaned.num_edges() + self.cut.len
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `pair` is a standing positive prediction.
    pub fn contains(&self, pair: RecordPair) -> bool {
        self.cleaned.has_edge(pair.a.0, pair.b.0) || self.cut.contains(pair.a.0, pair.b.0)
    }

    /// Every prediction, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = RecordPair> + 's {
        let cut = self.cut;
        self.cleaned
            .edges()
            .map(|edge| RecordPair::new(RecordId(edge.a), RecordId(edge.b)))
            .chain(cut.pairs())
    }

    /// Every prediction, sorted.
    pub fn sorted(&self) -> Vec<RecordPair> {
        let mut pairs: Vec<RecordPair> = self.iter().collect();
        pairs.sort_unstable();
        pairs
    }
}

impl<'s> IntoIterator for Predictions<'s> {
    type Item = RecordPair;
    type IntoIter = Box<dyn Iterator<Item = RecordPair> + 's>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// The shard-local blockers' maintained indexes, one per (shard, recipe):
/// derived state a [`PipelineState`] is re-blocked through, owned across
/// batches by whoever owns the state (the engine). Never persisted — an
/// entry is built the first time a batch touches its shard, at the cost of
/// one full block of that shard.
pub struct BlockingIndex<R> {
    /// (shard, position of the blocker in the lineup) → its index.
    shards: FxHashMap<(u32, usize), Box<dyn ShardIndex<R>>>,
}

impl<R> Default for BlockingIndex<R> {
    fn default() -> Self {
        BlockingIndex {
            shards: FxHashMap::default(),
        }
    }
}

/// One batch's record edits within one shard.
#[derive(Default)]
struct ShardDelta {
    removed: Vec<RecordId>,
    added: Vec<RecordId>,
}

/// A shard-local blocker's complete sorted pair list over a shard, by full
/// recount ([`Blocker::block_delta`], which wants owned slices).
fn recount<R: Record + Clone>(
    blocker: &dyn Blocker<R>,
    new: &[&R],
    standing: &[&R],
    parallelism: Parallelism,
) -> Vec<RecordPair> {
    let owned = |records: &[&R]| records.iter().map(|&r| r.clone()).collect::<Vec<R>>();
    let ctx = BlockingContext::with_pool(parallelism.pool_for(new.len() + standing.len()));
    let mut set = CandidateSet::new();
    blocker.block_delta(&owned(new), &owned(standing), &ctx, &mut set);
    set.pairs_sorted()
}

/// Turn a blocker's complete pair list over a shard (`full.added`, sorted)
/// into the change against the pairs `local` credits to `flag`.
fn diff_against(local: &CandidateSet, flag: u8, mut full: PairDelta) -> PairDelta {
    full.removed = local
        .iter()
        .filter(|&(pair, flags)| flags & flag != 0 && full.added.binary_search(&pair).is_err())
        .map(|(pair, _)| pair)
        .collect();
    full.added
        .retain(|&pair| local.provenance(pair) & flag == 0);
    full
}

/// The persisted components of a [`PipelineState`], as both the JSON and
/// binary codecs carry them: everything except the derived id index,
/// shard membership, and merged candidate union, which
/// [`PipelineState::from_parts`] rebuilds.
pub(crate) struct StateParts<R> {
    pub plan: ShardPlan,
    pub num_ids: usize,
    pub records: Vec<R>,
    pub local: Vec<CandidateSet>,
    pub global: CandidateSet,
    pub predicted: Vec<RecordPair>,
    pub cleaned_edges: Vec<RecordPair>,
}

impl<R: Record + Clone + Sync> PipelineState<R> {
    /// Empty state under a shard plan.
    pub fn new(plan: ShardPlan) -> Self {
        PipelineState {
            plan,
            num_ids: 0,
            records: Vec::new(),
            index_of: FxHashMap::default(),
            shard_of: FxHashMap::default(),
            local: (0..plan.num_shards).map(|_| CandidateSet::new()).collect(),
            global: CandidateSet::new(),
            candidates: CandidateSet::new(),
            cleaned: Graph::new(),
            cut: CutEdges::default(),
        }
    }

    /// Build a state by loading `records` as one insert-only batch — the
    /// initial load of an incremental pipeline. Exactly equivalent to
    /// `PipelineState::new(plan)` + [`apply`](PipelineState::apply).
    pub fn initial_load(
        plan: ShardPlan,
        records: Vec<R>,
        strategies: &[Box<dyn Blocker<R> + '_>],
        scorer: &dyn PairScorer,
        config: &PipelineConfig,
    ) -> Result<(Self, UpsertOutcome), Error> {
        let mut state = PipelineState::new(plan);
        let outcome = state.apply(&UpsertBatch::inserting(records), strategies, scorer, config)?;
        Ok((state, outcome))
    }

    /// The shard plan the state reconciles under.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Live records (unordered).
    pub fn live_records(&self) -> &[R] {
        &self.records
    }

    /// Number of live records.
    pub fn num_live(&self) -> usize {
        self.records.len()
    }

    /// Id-space size (max id ever seen + 1).
    pub fn num_ids(&self) -> usize {
        self.num_ids
    }

    /// Whether a record id is currently live.
    pub fn is_live(&self, id: RecordId) -> bool {
        self.index_of.contains_key(&id.0)
    }

    /// Standing candidate pairs (union over all blockings, with
    /// provenance).
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Per-shard candidate sets from the shard-local blockers (persisted
    /// verbatim; the merged union is derived).
    pub(crate) fn local_sets(&self) -> &[CandidateSet] {
        &self.local
    }

    /// Candidates from the cross-shard hash joins.
    pub(crate) fn global_set(&self) -> &CandidateSet {
        &self.global
    }

    /// Rebuild a state from its persisted parts, validating them and
    /// deriving the id index, shard membership, and merged candidate
    /// union. Shared by the JSON and binary decoders, so both reject the
    /// same malformed inputs with the same messages.
    pub(crate) fn from_parts(parts: StateParts<R>) -> Result<Self, String> {
        let StateParts {
            plan,
            num_ids,
            records,
            local,
            global,
            mut predicted,
            cleaned_edges,
        } = parts;
        if local.len() != plan.num_shards {
            return Err(format!(
                "{} local candidate sets for {} shards",
                local.len(),
                plan.num_shards
            ));
        }
        // Candidate pairs feed the scorer (which indexes encodings by id)
        // before the merge's union-find, so out-of-space pairs must error
        // here like out-of-space predicted/cleaned edges do. `b` bounds
        // both endpoints (RecordPair canonicalizes a ≤ b).
        for set in local.iter().chain(std::iter::once(&global)) {
            for (pair, _) in set.iter() {
                if pair.b.0 as usize >= num_ids {
                    return Err(format!(
                        "candidate pair endpoint {} outside num_ids",
                        pair.b.0
                    ));
                }
            }
        }
        for pair in &predicted {
            // `RecordPair::new` canonicalizes a ≤ b, so checking b bounds
            // both endpoints; an out-of-space edge would panic deep in the
            // merge instead of erroring here.
            if pair.b.0 as usize >= num_ids {
                return Err(format!(
                    "predicted edge endpoint {} outside num_ids",
                    pair.b.0
                ));
            }
        }
        predicted.sort_unstable();
        predicted.dedup();

        // Derived structures: id index, shard membership (a pure function
        // of each record under the plan), merged candidate union.
        let mut index_of = FxHashMap::default();
        let mut shard_of = FxHashMap::default();
        index_of.reserve(records.len());
        shard_of.reserve(records.len());
        for (position, record) in records.iter().enumerate() {
            let id = record.id().0;
            if (id as usize) >= num_ids {
                return Err(format!("record id {id} outside num_ids {num_ids}"));
            }
            if index_of.insert(id, position as u32).is_some() {
                return Err(format!("duplicate record id {id}"));
            }
            shard_of.insert(id, plan.assign_record(record));
        }
        let mut candidates = global.clone();
        candidates.reserve(local.iter().map(CandidateSet::len).sum());
        for set in &local {
            candidates.merge(set);
        }
        let mut cleaned = Graph::with_nodes(num_ids);
        for pair in &cleaned_edges {
            if pair.b.0 as usize >= num_ids {
                return Err(format!(
                    "cleaned edge endpoint {} outside num_ids",
                    pair.b.0
                ));
            }
            cleaned.add_edge(pair.a.0, pair.b.0);
        }
        // The cleaned graph is a subgraph of the raw predictions; what it
        // lacks of them is what the cleanup cut.
        let mut cut = CutEdges::default();
        for pair in &predicted {
            if !cleaned.has_edge(pair.a.0, pair.b.0) {
                cut.insert(pair.a.0, pair.b.0);
            }
        }
        if predicted.len() != cleaned.num_edges() + cut.len {
            return Err("cleaned edge outside the predicted edges".to_string());
        }
        Ok(PipelineState {
            plan,
            num_ids,
            records,
            index_of,
            shard_of,
            local,
            global,
            candidates,
            cleaned,
            cut,
        })
    }

    /// Standing raw positive predictions.
    pub fn predicted(&self) -> Predictions<'_> {
        Predictions {
            cleaned: &self.cleaned,
            cut: &self.cut,
        }
    }

    /// The standing cleaned prediction graph (per-component cleanup of the
    /// raw predictions, in the full id space — deleted ids are isolated
    /// nodes). Group lookups traverse this directly; the engine's group
    /// index is derived from it.
    pub fn cleaned(&self) -> &Graph {
        &self.cleaned
    }

    /// Look up one record by id.
    pub fn record(&self, id: RecordId) -> Option<&R> {
        self.index_of
            .get(&id.0)
            .map(|&position| &self.records[position as usize])
    }

    /// Current entity groups: components of the standing cleaned graph,
    /// largest first, singleton components of non-live ids dropped.
    pub fn groups(&self) -> Vec<Vec<RecordId>> {
        entity_groups(&self.cleaned)
            .into_iter()
            .filter(|group| group.len() > 1 || self.index_of.contains_key(&group[0].0))
            .collect()
    }

    fn upsert_error(message: String) -> Error {
        Error::Pipeline {
            stage: "upsert",
            message,
        }
    }

    /// Remove a live record, returning its old shard. Swap-remove keeps
    /// `records` dense; blockers are order-insensitive (ties break on
    /// record ids, never positions).
    fn remove_record(&mut self, id: u32) -> u32 {
        let position = self.index_of.remove(&id).expect("caller validated id") as usize;
        self.records.swap_remove(position);
        if position < self.records.len() {
            let moved = self.records[position].id().0;
            self.index_of.insert(moved, position as u32);
        }
        self.shard_of
            .remove(&id)
            .expect("shard tracked per live id")
    }

    fn add_record(&mut self, record: R) -> u32 {
        let id = record.id().0;
        let shard = self.plan.assign_record(&record);
        self.num_ids = self.num_ids.max(id as usize + 1);
        self.index_of.insert(id, self.records.len() as u32);
        self.shard_of.insert(id, shard);
        self.records.push(record);
        shard
    }

    /// Check a batch against the standing state without mutating
    /// anything: inserts must bring unseen ids, updates and deletes must
    /// name live ids, and no id may appear twice in one batch.
    ///
    /// [`apply`](PipelineState::apply) runs this itself, but callers that
    /// absorb the batch into *other* state first (the engine's scorer
    /// provider) must call it up front so a rejected batch leaves every
    /// view untouched.
    pub fn validate(&self, batch: &UpsertBatch<R>) -> Result<(), Error> {
        for record in &batch.inserts {
            if self.is_live(record.id()) {
                return Err(Self::upsert_error(format!(
                    "insert of live record id {}",
                    record.id().0
                )));
            }
        }
        for record in &batch.updates {
            if !self.is_live(record.id()) {
                return Err(Self::upsert_error(format!(
                    "update of unknown record id {}",
                    record.id().0
                )));
            }
        }
        for &id in &batch.deletes {
            if !self.is_live(id) {
                return Err(Self::upsert_error(format!(
                    "delete of unknown record id {}",
                    id.0
                )));
            }
        }
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for id in batch
            .inserts
            .iter()
            .map(|r| r.id().0)
            .chain(batch.updates.iter().map(|r| r.id().0))
            .chain(batch.deletes.iter().map(|id| id.0))
        {
            if !seen.insert(id) {
                return Err(Self::upsert_error(format!(
                    "record id {id} appears twice in one batch"
                )));
            }
        }
        Ok(())
    }

    /// Debug-build oracle: every touched shard's maintained pair set, per
    /// shard-local blocker, equals a full recount over the shard's records,
    /// and the edited union equals a re-merge of its sources.
    fn assert_blocking_matches_recount(
        &self,
        local_blockers: &[(usize, &dyn Blocker<R>)],
        shard_records: &FxHashMap<u32, (Vec<&R>, Vec<&R>)>,
    ) {
        for (&shard, (standing, new)) in shard_records {
            for &(_, blocker) in local_blockers {
                let flag = blocker.kind().flag();
                let mut maintained: Vec<RecordPair> = self.local[shard as usize]
                    .iter()
                    .filter(|&(_, flags)| flags & flag != 0)
                    .map(|(pair, _)| pair)
                    .collect();
                maintained.sort_unstable();
                assert_eq!(
                    maintained,
                    recount(blocker, new, standing, Parallelism::Fixed(1)),
                    "shard {shard}: maintained {} candidates diverged from block_delta",
                    blocker.name()
                );
            }
        }
        let mut union = self.global.clone();
        for local in &self.local {
            union.merge(local);
        }
        assert_eq!(union.len(), self.candidates.len(), "candidate union size");
        for (pair, flags) in union.iter() {
            assert_eq!(
                self.candidates.provenance(pair),
                flags,
                "provenance of {pair:?}"
            );
        }
    }

    /// Apply one delta batch: re-block touched shards, re-score new and
    /// invalidated pairs, reconcile into the standing groups. See the
    /// module docs for the exactness argument.
    pub fn apply(
        &mut self,
        batch: &UpsertBatch<R>,
        strategies: &[Box<dyn Blocker<R> + '_>],
        scorer: &dyn PairScorer,
        config: &PipelineConfig,
    ) -> Result<UpsertOutcome, Error> {
        self.apply_with_index(batch, strategies, scorer, config, None, None)
    }

    /// [`apply`](PipelineState::apply) with an optional persistent
    /// [`CutIndex`] mirroring the standing cleaned graph. The merge feeds
    /// the index this batch's exact edge delta and answers the re-clean's
    /// bridge queries from the cached cut structure — identical groups,
    /// O(affected region) instead of a per-component Tarjan rescan. The
    /// caller (the engine) owns the index across batches and must rebuild
    /// it whenever the cleaned graph changes outside `apply` (model swap,
    /// recovery). Without one, the batch mirrors the standing graph into a
    /// throwaway index first — one whole-graph scan, the price of keeping
    /// a single merge path.
    ///
    /// `blocking` is the same arrangement for step 2: with a
    /// [`BlockingIndex`] kept across batches, a touched shard is re-blocked
    /// through its maintained indexes in O(touched neighbourhood); without
    /// one (or on a shard's first touch) it costs one full block. The
    /// index must only ever see this state's batches, under one lineup.
    pub fn apply_with_index(
        &mut self,
        batch: &UpsertBatch<R>,
        strategies: &[Box<dyn Blocker<R> + '_>],
        scorer: &dyn PairScorer,
        config: &PipelineConfig,
        index: Option<&mut CutIndex>,
        blocking: Option<&mut BlockingIndex<R>>,
    ) -> Result<UpsertOutcome, Error> {
        // -- 1. Validate + apply the record mutations. ---------------------
        self.validate(batch)?;
        // Provenance is edited per kind bit, so two shard-local recipes
        // must not share one.
        let mut local_flags = 0u8;
        for blocker in strategies.iter().filter(|b| !b.cross_shard()) {
            let flag = blocker.kind().flag();
            if local_flags & flag != 0 {
                return Err(Error::InvalidConfig(format!(
                    "two shard-local blockers report kind {:?}",
                    blocker.kind()
                )));
            }
            local_flags |= flag;
        }

        let mut dirty: FxHashSet<u32> = FxHashSet::default();
        // Shard → the batch's record edits there. An update lands in its
        // old shard as a removal and in its new one as an addition (both
        // in one shard when it does not move).
        let mut deltas: BTreeMap<u32, ShardDelta> = BTreeMap::new();
        for &id in &batch.deletes {
            let shard = self.remove_record(id.0);
            deltas.entry(shard).or_default().removed.push(id);
            dirty.insert(id.0);
        }
        for record in batch.updates.iter().chain(&batch.inserts) {
            let id = record.id();
            if self.is_live(id) {
                let shard = self.remove_record(id.0);
                deltas.entry(shard).or_default().removed.push(id);
            }
            let shard = self.add_record(record.clone());
            deltas.entry(shard).or_default().added.push(id);
            dirty.insert(id.0);
        }

        // -- 2. Re-block: global hash joins + the touched shards' deltas. --
        let blocking_watch = Stopwatch::start();
        let mut scratch_index = BlockingIndex::default();
        let blocking = blocking.unwrap_or(&mut scratch_index);
        let mut blocker_runs: Vec<BlockerRun> = Vec::new();
        // Every pair whose provenance this batch may have changed; the
        // union is edited from these alone.
        let mut changed: Vec<RecordPair> = Vec::new();

        // Independent hash joins run concurrently on the shared pool,
        // through the same dispatch `run_sharded` uses for this subset. A
        // lineup without one (companies, products) has no global set.
        let cross_blockers: Vec<&dyn Blocker<R>> = strategies
            .iter()
            .filter(|b| b.cross_shard())
            .map(|b| b.as_ref())
            .collect();
        if !cross_blockers.is_empty() {
            let ctx = BlockingContext::with_pool(config.parallelism.pool_for(batch.len()));
            let (global, global_runs) =
                gralmatch_blocking::run_blocker_refs_traced(&self.records, &cross_blockers, &ctx);
            for run in global_runs {
                BlockerRun::accumulate(&mut blocker_runs, run);
            }
            changed.extend(
                self.global
                    .iter()
                    .filter(|&(pair, flags)| global.provenance(pair) != flags)
                    .map(|(pair, _)| pair),
            );
            changed.extend(
                global
                    .iter()
                    .map(|(pair, _)| pair)
                    .filter(|&pair| !self.global.contains(pair)),
            );
            self.global = global;
        }

        // A touched shard's full record list (standing, new) is needed
        // only where something recounts from scratch: an index not built
        // yet, a blocker that keeps none, the debug cross-check.
        let local_blockers: Vec<(usize, &dyn Blocker<R>)> = strategies
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.cross_shard())
            .map(|(position, b)| (position, b.as_ref()))
            .collect();
        let recounted: FxHashSet<u32> = deltas
            .keys()
            .copied()
            .filter(|&shard| {
                cfg!(debug_assertions)
                    || local_blockers
                        .iter()
                        .any(|&(position, _)| !blocking.shards.contains_key(&(shard, position)))
            })
            .collect();
        let mut shard_records: FxHashMap<u32, (Vec<&R>, Vec<&R>)> = FxHashMap::default();
        if !recounted.is_empty() {
            let added_ids: FxHashSet<RecordId> = deltas
                .values()
                .flat_map(|delta| &delta.added)
                .copied()
                .collect();
            for record in &self.records {
                let id = record.id().0;
                let shard = self.shard_of[&id];
                if recounted.contains(&shard) {
                    let (standing, new) = shard_records.entry(shard).or_default();
                    if added_ids.contains(&record.id()) {
                        new.push(record);
                    } else {
                        standing.push(record);
                    }
                }
            }
        }

        let mut blocking_affected_records = 0;
        let mut blocking_flipped_tokens = 0;
        for (&shard, delta) in &deltas {
            let local = &mut self.local[shard as usize];
            for &(position, blocker) in &local_blockers {
                let watch = Stopwatch::start();
                let flag = blocker.kind().flag();
                let (pairs, candidates) = match blocking.shards.entry((shard, position)) {
                    Entry::Occupied(mut entry) => {
                        let added: Vec<&R> = delta
                            .added
                            .iter()
                            .map(|id| &self.records[self.index_of[&id.0] as usize])
                            .collect();
                        let index = entry.get_mut();
                        let pairs = index.apply(&delta.removed, &added, config.parallelism);
                        (pairs, index.num_pairs())
                    }
                    // First touch since the engine started (or resumed):
                    // one full block of the shard, diffed against the
                    // standing set, leaves a warm index behind.
                    Entry::Vacant(entry) => {
                        let (standing, new) = shard_records
                            .get(&shard)
                            .map_or((&[][..], &[][..]), |(s, n)| (&s[..], &n[..]));
                        let full = match blocker.shard_index() {
                            Some(mut index) => {
                                let all: Vec<&R> = standing.iter().chain(new).copied().collect();
                                let built = index.apply(&[], &all, config.parallelism);
                                entry.insert(index);
                                built
                            }
                            None => PairDelta {
                                added: recount(blocker, new, standing, config.parallelism),
                                affected_records: standing.len() + new.len(),
                                ..PairDelta::default()
                            },
                        };
                        let candidates = full.added.len();
                        (diff_against(local, flag, full), candidates)
                    }
                };
                for &pair in &pairs.removed {
                    local.set_flags(pair, local.provenance(pair) & !flag);
                }
                for &pair in &pairs.added {
                    local.add_flags(pair, flag);
                }
                blocking_affected_records += pairs.affected_records;
                blocking_flipped_tokens += pairs.flipped_tokens;
                changed.extend(pairs.removed);
                changed.extend(pairs.added);
                BlockerRun::accumulate(
                    &mut blocker_runs,
                    BlockerRun {
                        name: blocker.name(),
                        candidates,
                        seconds: watch.elapsed_secs(),
                    },
                );
            }
        }

        // Edit the union in place: a changed pair's provenance is the OR of
        // its sources (a local pair lives in its endpoints' common shard).
        changed.sort_unstable();
        changed.dedup();
        let mut fresh: Vec<RecordPair> = Vec::new();
        let mut dropped: Vec<RecordPair> = Vec::new();
        for pair in changed {
            let local_flags = self
                .shard_of
                .get(&pair.a.0)
                .map_or(0, |&shard| self.local[shard as usize].provenance(pair));
            let flags = self.global.provenance(pair) | local_flags;
            let before = self.candidates.set_flags(pair, flags);
            if before == 0 && flags != 0 {
                fresh.push(pair);
            } else if before != 0 && flags == 0 {
                dropped.push(pair);
            }
        }
        if cfg!(debug_assertions) {
            self.assert_blocking_matches_recount(&local_blockers, &shard_records);
        }
        let blocking_seconds = blocking_watch.elapsed_secs();

        // -- 3. Re-score new and invalidated pairs. ------------------------
        let inference_watch = Stopwatch::start();
        let untouched =
            |pair: &RecordPair| !dirty.contains(&pair.a.0) && !dirty.contains(&pair.b.0);
        let mut to_score: Vec<RecordPair> = self
            .candidates
            .iter()
            .map(|(pair, _)| pair)
            .filter(|pair| !untouched(pair))
            .chain(fresh.into_iter().filter(untouched))
            .collect();
        to_score.sort_unstable();
        let scoring_pool = config.parallelism.pool_for(batch.len());
        let scoring_watch = Stopwatch::start();
        let new_positives = predict_positive_with(scorer, &to_score, &scoring_pool);
        let scoring_seconds = scoring_watch.elapsed_secs();

        // Standing positives persist while both endpoints are unchanged and
        // the pair is still a candidate; anything else is retracted. A
        // positive is always a candidate, so the retracted ones are the
        // positives at a changed record plus the pairs this batch dropped
        // from the candidate set — found from the batch, not by a scan.
        let predictions = self.predicted();
        let mut retracted: Vec<RecordPair> = Vec::new();
        for &node in &dirty {
            retracted.extend(
                raw_neighbors(&self.cleaned, &self.cut, node)
                    .filter(|other| !dirty.contains(other) || node < *other)
                    .map(|other| RecordPair::new(RecordId(node), RecordId(other))),
            );
        }
        retracted.extend(
            dropped
                .into_iter()
                .filter(|pair| untouched(pair) && predictions.contains(*pair)),
        );
        let inference_seconds = inference_watch.elapsed_secs();

        // -- 4. Reconcile in place. ------------------------------------------
        let merge_watch = Stopwatch::start();
        let mut scratch_cut_index = CutIndex::new();
        let index = index.unwrap_or_else(|| {
            scratch_cut_index.rebuild_from(&self.cleaned);
            &mut scratch_cut_index
        });
        let candidates = &self.candidates;
        let is_removable = |a: u32, b: u32| {
            text_only_provenance(candidates.provenance(RecordPair::new(RecordId(a), RecordId(b))))
        };
        let merge = merge_in_place(
            &mut self.cleaned,
            &mut self.cut,
            self.num_ids,
            &retracted,
            &new_positives,
            &dirty,
            &is_removable,
            &config.cleanup,
            index,
        );
        let new_prediction_count = new_positives.len();
        let merge_seconds = merge_watch.elapsed_secs();

        let mut trace = PipelineTrace::default();
        trace.push(StageTrace {
            stage: stage_names::BLOCKING,
            seconds: blocking_seconds,
            items_in: batch.len(),
            items_out: self.candidates.len(),
            rss_delta_bytes: None,
            arena_bytes: None,
            core_seconds: None,
            phases: None,
        });
        trace.push(StageTrace {
            stage: stage_names::INFERENCE,
            seconds: inference_seconds,
            items_in: to_score.len(),
            items_out: new_prediction_count,
            rss_delta_bytes: None,
            // The scorer's compiled view persists across batches and is
            // rebuilt only for touched records; report its footprint so
            // the upsert JSON shows memory next to wall-clock.
            arena_bytes: scorer.memory_bytes(),
            core_seconds: Some(scoring_seconds),
            phases: None,
        });
        trace.push(StageTrace {
            stage: stage_names::MERGE,
            seconds: merge_seconds,
            items_in: new_prediction_count,
            items_out: merge.touched_components,
            rss_delta_bytes: None,
            arena_bytes: None,
            core_seconds: Some(merge.cleanup.seconds),
            phases: Some(merge.cleanup.phases()),
        });

        Ok(UpsertOutcome {
            num_groups: 0,
            trace,
            blocker_runs,
            inserted: batch.inserts.len(),
            updated: batch.updates.len(),
            deleted: batch.deletes.len(),
            touched_shards: deltas.len(),
            blocking_affected_records,
            blocking_flipped_tokens,
            pairs_scored: to_score.len(),
            new_predictions: new_prediction_count,
            retracted_predictions: retracted.len(),
            touched_components: merge.touched_components,
            boundary_merges: merge.boundary_merges,
            merge_visited_nodes: merge.visited_nodes,
            population_allocations: merge.population_allocations,
            changed_nodes: merge.touched_nodes,
            cleanup: merge.cleanup,
            epoch: 0,
            snapshot_publish_seconds: 0.0,
            snapshot_buckets_rebuilt: 0,
        })
    }
}

/// What [`merge_in_place`] did.
struct Reconciled {
    /// Members of the touched raw components, sorted: everything outside
    /// kept its cleaned edges verbatim.
    touched_nodes: Vec<u32>,
    touched_components: usize,
    boundary_merges: usize,
    visited_nodes: usize,
    population_allocations: usize,
    cleanup: CleanupReport,
}

/// Step 4 of [`PipelineState::apply_with_index`]: edit the standing
/// cleaned graph (and its cut edges, together the raw prediction graph) by
/// one batch's retracted and new positives, then re-clean exactly the raw
/// components the batch touched.
///
/// A raw component is touched when it holds a changed record, an
/// endpoint of a retracted edge, or an endpoint of a new positive; they
/// are found by walking the raw graph from those seeds. Each gets its raw
/// edges back (its cut edges are restored) and passes through pre-cleanup
/// and Algorithm 1 again, which is exactly what a one-shot run does to it.
/// Every other component keeps its cleaned edges: it is already cleaned,
/// and both passes are idempotent on it. `index` mirrors the cleaned
/// graph and is fed every edit, so work is proportional to the touched
/// components, never to the id space.
#[allow(clippy::too_many_arguments)]
fn merge_in_place(
    cleaned: &mut Graph,
    cut: &mut CutEdges,
    num_ids: usize,
    retracted: &[RecordPair],
    new_positives: &[RecordPair],
    dirty: &FxHashSet<u32>,
    is_removable: &dyn Fn(u32, u32) -> bool,
    config: &CleanupConfig,
    index: &mut CutIndex,
) -> Reconciled {
    // The cleaned graph spans the id space (deleted ids stay as isolated
    // nodes); growing it past capacity is the one id-space allocation.
    let capacity = cleaned.node_capacity();
    if num_ids > cleaned.num_nodes() {
        cleaned.ensure_node(num_ids as u32 - 1);
    }
    let population_allocations = usize::from(cleaned.node_capacity() != capacity);

    // The index gets the net edge delta, every removal before every
    // insertion: a cleaned edge retracted and scored positive again in the
    // same batch stays put, since a removal inside a block would mark it
    // dirty for nothing.
    let new_edges: FxHashSet<RecordPair> = new_positives.iter().copied().collect();
    for pair in retracted {
        let (a, b) = (pair.a.0, pair.b.0);
        if new_edges.contains(pair) && cleaned.has_edge(a, b) {
            continue;
        }
        if cleaned.remove_edge(a, b) {
            index.remove_edge(a, b);
        } else {
            cut.remove(a, b);
        }
    }
    let added: Vec<RecordPair> = new_positives
        .iter()
        .copied()
        .filter(|pair| cleaned.add_edge(pair.a.0, pair.b.0))
        .collect();

    // Touched raw components. Each is explored one persisting part (a
    // component without this batch's new positives) at a time, hopping
    // between parts over new positives — so the parts a new positive
    // joined are counted on the way.
    let mut seeds: Vec<u32> = dirty
        .iter()
        .copied()
        .chain(retracted.iter().flat_map(|pair| [pair.a.0, pair.b.0]))
        .chain(new_positives.iter().flat_map(|pair| [pair.a.0, pair.b.0]))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut components: Vec<Vec<u32>> = Vec::new();
    let mut parts = 0usize;
    for seed in seeds {
        let mut component: Vec<u32> = Vec::new();
        let mut hops = vec![seed];
        while let Some(start) = hops.pop() {
            if !seen.insert(start) {
                continue;
            }
            parts += 1;
            let mut stack = vec![start];
            while let Some(node) = stack.pop() {
                component.push(node);
                for next in raw_neighbors(cleaned, cut, node) {
                    if seen.contains(&next) {
                        continue;
                    }
                    if new_edges.contains(&RecordPair::new(RecordId(node), RecordId(next))) {
                        hops.push(next);
                    } else {
                        seen.insert(next);
                        stack.push(next);
                    }
                }
            }
        }
        if !component.is_empty() {
            component.sort_unstable();
            components.push(component);
        }
    }

    // Give the touched components their raw edges back, then feed the
    // index the insertions: restored cut edges (in pair order), then the
    // new positives.
    let mut restored: Vec<(u32, u32)> = components
        .iter()
        .flatten()
        .flat_map(|&a| {
            cut.neighbors(a)
                .iter()
                .filter(move |&&b| a < b)
                .map(move |&b| (a, b))
        })
        .collect();
    restored.sort_unstable();
    for &(a, b) in &restored {
        cut.remove(a, b);
        cleaned.add_edge(a, b);
        index.insert_edge(a, b);
    }
    for pair in &added {
        index.insert_edge(pair.a.0, pair.b.0);
    }
    let raw_edges: Vec<(u32, u32)> = components
        .iter()
        .flatten()
        .flat_map(|&a| {
            cleaned
                .neighbors(a)
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
        .collect();

    // Re-clean the touched components; whatever raw edge is gone after
    // that was cut.
    let mut touched_nodes: Vec<u32> = seen.into_iter().collect();
    touched_nodes.sort_unstable();
    let touched_components = components.len();
    let mut cleanup = CleanupReport::default();
    if let Some(threshold) = config.pre_cleanup_threshold {
        let pre_watch = Stopwatch::start();
        let removed = pre_cleanup_edges(cleaned, &components, threshold, is_removable);
        for edge in &removed {
            index.remove_edge(edge.a, edge.b);
        }
        if !removed.is_empty() {
            // An oversized component may have fallen apart.
            components = components
                .into_iter()
                .flat_map(|component| {
                    if component.len() <= threshold {
                        return vec![component];
                    }
                    let mut parts: Vec<Vec<u32>> = Vec::new();
                    let mut placed: FxHashSet<u32> = FxHashSet::default();
                    for &node in &component {
                        if !placed.contains(&node) {
                            let part = component_of(cleaned, node);
                            placed.extend(part.iter().copied());
                            parts.push(part);
                        }
                    }
                    parts
                })
                .collect();
        }
        cleanup.pre_cleanup_removed = removed.len();
        cleanup.pre_cleanup_seconds = pre_watch.elapsed_secs();
    }
    cleanup.merge(&graph_cleanup_with_index(
        cleaned,
        &components,
        config,
        index,
    ));
    for (a, b) in raw_edges {
        if !cleaned.has_edge(a, b) {
            cut.insert(a, b);
        }
    }

    Reconciled {
        visited_nodes: touched_nodes.len(),
        touched_nodes,
        touched_components,
        boundary_merges: parts - touched_components,
        population_allocations,
        cleanup,
    }
}

// --- Persistence --------------------------------------------------------

fn pair_to_json(pair: &RecordPair) -> Json {
    Json::Arr(vec![Json::Num(pair.a.0 as f64), Json::Num(pair.b.0 as f64)])
}

fn pair_from_json(json: &Json) -> Result<RecordPair, JsonError> {
    let parts = json
        .as_arr()
        .filter(|p| p.len() == 2)
        .ok_or_else(|| JsonError {
            message: "expected [a, b] pair".into(),
        })?;
    Ok(RecordPair::new(
        RecordId(u32::from_json(&parts[0])?),
        RecordId(u32::from_json(&parts[1])?),
    ))
}

impl ToJson for ShardKey {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                ShardKey::Entity => "entity",
                ShardKey::Source => "source",
            }
            .to_string(),
        )
    }
}

impl FromJson for ShardKey {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("entity") => Ok(ShardKey::Entity),
            Some("source") => Ok(ShardKey::Source),
            other => Err(JsonError {
                message: format!("unknown shard key {other:?}"),
            }),
        }
    }
}

impl ToJson for ShardPlan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("num_shards", self.num_shards.to_json()),
            ("key", self.key.to_json()),
        ])
    }
}

impl FromJson for ShardPlan {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let num_shards = usize::from_json(json.field("num_shards")?)?;
        if num_shards == 0 {
            return Err(JsonError {
                message: "num_shards must be positive".into(),
            });
        }
        Ok(ShardPlan::new(num_shards).with_key(ShardKey::from_json(json.field("key")?)?))
    }
}

impl<R: Record + ToJson> ToJson for PipelineState<R> {
    fn to_json(&self) -> Json {
        // Records sorted by id and edge lists sorted, so equal states
        // serialize identically regardless of mutation history.
        let mut by_id: Vec<&R> = self.records.iter().collect();
        by_id.sort_unstable_by_key(|r| r.id());
        let mut cleaned: Vec<RecordPair> = self
            .cleaned
            .edges()
            .map(|edge| RecordPair::new(RecordId(edge.a), RecordId(edge.b)))
            .collect();
        cleaned.sort_unstable();
        let predicted = Predictions {
            cleaned: &self.cleaned,
            cut: &self.cut,
        }
        .sorted();
        Json::obj([
            ("plan", self.plan.to_json()),
            ("num_ids", self.num_ids.to_json()),
            (
                "records",
                Json::Arr(by_id.into_iter().map(|r| r.to_json()).collect()),
            ),
            (
                "local",
                Json::Arr(self.local.iter().map(|set| set.to_json()).collect()),
            ),
            ("global", self.global.to_json()),
            (
                "predicted",
                Json::Arr(predicted.iter().map(pair_to_json).collect()),
            ),
            (
                "cleaned",
                Json::Arr(cleaned.iter().map(pair_to_json).collect()),
            ),
        ])
    }
}

impl<R: Record + Clone + Sync + FromJson> FromJson for PipelineState<R> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let plan = ShardPlan::from_json(json.field("plan")?)?;
        let num_ids = usize::from_json(json.field("num_ids")?)?;
        let records: Vec<R> = Vec::from_json(json.field("records")?)?;
        let local: Vec<CandidateSet> = Vec::from_json(json.field("local")?)?;
        if local.len() != plan.num_shards {
            return Err(JsonError {
                message: format!(
                    "{} local candidate sets for {} shards",
                    local.len(),
                    plan.num_shards
                ),
            });
        }
        let global = CandidateSet::from_json(json.field("global")?)?;
        let predicted_json = json.field("predicted")?.as_arr().ok_or_else(|| JsonError {
            message: "expected predicted array".into(),
        })?;
        let predicted = predicted_json
            .iter()
            .map(pair_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let cleaned_json = json.field("cleaned")?.as_arr().ok_or_else(|| JsonError {
            message: "expected cleaned array".into(),
        })?;
        let cleaned_edges = cleaned_json
            .iter()
            .map(pair_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        PipelineState::from_parts(StateParts {
            plan,
            num_ids,
            records,
            local,
            global,
            predicted,
            cleaned_edges,
        })
        .map_err(|message| JsonError { message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{MatchingDomain, SecurityDomain};
    use crate::pipeline::OracleScorer;
    use crate::shard::run_sharded;
    use gralmatch_datagen::{generate, GenerationConfig};
    use gralmatch_records::SecurityRecord;
    use gralmatch_util::FxHashMap;

    fn dataset() -> gralmatch_datagen::FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 80;
        generate(&config).unwrap()
    }

    fn company_groups(data: &gralmatch_datagen::FinancialDataset) -> FxHashMap<RecordId, u32> {
        data.companies
            .records()
            .iter()
            .map(|company| (company.id, company.entity.unwrap().0))
            .collect()
    }

    fn normalize(groups: &[Vec<RecordId>]) -> Vec<Vec<RecordId>> {
        let mut out: Vec<Vec<RecordId>> = groups
            .iter()
            .map(|group| {
                let mut g = group.clone();
                g.sort_unstable();
                g
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn initial_load_matches_one_shot_sharded_run() {
        let data = dataset();
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let plan = ShardPlan::new(4);

        let one_shot = run_sharded(&domain, &scorer, &config, &plan).unwrap();
        let (state, outcome) = PipelineState::initial_load(
            plan,
            securities.to_vec(),
            &domain.blocking_strategies(),
            &scorer,
            &config,
        )
        .unwrap();
        assert_eq!(
            normalize(&state.groups()),
            normalize(&one_shot.outcome.groups)
        );
        assert_eq!(state.candidates().len(), one_shot.outcome.num_candidates);
        assert_eq!(state.predicted().len(), one_shot.outcome.num_predicted);
        assert_eq!(outcome.inserted, securities.len());
        assert_eq!(outcome.touched_shards, 4);
        // Every recipe reports, including those local to a single shard.
        assert!(outcome
            .blocker_runs
            .iter()
            .any(|run| run.name == "id-overlap"));
    }

    #[test]
    fn delete_then_reinsert_restores_the_standing_groups() {
        let data = dataset();
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let strategies = domain.blocking_strategies();

        let (mut state, _) = PipelineState::initial_load(
            ShardPlan::new(2),
            securities.to_vec(),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();
        let baseline = normalize(&state.groups());

        // Delete the members of the largest multi-record group.
        let victim: Vec<RecordId> = state
            .groups()
            .into_iter()
            .find(|g| g.len() > 1)
            .expect("some multi-record group");
        let deleted = state
            .apply(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates: Vec::new(),
                    deletes: victim.clone(),
                },
                &strategies,
                &scorer,
                &config,
            )
            .unwrap();
        assert_eq!(deleted.deleted, victim.len());
        assert!(deleted.retracted_predictions > 0);
        for &id in &victim {
            assert!(!state.is_live(id));
            assert!(state.groups().iter().all(|g| !g.contains(&id)));
        }

        // Re-insert them: the standing groups must be restored exactly.
        let reinserts: Vec<SecurityRecord> = securities
            .iter()
            .filter(|record| victim.contains(&record.id))
            .cloned()
            .collect();
        state
            .apply(
                &UpsertBatch::inserting(reinserts),
                &strategies,
                &scorer,
                &config,
            )
            .unwrap();
        assert_eq!(normalize(&state.groups()), baseline);
    }

    #[test]
    fn noop_batch_changes_nothing_and_scores_nothing() {
        let data = dataset();
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let strategies = domain.blocking_strategies();
        let (mut state, _) = PipelineState::initial_load(
            ShardPlan::new(2),
            securities.to_vec(),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();
        let groups = normalize(&state.groups());
        let outcome = state
            .apply(&UpsertBatch::new(), &strategies, &scorer, &config)
            .unwrap();
        assert_eq!(outcome.pairs_scored, 0);
        assert_eq!(outcome.touched_shards, 0);
        assert_eq!(outcome.retracted_predictions, 0);
        assert_eq!(outcome.merge_visited_nodes, 0);
        assert_eq!(outcome.population_allocations, 0);
        assert_eq!(normalize(&state.groups()), groups);
    }

    #[test]
    fn invalid_batches_are_rejected() {
        let data = dataset();
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let strategies = domain.blocking_strategies();
        let (mut state, _) = PipelineState::initial_load(
            ShardPlan::new(2),
            securities.to_vec(),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();

        // Insert of a live id.
        let err = state
            .apply(
                &UpsertBatch::inserting(vec![securities[0].clone()]),
                &strategies,
                &scorer,
                &config,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Pipeline {
                stage: "upsert",
                ..
            }
        ));
        // Delete of an unknown id.
        let err = state
            .apply(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates: Vec::new(),
                    deletes: vec![RecordId(9_999_999)],
                },
                &strategies,
                &scorer,
                &config,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Pipeline {
                stage: "upsert",
                ..
            }
        ));
        // Update of an unknown id.
        let mut ghost = securities[0].clone();
        ghost.id = RecordId(9_999_998);
        let err = state
            .apply(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates: vec![ghost],
                    deletes: Vec::new(),
                },
                &strategies,
                &scorer,
                &config,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Pipeline {
                stage: "upsert",
                ..
            }
        ));
    }

    #[test]
    fn state_round_trips_through_json() {
        let data = dataset();
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let strategies = domain.blocking_strategies();
        let (state, _) = PipelineState::initial_load(
            ShardPlan::new(3),
            securities.to_vec(),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();

        let text = state.to_json().to_compact_string();
        let back: PipelineState<SecurityRecord> =
            PipelineState::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.num_ids(), state.num_ids());
        assert_eq!(back.num_live(), state.num_live());
        assert_eq!(back.plan(), state.plan());
        assert_eq!(back.candidates().len(), state.candidates().len());
        for (pair, flags) in state.candidates().iter() {
            assert_eq!(back.candidates().provenance(pair), flags);
        }
        assert_eq!(back.predicted().sorted(), state.predicted().sorted());
        assert_eq!(normalize(&back.groups()), normalize(&state.groups()));
        // Serialization is canonical: a round-tripped state re-serializes
        // to the identical text.
        assert_eq!(back.to_json().to_compact_string(), text);

        // And an upsert applied to the restored state behaves like one
        // applied to the original.
        let victim = state.live_records()[0].id();
        let mut original = state.clone();
        let mut restored = back;
        let batch = UpsertBatch {
            inserts: Vec::new(),
            updates: Vec::new(),
            deletes: vec![victim],
        };
        original
            .apply(&batch, &strategies, &scorer, &config)
            .unwrap();
        restored
            .apply(&batch, &strategies, &scorer, &config)
            .unwrap();
        assert_eq!(normalize(&original.groups()), normalize(&restored.groups()));
    }

    #[test]
    fn state_json_rejects_out_of_space_edges() {
        let data = dataset();
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let strategies = domain.blocking_strategies();
        let (state, _) = PipelineState::initial_load(
            ShardPlan::new(2),
            securities.to_vec(),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();
        assert!(!state.predicted().is_empty(), "fixture needs predictions");
        let text = state.to_json().to_compact_string();
        // A corrupted predicted edge pointing outside the id space must be
        // rejected at load time, not panic inside the next merge.
        let tampered = text.replace("\"predicted\":[", "\"predicted\":[[0,999999],");
        assert_ne!(tampered, text);
        let err = PipelineState::<SecurityRecord>::from_json(&Json::parse(&tampered).unwrap())
            .unwrap_err();
        assert!(err.message.contains("outside num_ids"), "{}", err.message);
        // Same for a candidate pair: it would reach the scorer (which
        // indexes encodings by id) before the merge.
        let tampered = text.replace("\"global\":[", "\"global\":[[0,999999,1],");
        assert_ne!(tampered, text);
        let err = PipelineState::<SecurityRecord>::from_json(&Json::parse(&tampered).unwrap())
            .unwrap_err();
        assert!(err.message.contains("outside num_ids"), "{}", err.message);
    }

    #[test]
    fn shard_plan_json_round_trips() {
        for plan in [
            ShardPlan::new(1),
            ShardPlan::new(4),
            ShardPlan::new(8).with_key(ShardKey::Source),
        ] {
            let text = plan.to_json().to_compact_string();
            let back = ShardPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
        assert!(ShardPlan::from_json(
            &Json::parse("{\"num_shards\":0,\"key\":\"entity\"}").unwrap()
        )
        .is_err());
    }
}
