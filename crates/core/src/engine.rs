//! The long-lived match engine: incremental execution as the *only* code
//! path, with group lookups served from a standing index.
//!
//! Earlier revisions had three parallel ways to run the Figure 1 pipeline
//! — the one-shot staged lineup
//! ([`run_domain`](crate::domain::run_domain)), the sharded runner
//! ([`run_sharded`](crate::shard::run_sharded)), and the incremental
//! upsert reconciliation ([`PipelineState::apply`]) — plus bespoke
//! scorer-state threading in the bench replay. A [`MatchEngine`] collapses
//! them: it owns the [`PipelineState`], the blocking-strategy list, the
//! scorer (with any compiled featurization view, see
//! [`CompiledScorerProvider`]), and a record-id → group index for its
//! whole lifetime, and **every** execution shape is expressed through
//! [`MatchEngine::apply_batch`]:
//!
//! * a **one-shot run** is [`MatchEngine::bootstrap`] — a single
//!   insert-only batch against an empty state (already property-tested
//!   equivalent to the staged one-shot),
//! * a **sharded run** is the same bootstrap under a multi-shard
//!   [`ShardPlan`],
//! * an **incremental run** is the bootstrap followed by more batches,
//! * a **serving process** is [`MatchEngine::from_state`] — a state and a
//!   trained matcher loaded from disk — followed by batches and lookups.
//!
//! The legacy staged/sharded runners survive only as the *reference
//! oracle* the equivalence suites compare against
//! (`tests/engine_equivalence.rs`, `tests/upsert_equivalence.rs`); the
//! public one-shot entry points are thin wrappers over this engine.
//!
//! ## Group lookups
//!
//! The engine answers [`group_of`](MatchEngine::group_of) /
//! [`group_members`](MatchEngine::group_members) from a [`GroupIndex`]
//! maintained **incrementally**: each applied batch reports the exact
//! invalidation set of the dirty-component merge
//! ([`UpsertOutcome::changed_nodes`] — batch ids plus every member of a
//! rebuilt component), and only those entries are recomputed. Lookup cost
//! is a hash probe; maintenance cost is proportional to the reconciled
//! surface, not the dataset. A group's id is its smallest member's record
//! id — stable under any mutation that does not change the group's
//! membership.

use crate::domain::MatchingDomain;
use crate::groups::{entity_groups, prediction_graph};
use crate::incremental::{BlockingIndex, PipelineState, UpsertBatch, UpsertOutcome};
use crate::metrics::{group_metrics, pairwise_metrics};
use crate::persist::{self, CheckpointInfo, CheckpointPolicy, Durability};
use crate::pipeline::{MatchingOutcome, PipelineConfig};
use crate::shard::ShardPlan;
use crate::snapshot::GroupSnapshot;
use gralmatch_blocking::Blocker;
use gralmatch_graph::CutIndex;
use gralmatch_lm::{
    CompiledDataset, CompiledMatcher, EncodedRecord, PairEncoder, PairScorer, ScoreScratch,
};
use gralmatch_records::{GroundTruth, Record, RecordId, RecordPair};
use gralmatch_util::{BinRecord, Error, FxHashMap, FxHashSet, Published, Stopwatch};
use std::path::PathBuf;
use std::sync::Arc;

/// Supplies the engine's pair scorer across the engine's lifetime,
/// absorbing record mutations into any scorer-side state first.
///
/// This is where the old bench-side `ReplayScorer` plumbing lives now:
/// a provider holding a compiled featurization view
/// ([`CompiledScorerProvider`]) recompiles exactly the records a batch
/// touches, so the expensive per-record string work persists across
/// batches. Stateless scorers (oracles, pre-encoded views) use
/// [`FixedScorerProvider`].
pub trait ScorerProvider<R> {
    /// Absorb an already-standing population (engine resume from a
    /// persisted state): called once by [`MatchEngine::from_state`] with
    /// the live records before any batch arrives. Default: no-op.
    fn prime(&mut self, records: &[R]) {
        let _ = records;
    }

    /// Absorb one batch's record mutations into scorer-side state, before
    /// the batch is reconciled. Default: no-op.
    fn absorb(&mut self, batch: &UpsertBatch<R>) {
        let _ = batch;
    }

    /// The scorer reflecting everything absorbed so far.
    fn scorer(&self) -> &dyn PairScorer;

    /// A scorer for *independent verification* runs (replay-vs-one-shot
    /// cross-checks). Providers maintaining incremental state should
    /// rebuild their view from scratch here so a corrupted incremental
    /// view cannot self-agree; the default returns the standing scorer,
    /// which is correct for stateless providers.
    fn verify_scorer(&mut self) -> &dyn PairScorer {
        self.scorer()
    }
}

/// [`ScorerProvider`] for scorers without per-batch state: oracles, or
/// compiled scorers built over a pre-encoded full population.
pub struct FixedScorerProvider<'s>(pub &'s dyn PairScorer);

impl<R> ScorerProvider<R> for FixedScorerProvider<'_> {
    fn scorer(&self) -> &dyn PairScorer {
        self.0
    }
}

/// [`ScorerProvider`] owning a matcher, its encoder, and a
/// [`CompiledDataset`] view maintained incrementally: each absorbed batch
/// encodes and recompiles exactly its touched records
/// (`recompile_record`/`clear_record`); untouched records keep their
/// compiled spans for the engine's whole lifetime.
pub struct CompiledScorerProvider<M: CompiledMatcher, E: PairEncoder> {
    matcher: M,
    encoder: E,
    compiled: CompiledDataset,
    /// Encoded streams as absorbed so far, by record id (deletes become
    /// empty streams) — the input for [`ScorerProvider::verify_scorer`]'s
    /// independent recompile.
    encoded: Vec<EncodedRecord>,
}

impl<M: CompiledMatcher, E: PairEncoder> CompiledScorerProvider<M, E> {
    /// Empty provider; records arrive via `prime`/`absorb`.
    pub fn new(matcher: M, encoder: E) -> Self {
        let compiled = CompiledDataset::new(&matcher.feature_config());
        CompiledScorerProvider {
            matcher,
            encoder,
            compiled,
            encoded: Vec::new(),
        }
    }

    /// The wrapped matcher.
    pub fn matcher(&self) -> &M {
        &self.matcher
    }

    /// Heap footprint of the compiled view.
    pub fn arena_bytes(&self) -> usize {
        self.compiled.arena_bytes()
    }

    fn remember(&mut self, id: u32, stream: EncodedRecord) {
        if id as usize >= self.encoded.len() {
            self.encoded.resize_with(id as usize + 1, Default::default);
        }
        self.encoded[id as usize] = stream;
    }

    fn recompile<R: Record>(&mut self, record: &R) {
        let stream = self.encoder.encode(record);
        self.compiled.recompile_record(record.id().0, &stream);
        self.remember(record.id().0, stream);
    }
}

impl<M: CompiledMatcher, E: PairEncoder> PairScorer for CompiledScorerProvider<M, E> {
    fn score_pair(&self, pair: RecordPair) -> f32 {
        self.score_pair_scratch(pair, &mut ScoreScratch::default())
    }

    fn score_pair_scratch(&self, pair: RecordPair, scratch: &mut ScoreScratch) -> f32 {
        self.matcher
            .score_compiled(&self.compiled, pair.a.0, pair.b.0, scratch)
    }

    fn threshold(&self) -> f32 {
        self.matcher.threshold()
    }

    fn memory_bytes(&self) -> Option<usize> {
        Some(self.compiled.arena_bytes())
    }
}

impl<M: CompiledMatcher, E: PairEncoder, R: Record> ScorerProvider<R>
    for CompiledScorerProvider<M, E>
{
    fn prime(&mut self, records: &[R]) {
        for record in records {
            self.recompile(record);
        }
    }

    fn absorb(&mut self, batch: &UpsertBatch<R>) {
        for record in batch.inserts.iter().chain(&batch.updates) {
            self.recompile(record);
        }
        for &id in &batch.deletes {
            self.compiled.clear_record(id.0);
            self.remember(id.0, Default::default());
        }
    }

    fn scorer(&self) -> &dyn PairScorer {
        self
    }

    fn verify_scorer(&mut self) -> &dyn PairScorer {
        // Rebuild the view from the remembered streams so verification is
        // independent of the incremental recompiles: if per-batch
        // maintenance ever corrupted a span, a replay-vs-one-shot groups
        // check fails instead of self-agreeing through the same arena.
        self.compiled = CompiledDataset::compile(&self.encoded, &self.matcher.feature_config());
        self
    }
}

/// Record-id → group index over the standing cleaned graph. A group's id
/// is its **smallest member's record id**; every live record belongs to
/// exactly one group (possibly a singleton).
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    root_of: FxHashMap<u32, u32>,
    members: FxHashMap<u32, Vec<RecordId>>,
}

impl GroupIndex {
    /// Group id of a record (`None` when the id is not live).
    pub fn group_of(&self, id: RecordId) -> Option<RecordId> {
        self.root_of.get(&id.0).map(|&root| RecordId(root))
    }

    /// Sorted members of a group (`None` when `group` is not a group id).
    pub fn group_members(&self, group: RecordId) -> Option<&[RecordId]> {
        self.members.get(&group.0).map(Vec::as_slice)
    }

    /// Number of groups (singletons included).
    pub fn num_groups(&self) -> usize {
        self.members.len()
    }

    /// Records in the largest group.
    pub fn largest_group(&self) -> usize {
        self.members.values().map(Vec::len).max().unwrap_or(0)
    }

    /// All groups, largest first (ties by ascending group id) — the same
    /// observable ordering contract as
    /// [`PipelineState::groups`].
    pub fn groups(&self) -> Vec<Vec<RecordId>> {
        let mut roots: Vec<u32> = self.members.keys().copied().collect();
        roots.sort_unstable_by_key(|root| (usize::MAX - self.members[root].len(), *root));
        roots
            .into_iter()
            .map(|root| self.members[&root].clone())
            .collect()
    }

    /// Rebuild from scratch (engine resume from a persisted state).
    fn rebuild<R: Record + Clone + Sync>(state: &PipelineState<R>) -> Self {
        let mut index = GroupIndex::default();
        for group in state.groups() {
            index.insert_group(group);
        }
        index
    }

    /// Raw root-id lookup (snapshot construction).
    pub(crate) fn root_of_raw(&self, id: u32) -> Option<u32> {
        self.root_of.get(&id).copied()
    }

    /// Members of the group rooted at `root`, if `root` is a group id
    /// (snapshot construction).
    pub(crate) fn members_of_root(&self, root: u32) -> Option<&Vec<RecordId>> {
        self.members.get(&root)
    }

    /// Iterate `(root, members)` over all groups in arbitrary order
    /// (snapshot construction).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &Vec<RecordId>)> {
        self.members.iter().map(|(&root, members)| (root, members))
    }

    pub(crate) fn insert_group(&mut self, mut group: Vec<RecordId>) {
        group.sort_unstable();
        let root = group[0].0;
        for &member in &group {
            self.root_of.insert(member.0, root);
        }
        self.members.insert(root, group);
    }

    /// Reconcile the index after one applied batch. `changed` is the
    /// merge's invalidation set ([`UpsertOutcome::changed_nodes`]); the
    /// update walks the *closure* of changed nodes — their standing
    /// groups, plus everything reachable in the new cleaned graph — and
    /// recomputes components only there. Entries outside the closure are
    /// untouched, so maintenance cost tracks the reconciled surface.
    ///
    /// Returns the affected closure (sorted, deduplicated): every id
    /// whose root assignment or rooted group may differ from before —
    /// exactly the set a derived [`GroupSnapshot`] must re-examine.
    fn apply<R: Record + Clone + Sync>(
        &mut self,
        state: &PipelineState<R>,
        changed: &[u32],
    ) -> Vec<u32> {
        // 1. Affected closure: changed nodes, the full membership of any
        //    standing group containing one, and the new-graph neighborhood
        //    (so component recomputation below cannot escape the closure).
        let graph = state.cleaned();
        let mut affected: FxHashSet<u32> = FxHashSet::default();
        let mut queue: Vec<u32> = changed.to_vec();
        while let Some(node) = queue.pop() {
            if !affected.insert(node) {
                continue;
            }
            if let Some(root) = self.root_of.get(&node) {
                if let Some(members) = self.members.get(root) {
                    queue.extend(members.iter().map(|member| member.0));
                }
            }
            if (node as usize) < graph.num_nodes() {
                queue.extend(graph.neighbors(node));
            }
        }

        // 2. Drop the closure's standing entries.
        let roots: FxHashSet<u32> = affected
            .iter()
            .filter_map(|node| self.root_of.get(node).copied())
            .collect();
        for root in roots {
            self.members.remove(&root);
        }
        for node in &affected {
            self.root_of.remove(node);
        }

        // 3. Recompute components among the live part of the closure.
        //    Dead ids simply stay removed (they are isolated in the
        //    cleaned graph — their edges were retracted by the merge).
        let mut ordered: Vec<u32> = affected.iter().copied().collect();
        ordered.sort_unstable();
        let mut assigned: FxHashSet<u32> = FxHashSet::default();
        for &start in &ordered {
            if assigned.contains(&start) || !state.is_live(RecordId(start)) {
                continue;
            }
            let mut component = vec![start];
            assigned.insert(start);
            let mut cursor = 0;
            while cursor < component.len() {
                let node = component[cursor];
                cursor += 1;
                for next in graph.neighbors(node) {
                    if assigned.insert(next) {
                        component.push(next);
                    }
                }
            }
            self.insert_group(component.into_iter().map(RecordId).collect());
        }
        ordered
    }
}

/// Aggregate engine counters for dashboards and the serve binary's
/// `stats` command.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineStats {
    /// Live records.
    pub num_live: usize,
    /// Id-space size (max id ever seen + 1).
    pub num_ids: usize,
    /// Standing entity groups (live singletons included).
    pub num_groups: usize,
    /// Records in the largest group.
    pub largest_group: usize,
    /// Standing candidate pairs.
    pub num_candidates: usize,
    /// Standing positive predictions.
    pub num_predicted: usize,
    /// Batches applied over the engine's lifetime (bootstrap included).
    pub batches_applied: usize,
    /// Total wall-clock seconds spent in `apply_batch`.
    pub total_apply_seconds: f64,
}

/// The long-lived execution engine. See the [module docs](self) for the
/// lifecycle (bootstrap / apply / lookup) and what it replaced.
pub struct MatchEngine<'a, R: Record + Clone + Sync> {
    state: PipelineState<R>,
    strategies: Vec<Box<dyn Blocker<R> + 'a>>,
    provider: Box<dyn ScorerProvider<R> + 'a>,
    config: PipelineConfig,
    index: GroupIndex,
    /// The epoch-published read path: after every applied batch the
    /// engine advances an immutable [`GroupSnapshot`] here; concurrent
    /// readers hold [`gralmatch_util::PublishedReader`]s over this slot.
    published: Arc<Published<GroupSnapshot>>,
    batches_applied: usize,
    total_apply_seconds: f64,
    /// Optional WAL + checkpoint hookup ([`MatchEngine::enable_durability`]).
    /// `None` keeps the engine purely in-memory — the historical behavior.
    durability: Option<Durability<R>>,
    /// Persistent cut-structure cache over the standing cleaned graph.
    /// Maintained across [`apply_batch`](MatchEngine::apply_batch) calls by
    /// the merge's exact edge-delta feed, so steady-state churn re-cleans
    /// in O(affected region); rebuilt wholesale on recovery and model swap
    /// (the only paths where the cleaned graph changes hands outside the
    /// delta feed).
    cut_index: CutIndex,
    /// The shard-local blockers' maintained indexes, edited by every
    /// [`apply_batch`](MatchEngine::apply_batch) so a batch re-blocks the
    /// token neighbourhood it touched, not its shards. Starts empty here,
    /// on resume/recovery and on model swap; each shard's entry is built
    /// by the first batch that touches it (one full block of that shard).
    blocking_index: BlockingIndex<R>,
}

impl<'a, R: Record + Clone + Sync> MatchEngine<'a, R> {
    /// Empty engine under a shard plan; records arrive via
    /// [`apply_batch`](MatchEngine::apply_batch).
    pub fn new(
        plan: ShardPlan,
        strategies: Vec<Box<dyn Blocker<R> + 'a>>,
        provider: Box<dyn ScorerProvider<R> + 'a>,
        config: PipelineConfig,
    ) -> Self {
        MatchEngine {
            state: PipelineState::new(plan),
            strategies,
            provider,
            config,
            index: GroupIndex::default(),
            published: Arc::new(Published::new(GroupSnapshot::empty(EngineStats::default()))),
            batches_applied: 0,
            total_apply_seconds: 0.0,
            durability: None,
            cut_index: CutIndex::new(),
            blocking_index: BlockingIndex::default(),
        }
    }

    /// One-shot load: an empty engine plus a single insert-only batch.
    /// This **is** the engine's one-shot run — under a single-shard plan
    /// it replaces the staged `run_domain` lineup, under a multi-shard
    /// plan the sharded runner.
    pub fn bootstrap(
        plan: ShardPlan,
        records: Vec<R>,
        strategies: Vec<Box<dyn Blocker<R> + 'a>>,
        provider: Box<dyn ScorerProvider<R> + 'a>,
        config: PipelineConfig,
    ) -> Result<(Self, UpsertOutcome), Error> {
        let mut engine = MatchEngine::new(plan, strategies, provider, config);
        let outcome = engine.apply_batch(&UpsertBatch::inserting(records))?;
        Ok((engine, outcome))
    }

    /// Resume from a persisted [`PipelineState`] (the serve path): primes
    /// the provider with the live records and rebuilds the group index;
    /// no pairs are re-scored.
    pub fn from_state(
        state: PipelineState<R>,
        strategies: Vec<Box<dyn Blocker<R> + 'a>>,
        provider: Box<dyn ScorerProvider<R> + 'a>,
        config: PipelineConfig,
    ) -> Self {
        MatchEngine::from_state_at(state, 0, 0, strategies, provider, config)
    }

    /// Resume from a persisted [`PipelineState`] **at a persisted epoch**
    /// — the binary-snapshot recovery path
    /// ([`crate::persist::recover_engine`]). The first snapshot publishes
    /// at exactly `epoch` with `batches_applied` restored, so a recovered
    /// engine is indistinguishable from the one that wrote the snapshot:
    /// replaying the WAL tail lands on the same epoch the crashed engine
    /// had published.
    pub fn from_state_at(
        state: PipelineState<R>,
        epoch: u64,
        batches_applied: usize,
        strategies: Vec<Box<dyn Blocker<R> + 'a>>,
        mut provider: Box<dyn ScorerProvider<R> + 'a>,
        config: PipelineConfig,
    ) -> Self {
        provider.prime(state.live_records());
        let index = GroupIndex::rebuild(&state);
        // A resumed cleaned graph arrives from outside the delta feed, so
        // the cut index is rebuilt from it wholesale: an empty index would
        // violate its "indexed node ⇒ all its edges represented" contract
        // the moment a batch touched a standing component.
        let mut cut_index = CutIndex::new();
        cut_index.rebuild_from(state.cleaned());
        let mut engine = MatchEngine {
            state,
            strategies,
            provider,
            config,
            index,
            published: Arc::new(Published::new(GroupSnapshot::empty(EngineStats::default()))),
            batches_applied,
            total_apply_seconds: 0.0,
            durability: None,
            cut_index,
            blocking_index: BlockingIndex::default(),
        };
        // Resumed engines serve a full snapshot of the persisted groups
        // from the persisted epoch (0 for JSON-resumed states).
        engine.published = Arc::new(Published::new(GroupSnapshot::rebuild_full(
            &engine.index,
            epoch,
            engine.stats_for_snapshot(),
            engine.state.num_ids(),
        )));
        engine
    }

    /// Bootstrap over a domain's records and blocking recipe.
    pub fn bootstrap_domain<D>(
        domain: &'a D,
        plan: ShardPlan,
        provider: Box<dyn ScorerProvider<R> + 'a>,
        config: PipelineConfig,
    ) -> Result<(Self, UpsertOutcome), Error>
    where
        D: MatchingDomain<Rec = R>,
    {
        MatchEngine::bootstrap(
            plan,
            domain.records().to_vec(),
            domain.blocking_strategies(),
            provider,
            config,
        )
    }

    /// Apply one delta batch: validate it, absorb it into the scorer,
    /// reconcile the pipeline state, update the group index from the
    /// merge's invalidation set, and publish the next epoch's
    /// [`GroupSnapshot`] for concurrent readers.
    pub fn apply_batch(&mut self, batch: &UpsertBatch<R>) -> Result<UpsertOutcome, Error> {
        let watch = Stopwatch::start();
        // Validate *before* the provider absorbs the batch: a rejected
        // batch must leave both the pipeline state and any scorer-side
        // compiled view untouched, or the two diverge.
        self.state.validate(batch)?;
        // WAL append sits between validation and application: a validated
        // batch applies deterministically, so a crash right after the
        // append recovers to the same state as a crash right after the
        // apply — the frame just replays. The frame's seq is the batch
        // counter this batch will land on, so recovery can order it
        // against the snapshot header's counter.
        let seq = self.batches_applied as u64 + 1;
        if let Some(durability) = self.durability.as_mut() {
            let payload = (durability.encode_batch)(batch);
            durability.wal.append(seq, &payload)?;
        }
        self.provider.absorb(batch);
        let mut outcome = self.state.apply_with_index(
            batch,
            &self.strategies,
            self.provider.scorer(),
            &self.config,
            Some(&mut self.cut_index),
            Some(&mut self.blocking_index),
        )?;
        let affected = self.index.apply(&self.state, &outcome.changed_nodes);
        outcome.num_groups = self.index.num_groups();
        self.batches_applied += 1;
        self.total_apply_seconds += watch.elapsed_secs();

        let publish_watch = Stopwatch::start();
        let (next, buckets_rebuilt) = self.published.load().advance(
            &self.index,
            &affected,
            self.stats_for_snapshot(),
            self.state.num_ids(),
        );
        let next = Arc::new(next);
        self.published.publish(next.clone());
        let publish_seconds = publish_watch.elapsed_secs();
        self.total_apply_seconds += publish_seconds;
        outcome.epoch = next.epoch();
        outcome.snapshot_publish_seconds = publish_seconds;
        outcome.snapshot_buckets_rebuilt = buckets_rebuilt;

        debug_assert_eq!(
            {
                let mut from_index: Vec<Vec<RecordId>> = self.index.groups();
                from_index.sort();
                from_index
            },
            {
                let mut from_state: Vec<Vec<RecordId>> = self
                    .state
                    .groups()
                    .into_iter()
                    .map(|mut group| {
                        group.sort_unstable();
                        group
                    })
                    .collect();
                from_state.sort();
                from_state
            },
            "incremental group index diverged from the standing graph"
        );
        debug_assert_eq!(
            {
                let mut from_snapshot: Vec<Vec<RecordId>> = next.groups();
                from_snapshot.sort();
                from_snapshot
            },
            {
                let mut from_index: Vec<Vec<RecordId>> = self.index.groups();
                from_index.sort();
                from_index
            },
            "incrementally advanced snapshot diverged from the group index"
        );
        self.maybe_checkpoint()?;
        Ok(outcome)
    }

    /// Arm crash-safe persistence on this engine: every subsequent
    /// [`apply_batch`](MatchEngine::apply_batch) appends the encoded
    /// batch to `<snapshot_path>.wal` before applying it, and the engine
    /// checkpoints (atomic snapshot rewrite + WAL truncate) whenever the
    /// log crosses the policy's thresholds. Enabling always establishes a
    /// fresh checkpoint, so stale snapshot/WAL files under the same path
    /// are overwritten rather than mixed with the new lineage. Use
    /// [`crate::persist::recover_engine`] to resume from the files.
    pub fn enable_durability(
        &mut self,
        snapshot_path: impl Into<PathBuf>,
        policy: CheckpointPolicy,
    ) -> Result<CheckpointInfo, Error>
    where
        R: BinRecord,
    {
        self.attach_durability(snapshot_path.into(), policy)?;
        self.checkpoint()
    }

    /// Install the durability bundle without checkpointing — the recovery
    /// path, where the on-disk snapshot + WAL prefix already equal the
    /// engine's state.
    pub(crate) fn attach_durability(
        &mut self,
        snapshot_path: PathBuf,
        policy: CheckpointPolicy,
    ) -> Result<(), Error>
    where
        R: BinRecord,
    {
        let wal = persist::WalWriter::open(&persist::wal_path(&snapshot_path), policy.fsync)?;
        self.durability = Some(Durability {
            wal,
            snapshot_path,
            policy,
            fingerprint: None,
            encode_batch: persist::encode_batch::<R>,
            encode_state: persist::encode_state::<R>,
        });
        Ok(())
    }

    /// Whether [`enable_durability`](MatchEngine::enable_durability) is
    /// active.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Scorer fingerprint written as a `<snapshot>.scorer` sidecar on
    /// every checkpoint, so a resume can validate its model against the
    /// snapshot exactly like the JSON serve path does. `None` skips the
    /// sidecar.
    pub fn set_durability_fingerprint(&mut self, fingerprint: Option<String>) {
        if let Some(durability) = self.durability.as_mut() {
            durability.fingerprint = fingerprint;
        }
    }

    /// Checkpoint now: atomically rewrite the binary snapshot at the
    /// current published epoch (temp file + rename, fsynced when the
    /// policy asks), truncate the WAL, then rewrite the fingerprint
    /// sidecar when one is set. Errors when durability is not enabled.
    ///
    /// Step order is load-bearing. A crash after the snapshot write but
    /// before the truncate leaves already-incorporated frames in the
    /// log — recovery skips them by seq (see
    /// [`crate::persist::recover_engine`]). The sidecar goes last so
    /// that if the checkpoint dies earlier, the sidecar still names the
    /// scorer the surviving WAL frames were scored under — the
    /// model-swap path relies on this to stay consistent on failure.
    pub fn checkpoint(&mut self) -> Result<CheckpointInfo, Error> {
        let epoch = self.published.load().epoch();
        let Some(durability) = self.durability.as_mut() else {
            return Err(Error::InvalidConfig(
                "checkpoint requires durability; call enable_durability first".into(),
            ));
        };
        let bytes = (durability.encode_state)(&self.state, epoch, self.batches_applied);
        persist::write_atomic(&durability.snapshot_path, &bytes, durability.policy.fsync)?;
        durability.wal.truncate()?;
        if let Some(fingerprint) = &durability.fingerprint {
            persist::write_atomic(
                &persist::fingerprint_path(&durability.snapshot_path),
                fingerprint.as_bytes(),
                durability.policy.fsync,
            )?;
        }
        Ok(CheckpointInfo {
            epoch,
            snapshot_bytes: bytes.len() as u64,
        })
    }

    /// Checkpoint if the WAL crossed the policy's batch/byte thresholds.
    fn maybe_checkpoint(&mut self) -> Result<(), Error> {
        let due = self.durability.as_ref().is_some_and(|durability| {
            durability.wal.frames() >= durability.policy.max_wal_batches
                || durability.wal.bytes() >= durability.policy.max_wal_bytes
        });
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Engine counters with the group counters left for the snapshot to
    /// recompute from its own buckets (an O(num_buckets) fold instead of
    /// an O(num_groups) scan per publish).
    fn stats_for_snapshot(&self) -> EngineStats {
        EngineStats {
            num_live: self.state.num_live(),
            num_ids: self.state.num_ids(),
            num_groups: 0,
            largest_group: 0,
            num_candidates: self.state.candidates().len(),
            num_predicted: self.state.predicted().len(),
            batches_applied: self.batches_applied,
            total_apply_seconds: self.total_apply_seconds,
        }
    }

    /// Group id of a record: the smallest record id in its group. `None`
    /// when `id` is not live.
    pub fn group_of(&self, id: RecordId) -> Option<RecordId> {
        self.index.group_of(id)
    }

    /// Sorted members of a group. `None` when `group` is not a current
    /// group id (group ids are smallest members — see
    /// [`group_of`](MatchEngine::group_of)).
    pub fn group_members(&self, group: RecordId) -> Option<&[RecordId]> {
        self.index.group_members(group)
    }

    /// All standing groups, largest first (from the index — equal to
    /// [`PipelineState::groups`] up to member ordering).
    pub fn groups(&self) -> Vec<Vec<RecordId>> {
        self.index.groups()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            num_live: self.state.num_live(),
            num_ids: self.state.num_ids(),
            num_groups: self.index.num_groups(),
            largest_group: self.index.largest_group(),
            num_candidates: self.state.candidates().len(),
            num_predicted: self.state.predicted().len(),
            batches_applied: self.batches_applied,
            total_apply_seconds: self.total_apply_seconds,
        }
    }

    /// The current epoch's published [`GroupSnapshot`].
    pub fn snapshot(&self) -> Arc<GroupSnapshot> {
        self.published.load()
    }

    /// The publish slot concurrent readers subscribe to (wrap it in a
    /// [`gralmatch_util::PublishedReader`] per reader thread). The engine
    /// keeps publishing into this same slot for its whole lifetime.
    pub fn snapshot_source(&self) -> Arc<Published<GroupSnapshot>> {
        self.published.clone()
    }

    /// The standing pipeline state (persist it with `to_json`).
    pub fn state(&self) -> &PipelineState<R> {
        &self.state
    }

    /// The engine's pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The shard plan the engine reconciles under.
    pub fn plan(&self) -> ShardPlan {
        self.state.plan()
    }

    /// Mutable access to the scorer provider (verification runs).
    pub fn provider_mut(&mut self) -> &mut dyn ScorerProvider<R> {
        self.provider.as_mut()
    }

    /// The standing pair scorer (reflecting everything absorbed so far).
    pub fn scorer(&self) -> &dyn PairScorer {
        self.provider.scorer()
    }

    /// Replace the scorer provider in place — the hot model swap path.
    /// The new provider is primed with the live records (so its compiled
    /// view covers the standing population), and the snapshot is
    /// republished at the next epoch with **zero** buckets rebuilt:
    /// standing predictions and groups are untouched — only pairs scored
    /// in subsequent batches see the new scorer — but readers observe the
    /// swap as an epoch bump.
    pub fn replace_provider(&mut self, mut provider: Box<dyn ScorerProvider<R> + 'a>) {
        provider.prime(self.state.live_records());
        self.provider = provider;
        // Model swaps mark an epoch boundary for every derived structure;
        // the cut index is invalidated and rebuilt from the standing
        // cleaned graph rather than trusted across the swap, the blocking
        // index dropped and rebuilt shard by shard on first touch.
        self.cut_index.rebuild_from(self.state.cleaned());
        self.blocking_index = BlockingIndex::default();
        let (next, buckets_rebuilt) = self.published.load().advance(
            &self.index,
            &[],
            self.stats_for_snapshot(),
            self.state.num_ids(),
        );
        debug_assert_eq!(buckets_rebuilt, 0, "provider swap must not rebuild groups");
        self.published.publish(Arc::new(next));
    }

    /// Evaluate the standing state under the paper's three-stage protocol
    /// (pairwise / pre-cleanup / post-cleanup), packaging a
    /// [`MatchingOutcome`] exactly like the legacy one-shot entry points
    /// did. `load` supplies the per-stage trace and blocking diagnostics
    /// of the batch that produced the standing state (usually the
    /// bootstrap batch).
    pub fn evaluate(&self, gt: &GroundTruth, load: &UpsertOutcome) -> MatchingOutcome {
        let predicted = self.state.predicted();
        let pairwise = pairwise_metrics(predicted, gt);
        // The raw-prediction graph spans the full id space; after
        // delete-bearing batches, dead ids sit in it as isolated nodes
        // and must not count as phantom singleton groups (the
        // post-cleanup path filters them inside `PipelineState::groups`).
        let pre_groups: Vec<Vec<RecordId>> =
            entity_groups(&prediction_graph(self.state.num_ids(), predicted))
                .into_iter()
                .filter(|group| group.len() > 1 || self.state.is_live(group[0]))
                .collect();
        let pre_cleanup = group_metrics(&pre_groups, gt);
        let groups = self.state.groups();
        let post_cleanup = group_metrics(&groups, gt);
        MatchingOutcome {
            num_candidates: self.state.candidates().len(),
            num_predicted: predicted.len(),
            pairwise,
            pre_cleanup,
            post_cleanup,
            groups,
            trace: load.trace.clone(),
            blocker_runs: load.blocker_runs.clone(),
            cleanup_report: load.cleanup.clone(),
        }
    }

    /// Tear down into the standing state (persistence at shutdown).
    pub fn into_state(self) -> PipelineState<R> {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{MatchingDomain, SecurityDomain};
    use crate::pipeline::OracleScorer;
    use gralmatch_datagen::{generate, GenerationConfig};
    use gralmatch_records::SecurityRecord;

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

    #[test]
    fn lookups_agree_with_groups_across_delete_bearing_batches() {
        let data = dataset();
        let securities: Vec<SecurityRecord> = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let strategies = domain.blocking_strategies();

        let split = securities.len() * 2 / 3;
        let (mut engine, load) = MatchEngine::bootstrap(
            ShardPlan::new(3),
            securities[..split].to_vec(),
            strategies,
            Box::new(FixedScorerProvider(&scorer)),
            config,
        )
        .unwrap();
        assert_eq!(load.inserted, split);

        // Every live record resolves; the group id is its smallest member
        // and membership is closed under lookup.
        let check = |engine: &MatchEngine<'_, SecurityRecord>| {
            for group in engine.groups() {
                let root = group[0];
                for &member in &group {
                    assert_eq!(engine.group_of(member), Some(root));
                }
                assert_eq!(engine.group_members(root).unwrap(), &group[..]);
            }
        };
        check(&engine);

        // Delete a multi-record group's members; lookups must reflect the
        // re-cleaned components immediately.
        let victim: Vec<RecordId> = engine
            .groups()
            .into_iter()
            .find(|group| group.len() > 1)
            .expect("some multi-record group");
        engine
            .apply_batch(&UpsertBatch {
                inserts: Vec::new(),
                updates: Vec::new(),
                deletes: victim.clone(),
            })
            .unwrap();
        for &id in &victim {
            assert_eq!(engine.group_of(id), None, "deleted id still resolves");
        }
        check(&engine);

        // Insert the remainder (plus re-insert the victims) and re-check.
        let mut rest: Vec<SecurityRecord> = securities[split..].to_vec();
        rest.extend(
            securities[..split]
                .iter()
                .filter(|record| victim.contains(&record.id))
                .cloned(),
        );
        engine.apply_batch(&UpsertBatch::inserting(rest)).unwrap();
        check(&engine);
        let stats = engine.stats();
        assert_eq!(stats.num_live, securities.len());
        assert_eq!(stats.batches_applied, 3);
        assert_eq!(stats.num_groups, engine.groups().len());
        assert!(stats.total_apply_seconds > 0.0);
    }

    #[test]
    fn snapshots_publish_per_batch_and_stay_frozen() {
        let data = dataset();
        let securities: Vec<SecurityRecord> = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);

        let split = securities.len() / 2;
        let (mut engine, load) = MatchEngine::bootstrap(
            ShardPlan::new(2),
            securities[..split].to_vec(),
            domain.blocking_strategies(),
            Box::new(FixedScorerProvider(&scorer)),
            config,
        )
        .unwrap();
        assert_eq!(load.epoch, 1);
        assert!(load.snapshot_buckets_rebuilt > 0);
        let first = engine.snapshot();
        assert_eq!(first.epoch(), 1);

        let outcome = engine
            .apply_batch(&UpsertBatch::inserting(securities[split..].to_vec()))
            .unwrap();
        assert_eq!(outcome.epoch, 2);
        let second = engine.snapshot();
        assert_eq!(second.epoch(), 2);
        assert_eq!(engine.snapshot_source().version(), 2);

        // The new epoch answers exactly like the live engine; the old
        // epoch still serves its own frozen pre-batch state.
        for group in engine.groups() {
            assert_eq!(second.group_of(group[0]), Some(group[0]));
            assert_eq!(second.group_members(group[0]).unwrap(), &group[..]);
        }
        let stats = engine.stats();
        assert_eq!(second.stats().num_groups, stats.num_groups);
        assert_eq!(second.stats().largest_group, stats.largest_group);
        assert_eq!(second.stats().num_live, stats.num_live);
        assert_eq!(first.stats().num_live, split);
        let late_id = securities[split..]
            .iter()
            .map(|record| record.id)
            .find(|id| first.group_of(*id).is_none())
            .expect("some id first live in batch 2");
        assert!(second.group_of(late_id).is_some());
    }

    #[test]
    fn rejected_batches_leave_the_engine_untouched() {
        let data = dataset();
        let securities: Vec<SecurityRecord> = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let (mut engine, _) = MatchEngine::bootstrap(
            ShardPlan::new(2),
            securities.clone(),
            domain.blocking_strategies(),
            Box::new(FixedScorerProvider(&scorer)),
            PipelineConfig::new(25, 5),
        )
        .unwrap();
        let groups = engine.groups();
        // Insert of a live id is rejected before anything absorbs it: no
        // epoch is published and the stats are unchanged.
        assert!(engine
            .apply_batch(&UpsertBatch::inserting(vec![securities[0].clone()]))
            .is_err());
        assert_eq!(engine.snapshot().epoch(), 1);
        assert_eq!(engine.stats().batches_applied, 1);
        assert_eq!(engine.groups(), groups);
    }

    #[test]
    fn from_state_serves_the_persisted_groups() {
        use gralmatch_util::{FromJson, Json, ToJson};
        let data = dataset();
        let securities: Vec<SecurityRecord> = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);

        let (engine, _) = MatchEngine::bootstrap(
            ShardPlan::new(2),
            securities.clone(),
            domain.blocking_strategies(),
            Box::new(FixedScorerProvider(&scorer)),
            config.clone(),
        )
        .unwrap();
        let expected = engine.groups();

        // Round-trip the state through JSON and resume a fresh engine.
        let text = engine.state().to_json().to_compact_string();
        let state: PipelineState<SecurityRecord> =
            PipelineState::from_json(&Json::parse(&text).unwrap()).unwrap();
        let resumed = MatchEngine::from_state(
            state,
            domain.blocking_strategies(),
            Box::new(FixedScorerProvider(&scorer)),
            config,
        );
        assert_eq!(resumed.groups(), expected);
        for group in &expected {
            assert_eq!(resumed.group_of(group[0]), Some(group[0]));
        }
        // Resume publishes a full snapshot at epoch 0, ready for readers
        // before any batch arrives.
        let snapshot = resumed.snapshot();
        assert_eq!(snapshot.epoch(), 0);
        assert_eq!(snapshot.groups(), expected);
        assert_eq!(snapshot.stats().num_live, securities.len());
    }
}
