//! Sharded pipeline execution: hash-partition a domain, run the staged
//! pipeline per shard, merge.
//!
//! The securities-scale datasets (~330k records) make *blocking* the
//! wall-clock bottleneck once pairwise scoring is parallel: token-overlap
//! counting cost grows with the postings volume, which is superlinear in
//! the record count. A [`ShardPlan`] hash-partitions the records by a
//! shard key, the existing `BlockingStage → InferenceStage → CleanupStage
//! → GroupingStage` lineup runs per shard (each shard's inverted index is
//! a fraction of the global one), and the [`MergeStage`] reconciles:
//!
//! 1. per-shard components are unioned through
//!    [`UnionFind`],
//! 2. the cheap hash-join blockers
//!    ([`gralmatch_blocking::Blocker::cross_shard`]) run **once,
//!    globally** — their degeneracy guards see true global statistics —
//!    and their pairs are partitioned into per-shard seeds (both
//!    endpoints in one shard) and cross-shard **boundary candidates**;
//!    only the shard-local text blockers run per shard,
//! 3. components touched by a positively scored boundary edge are rebuilt
//!    from their **raw** predictions and re-cleaned (Section 4.2.1
//!    pre-cleanup + Algorithm 1) exactly as an unsharded run would clean
//!    them; untouched components keep their shard-cleaned edges. Because
//!    the cleanup is per-component-deterministic, a sharded run whose
//!    candidate set matches the unsharded one reproduces the unsharded
//!    groups bit for bit, and the merge work stays proportional to the
//!    cross-shard surface, not the dataset.
//!
//! Per-shard [`PipelineTrace`]s are rolled up into one aggregate trace
//! (plus a `merge` stage entry), so sharded and unsharded runs report the
//! same per-stage columns.
//!
//! With [`ShardKey::Entity`] (labeled benchmarks) true groups stay
//! shard-local and a sharded run reproduces the unsharded groups exactly;
//! with [`ShardKey::Source`] every multi-source group crosses shards and
//! the merge stage does the heavy lifting — the stress setting for
//! incremental upserts, which will re-block single shards.
//!
//! [`run_sharded`] is the one-shot *reference* path. The incremental
//! engine shares its [`ShardPlan`] but not its merge: it edits the
//! standing cleaned graph in place (`incremental.rs`), so a batch pays for
//! the components it touches rather than for a union-find and a graph over
//! the whole id space.

use crate::cleanup::{graph_cleanup_with_pool, pre_cleanup, CleanupReport};
use crate::domain::MatchingDomain;
use crate::groups::{entity_groups, prediction_graph};
use crate::metrics::{group_metrics, pairwise_metrics};
use crate::pipeline::{MatchingOutcome, PipelineConfig};
use crate::stage::{StageContext, StagePipeline};
use crate::trace::{stage_names, PipelineTrace, StageTrace};
use gralmatch_blocking::{
    run_blocker_refs_traced, text_only_provenance, BlockerRun, BlockingContext, CandidateSet,
};
use gralmatch_graph::{Graph, UnionFind};
use gralmatch_lm::{predict_positive_with, PairScorer};
use gralmatch_records::{Record, RecordId, RecordPair};
use gralmatch_util::{current_rss_bytes, Error, FxHashSet, Stopwatch};
use std::borrow::Cow;

/// What to hash when assigning records to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKey {
    /// Hash the ground-truth entity label, falling back to the record id
    /// for unlabeled records. True groups stay shard-local, so a sharded
    /// run reproduces the unsharded grouping — the benchmark / repro
    /// setting.
    #[default]
    Entity,
    /// Hash the record's data source. Every multi-source group crosses
    /// shards, so recall rests on the merge stage's boundary pass — the
    /// stress setting.
    Source,
}

/// A hash partition of a domain's records into `num_shards` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards (1 = unsharded).
    pub num_shards: usize,
    /// Partition key.
    pub key: ShardKey,
}

/// Salt decorrelating the shard hash from other uses of the same keys.
const SHARD_SALT: u64 = 0x5AAD_F00D;

impl ShardPlan {
    /// Plan with the default [`ShardKey::Entity`] key.
    pub fn new(num_shards: usize) -> Self {
        ShardPlan {
            num_shards: num_shards.max(1),
            key: ShardKey::Entity,
        }
    }

    /// Override the partition key.
    pub fn with_key(mut self, key: ShardKey) -> Self {
        self.key = key;
        self
    }

    /// Shard index of one record under this plan — a pure function of the
    /// record's own fields, so an upserted record lands on the same shard
    /// a one-shot run would put it on.
    pub fn assign_record<R: Record>(&self, record: &R) -> u32 {
        match self.key {
            ShardKey::Entity => {
                let key = record
                    .entity()
                    .map(|e| e.0 as u64)
                    // Disambiguate unlabeled records from entity ids.
                    .unwrap_or(record.id().0 as u64 | 1 << 63);
                (gralmatch_util::hash::hash_u64_pair(key, SHARD_SALT) % self.num_shards as u64)
                    as u32
            }
            // Source ids are small dense integers (a handful of
            // vendors); hashing them can collapse every source into one
            // shard, so partition by the id directly.
            ShardKey::Source => record.source().0 as u32 % self.num_shards as u32,
        }
    }

    /// Shard index for each record, in record order.
    pub fn assign<R: Record>(&self, records: &[R]) -> Vec<u32> {
        records
            .iter()
            .map(|record| self.assign_record(record))
            .collect()
    }
}

/// The cross-shard reconciliation step of the [`run_sharded`] oracle: union
/// per-shard components via [`UnionFind`], rebuild boundary-touched
/// components from raw predictions, and re-run the cleanup on them.
///
/// The incremental engine does not go through here: it edits its standing
/// cleaned graph in place (`PipelineState::apply_with_index`), so a batch
/// costs the components it touches. This whole-population rebuild stays as
/// the independent one-shot reference the equivalence suites compare
/// against.
pub struct MergeStage<'a> {
    config: &'a PipelineConfig,
}

/// What the merge produced.
pub struct MergeResult {
    /// The merged, re-cleaned prediction graph.
    pub graph: Graph,
    /// Boundary edges that actually connected two distinct components.
    pub boundary_merges: usize,
    /// Edges removed by the post-merge cleanup.
    pub cleanup: CleanupReport,
}

impl<'a> MergeStage<'a> {
    /// Merge under the given pipeline config (cleanup thresholds).
    pub fn new(config: &'a PipelineConfig) -> Self {
        MergeStage { config }
    }

    /// Reconcile per-shard results into one graph.
    ///
    /// Components containing a boundary edge are rebuilt from their
    /// **raw** predictions (`shard_predicted` + `boundary_predicted`) and
    /// pass through pre-cleanup and Algorithm 1 again — exactly what an
    /// unsharded run would do to them, since the cleanup is deterministic
    /// per component. Untouched components keep their shard-cleaned edges
    /// (already ≤ μ), so the re-cleanup cost is proportional to the
    /// cross-shard surface. `is_removable(a, b)` is the pre-cleanup
    /// predicate over the combined candidate provenance (raw record ids,
    /// canonical `a < b`).
    pub fn merge(
        &self,
        num_records: usize,
        shard_graphs: &[Graph],
        shard_predicted: &[RecordPair],
        boundary_predicted: &[RecordPair],
        is_removable: &dyn Fn(u32, u32) -> bool,
    ) -> MergeResult {
        // Components of the raw merged prediction graph.
        let mut components = UnionFind::new(num_records);
        for pair in shard_predicted {
            components.union(pair.a.0, pair.b.0);
        }
        let mut boundary_merges = 0usize;
        for pair in boundary_predicted {
            if components.union(pair.a.0, pair.b.0) {
                boundary_merges += 1;
            }
        }
        let touched: FxHashSet<u32> = boundary_predicted
            .iter()
            .map(|pair| components.find(pair.a.0))
            .collect();

        // Untouched components keep their shard-cleaned edges; touched ones
        // are rebuilt raw and re-cleaned below.
        let mut merged = Graph::with_nodes(num_records);
        for graph in shard_graphs {
            for edge in graph.edges() {
                if !touched.contains(&components.find(edge.a)) {
                    merged.add_edge(edge.a, edge.b);
                }
            }
        }
        for pair in shard_predicted {
            if touched.contains(&components.find(pair.a.0)) {
                merged.add_edge(pair.a.0, pair.b.0);
            }
        }
        for pair in boundary_predicted {
            merged.add_edge(pair.a.0, pair.b.0);
        }

        // Re-clean: only the rebuilt (touched) components exceed the
        // thresholds — everything else was already cut down per shard.
        // Dirty components are independent, so they fan out across the
        // configured pool.
        let mut cleanup = CleanupReport::default();
        if let Some(threshold) = self.config.cleanup.pre_cleanup_threshold {
            let pre_watch = Stopwatch::start();
            cleanup.pre_cleanup_removed = pre_cleanup(&mut merged, threshold, is_removable);
            cleanup.pre_cleanup_seconds = pre_watch.elapsed_secs();
        }
        let pool = self.config.parallelism.pool_for(merged.num_edges());
        cleanup.merge(&graph_cleanup_with_pool(
            &mut merged,
            &self.config.cleanup,
            &pool,
        ));
        MergeResult {
            graph: merged,
            boundary_merges,
            cleanup,
        }
    }
}

/// Outcome of a sharded pipeline run.
pub struct ShardedOutcome {
    /// The merged outcome; its `trace` is the per-stage roll-up across
    /// shards plus a [`stage_names::MERGE`] entry.
    pub outcome: MatchingOutcome,
    /// The individual per-shard traces (blocking → grouping each).
    pub shard_traces: Vec<PipelineTrace>,
    /// Records per shard.
    pub shard_sizes: Vec<usize>,
    /// Cross-shard candidate pairs proposed by the boundary pass.
    pub boundary_candidates: usize,
    /// Boundary edges that connected two distinct shard components.
    pub boundary_merges: usize,
}

/// Run the **legacy staged** pipeline sharded: per-shard Figure 1 lineups
/// plus the cross-shard [`MergeStage`]. With one shard this is exactly
/// [`run_domain_staged`](crate::domain::run_domain_staged).
///
/// Like `run_domain_staged`, this is the pre-engine reference
/// implementation, kept as the *independent oracle* the equivalence
/// suites replay [`MatchEngine`](crate::engine::MatchEngine) batches
/// against (`tests/engine_equivalence.rs`,
/// `tests/upsert_equivalence.rs`). Production one-shot/sharded runs flow
/// through the engine (`run_domain`, the bench harness's
/// `run_domain_maybe_sharded`), which reproduces these groups exactly —
/// property-tested, deletes included.
pub fn run_sharded<D>(
    domain: &D,
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
    plan: &ShardPlan,
) -> Result<ShardedOutcome, Error>
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    let records = domain.records();
    let num_records = records.len();
    let gt = domain.ground_truth();

    if plan.num_shards <= 1 {
        let outcome = crate::domain::run_domain_staged(domain, scorer, config)?;
        let shard_traces = vec![outcome.trace.clone()];
        return Ok(ShardedOutcome {
            outcome,
            shard_traces,
            shard_sizes: vec![num_records],
            boundary_candidates: 0,
            boundary_merges: 0,
        });
    }

    let assignment = plan.assign(records);
    let strategies = domain.blocking_strategies();
    let pool = config.parallelism.pool_for(num_records);
    let blocking_ctx = BlockingContext::with_pool(pool);

    // The hash-join blockers run once, globally: their degeneracy guards
    // (code-holder / group-size caps) then see true global statistics, so
    // the sharded candidate set matches the unsharded one exactly for
    // identifier-driven recipes. Pairs are partitioned into per-shard
    // seeds and cross-shard boundary candidates.
    let global_watch = Stopwatch::start();
    let mut shard_seeds: Vec<CandidateSet> =
        (0..plan.num_shards).map(|_| CandidateSet::new()).collect();
    let mut boundary = CandidateSet::new();
    // Independent hash joins run concurrently on the pool, like the
    // unsharded blocking stage runs its recipe list. Per-recipe
    // diagnostics: every recipe keeps its line (cross-shard joins here,
    // shard-local recipes below), zero candidates included.
    let cross_blockers: Vec<&dyn gralmatch_blocking::Blocker<D::Rec>> = strategies
        .iter()
        .filter(|b| b.cross_shard())
        .map(|b| b.as_ref())
        .collect();
    let (global_set, mut blocker_runs) =
        run_blocker_refs_traced(records, &cross_blockers, &blocking_ctx);
    for (pair, flags) in global_set.iter() {
        let (shard_a, shard_b) = (assignment[pair.a.0 as usize], assignment[pair.b.0 as usize]);
        if shard_a == shard_b {
            shard_seeds[shard_a as usize].add_flags(pair, flags);
        } else {
            boundary.add_flags(pair, flags);
        }
    }
    let global_join_seconds = global_watch.elapsed_secs();

    let mut shard_traces: Vec<PipelineTrace> = Vec::with_capacity(plan.num_shards);
    let mut shard_sizes: Vec<usize> = Vec::with_capacity(plan.num_shards);
    let mut shard_graphs: Vec<Graph> = Vec::with_capacity(plan.num_shards);
    // Retained for the merge's pre-cleanup provenance predicate.
    let mut shard_candidates: Vec<CandidateSet> = Vec::with_capacity(plan.num_shards);
    let mut all_predicted: Vec<RecordPair> = Vec::new();
    let mut num_candidates = 0usize;
    let mut cleanup_report = CleanupReport::default();

    for shard in 0..plan.num_shards as u32 {
        let shard_records: Vec<D::Rec> = records
            .iter()
            .zip(&assignment)
            .filter(|(_, &assigned)| assigned == shard)
            .map(|(record, _)| record.clone())
            .collect();
        shard_sizes.push(shard_records.len());

        // Shard-local blocking (the text blockers) over the shard slice,
        // merged onto the shard's seed from the global hash joins.
        let rss_before = current_rss_bytes();
        let stopwatch = Stopwatch::start();
        let mut candidates = std::mem::take(&mut shard_seeds[shard as usize]);
        for blocker in strategies.iter().filter(|b| !b.cross_shard()) {
            let recipe_watch = Stopwatch::start();
            let mut recipe_set = CandidateSet::new();
            blocker.block(&shard_records, &blocking_ctx, &mut recipe_set);
            BlockerRun::accumulate(
                &mut blocker_runs,
                BlockerRun {
                    name: blocker.name(),
                    candidates: recipe_set.len(),
                    seconds: recipe_watch.elapsed_secs(),
                },
            );
            candidates.merge(&recipe_set);
        }
        let blocking_trace = StageTrace {
            stage: stage_names::BLOCKING,
            seconds: stopwatch.elapsed_secs(),
            items_in: shard_records.len(),
            items_out: candidates.len(),
            rss_delta_bytes: match (rss_before, current_rss_bytes()) {
                (Some(before), Some(after)) => Some(after as i64 - before as i64),
                _ => None,
            },
            arena_bytes: None,
            core_seconds: None,
            phases: None,
        };
        num_candidates += candidates.len();

        // Downstream stages run in the global id space (no remapping), so
        // per-shard graphs union trivially in the merge.
        let mut ctx = StageContext::new(num_records, gt, scorer, config);
        ctx.pool = Some(pool);
        ctx.num_candidates = candidates.len();
        ctx.candidates = Some(Cow::Borrowed(&candidates));
        let mut trace = StagePipeline::post_blocking().run(&mut ctx)?;
        trace.stages.insert(0, blocking_trace);
        shard_traces.push(trace);

        cleanup_report.merge(&ctx.cleanup_report);
        all_predicted.extend(ctx.predicted.take().unwrap_or_default());
        shard_graphs.push(ctx.graph.take().expect("cleanup stage ran"));
        drop(ctx);
        shard_candidates.push(candidates);
    }

    // Boundary inference + merge. The scoring pool is sized by the
    // boundary pair count (which can dwarf the record count under
    // source-keyed sharding), growing but never shrinking the shared pool
    // — mirroring the unsharded inference stage.
    let merge_watch = Stopwatch::start();
    let boundary_pairs = boundary.pairs_sorted();
    let scoring_pool = {
        let resolved = config.parallelism.pool_for(boundary_pairs.len());
        if resolved.workers() > pool.workers() {
            resolved
        } else {
            pool
        }
    };
    let boundary_predicted = predict_positive_with(scorer, &boundary_pairs, &scoring_pool);
    num_candidates += boundary_pairs.len();

    // Pre-cleanup removability over the combined provenance (every pair
    // lives in exactly one shard set or the boundary set) — the same
    // predicate the cleanup stage applies (token-overlap-sourced and not
    // protected by an identifier blocking).
    let is_removable = |a: u32, b: u32| {
        let pair = RecordPair::new(RecordId(a), RecordId(b));
        let flags = boundary.provenance(pair)
            | shard_candidates
                .iter()
                .fold(0u8, |acc, set| acc | set.provenance(pair));
        text_only_provenance(flags)
    };
    let merge = MergeStage::new(config).merge(
        num_records,
        &shard_graphs,
        &all_predicted,
        &boundary_predicted,
        &is_removable,
    );
    cleanup_report.merge(&merge.cleanup);
    all_predicted.extend(boundary_predicted);

    // Global three-stage evaluation over the union of shard + boundary
    // predictions (the sets are disjoint: every pair lives in exactly one
    // shard or crosses shards).
    let pairwise = pairwise_metrics(&all_predicted, gt);
    let pre_cleanup = group_metrics(
        &entity_groups(&prediction_graph(num_records, &all_predicted)),
        gt,
    );
    let groups = entity_groups(&merge.graph);
    let post_cleanup = group_metrics(&groups, gt);

    let mut trace = PipelineTrace::rolled_up(&shard_traces);
    if let Some(blocking) = trace
        .stages
        .iter_mut()
        .find(|s| s.stage == stage_names::BLOCKING)
    {
        // Fold the up-front global hash-join pass into the blocking line:
        // its within-shard pairs are already in the shard counts, so only
        // the boundary pairs and its wall-clock are new.
        blocking.seconds += global_join_seconds;
        blocking.items_out += boundary_pairs.len();
    }
    trace.push(StageTrace {
        stage: stage_names::MERGE,
        seconds: merge_watch.elapsed_secs(),
        items_in: boundary_pairs.len(),
        items_out: groups.len(),
        rss_delta_bytes: None,
        arena_bytes: None,
        core_seconds: Some(merge.cleanup.seconds),
        phases: Some(merge.cleanup.phases()),
    });

    Ok(ShardedOutcome {
        outcome: MatchingOutcome {
            num_candidates,
            num_predicted: all_predicted.len(),
            pairwise,
            pre_cleanup,
            post_cleanup,
            groups,
            trace,
            blocker_runs,
            cleanup_report,
        },
        shard_traces,
        shard_sizes,
        boundary_candidates: boundary_pairs.len(),
        boundary_merges: merge.boundary_merges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{CompanyDomain, MatchingDomain, SecurityDomain};
    use crate::pipeline::OracleScorer;
    use gralmatch_datagen::{generate, GenerationConfig};
    use gralmatch_records::{Record, RecordId};
    use gralmatch_util::FxHashMap;

    fn dataset() -> gralmatch_datagen::FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 120;
        generate(&config).unwrap()
    }

    #[test]
    fn assignment_is_deterministic_and_balancedish() {
        let data = dataset();
        let companies = data.companies.records();
        let plan = ShardPlan::new(4);
        let first = plan.assign(companies);
        assert_eq!(first, plan.assign(companies));
        assert!(first.iter().all(|&s| s < 4));
        // Every shard gets a non-trivial slice of a 120-entity dataset.
        let mut counts = [0usize; 4];
        for &s in &first {
            counts[s as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > companies.len() / 16),
            "{counts:?}"
        );
    }

    #[test]
    fn entity_key_keeps_groups_shard_local() {
        let data = dataset();
        let companies = data.companies.records();
        let plan = ShardPlan::new(8);
        let assignment = plan.assign(companies);
        let mut shard_of_entity: FxHashMap<u32, u32> = FxHashMap::default();
        for (record, &shard) in companies.iter().zip(&assignment) {
            let entity = record.entity().unwrap().0;
            assert_eq!(
                *shard_of_entity.entry(entity).or_insert(shard),
                shard,
                "entity {entity} split across shards"
            );
        }
    }

    #[test]
    fn source_key_splits_groups_and_merge_recovers() {
        let data = dataset();
        let securities = data.securities.records();
        let mut group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
        for company in data.companies.records() {
            group_of.insert(company.id(), company.entity.unwrap().0);
        }
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let config = PipelineConfig::new(25, 5);
        let plan = ShardPlan::new(2).with_key(ShardKey::Source);
        let sharded = run_sharded(&domain, &OracleScorer::new(&gt), &config, &plan).unwrap();
        // Source sharding splits every multi-source group: recall must come
        // from boundary merges, so some must have happened.
        assert!(sharded.boundary_merges > 0);
        assert!(sharded.boundary_candidates > 0);
        assert!(sharded.outcome.post_cleanup.pairs.recall > 0.3);
        // μ still capped after the merge cleanup.
        assert!(sharded.outcome.groups.iter().all(|g| g.len() <= 5));
    }

    #[test]
    fn single_shard_is_the_unsharded_pipeline() {
        let data = dataset();
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let scorer = OracleScorer::new(&gt);
        let unsharded = crate::domain::run_domain(&domain, &scorer, &config).unwrap();
        let sharded = run_sharded(&domain, &scorer, &config, &ShardPlan::new(1)).unwrap();
        assert_eq!(sharded.outcome.groups, unsharded.groups);
        assert_eq!(sharded.boundary_candidates, 0);
        assert_eq!(sharded.shard_sizes, vec![companies.len()]);
    }

    #[test]
    fn sharded_trace_rolls_up_all_stages_plus_merge() {
        let data = dataset();
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let sharded = run_sharded(
            &domain,
            &OracleScorer::new(&gt),
            &config,
            &ShardPlan::new(4),
        )
        .unwrap();
        let stages: Vec<&str> = sharded
            .outcome
            .trace
            .stages
            .iter()
            .map(|s| s.stage)
            .collect();
        assert_eq!(
            stages,
            vec![
                stage_names::BLOCKING,
                stage_names::INFERENCE,
                stage_names::CLEANUP,
                stage_names::GROUPING,
                stage_names::MERGE
            ]
        );
        assert_eq!(sharded.shard_traces.len(), 4);
        assert_eq!(sharded.shard_sizes.iter().sum::<usize>(), companies.len());
        // Aggregate blocking processed every record exactly once.
        assert_eq!(
            sharded
                .outcome
                .trace
                .stage(stage_names::BLOCKING)
                .unwrap()
                .items_in,
            companies.len()
        );
    }
}
