//! The unified [`Blocker`] trait and recipe execution.
//!
//! Table 2's per-dataset blocking recipes used to be bespoke free functions
//! wired into each pipeline copy. Every strategy now implements the one
//! [`Blocker`] trait — companies run `[CompanyIdOverlap, TokenOverlap]`,
//! securities `[SecurityIdOverlap, IssuerMatch]`, products `[TokenOverlap]`
//! — so recipes are *declarative lists of trait objects* the blocking stage
//! dispatches uniformly: [`run_blockers`] executes independent recipes
//! concurrently on the shared worker pool and folds their outputs into one
//! provenance-tagged [`CandidateSet`]. New workloads compose their own
//! lists (or implement the trait) without touching the engine.
//!
//! Strategies borrow whatever side context they need (companies reach
//! *through* their securities' codes; issuer match needs the company-level
//! group assignment), so building a list is free of copies. The records
//! slice handed to [`Blocker::block`] may be any subset of a dataset — a
//! shard, a delta batch — as long as side context (e.g. the security
//! universe) stays addressable; blockers emit global record ids.

use crate::candidates::{BlockingKind, CandidateSet};
use gralmatch_records::{Record, RecordId, RecordPair};
use gralmatch_util::{Parallelism, Stopwatch, WorkerPool};

/// Execution context handed to every blocker: the worker pool shared with
/// the rest of the pipeline run, so parallel blockers (token overlap's
/// per-record counting) scale with the same knob as pairwise inference.
#[derive(Debug, Clone, Copy)]
pub struct BlockingContext {
    /// Worker pool for parallel steps inside a blocker.
    pub pool: WorkerPool,
}

impl BlockingContext {
    /// Single-worker context (deterministic sequential execution).
    pub fn sequential() -> Self {
        BlockingContext {
            pool: WorkerPool::new(1),
        }
    }

    /// Context sharing an existing pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        BlockingContext { pool }
    }
}

impl Default for BlockingContext {
    fn default() -> Self {
        BlockingContext::sequential()
    }
}

/// One blocking strategy over records of type `R`.
pub trait Blocker<R: Record>: Sync {
    /// Provenance flag recorded for pairs this blocker proposes. The
    /// shard-local blockers of one lineup must report distinct kinds: the
    /// incremental engine edits a shard's provenance per kind bit.
    fn kind(&self) -> BlockingKind;

    /// Short label for traces and diagnostics.
    fn name(&self) -> &'static str;

    /// Whether the blocker is cheap enough (hash-join style, near-linear)
    /// to re-run globally for cross-shard boundary candidates. Quadratic
    /// text blockers keep the default `false` and stay shard-local.
    fn cross_shard(&self) -> bool {
        false
    }

    /// Propose candidate pairs from `records` into `out` (merging
    /// provenance on duplicates). `records` need not be a full dataset;
    /// emitted pairs carry the records' own (global) ids.
    fn block(&self, records: &[R], ctx: &BlockingContext, out: &mut CandidateSet);

    /// Propose the blocker's **complete** candidate set over
    /// `standing_records ∪ new_records` — a full recount that sees the
    /// population as a standing/new split.
    ///
    /// The contract is exactness: the output must equal `block` over the
    /// union, because global statistics (document frequencies, top-n
    /// ranks, degeneracy guards) can re-rank *standing* pairs when a delta
    /// arrives. The incremental engine calls it per batch for shard-local
    /// blockers that offer no [`shard_index`](Blocker::shard_index), and
    /// debug builds use it as the oracle a maintained index is asserted
    /// against. Overrides exploit the split to avoid materializing a
    /// combined record buffer; this default falls back to a full re-block
    /// over a concatenated copy.
    fn block_delta(
        &self,
        new_records: &[R],
        standing_records: &[R],
        ctx: &BlockingContext,
        out: &mut CandidateSet,
    ) where
        R: Clone,
    {
        let mut combined: Vec<R> = Vec::with_capacity(standing_records.len() + new_records.len());
        combined.extend_from_slice(standing_records);
        combined.extend_from_slice(new_records);
        self.block(&combined, ctx, out);
    }

    /// A fresh, empty [`ShardIndex`] if the blocker can maintain its
    /// candidates under record churn — the delta-proportional path of the
    /// incremental engine, which keeps one index per shard across batches
    /// and edits the shard's candidate set from each [`PairDelta`].
    /// Blockers that keep the default `None` are re-run per batch through
    /// [`block_delta`](Blocker::block_delta).
    fn shard_index(&self) -> Option<Box<dyn ShardIndex<R>>> {
        None
    }
}

/// One blocker's candidate pairs over one shard, maintained in place.
///
/// The index is derived state: it starts empty, its first `apply` (all of
/// the shard's records as `upserted`) is a one-shot block, and after any
/// sequence of `apply` calls its pair set equals [`Blocker::block`] over
/// the records it currently holds.
pub trait ShardIndex<R: Record> {
    /// Drop the records named in `removed`, insert or replace (by id) the
    /// `upserted` ones, and return the exact change of the pair set. An id
    /// in both lists is an update. Parallel steps size their pools from
    /// `parallelism` by the batch's record count (its distinct ids),
    /// never by the standing population or the neighbourhood the batch
    /// reaches.
    fn apply(
        &mut self,
        removed: &[RecordId],
        upserted: &[&R],
        parallelism: Parallelism,
    ) -> PairDelta;

    /// Pairs currently in the set.
    fn num_pairs(&self) -> usize;
}

/// The exact change one [`ShardIndex::apply`] made to its pair set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairDelta {
    /// Pairs absent before the batch and present after it.
    pub added: Vec<RecordPair>,
    /// Pairs present before the batch and absent after it.
    pub removed: Vec<RecordPair>,
    /// Records whose candidates were recomputed.
    pub affected_records: usize,
    /// Tokens whose holder set changed **and** whose useful/useless status
    /// (singleton floor, document-frequency cut) flipped with it.
    pub flipped_tokens: usize,
}

/// Positional view over `standing ⧺ new` without materializing the
/// concatenation: positions `0..standing.len()` index the standing slice,
/// the rest the new slice. Shared by the zero-copy `block_delta`
/// overrides, whose exactness contract forces them to look at *all*
/// records (global statistics), just not to copy them.
pub(crate) struct SplitSlice<'a, R> {
    standing: &'a [R],
    new: &'a [R],
}

impl<'a, R> SplitSlice<'a, R> {
    pub(crate) fn new(new: &'a [R], standing: &'a [R]) -> Self {
        SplitSlice { standing, new }
    }

    pub(crate) fn len(&self) -> usize {
        self.standing.len() + self.new.len()
    }

    pub(crate) fn get(&self, position: usize) -> &'a R {
        if position < self.standing.len() {
            &self.standing[position]
        } else {
            &self.new[position - self.standing.len()]
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a R> + '_ {
        self.standing.iter().chain(self.new.iter())
    }
}

/// Per-recipe diagnostics of one [`run_blockers_traced`] execution.
///
/// Every recipe in the list produces exactly one run entry — **including
/// recipes that yielded zero candidates** — so the trace shape is stable
/// across runs of the same recipe list. (The CI perf gate diffs trace
/// shapes between a baseline and the current run; a dropped label would
/// read as a pipeline change.)
#[derive(Debug, Clone, PartialEq)]
pub struct BlockerRun {
    /// The recipe's [`Blocker::name`].
    pub name: &'static str,
    /// Distinct candidate pairs the recipe proposed (before merging with
    /// the other recipes; overlapping proposals count in every recipe).
    pub candidates: usize,
    /// Wall-clock seconds of the recipe.
    pub seconds: f64,
}

impl BlockerRun {
    /// Fold `run` into `runs`, summing counts and seconds on a name match
    /// (per-shard runs roll up into one line per recipe, in
    /// first-appearance order).
    pub fn accumulate(runs: &mut Vec<BlockerRun>, run: BlockerRun) {
        match runs.iter_mut().find(|r| r.name == run.name) {
            Some(existing) => {
                existing.candidates += run.candidates;
                existing.seconds += run.seconds;
            }
            None => runs.push(run),
        }
    }
}

/// Execute a recipe into one candidate set.
///
/// With a multi-worker context and more than one blocker, independent
/// recipes run concurrently on the shared pool, each into a private set,
/// merged (provenance-ORed) at the end — the merge is commutative, so the
/// result is schedule-independent.
pub fn run_blockers<R: Record + Sync>(
    records: &[R],
    blockers: &[Box<dyn Blocker<R> + '_>],
    ctx: &BlockingContext,
) -> CandidateSet {
    run_blockers_traced(records, blockers, ctx).0
}

/// [`run_blockers`] plus per-recipe diagnostics.
///
/// Returns one [`BlockerRun`] per recipe in list order. A recipe that
/// proposes zero candidates still emits its entry (with `candidates = 0`):
/// consumers that diff traces across runs (the CI perf gate) rely on the
/// shape being a function of the recipe list alone, not of the data.
pub fn run_blockers_traced<R: Record + Sync>(
    records: &[R],
    blockers: &[Box<dyn Blocker<R> + '_>],
    ctx: &BlockingContext,
) -> (CandidateSet, Vec<BlockerRun>) {
    let refs: Vec<&dyn Blocker<R>> = blockers.iter().map(|b| b.as_ref()).collect();
    run_blocker_refs_traced(records, &refs, ctx)
}

/// [`run_blockers_traced`] over borrowed trait objects — the sharded and
/// incremental engines dispatch recipe *subsets* (e.g. only the
/// cross-shard hash joins) this way. One implementation of the
/// "concurrent when >1 recipe and >1 worker, per-recipe stopwatch,
/// shape-stable run list" contract serves every execution path, so the
/// perf gate's trace semantics cannot drift between them.
pub fn run_blocker_refs_traced<R: Record + Sync>(
    records: &[R],
    blockers: &[&dyn Blocker<R>],
    ctx: &BlockingContext,
) -> (CandidateSet, Vec<BlockerRun>) {
    let run_one = |blocker: &&dyn Blocker<R>| {
        let watch = Stopwatch::start();
        let mut set = CandidateSet::new();
        blocker.block(records, ctx, &mut set);
        (set, watch.elapsed_secs())
    };
    let sets: Vec<(CandidateSet, f64)> = if blockers.len() > 1 && ctx.pool.workers() > 1 {
        ctx.pool.map(blockers, run_one)
    } else {
        blockers.iter().map(run_one).collect()
    };
    let mut out = CandidateSet::new();
    let mut runs = Vec::with_capacity(blockers.len());
    for (blocker, (set, seconds)) in blockers.iter().zip(&sets) {
        runs.push(BlockerRun {
            name: blocker.name(),
            candidates: set.len(),
            seconds: *seconds,
        });
        out.merge(set);
    }
    (out, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id_overlap::SecurityIdOverlap;
    use crate::issuer_match::IssuerMatch;
    use crate::token_overlap::TokenOverlap;
    use gralmatch_records::{IdCode, IdKind, RecordId, SecurityRecord, SourceId};
    use gralmatch_util::FxHashMap;

    fn security(id: u32, source: u16, issuer: u32, code: &str) -> SecurityRecord {
        SecurityRecord::new(RecordId(id), SourceId(source), "S ORD", RecordId(issuer))
            .with_code(IdCode::new(IdKind::Isin, code))
    }

    fn recipe(groups: &FxHashMap<RecordId, u32>) -> Vec<Box<dyn Blocker<SecurityRecord> + '_>> {
        vec![
            Box::new(SecurityIdOverlap),
            Box::new(IssuerMatch {
                company_group_of: groups,
            }),
        ]
    }

    #[test]
    fn blocker_list_merges_provenance() {
        let securities = vec![
            security(0, 0, 10, "AAA"),
            security(1, 1, 11, "AAA"),
            security(2, 2, 12, "BBB"),
        ];
        let groups: FxHashMap<RecordId, u32> =
            [(RecordId(10), 0), (RecordId(11), 0)].into_iter().collect();
        let candidates = run_blockers(
            &securities,
            &recipe(&groups),
            &BlockingContext::sequential(),
        );
        let pair = gralmatch_records::RecordPair::new(RecordId(0), RecordId(1));
        // Both blockers proposed (0,1): provenance carries both flags.
        assert!(candidates.from_blocking(pair, BlockingKind::IdOverlap));
        assert!(candidates.from_blocking(pair, BlockingKind::IssuerMatch));
        assert_eq!(candidates.len(), 1);
    }

    #[test]
    fn concurrent_recipes_match_sequential() {
        let securities: Vec<SecurityRecord> = (0..40)
            .map(|i| security(i, (i % 4) as u16, 100 + i / 2, &format!("C{}", i / 2)))
            .collect();
        let groups: FxHashMap<RecordId, u32> =
            (0..20).map(|g| (RecordId(100 + g), g % 7)).collect();
        let sequential = run_blockers(
            &securities,
            &recipe(&groups),
            &BlockingContext::sequential(),
        );
        let concurrent = run_blockers(
            &securities,
            &recipe(&groups),
            &BlockingContext::with_pool(WorkerPool::new(4)),
        );
        assert_eq!(sequential.pairs_sorted(), concurrent.pairs_sorted());
        for (pair, flags) in sequential.iter() {
            assert_eq!(concurrent.provenance(pair), flags);
        }
    }

    #[test]
    fn empty_blocker_list_yields_empty_set() {
        let securities = vec![security(0, 0, 10, "AAA")];
        let blockers: Vec<Box<dyn Blocker<SecurityRecord>>> = Vec::new();
        assert!(run_blockers(&securities, &blockers, &BlockingContext::sequential()).is_empty());
    }

    #[test]
    fn traced_run_keeps_zero_candidate_recipe_labels() {
        // One security with a code, nothing to pair: both recipes yield
        // zero candidates, yet both trace entries must survive so trace
        // shapes stay comparable across runs (the perf gate diffs them).
        let securities = vec![security(0, 0, 10, "AAA")];
        let groups: FxHashMap<RecordId, u32> = FxHashMap::default();
        let (set, runs) = run_blockers_traced(
            &securities,
            &recipe(&groups),
            &BlockingContext::sequential(),
        );
        assert!(set.is_empty());
        assert_eq!(runs.len(), 2, "every recipe emits an entry");
        assert_eq!(runs[0].name, "id-overlap");
        assert_eq!(runs[1].name, "issuer-match");
        assert!(runs.iter().all(|r| r.candidates == 0));
    }

    #[test]
    fn traced_run_counts_per_recipe_candidates() {
        let securities = vec![
            security(0, 0, 10, "AAA"),
            security(1, 1, 11, "AAA"),
            security(2, 2, 12, "BBB"),
        ];
        let groups: FxHashMap<RecordId, u32> =
            [(RecordId(10), 0), (RecordId(11), 0)].into_iter().collect();
        let (set, runs) = run_blockers_traced(
            &securities,
            &recipe(&groups),
            &BlockingContext::sequential(),
        );
        // Both recipes proposed the same (0,1) pair: one merged candidate,
        // but each recipe's own count is 1.
        assert_eq!(set.len(), 1);
        assert_eq!(runs[0].candidates, 1);
        assert_eq!(runs[1].candidates, 1);
    }

    #[test]
    fn blocker_run_accumulates_by_name() {
        let mut runs = Vec::new();
        BlockerRun::accumulate(
            &mut runs,
            BlockerRun {
                name: "id-overlap",
                candidates: 3,
                seconds: 0.5,
            },
        );
        BlockerRun::accumulate(
            &mut runs,
            BlockerRun {
                name: "token-overlap",
                candidates: 0,
                seconds: 0.1,
            },
        );
        BlockerRun::accumulate(
            &mut runs,
            BlockerRun {
                name: "id-overlap",
                candidates: 2,
                seconds: 0.25,
            },
        );
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].candidates, 5);
        assert!((runs[0].seconds - 0.75).abs() < 1e-12);
        assert_eq!(runs[1].candidates, 0, "zero-candidate line kept");
    }

    #[test]
    fn default_block_delta_falls_back_to_full_reblock() {
        // SortedNeighborhood keeps the trait's default `block_delta`: a
        // full re-block over the concatenated union.
        use crate::sorted_neighborhood::SortedNeighborhood;
        use gralmatch_records::CompanyRecord;
        let all: Vec<CompanyRecord> = (0..12)
            .map(|i| {
                CompanyRecord::new(
                    RecordId(i),
                    SourceId((i % 3) as u16),
                    format!("Name{:02}", i / 2),
                )
            })
            .collect();
        let (standing, new) = all.split_at(8);
        let ctx = BlockingContext::sequential();
        let mut full = CandidateSet::new();
        SortedNeighborhood::default().block(&all, &ctx, &mut full);
        let mut delta = CandidateSet::new();
        SortedNeighborhood::default().block_delta(new, standing, &ctx, &mut delta);
        assert_eq!(full.pairs_sorted(), delta.pairs_sorted());
    }

    #[test]
    fn hash_join_block_delta_matches_full_reblock() {
        let all: Vec<SecurityRecord> = (0..20)
            .map(|i| security(i, (i % 4) as u16, 100 + i / 2, &format!("C{}", i / 2)))
            .collect();
        let (standing, new) = all.split_at(14);
        let ctx = BlockingContext::sequential();
        let mut full = CandidateSet::new();
        SecurityIdOverlap.block(&all, &ctx, &mut full);
        let mut delta = CandidateSet::new();
        SecurityIdOverlap.block_delta(new, standing, &ctx, &mut delta);
        assert_eq!(full.pairs_sorted(), delta.pairs_sorted());
        for (pair, flags) in full.iter() {
            assert_eq!(delta.provenance(pair), flags);
        }
    }

    #[test]
    fn names_kinds_and_scopes_align() {
        assert_eq!(
            Blocker::<SecurityRecord>::kind(&SecurityIdOverlap),
            BlockingKind::IdOverlap
        );
        assert_eq!(
            Blocker::<SecurityRecord>::name(&TokenOverlap::default()),
            "token-overlap"
        );
        // Identifier joins are cheap enough to cross shards; text is not.
        assert!(Blocker::<SecurityRecord>::cross_shard(&SecurityIdOverlap));
        assert!(!Blocker::<SecurityRecord>::cross_shard(
            &TokenOverlap::default()
        ));
    }
}
