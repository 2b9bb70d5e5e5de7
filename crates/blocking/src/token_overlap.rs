//! Token-Overlap blocking (paper Section 5.3.1, blocking 2).
//!
//! "Considers each record as the list of tokens resulting from its
//! tokenization and selects as candidate pairs those involving the record
//! and the top-n records with most overlapping tokens across different data
//! sources." This is the text-alignment candidate generator — and the main
//! source of false-positive bait, because boilerplate tokens ("hi-tech",
//! "networks", "energy", geographic terms) are shared across unrelated
//! companies.
//!
//! Implementation: an inverted token index with the DF-cut applied while
//! *building* it — tokens present in more than `max_token_df` records (they
//! blow up postings quadratically and carry no signal — the standard cut
//! used by set-similarity joins) never get a postings list allocated, and
//! neither do singleton tokens, which cannot form a pair. The per-record
//! overlap counting — the blocking stage's hot path on the securities-scale
//! datasets — runs on the shared worker pool over stealable chunks, each
//! worker reusing one scratch count map across the records it claims.
//!
//! That is the one-shot form, and the oracle. Under record churn the
//! incremental engine keeps the same structures alive per shard and edits
//! them in place — see [`Blocker::shard_index`] and `docs/BLOCKING.md`.

use crate::candidates::{BlockingKind, CandidateSet};
use crate::strategy::{Blocker, BlockingContext, ShardIndex, SplitSlice};
use crate::token_index::TokenOverlapIndex;
use gralmatch_records::{Record, RecordId, RecordPair};
use gralmatch_text::tokenize;
use gralmatch_util::{FxHashMap, FxHashSet, WorkerPool};

/// Token-overlap blocking parameters.
#[derive(Debug, Clone)]
pub struct TokenOverlapConfig {
    /// Keep the top-n overlapping records per record.
    pub top_n: usize,
    /// Skip tokens occurring in more than this many records.
    pub max_token_df: usize,
    /// Require at least this many overlapping tokens.
    pub min_overlap: usize,
}

impl Default for TokenOverlapConfig {
    fn default() -> Self {
        TokenOverlapConfig {
            top_n: 10,
            max_token_df: 200,
            min_overlap: 2,
        }
    }
}

/// Token-Overlap blocking (Table 2, blocking 2) for any record type.
#[derive(Debug, Clone, Default)]
pub struct TokenOverlap {
    /// Top-n / DF-cut / overlap-floor parameters.
    pub config: TokenOverlapConfig,
}

impl TokenOverlap {
    /// Strategy with the given parameters.
    pub fn new(config: TokenOverlapConfig) -> Self {
        TokenOverlap { config }
    }
}

impl<R: Record + Sync> Blocker<R> for TokenOverlap {
    fn kind(&self) -> BlockingKind {
        BlockingKind::TokenOverlap
    }

    fn name(&self) -> &'static str {
        "token-overlap"
    }

    fn block(&self, records: &[R], ctx: &BlockingContext, out: &mut CandidateSet) {
        token_overlap_blocking(&SplitSlice::new(records, &[]), &self.config, &ctx.pool, out);
    }

    /// The same full recount over the standing/new split, without
    /// materializing a combined record buffer. Document frequencies and
    /// per-record top-n ranks are properties of the whole population, so a
    /// delta batch can re-rank pairs between standing records; this recount
    /// sees them all, which makes it the oracle the maintained
    /// [`shard_index`](Blocker::shard_index) is checked against (that index
    /// reaches the same pairs by recomputing only the records whose token
    /// neighbourhood the batch changed).
    fn block_delta(
        &self,
        new_records: &[R],
        standing_records: &[R],
        ctx: &BlockingContext,
        out: &mut CandidateSet,
    ) where
        R: Clone,
    {
        token_overlap_blocking(
            &SplitSlice::new(new_records, standing_records),
            &self.config,
            &ctx.pool,
            out,
        );
    }

    fn shard_index(&self) -> Option<Box<dyn ShardIndex<R>>> {
        Some(Box::new(TokenOverlapIndex::new(self.config.clone())))
    }
}

/// The blocking over any record slice (ids need not be dense — positions
/// index the view, emitted pairs carry the records' own ids).
fn token_overlap_blocking<R: Record + Sync>(
    records: &SplitSlice<'_, R>,
    config: &TokenOverlapConfig,
    pool: &WorkerPool,
    out: &mut CandidateSet,
) {
    // Tokenize all records once (pure per record, so it parallelizes too).
    let all_positions: Vec<u32> = (0..records.len() as u32).collect();
    let token_lists: Vec<Vec<String>> = pool.map(&all_positions, |&p| {
        tokenize(&records.get(p as usize).full_text())
    });

    // Pass 1: document frequency per token (distinct tokens per record).
    let mut df: FxHashMap<&str, u32> = FxHashMap::default();
    let mut seen_text: FxHashSet<&str> = FxHashSet::default();
    for tokens in &token_lists {
        seen_text.clear();
        for token in tokens {
            if seen_text.insert(token.as_str()) {
                *df.entry(token.as_str()).or_insert(0) += 1;
            }
        }
    }

    // Pass 2: postings with dense token ids, DF-cut applied at build time —
    // stop tokens (df > cap) and singleton tokens (df < 2) are never
    // materialized. `kept_tokens[i]` lists record i's distinct useful
    // token ids so the counting pass needs no re-deduplication.
    let mut token_ids: FxHashMap<&str, u32> = FxHashMap::default();
    let mut postings: Vec<Vec<u32>> = Vec::new();
    let mut kept_tokens: Vec<Vec<u32>> = Vec::with_capacity(records.len());
    for (position, tokens) in token_lists.iter().enumerate() {
        let mut kept: Vec<u32> = Vec::new();
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for token in tokens {
            let frequency = df[token.as_str()] as usize;
            if frequency < 2 || frequency > config.max_token_df {
                continue;
            }
            let next_id = postings.len() as u32;
            let id = *token_ids.entry(token.as_str()).or_insert(next_id);
            if id as usize == postings.len() {
                postings.push(Vec::with_capacity(frequency));
            }
            if seen.insert(id) {
                postings[id as usize].push(position as u32);
                kept.push(id);
            }
        }
        kept_tokens.push(kept);
    }

    // Pass 3 (the hot path): per-record overlap counting over stealable
    // chunks; each worker reuses one scratch count map, and the per-record
    // top-n pair lists are merged into `out` at the end.
    let per_record: Vec<Vec<RecordPair>> = pool.map_init(
        &all_positions,
        FxHashMap::<u32, usize>::default,
        |counts, &position| {
            counts.clear();
            let record = records.get(position as usize);
            for &token_id in &kept_tokens[position as usize] {
                for &other in &postings[token_id as usize] {
                    if other == position {
                        continue;
                    }
                    if records.get(other as usize).source() == record.source() {
                        continue;
                    }
                    *counts.entry(other).or_insert(0) += 1;
                }
            }
            // Top-n by overlap count, ties broken by record id for determinism.
            let mut ranked: Vec<(usize, RecordId)> = counts
                .iter()
                .filter(|(_, &count)| count >= config.min_overlap)
                .map(|(&other, &count)| (count, records.get(other as usize).id()))
                .collect();
            ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            ranked
                .iter()
                .take(config.top_n)
                .map(|&(_, other)| RecordPair::new(record.id(), other))
                .collect()
        },
    );
    for pairs in per_record {
        for pair in pairs {
            out.add(pair, BlockingKind::TokenOverlap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_records::{CompanyRecord, SourceId};

    fn company(id: u32, source: u16, name: &str) -> CompanyRecord {
        CompanyRecord::new(RecordId(id), SourceId(source), name)
    }

    fn run(records: &[CompanyRecord], config: &TokenOverlapConfig) -> CandidateSet {
        let mut set = CandidateSet::new();
        TokenOverlap::new(config.clone()).block(records, &BlockingContext::sequential(), &mut set);
        set
    }

    #[test]
    fn overlapping_names_become_candidates() {
        let records = vec![
            company(0, 0, "Crowdstrike Holdings Austin"),
            company(1, 1, "Crowdstrike Holdings Inc Austin"),
            company(2, 2, "Globex Paris Energy"),
        ];
        let set = run(&records, &TokenOverlapConfig::default());
        assert!(set.from_blocking(
            RecordPair::new(RecordId(0), RecordId(1)),
            BlockingKind::TokenOverlap
        ));
        assert!(!set.from_blocking(
            RecordPair::new(RecordId(0), RecordId(2)),
            BlockingKind::TokenOverlap
        ));
    }

    #[test]
    fn min_overlap_filters_single_shared_token() {
        let records = vec![
            company(0, 0, "Acme Energy Zurich"),
            company(1, 1, "Globex Energy Paris"),
        ];
        let set = run(&records, &TokenOverlapConfig::default());
        assert!(set.is_empty(), "one shared token is below min_overlap");
    }

    #[test]
    fn same_source_never_paired() {
        let records = vec![
            company(0, 0, "Acme Energy Zurich"),
            company(1, 0, "Acme Energy Zurich"),
        ];
        let set = run(&records, &TokenOverlapConfig::default());
        assert!(set.is_empty());
    }

    #[test]
    fn top_n_caps_candidates_per_record() {
        // Record 0 overlaps with 20 near-identical records; top_n = 3 keeps 3.
        let mut records = vec![company(0, 0, "Quantum Edge Systems Zurich")];
        for i in 1..=20 {
            records.push(company(
                i,
                1 + (i % 3) as u16,
                "Quantum Edge Systems Zurich",
            ));
        }
        let config = TokenOverlapConfig {
            top_n: 3,
            ..TokenOverlapConfig::default()
        };
        let set = run(&records, &config);
        let involving_zero = set
            .pairs_sorted()
            .iter()
            .filter(|p| p.a == RecordId(0) || p.b == RecordId(0))
            .count();
        // Record 0 contributes top_n pairs; others may add pairs involving 0
        // from their own top-n scans (overlap is symmetric), so the count is
        // at least 3 but bounded by 20.
        assert!((3..=20).contains(&involving_zero), "{involving_zero}");
    }

    #[test]
    fn frequent_tokens_skipped() {
        // All records share "energy" (df above cap with a tiny cap);
        // without another shared token no pairs form.
        let records: Vec<CompanyRecord> = (0..10)
            .map(|i| company(i, (i % 2) as u16, &format!("Energy Unique{i} Name{i}")))
            .collect();
        let config = TokenOverlapConfig {
            max_token_df: 5,
            min_overlap: 1,
            ..TokenOverlapConfig::default()
        };
        let set = run(&records, &config);
        assert!(set.is_empty());
    }

    #[test]
    fn deterministic_output() {
        let records = vec![
            company(0, 0, "Crowdstrike Holdings Austin Texas"),
            company(1, 1, "Crowdstrike Holdings Austin"),
            company(2, 2, "Crowdstrike Platforms Austin Texas"),
        ];
        let once = run(&records, &TokenOverlapConfig::default()).pairs_sorted();
        let twice = run(&records, &TokenOverlapConfig::default()).pairs_sorted();
        assert_eq!(once, twice);
    }

    #[test]
    fn parallel_counting_matches_sequential() {
        // Enough records that the pool actually chunks the counting pass.
        let records: Vec<CompanyRecord> = (0..300)
            .map(|i| {
                company(
                    i,
                    (i % 4) as u16,
                    &format!("Cluster{} Widget Systems Node{}", i % 30, i % 7),
                )
            })
            .collect();
        let sequential = run(&records, &TokenOverlapConfig::default());
        let mut parallel = CandidateSet::new();
        TokenOverlap::default().block(
            &records,
            &BlockingContext::with_pool(WorkerPool::new(4).with_chunk_size(16)),
            &mut parallel,
        );
        assert_eq!(sequential.pairs_sorted(), parallel.pairs_sorted());
    }

    #[test]
    fn delta_path_matches_full_reblock() {
        // The zero-copy two-slice recount must equal a one-shot block over
        // the union — including re-ranked standing pairs: the delta records
        // share tokens with the standing ones, shifting DFs and top-n.
        let all: Vec<CompanyRecord> = (0..60)
            .map(|i| {
                company(
                    i,
                    (i % 4) as u16,
                    &format!("Cluster{} Widget Systems Node{}", i % 12, i % 5),
                )
            })
            .collect();
        for split in [0, 20, 45, 60] {
            let (standing, new) = all.split_at(split);
            let mut full = CandidateSet::new();
            TokenOverlap::default().block(&all, &BlockingContext::sequential(), &mut full);
            let mut delta = CandidateSet::new();
            TokenOverlap::default().block_delta(
                new,
                standing,
                &BlockingContext::sequential(),
                &mut delta,
            );
            assert_eq!(
                full.pairs_sorted(),
                delta.pairs_sorted(),
                "split at {split}"
            );
        }
    }

    #[test]
    fn works_on_sparse_id_slices() {
        // A shard hands the blocker a slice whose ids are NOT 0..n; pairs
        // must carry the records' own ids, indexed by slice position.
        let records = vec![
            company(17, 0, "Crowdstrike Holdings Austin"),
            company(42, 1, "Crowdstrike Holdings Inc Austin"),
            company(99, 2, "Globex Paris Energy"),
        ];
        let set = run(&records, &TokenOverlapConfig::default());
        assert!(set.from_blocking(
            RecordPair::new(RecordId(17), RecordId(42)),
            BlockingKind::TokenOverlap
        ));
    }
}
