//! The maintained form of Token-Overlap blocking: a per-shard inverted
//! index a batch edits in place (see `docs/BLOCKING.md`).
//!
//! [`token_overlap_blocking`](crate::token_overlap) rebuilds its document
//! frequencies and postings from the records on every call. This index
//! keeps them: interned token → holder list (whose length *is* the live
//! document frequency), per-record distinct token ids and source, and
//! per-record current top-n picks. A batch applies all of its postings
//! edits first and then recomputes picks once, only for the **affected
//! set** — the upserted records plus the current holders of every token
//! whose holder set changed and that is useful (2 ≤ DF ≤ `max_token_df`)
//! before or after the batch. A record outside that set holds the same
//! useful tokens with the same co-holders as before, so its picks cannot
//! have moved; the pair set (a pair is present while either endpoint picks
//! the other) therefore stays equal to a one-shot block over the records
//! the index holds.

use crate::strategy::{PairDelta, ShardIndex};
use crate::token_overlap::TokenOverlapConfig;
use gralmatch_records::{Record, RecordId, RecordPair, SourceId};
use gralmatch_text::tokenize;
use gralmatch_util::{FxHashMap, FxHashSet, Parallelism};

/// Per-slot `u32` lists in one flat buffer. `set` appends the new list and
/// abandons the old span; the buffer is rewritten once more than half of
/// it is abandoned.
#[derive(Debug, Default)]
struct ListArena {
    data: Vec<u32>,
    /// Slot → (start, length) into `data`.
    spans: Vec<(u32, u32)>,
    /// Sum of the span lengths.
    live: usize,
}

impl ListArena {
    /// Slack below which abandoned space is not worth a rewrite.
    const COMPACT_FLOOR: usize = 1024;

    fn get(&self, slot: u32) -> &[u32] {
        match self.spans.get(slot as usize) {
            Some(&(start, len)) => &self.data[start as usize..][..len as usize],
            None => &[],
        }
    }

    fn set(&mut self, slot: u32, list: &[u32]) {
        let slot = slot as usize;
        if slot >= self.spans.len() {
            self.spans.resize(slot + 1, (0, 0));
        }
        self.live -= self.spans[slot].1 as usize;
        self.spans[slot] = (0, 0);
        if self.data.len() > 2 * self.live + Self::COMPACT_FLOOR {
            let mut data = Vec::with_capacity(self.live + list.len());
            for span in &mut self.spans {
                let start = data.len() as u32;
                data.extend_from_slice(&self.data[span.0 as usize..][..span.1 as usize]);
                span.0 = start;
            }
            self.data = data;
        }
        self.spans[slot] = (self.data.len() as u32, list.len() as u32);
        self.data.extend_from_slice(list);
        self.live += list.len();
    }
}

/// The slots holding one token. Most tokens of a name corpus are held by
/// one record, so that case is stored inline.
#[derive(Debug)]
enum Holders {
    One(u32),
    /// Empty (never allocated), or two and more.
    Many(Vec<u32>),
}

impl Holders {
    fn as_slice(&self) -> &[u32] {
        match self {
            Holders::One(slot) => std::slice::from_ref(slot),
            Holders::Many(slots) => slots,
        }
    }

    fn insert(&mut self, slot: u32) {
        match self {
            Holders::One(first) => *self = Holders::Many(vec![*first, slot]),
            Holders::Many(slots) if slots.is_empty() => *self = Holders::One(slot),
            Holders::Many(slots) => slots.push(slot),
        }
    }

    fn remove(&mut self, slot: u32) {
        match self {
            Holders::One(_) => *self = Holders::Many(Vec::new()),
            Holders::Many(slots) => {
                let at = slots
                    .iter()
                    .position(|&held| held == slot)
                    .expect("a record is listed under every token it holds");
                slots.swap_remove(at);
                if let [last] = slots[..] {
                    *self = Holders::One(last);
                }
            }
        }
    }
}

/// [`ShardIndex`] of [`TokenOverlap`](crate::TokenOverlap).
#[derive(Debug)]
pub(crate) struct TokenOverlapIndex {
    config: TokenOverlapConfig,
    /// Token text → dense token id. Grows only: a token nobody holds any
    /// more keeps its id and an empty holder list.
    token_ids: FxHashMap<Box<str>, u32>,
    /// Token id → holder slots, in no particular order.
    holders: Vec<Holders>,
    /// Record id → slot.
    slot_of: FxHashMap<u32, u32>,
    /// Slot → record id / source (stale for freed slots).
    ids: Vec<u32>,
    sources: Vec<SourceId>,
    /// Slot → sorted distinct token ids.
    tokens: ListArena,
    /// Slot → the slots it currently picks (its top-n by shared useful
    /// tokens, other sources only).
    picks: ListArena,
    /// Slots of removed records, reusable from the next batch on.
    free: Vec<u32>,
    num_pairs: usize,
}

impl TokenOverlapIndex {
    pub(crate) fn new(config: TokenOverlapConfig) -> Self {
        TokenOverlapIndex {
            config,
            token_ids: FxHashMap::default(),
            holders: Vec::new(),
            slot_of: FxHashMap::default(),
            ids: Vec::new(),
            sources: Vec::new(),
            tokens: ListArena::default(),
            picks: ListArena::default(),
            free: Vec::new(),
            num_pairs: 0,
        }
    }

    /// Whether a token with this document frequency takes part in
    /// counting: singletons cannot form a pair, stop tokens are cut.
    fn useful(&self, df: usize) -> bool {
        (2..=self.config.max_token_df).contains(&df)
    }

    /// Sorted distinct token ids of a tokenized record.
    fn intern(&mut self, words: Vec<String>) -> Vec<u32> {
        let mut tokens: Vec<u32> = words
            .into_iter()
            .map(|word| {
                let next = self.holders.len() as u32;
                let id = *self.token_ids.entry(word.into_boxed_str()).or_insert(next);
                if id == next {
                    self.holders.push(Holders::Many(Vec::new()));
                }
                id
            })
            .collect();
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    fn pair(&self, a: u32, b: u32) -> RecordPair {
        RecordPair::new(
            RecordId(self.ids[a as usize]),
            RecordId(self.ids[b as usize]),
        )
    }

    /// Top-n of `slot` from scratch: count shared useful tokens with every
    /// co-holder of another source, rank by count then record id.
    fn rank(&self, slot: u32, counts: &mut FxHashMap<u32, u32>) -> Vec<u32> {
        counts.clear();
        let source = self.sources[slot as usize];
        for &token in self.tokens.get(slot) {
            let holders = self.holders[token as usize].as_slice();
            if !self.useful(holders.len()) {
                continue;
            }
            for &other in holders {
                if other != slot && self.sources[other as usize] != source {
                    *counts.entry(other).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(u32, u32, u32)> = counts
            .iter()
            .filter(|(_, &count)| count as usize >= self.config.min_overlap)
            .map(|(&other, &count)| (count, self.ids[other as usize], other))
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(self.config.top_n);
        ranked.into_iter().map(|(_, _, other)| other).collect()
    }
}

/// The holder-list edits of one batch: every token whose holder set
/// changed, with its document frequency from before the batch.
struct Edits<'i> {
    holders: &'i mut [Holders],
    df_before: FxHashMap<u32, usize>,
}

impl Edits<'_> {
    /// Note that `token`'s holder set is about to change.
    fn touch(&mut self, token: u32) -> &mut Holders {
        let holders = &mut self.holders[token as usize];
        self.df_before
            .entry(token)
            .or_insert(holders.as_slice().len());
        holders
    }
}

impl<R: Record + Sync> ShardIndex<R> for TokenOverlapIndex {
    fn apply(
        &mut self,
        removed: &[RecordId],
        upserted: &[&R],
        parallelism: Parallelism,
    ) -> PairDelta {
        let words: Vec<Vec<String>> = parallelism
            .pool_for(upserted.len())
            .map(upserted, |record| tokenize(&record.full_text()));
        let token_lists: Vec<Vec<u32>> = words.into_iter().map(|w| self.intern(w)).collect();

        // -- 1. All holder-list edits first. -------------------------------
        let mut edits = Edits {
            holders: &mut self.holders,
            df_before: FxHashMap::default(),
        };
        let replaced: FxHashSet<u32> = upserted.iter().map(|record| record.id().0).collect();
        let mut gone: Vec<u32> = Vec::new();
        for id in removed.iter().filter(|id| !replaced.contains(&id.0)) {
            let slot = self
                .slot_of
                .remove(&id.0)
                .expect("removed record is indexed");
            for &token in self.tokens.get(slot) {
                edits.touch(token).remove(slot);
            }
            self.tokens.set(slot, &[]);
            gone.push(slot);
        }
        let mut upserted_slots: Vec<u32> = Vec::with_capacity(upserted.len());
        for (record, new_tokens) in upserted.iter().zip(&token_lists) {
            let (id, source) = (record.id().0, record.source());
            let slot = match self.slot_of.get(&id) {
                // In place: a token both versions hold keeps its holder
                // set — unless the source changed, which co-holders of
                // every token see (same-source records never pair).
                Some(&slot) => {
                    let old_tokens = self.tokens.get(slot);
                    let moved = self.sources[slot as usize] != source;
                    self.sources[slot as usize] = source;
                    for &token in old_tokens {
                        if new_tokens.binary_search(&token).is_err() {
                            edits.touch(token).remove(slot);
                        } else if moved {
                            edits.touch(token);
                        }
                    }
                    for &token in new_tokens {
                        if old_tokens.binary_search(&token).is_err() {
                            edits.touch(token).insert(slot);
                        }
                    }
                    slot
                }
                None => {
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.ids[slot as usize] = id;
                            self.sources[slot as usize] = source;
                            slot
                        }
                        None => {
                            self.ids.push(id);
                            self.sources.push(source);
                            self.ids.len() as u32 - 1
                        }
                    };
                    self.slot_of.insert(id, slot);
                    for &token in new_tokens {
                        edits.touch(token).insert(slot);
                    }
                    slot
                }
            };
            self.tokens.set(slot, new_tokens);
            upserted_slots.push(slot);
        }
        let df_before = edits.df_before;

        // -- 2. The affected set. ------------------------------------------
        let mut marked = vec![false; self.ids.len()];
        let mut affected: Vec<u32> = Vec::new();
        let mut mark = |slot: u32| {
            if !std::mem::replace(&mut marked[slot as usize], true) {
                affected.push(slot);
            }
        };
        upserted_slots.into_iter().for_each(&mut mark);
        let mut flipped_tokens = 0;
        for (&token, &before) in &df_before {
            let holders = self.holders[token as usize].as_slice();
            let (was, is) = (self.useful(before), self.useful(holders.len()));
            flipped_tokens += usize::from(was != is);
            if was || is {
                holders.iter().copied().for_each(&mut mark);
            }
        }

        // -- 3. One recompute pass, then the pair delta. --------------------
        // The pool is sized by the batch, not by the affected set: a delta
        // batch stays on the writer's core however many neighbours it
        // reaches; a first full block (every record upserted) fans out.
        let index = &*self;
        let pool = parallelism.pool_for(upserted.len() + gone.len());
        let new_picks: Vec<Vec<u32>> =
            pool.map_init(&affected, FxHashMap::default, |counts, &slot| {
                index.rank(slot, counts)
            });
        // A pair is present while either endpoint picks the other. Newly
        // picked pairs are judged against the other side's *old* picks,
        // dropped ones (below) against its *new* picks.
        let mut added: Vec<RecordPair> = Vec::new();
        let mut dropped: Vec<(u32, u32)> = Vec::new();
        for (&slot, new) in affected.iter().zip(&new_picks) {
            let old = self.picks.get(slot);
            for &other in new.iter().filter(|other| !old.contains(other)) {
                if !self.picks.get(other).contains(&slot) {
                    added.push(self.pair(slot, other));
                }
            }
            dropped.extend(
                old.iter()
                    .filter(|other| !new.contains(other))
                    .map(|&other| (slot, other)),
            );
        }
        for &slot in &gone {
            dropped.extend(self.picks.get(slot).iter().map(|&other| (slot, other)));
            self.picks.set(slot, &[]);
        }
        for (&slot, new) in affected.iter().zip(&new_picks) {
            self.picks.set(slot, new);
        }
        let mut removed_pairs: Vec<RecordPair> = dropped
            .into_iter()
            .filter(|&(slot, other)| !self.picks.get(other).contains(&slot))
            .map(|(slot, other)| self.pair(slot, other))
            .collect();
        // Both endpoints of a pair can report it.
        for pairs in [&mut added, &mut removed_pairs] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        self.free.extend(gone);
        self.num_pairs = self.num_pairs + added.len() - removed_pairs.len();
        PairDelta {
            added,
            removed: removed_pairs,
            affected_records: affected.len(),
            flipped_tokens,
        }
    }

    fn num_pairs(&self) -> usize {
        self.num_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{Blocker, BlockingContext};
    use crate::{CandidateSet, TokenOverlap};
    use gralmatch_records::CompanyRecord;
    use gralmatch_util::SplitRng;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn arena_compacts_abandoned_spans() {
        let mut arena = ListArena::default();
        for round in 0..200u32 {
            for slot in 0..32 {
                arena.set(slot, &[round, slot, slot + 1]);
            }
        }
        assert_eq!(arena.get(7), [199, 7, 8]);
        assert_eq!(arena.get(99), [0u32; 0], "unset slot reads empty");
        assert_eq!(arena.live, 96);
        assert!(arena.data.len() <= 2 * arena.live + ListArena::COMPACT_FLOOR + 3);
    }

    #[test]
    fn holders_move_between_inline_and_list() {
        let mut holders = Holders::Many(Vec::new());
        for slot in [4, 9, 2] {
            holders.insert(slot);
        }
        assert_eq!(holders.as_slice(), [4, 9, 2]);
        holders.remove(4);
        holders.remove(2);
        assert!(matches!(holders, Holders::One(9)));
        holders.remove(9);
        assert!(holders.as_slice().is_empty());
        holders.insert(1);
        assert!(matches!(holders, Holders::One(1)));
    }

    /// Every delta is exact — `removed` pairs were present, `added` pairs
    /// absent, `num_pairs` follows — and the set they maintain equals a
    /// one-shot block, under churn that reuses slots and crosses the cut.
    #[test]
    fn deltas_are_exact_under_churn() {
        const WORDS: [&str; 10] = [
            "north", "south", "energy", "trust", "alpha", "beta", "gamma", "delta", "mills",
            "works",
        ];
        let config = TokenOverlapConfig {
            top_n: 2,
            max_token_df: 5,
            min_overlap: 1,
        };
        let blocker = TokenOverlap::new(config.clone());
        let mut index = TokenOverlapIndex::new(config);
        let mut live: BTreeMap<u32, CompanyRecord> = BTreeMap::new();
        let mut pairs: BTreeSet<RecordPair> = BTreeSet::new();
        let mut rng = SplitRng::new(41);
        for step in 0..300 {
            let mut removed = Vec::new();
            let mut upserted = Vec::new();
            let draws = rng.range_inclusive(1, 4);
            for id in rng.sample_indices(30, draws) {
                let id = id as u32;
                if live.contains_key(&id) && rng.chance(0.4) {
                    live.remove(&id);
                    removed.push(RecordId(id));
                    continue;
                }
                let name = (0..rng.range_inclusive(1, 3))
                    .map(|_| *rng.pick(&WORDS))
                    .collect::<Vec<_>>()
                    .join(" ");
                let source = SourceId(rng.next_below(3) as u16);
                if live.contains_key(&id) {
                    removed.push(RecordId(id));
                }
                upserted.push(CompanyRecord::new(RecordId(id), source, name));
            }
            let refs: Vec<&CompanyRecord> = upserted.iter().collect();
            let delta = index.apply(&removed, &refs, Parallelism::Fixed(2));
            for record in upserted {
                live.insert(record.id.0, record);
            }
            for pair in &delta.removed {
                assert!(pairs.remove(pair), "step {step}: {pair:?} was not present");
            }
            for pair in &delta.added {
                assert!(pairs.insert(*pair), "step {step}: {pair:?} was present");
            }
            assert_eq!(ShardIndex::<CompanyRecord>::num_pairs(&index), pairs.len());

            let records: Vec<CompanyRecord> = live.values().cloned().collect();
            let mut expected = CandidateSet::new();
            blocker.block(&records, &BlockingContext::sequential(), &mut expected);
            assert_eq!(
                pairs.iter().copied().collect::<Vec<_>>(),
                expected.pairs_sorted(),
                "step {step}"
            );
        }
    }
}
