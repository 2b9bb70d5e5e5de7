//! Property tests: the maintained token-overlap index is transparent.
//!
//! A [`PipelineState`] re-blocked through a [`BlockingIndex`] kept across
//! batches must hold, after **every** batch of insert/update/delete churn,
//! exactly the candidate set — pairs *and* provenance flags — of a one-shot
//! block over the live population: the cross-shard joins over all of it,
//! the shard-local recipes over each shard. Cases are deterministic seeded
//! instances (no `proptest` offline); the seed or step is in every message.
//!
//! The scripted sequence names the transitions the affected-set rule must
//! survive — a token crossing the document-frequency cut in both
//! directions, singleton ↔ pair, top-n ties broken by id, a source-changing
//! update, a shard-moving update, delete-then-reinsert of one id — under a
//! tight configuration that puts them within reach of a few records. The
//! random churn then runs under that and the default configuration.

use gralmatch::blocking::{
    Blocker, BlockingContext, CandidateSet, SecurityIdOverlap, TokenOverlap, TokenOverlapConfig,
};
use gralmatch::core::{
    BlockingIndex, PipelineConfig, PipelineState, ShardKey, ShardPlan, UpsertBatch, UpsertOutcome,
};
use gralmatch::lm::PairScorer;
use gralmatch::records::{
    CompanyRecord, IdCode, IdKind, Record, RecordId, RecordPair, SecurityRecord, SourceId,
};
use gralmatch::util::SplitRng;
use std::collections::BTreeMap;

/// Blocking is what is under test; nothing needs to match.
struct NoMatches;

impl PairScorer for NoMatches {
    fn score_pair(&self, _pair: RecordPair) -> f32 {
        0.0
    }
}

fn tight() -> TokenOverlapConfig {
    TokenOverlapConfig {
        top_n: 2,
        max_token_df: 5,
        min_overlap: 1,
    }
}

/// A state, the blocking index it is re-blocked through, and a mirror of
/// the live population to recount from.
struct Replay<R: Record> {
    state: PipelineState<R>,
    blocking: BlockingIndex<R>,
    strategies: Vec<Box<dyn Blocker<R>>>,
    live: BTreeMap<u32, R>,
    label: String,
}

impl<R: Record + Clone + Sync> Replay<R> {
    fn new(
        plan: ShardPlan,
        strategies: Vec<Box<dyn Blocker<R>>>,
        label: impl Into<String>,
    ) -> Self {
        Replay {
            state: PipelineState::new(plan),
            blocking: BlockingIndex::default(),
            strategies,
            live: BTreeMap::new(),
            label: label.into(),
        }
    }

    /// One-shot block over the live population, shard by shard.
    fn recount(&self) -> CandidateSet {
        let plan = self.state.plan();
        let all: Vec<R> = self.live.values().cloned().collect();
        let ctx = BlockingContext::sequential();
        let mut out = CandidateSet::new();
        for blocker in &self.strategies {
            if blocker.cross_shard() {
                blocker.block(&all, &ctx, &mut out);
                continue;
            }
            for shard in 0..plan.num_shards as u32 {
                let slice: Vec<R> = all
                    .iter()
                    .filter(|record| plan.assign_record(*record) == shard)
                    .cloned()
                    .collect();
                blocker.block(&slice, &ctx, &mut out);
            }
        }
        out
    }

    /// Apply one batch through the kept index, then hold the standing
    /// candidates against the recount.
    fn step(&mut self, step: &str, batch: UpsertBatch<R>) -> UpsertOutcome {
        let outcome = self
            .state
            .apply_with_index(
                &batch,
                &self.strategies,
                &NoMatches,
                &PipelineConfig::new(25, 5),
                None,
                Some(&mut self.blocking),
            )
            .unwrap_or_else(|e| panic!("{} {step}: {e:?}", self.label));
        for id in &batch.deletes {
            self.live.remove(&id.0);
        }
        for record in batch.updates.into_iter().chain(batch.inserts) {
            self.live.insert(record.id().0, record);
        }
        let (standing, expected) = (self.state.candidates(), self.recount());
        assert_eq!(
            standing.pairs_sorted(),
            expected.pairs_sorted(),
            "{} {step}: candidate pairs",
            self.label
        );
        for (pair, flags) in expected.iter() {
            assert_eq!(
                standing.provenance(pair),
                flags,
                "{} {step}: provenance of {pair:?}",
                self.label
            );
        }
        outcome
    }

    fn has(&self, a: u32, b: u32) -> bool {
        self.state
            .candidates()
            .contains(RecordPair::new(RecordId(a), RecordId(b)))
    }
}

fn company(id: u32, source: u16, name: &str) -> CompanyRecord {
    CompanyRecord::new(RecordId(id), SourceId(source), name)
}

fn inserting<R>(inserts: Vec<R>) -> UpsertBatch<R> {
    UpsertBatch::inserting(inserts)
}

fn updating<R>(updates: Vec<R>) -> UpsertBatch<R> {
    UpsertBatch {
        updates,
        ..UpsertBatch::new()
    }
}

fn deleting<R>(ids: &[u32]) -> UpsertBatch<R> {
    UpsertBatch {
        deletes: ids.iter().map(|&id| RecordId(id)).collect(),
        ..UpsertBatch::new()
    }
}

fn company_lineup(config: TokenOverlapConfig) -> Vec<Box<dyn Blocker<CompanyRecord>>> {
    vec![Box::new(TokenOverlap::new(config))]
}

#[test]
fn scripted_transitions_match_a_recount_after_every_batch() {
    let mut replay = Replay::new(ShardPlan::new(1), company_lineup(tight()), "scripted");
    let load = replay.step(
        "load",
        inserting(vec![
            // "acme": five holders, exactly at the cut.
            company(0, 0, "acme north"),
            company(1, 1, "acme south"),
            company(2, 2, "acme east"),
            company(3, 3, "acme west"),
            company(4, 0, "acme up"),
            // "zeta": one holder.
            company(5, 0, "zeta"),
            // "tie": 10 ties with 20, 30, 40 at one shared token and picks
            // the two smallest ids; 40 prefers 50 and 60 (two tokens).
            company(10, 0, "tie"),
            company(20, 1, "tie x1"),
            company(30, 1, "tie x2"),
            company(40, 1, "tie x3 y3"),
            company(50, 2, "x3 y3"),
            company(60, 2, "x3 y3 z3"),
            // Same source, same name: never a pair.
            company(70, 0, "beta one"),
            company(71, 0, "beta one"),
        ]),
    );
    assert_eq!(
        load.blocking_affected_records, 14,
        "first touch recounts all"
    );
    assert!(
        replay.has(0, 1) && replay.has(1, 2),
        "acme pairs at the cut"
    );
    assert!(replay.has(10, 20) && replay.has(10, 30));
    assert!(
        !replay.has(10, 40),
        "top-n 2 keeps the two smallest tied ids"
    );
    assert!(!replay.has(70, 71), "same source");

    // Singleton → pair and back.
    let outcome = replay.step(
        "zeta gains a holder",
        inserting(vec![company(6, 1, "zeta corp")]),
    );
    assert_eq!(outcome.blocking_flipped_tokens, 1, "zeta: 1 → 2 holders");
    assert_eq!(outcome.blocking_affected_records, 2);
    assert!(replay.has(5, 6));
    let outcome = replay.step("zeta loses it", deleting(&[6]));
    assert_eq!(outcome.blocking_flipped_tokens, 1, "zeta: 2 → 1 holders");
    assert!(!replay.has(5, 6));

    // Across the document-frequency cut and back: every acme pair goes
    // with the sixth holder and returns with its removal.
    let outcome = replay.step(
        "acme over the cut",
        inserting(vec![company(7, 1, "acme down")]),
    );
    assert_eq!(outcome.blocking_flipped_tokens, 1, "acme: 5 → 6 holders");
    assert_eq!(outcome.blocking_affected_records, 6, "all six holders");
    assert!(!replay.has(0, 1) && !replay.has(1, 2));
    let outcome = replay.step("acme back under", deleting(&[7]));
    assert_eq!(outcome.blocking_flipped_tokens, 1, "acme: 6 → 5 holders");
    assert!(replay.has(0, 1) && replay.has(1, 2));

    // Ties by id: without 20, record 10's top two are 30 and 40.
    replay.step("tie loses its smallest id", deleting(&[20]));
    assert!(replay.has(10, 30) && replay.has(10, 40));
    // Delete-then-reinsert of the same id restores the standing picks.
    replay.step("tie regains it", inserting(vec![company(20, 1, "tie x1")]));
    assert!(replay.has(10, 20) && replay.has(10, 30) && !replay.has(10, 40));

    // A source change alone makes (and unmakes) a pair: same id, tokens
    // and shard, so every token of the record must count as changed.
    let outcome = replay.step(
        "beta changes source",
        updating(vec![company(71, 1, "beta one")]),
    );
    assert!(replay.has(70, 71));
    assert_eq!(outcome.blocking_flipped_tokens, 0, "no holder count moved");
    replay.step(
        "beta changes back",
        updating(vec![company(71, 0, "beta one")]),
    );
    assert!(!replay.has(70, 71));

    // A name-only update that keeps a token leaves that token's other
    // holders alone: "north" → "centre" touches record 0 only.
    let outcome = replay.step(
        "rename keeps acme",
        updating(vec![company(0, 0, "acme centre")]),
    );
    assert_eq!(outcome.blocking_affected_records, 1);
}

#[test]
fn shard_moving_updates_match_a_recount() {
    // Source-keyed shards: sources 0 and 2 share shard 0, source 1 is
    // shard 1, so a source change can move a record between shards.
    let plan = ShardPlan::new(2).with_key(ShardKey::Source);
    let mut replay = Replay::new(plan, company_lineup(tight()), "shard move");
    replay.step(
        "load",
        inserting(vec![
            company(0, 0, "gamma works"),
            company(1, 1, "gamma works"),
            company(2, 1, "delta works"),
            company(3, 2, "delta mills"),
        ]),
    );
    assert!(!replay.has(0, 1), "different shards");
    let outcome = replay.step(
        "1 moves to shard 0",
        updating(vec![company(1, 2, "gamma works")]),
    );
    assert_eq!(outcome.touched_shards, 2);
    assert!(replay.has(0, 1));
    replay.step("1 moves back", updating(vec![company(1, 1, "gamma works")]));
    assert!(!replay.has(0, 1));
    // Move and rename in one update, next to a delete in the shard it
    // leaves and an insert in the one it joins.
    let mut batch = updating(vec![company(2, 0, "delta mills")]);
    batch.deletes.push(RecordId(1));
    batch.inserts.push(company(4, 1, "gamma"));
    replay.step("move + rename + delete + insert", batch);
    assert!(replay.has(2, 3));
}

/// Names over a small skewed vocabulary: the first words are common enough
/// to sit around a document-frequency cut of 5 in a population of ~40.
fn random_name(rng: &mut SplitRng) -> String {
    const WORDS: [&str; 16] = [
        "north", "south", "energy", "trust", "alpha", "beta", "gamma", "delta", "mills", "works",
        "labs", "group", "omega", "sigma", "kappa", "theta",
    ];
    let count = rng.range_inclusive(1, 4);
    (0..count)
        .map(|_| WORDS[rng.next_below(WORDS.len()).min(rng.next_below(WORDS.len()))])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Seeded churn over a fixed id pool: each batch draws a few distinct ids
/// and inserts the dead ones, updates or deletes the live ones.
fn churn<R: Record + Clone + Sync>(
    replay: &mut Replay<R>,
    seed: u64,
    batches: usize,
    make: impl Fn(u32, &mut SplitRng) -> R,
) -> usize {
    const POOL: usize = 48;
    let mut rng = SplitRng::new(seed);
    let mut flipped = 0;
    for step in 0..batches {
        let mut batch = UpsertBatch::new();
        // The first batch loads most of the pool at once.
        let draws = if step == 0 {
            36
        } else {
            rng.range_inclusive(1, 5)
        };
        for index in rng.sample_indices(POOL, draws) {
            let id = index as u32;
            if !replay.live.contains_key(&id) {
                batch.inserts.push(make(id, &mut rng));
            } else if rng.chance(0.6) {
                batch.updates.push(make(id, &mut rng));
            } else {
                batch.deletes.push(RecordId(id));
            }
        }
        flipped += replay
            .step(&format!("seed {seed} batch {step}"), batch)
            .blocking_flipped_tokens;
    }
    flipped
}

#[test]
fn random_company_churn_matches_a_recount_after_every_batch() {
    let plans = [
        ShardPlan::new(1),
        ShardPlan::new(3),
        ShardPlan::new(2).with_key(ShardKey::Source),
    ];
    for seed in [3u64, 11, 29] {
        for plan in plans {
            for (name, config) in [
                ("default", TokenOverlapConfig::default()),
                ("tight", tight()),
            ] {
                let label = format!("companies {name} {plan:?}");
                let mut replay = Replay::new(plan, company_lineup(config), label);
                let flipped = churn(&mut replay, seed, 60, |id, rng| {
                    company(id, rng.next_below(4) as u16, &random_name(rng))
                });
                assert!(flipped > 0, "seed {seed} {name}: no token ever flipped");
            }
        }
    }
}

#[test]
fn random_security_churn_matches_a_recount_after_every_batch() {
    // Two recipes, two provenance bits: the cross-shard identifier join
    // re-runs globally, token overlap is maintained per shard.
    for seed in [5u64, 17] {
        for plan in [ShardPlan::new(1), ShardPlan::new(3)] {
            for (name, config) in [
                ("default", TokenOverlapConfig::default()),
                ("tight", tight()),
            ] {
                let lineup: Vec<Box<dyn Blocker<SecurityRecord>>> = vec![
                    Box::new(SecurityIdOverlap),
                    Box::new(TokenOverlap::new(config)),
                ];
                let label = format!("securities {name} {plan:?}");
                let mut replay = Replay::new(plan, lineup, label);
                churn(&mut replay, seed, 60, |id, rng| {
                    let issuer = RecordId(rng.next_below(10) as u32);
                    let code = format!("ISIN{}", rng.next_below(14));
                    SecurityRecord::new(
                        RecordId(id),
                        SourceId(rng.next_below(4) as u16),
                        random_name(rng),
                        issuer,
                    )
                    .with_code(IdCode::new(IdKind::Isin, code))
                });
                let both = replay
                    .state
                    .candidates()
                    .iter()
                    .filter(|&(_, flags)| flags.count_ones() == 2)
                    .count();
                assert!(both > 0, "seed {seed} {name}: no pair carries both flags");
            }
        }
    }
}

/// The regression test for "delta-proportional": re-blocking a one-record
/// rename costs the record's token neighbourhood, not its shard.
#[test]
fn name_only_update_recomputes_a_handful_of_records() {
    // 250 entities × 4 sources: a distinctive two-word name per entity, a
    // city shared by fifty records (useful), a suffix shared by all (cut).
    let record = |id: u32, name: &str| {
        let entity = id / 4;
        let mut company = company(id, (id % 4) as u16, &format!("{name} holdings"));
        company.city = format!("city{}", entity % 20);
        company
    };
    let records: Vec<CompanyRecord> = (0..1000)
        .map(|id| record(id, &format!("name{0} brand{0}", id / 4)))
        .collect();
    let mut replay = Replay::new(
        ShardPlan::new(1),
        company_lineup(TokenOverlapConfig::default()),
        "rename",
    );
    let load = replay.step("load", inserting(records));
    assert_eq!(load.blocking_affected_records, 1000);

    let outcome = replay.step("rename", updating(vec![record(400, "name100 label100")]));
    assert_eq!(outcome.touched_shards, 1);
    assert!(
        outcome.blocking_affected_records < 20,
        "a one-record rename recomputed {} of 1000 records",
        outcome.blocking_affected_records
    );
    // Exactly: the record itself and the three other holders of "brand100"
    // (4 → 3 holders, still useful). "name100", the city and the suffix
    // keep their holder sets; "label100" is new and held once.
    assert_eq!(outcome.blocking_affected_records, 4);
    assert_eq!(outcome.blocking_flipped_tokens, 0);
}
