//! Property tests: incremental upserts are transparent.
//!
//! For seeded random datasets, an initial load followed by **any**
//! partition of the remaining records into upsert batches — batch splits
//! ∈ {1, 3, 8}, with delete/re-insert churn woven through the replay —
//! must land on exactly the groups of a one-shot
//! [`run_sharded`](gralmatch::core::run_sharded) over the final
//! population, and after every batch hold exactly the predictions and
//! cleaned graph of a one-shot load of its live records. Incrementality
//! is an execution strategy, not a semantics change. The offline build has no `proptest`, so cases are
//! deterministic seeded instances (the seed is printed in every assertion
//! message).

use gralmatch::blocking::Blocker;
use gralmatch::core::{
    run_sharded, CompanyDomain, MatchingDomain, OracleMatcher, OracleScorer, PipelineConfig,
    PipelineState, SecurityDomain, ShardKey, ShardPlan, UpsertBatch,
};
use gralmatch::datagen::{generate, FinancialDataset, GenerationConfig};
use gralmatch::records::{IdCode, IdKind, Record, RecordId, RecordPair, SecurityRecord, SourceId};
use gralmatch::util::FxHashMap;

mod support;

const BATCH_SPLITS: [usize; 3] = [1, 3, 8];

fn dataset(seed: u64) -> FinancialDataset {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 90;
    config.seed = seed;
    generate(&config).unwrap()
}

fn company_groups(data: &FinancialDataset) -> FxHashMap<RecordId, u32> {
    data.companies
        .records()
        .iter()
        .map(|company| (company.id, company.entity.unwrap().0))
        .collect()
}

/// Order-insensitive normal form: sorted members, groups sorted.
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

/// Replay `records` as initial load (first `initial` records) + `k` insert
/// batches over the remainder, weaving delete/re-insert churn through the
/// replay: batch `j` deletes a small slice of already-loaded records and
/// the next batch re-inserts it, so every record of the final population
/// has been through the standing state and some have been retracted and
/// reconciled twice. Every batch is checked against a one-shot load of
/// the live records. Returns the final groups.
fn replay<R, F>(
    records: &[R],
    strategies: &[Box<dyn Blocker<R> + '_>],
    scorer: &dyn gralmatch::lm::PairScorer,
    config: &PipelineConfig,
    plan: ShardPlan,
    k: usize,
    context: F,
) -> Vec<Vec<RecordId>>
where
    R: Record + Clone + Sync,
    F: Fn(&str) -> String,
{
    let initial = records.len() * 3 / 5;
    let (mut state, _) = PipelineState::initial_load(
        plan,
        records[..initial].to_vec(),
        strategies,
        scorer,
        config,
    )
    .unwrap_or_else(|e| panic!("{}: {e:?}", context("initial load")));

    let remainder = &records[initial..];
    let chunk = remainder.len().div_ceil(k);
    let mut pending: Vec<R> = Vec::new();
    for (j, slice) in remainder.chunks(chunk.max(1)).enumerate() {
        // Churn: retract a small slice of the initially loaded records;
        // the next batch brings it back.
        let churn: Vec<R> = records[gralmatch::core::churn_window(initial, j, 4)]
            .iter()
            .filter(|r| state.is_live(r.id()))
            .cloned()
            .collect();
        let batch = UpsertBatch {
            inserts: slice.iter().cloned().chain(pending.drain(..)).collect(),
            updates: Vec::new(),
            deletes: churn.iter().map(|r| r.id()).collect(),
        };
        state
            .apply(&batch, strategies, scorer, config)
            .unwrap_or_else(|e| panic!("{}: {e:?}", context(&format!("batch {j}"))));
        support::assert_matches_fresh_load(
            &state,
            strategies,
            scorer,
            config,
            &context(&format!("batch {j}")),
        );
        pending = churn;
    }
    if !pending.is_empty() {
        state
            .apply(&UpsertBatch::inserting(pending), strategies, scorer, config)
            .unwrap_or_else(|e| panic!("{}: {e:?}", context("churn restore")));
        support::assert_matches_fresh_load(
            &state,
            strategies,
            scorer,
            config,
            &context("churn restore"),
        );
    }
    assert_eq!(
        state.num_live(),
        records.len(),
        "{}",
        context("replay must end at the full population")
    );
    state.groups()
}

#[test]
fn replayed_security_upserts_match_one_shot_groups() {
    for seed in [7u64, 19] {
        let data = dataset(seed);
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let plan = ShardPlan::new(4);
        let one_shot = run_sharded(&domain, &scorer, &config, &plan).unwrap();
        let strategies = domain.blocking_strategies();

        for k in BATCH_SPLITS {
            let groups = replay(securities, &strategies, &scorer, &config, plan, k, |what| {
                format!("seed {seed}, {k} batches, {what}")
            });
            assert_eq!(
                normalize(&groups),
                normalize(&one_shot.outcome.groups),
                "seed {seed}, {k} batches: incremental groups diverged"
            );
        }
    }
}

#[test]
fn replayed_company_upserts_match_one_shot_groups() {
    // Companies exercise the token-overlap delta path (per-shard text
    // recount) plus the id-overlap join through the security universe.
    for seed in [13u64] {
        let data = dataset(seed);
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let plan = ShardPlan::new(4);
        let one_shot = run_sharded(&domain, &scorer, &config, &plan).unwrap();
        let strategies = domain.blocking_strategies();

        for k in BATCH_SPLITS {
            let groups = replay(companies, &strategies, &scorer, &config, plan, k, |what| {
                format!("seed {seed}, {k} batches, {what}")
            });
            assert_eq!(
                normalize(&groups),
                normalize(&one_shot.outcome.groups),
                "seed {seed}, {k} batches: incremental groups diverged"
            );
        }
    }
}

/// Securities fixture for the handcrafted scenarios: id, source, entity,
/// identifier codes.
fn security(id: u32, source: u16, entity: u32, codes: &[&str]) -> SecurityRecord {
    let mut record = SecurityRecord::new(
        RecordId(id),
        SourceId(source),
        "Registered Shs",
        RecordId(1000 + entity),
    )
    .with_entity(gralmatch::records::EntityId(entity));
    for code in codes {
        record.id_codes.push(IdCode::new(IdKind::Isin, *code));
    }
    record
}

#[test]
fn delete_heavy_batch_splits_a_bridged_component() {
    // Two 2-record entities bridged by one *false positive* edge (an
    // oracle flip on the shared-code pair s1–s2): the raw component is a
    // path s0–s1–s2–s3. Deleting s1 must split it — the retracted raw
    // edges mark both sides dirty and the merge re-cleans them — leaving
    // exactly {s2, s3} and the singleton {s0}.
    let records = vec![
        security(0, 0, 1, &["AAA"]),
        security(1, 1, 1, &["AAA", "XBRIDGE"]),
        security(2, 2, 2, &["BBB", "XBRIDGE"]),
        security(3, 3, 2, &["BBB"]),
    ];
    let group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
    let domain = SecurityDomain::new(&records, &group_of);
    let gt = domain.ground_truth().clone();
    let oracle = OracleMatcher::with_flips(&gt, vec![RecordPair::new(RecordId(1), RecordId(2))]);
    let scorer = oracle.scorer();
    let config = PipelineConfig::new(25, 5);
    let strategies = domain.blocking_strategies();

    let (mut state, _) = PipelineState::initial_load(
        ShardPlan::new(2),
        records.clone(),
        &strategies,
        &scorer,
        &config,
    )
    .unwrap();
    // The flip bridges the two entities into one 4-record component, small
    // enough (≤ μ) to survive the cleanup.
    assert_eq!(normalize(&state.groups()).last().unwrap().len(), 4);

    let outcome = state
        .apply(
            &UpsertBatch {
                inserts: Vec::new(),
                updates: Vec::new(),
                deletes: vec![RecordId(1)],
            },
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();
    assert!(
        outcome.retracted_predictions >= 2,
        "s0–s1 and s1–s2 retract"
    );
    assert!(outcome.touched_components >= 1);
    let expected = vec![vec![RecordId(0)], vec![RecordId(2), RecordId(3)]];
    assert_eq!(normalize(&state.groups()), expected);
}

#[test]
fn a_code_turning_degenerate_retracts_an_untouched_positive() {
    // s0–s1 share code AAA and match. Inserting more holders of AAA pushes
    // it past MAX_CODE_HOLDERS, so the join's degeneracy guard drops s0–s1
    // from the candidate set although neither record changed: the
    // standing positive must be retracted and its component re-cleaned,
    // as a one-shot run over all the records never proposes the pair.
    let holders = gralmatch::blocking::MAX_CODE_HOLDERS as u32 + 1;
    let records: Vec<SecurityRecord> = (0..holders)
        .map(|id| security(id, id as u16, if id < 2 { 1 } else { 100 + id }, &["AAA"]))
        .collect();
    let group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
    let domain = SecurityDomain::new(&records, &group_of);
    let gt = domain.ground_truth().clone();
    let scorer = OracleScorer::new(&gt);
    let config = PipelineConfig::new(25, 5);
    let plan = ShardPlan::new(2);
    let strategies = domain.blocking_strategies();

    let (mut state, _) =
        PipelineState::initial_load(plan, records[..2].to_vec(), &strategies, &scorer, &config)
            .unwrap();
    assert_eq!(
        normalize(&state.groups()),
        vec![vec![RecordId(0), RecordId(1)]]
    );
    let outcome = state
        .apply(
            &UpsertBatch::inserting(records[2..].to_vec()),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();
    assert_eq!(outcome.retracted_predictions, 1);
    support::assert_matches_fresh_load(&state, &strategies, &scorer, &config, "AAA past the cap");
    let one_shot = run_sharded(&domain, &scorer, &config, &plan).unwrap();
    assert_eq!(
        normalize(&state.groups()),
        normalize(&one_shot.outcome.groups)
    );
    assert!(state.groups().iter().all(|group| group.len() == 1));
}

#[test]
fn delete_heavy_replay_matches_one_shot_over_survivors() {
    // Delete ~a third of a seeded dataset across two delete-only batches,
    // then compare against a one-shot sharded run over a densely
    // re-indexed copy of the survivors (monotone re-indexing preserves all
    // id-based tie-breaks, so the runs are comparable bit for bit).
    let seed = 31u64;
    let data = dataset(seed);
    let securities = data.securities.records();
    let group_of = company_groups(&data);
    let domain = SecurityDomain::new(securities, &group_of);
    let gt = domain.ground_truth().clone();
    let scorer = OracleScorer::new(&gt);
    let config = PipelineConfig::new(25, 5);
    let plan = ShardPlan::new(4);
    let strategies = domain.blocking_strategies();

    let (mut state, _) =
        PipelineState::initial_load(plan, securities.to_vec(), &strategies, &scorer, &config)
            .unwrap();
    let doomed: Vec<RecordId> = securities
        .iter()
        .map(|r| r.id)
        .filter(|id| id.0 % 3 == 0)
        .collect();
    for (step, half) in doomed.chunks(doomed.len().div_ceil(2)).enumerate() {
        state
            .apply(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates: Vec::new(),
                    deletes: half.to_vec(),
                },
                &strategies,
                &scorer,
                &config,
            )
            .unwrap();
        support::assert_matches_fresh_load(
            &state,
            &strategies,
            &scorer,
            &config,
            &format!("seed {seed}, delete batch {step}"),
        );
    }
    let last_groups = state.groups();

    // One-shot over the survivors, re-indexed densely in id order.
    let survivors: Vec<SecurityRecord> = securities
        .iter()
        .filter(|r| r.id.0 % 3 != 0)
        .cloned()
        .collect();
    let mut dense = survivors.clone();
    let mut back_to_original: Vec<RecordId> = Vec::with_capacity(dense.len());
    for (position, record) in dense.iter_mut().enumerate() {
        back_to_original.push(record.id);
        record.id = RecordId(position as u32);
    }
    let dense_domain = SecurityDomain::new(&dense, &group_of);
    let dense_gt = dense_domain.ground_truth().clone();
    let dense_scorer = OracleScorer::new(&dense_gt);
    let one_shot = run_sharded(&dense_domain, &dense_scorer, &config, &plan).unwrap();
    let mapped: Vec<Vec<RecordId>> = one_shot
        .outcome
        .groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|id| back_to_original[id.0 as usize])
                .collect()
        })
        .collect();
    assert_eq!(
        normalize(&last_groups),
        normalize(&mapped),
        "seed {seed}: delete-heavy incremental diverged from one-shot over survivors"
    );
}

#[test]
fn upsert_bridges_components_across_shards() {
    // Source-keyed sharding: {s0, s1} live in shard 0, {s2, s3} in shard
    // 1, same entity, no standing candidate between the sides. Inserting
    // s4 — which shares a code with each side — must merge all five into
    // one group via boundary candidates from the global hash join, exactly
    // as a one-shot sharded run over the full five would.
    let records = vec![
        security(0, 0, 1, &["AAA"]),
        security(1, 2, 1, &["AAA"]),
        security(2, 1, 1, &["BBB"]),
        security(3, 3, 1, &["BBB"]),
        security(4, 4, 1, &["AAA", "BBB"]),
    ];
    let group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
    let domain = SecurityDomain::new(&records, &group_of);
    let gt = domain.ground_truth().clone();
    let scorer = OracleScorer::new(&gt);
    let config = PipelineConfig::new(25, 5);
    let plan = ShardPlan::new(2).with_key(ShardKey::Source);
    let strategies = domain.blocking_strategies();

    let (mut state, _) =
        PipelineState::initial_load(plan, records[..4].to_vec(), &strategies, &scorer, &config)
            .unwrap();
    assert_eq!(
        normalize(&state.groups()),
        vec![
            vec![RecordId(0), RecordId(1)],
            vec![RecordId(2), RecordId(3)],
        ],
        "standing components stay shard-local before the bridge"
    );

    let outcome = state
        .apply(
            &UpsertBatch::inserting(vec![records[4].clone()]),
            &strategies,
            &scorer,
            &config,
        )
        .unwrap();
    assert!(
        outcome.boundary_merges >= 1,
        "the bridge must union previously distinct components"
    );
    assert_eq!(
        normalize(&state.groups()),
        vec![(0..5).map(RecordId).collect::<Vec<_>>()]
    );

    let one_shot = run_sharded(&domain, &scorer, &config, &plan).unwrap();
    assert_eq!(
        normalize(&state.groups()),
        normalize(&one_shot.outcome.groups)
    );
}
