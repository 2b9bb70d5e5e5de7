//! Workload definitions: the fixed population each workload serves and the
//! seed-determined operation sequence replayed against it.
//!
//! The **write traffic** is fixed per workload: dataset, trained model, the
//! batches and the order they arrive in. The `--seed` draws the **read
//! traffic** — which ids the paced reader looks up and the pipelined
//! `group_of`/`members` mix — and the writer's think times.
//!
//! The seed used to permute the batch order too. `noise` showed why it must
//! not: on `sec_bulk` the same seed repeated `apply_p50_ms` within 3 % while
//! different seeds differed by 35 % — with 64-record batches the arrival
//! order decides when the giant component welds and splits, and every later
//! batch pays for the state the earlier ones left. The benchmark's
//! acceptance rule compares runs made with different seeds, so a seed that
//! moves the cost of the work measures the seed, not the code. On the other
//! two workloads the permutation changed nothing measurable, which also
//! means it exercised nothing; one rule for all three keeps the plan free of
//! a per-workload switch.

use gralmatch_bench::harness::{prepare_financial, train_spec};
use gralmatch_bench::serve::ServeDomain;
use gralmatch_core::UpsertBatch;
use gralmatch_datagen::{
    hub_churn_updates, hub_companies, hub_interior_churn_updates, GenerationConfig, HubConfig,
};
use gralmatch_lm::{ModelSpec, SavedModel};
use gralmatch_records::{CompanyRecord, EntityId, RecordId, SecurityRecord};
use gralmatch_util::{FxHashMap, SplitRng, ToJson};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SecTrickle,
    SecBulk,
    HubChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SecTrickle, Workload::SecBulk, Workload::HubChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SecTrickle => "sec_trickle",
            Workload::SecBulk => "sec_bulk",
            Workload::HubChurn => "hub_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much of everything one run does. Counts, not durations: a run
/// replays the same number of operations however long they take.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// `GenerationConfig::synthetic_scaled` factor (securities workloads).
    pub scale: f64,
    /// Hubs, and groups welded onto each (hub workload). The serve lineup
    /// blocks with `TokenOverlapConfig::default()`, whose document-frequency
    /// cut (200) drops a hub's tokens once it has 200 groups — so many
    /// small hubs, not four large ones.
    pub hubs: usize,
    pub groups_per_hub: usize,
    pub shards: usize,
    /// Records per batch.
    pub batch_records: usize,
    /// Batches sent before latencies count.
    pub warmup_batches: usize,
    /// Batches whose latency is recorded.
    pub batches: usize,
    /// WAL frames left after the harness's `checkpoint`, so every recovery
    /// replays exactly this many.
    pub frames_after_checkpoint: usize,
    /// The writer waits a seed-drawn time below this before each batch.
    /// Without it every request leaves right after the previous reply, which
    /// arrives on a kernel timer tick (the delayed ACK that releases the
    /// reply's second segment), so round trips come out as multiples of the
    /// 4 ms tick and `apply_p50_ms` moves in 3 % steps on `hub_churn`. One
    /// tick of think time spreads the sends over the tick.
    pub think_time: Duration,
    /// Paced one-at-a-time lookups during the serve phase.
    pub lookups: usize,
    /// Earliest gap between two paced lookups. 40 ms, not ISSUE 12's 50 ms:
    /// today a reply takes ≈ 44 ms (the server writes line and newline as
    /// two segments without `TCP_NODELAY`, the client's kernel delays its
    /// ACK), so at 40 ms the next request always leaves with the reply and
    /// every workload sits in that regime. At 50 ms the regime depends on
    /// the connection's history — a lookup that ever takes over 10 ms keeps
    /// the kernel delaying ACKs, otherwise it never starts: measured,
    /// `hub_churn` read 193 µs where `sec_bulk` read 42 678 µs. See the
    /// README's caveat on `lookup_*`.
    pub lookup_interval: Duration,
    /// Pipelined rounds after the last ack, and lookups per round.
    pub burst_rounds: usize,
    pub burst_lookups: usize,
    /// Full set-ups per run (each yields one bulk-load sample).
    pub setup_rounds: usize,
    /// Bulk loads a traced run times after the last set-up, one sample
    /// each, so the load phase does at least 2 s of work whatever one load
    /// takes.
    pub extra_loads: usize,
    /// `kill -9` + restart cycles of a traced run, which reports their
    /// median; an untraced run crashes once, for the durability check.
    pub crash_rounds: usize,
}

impl Plan {
    /// The plan measured by `BENCHMARK.json`. The counts are fixed: the
    /// bounds hold at these counts only, and they are the fewest the
    /// percentile rules allow within the driver's time cap.
    pub fn reference(workload: Workload) -> Plan {
        let common = Plan {
            workload,
            scale: 0.007,
            hubs: 0,
            groups_per_hub: 0,
            shards: 4,
            batch_records: 4,
            warmup_batches: 4,
            batches: 0,
            frames_after_checkpoint: 0,
            think_time: Duration::from_millis(4),
            lookups: 200,
            lookup_interval: Duration::from_millis(40),
            burst_rounds: 5,
            burst_lookups: 10_000,
            setup_rounds: 3,
            extra_loads: 2,
            crash_rounds: 3,
        };
        match workload {
            Workload::SecTrickle => Plan {
                batches: 100,
                frames_after_checkpoint: 15,
                ..common
            },
            Workload::SecBulk => Plan {
                batch_records: 64,
                warmup_batches: 2,
                batches: 40,
                frames_after_checkpoint: 4,
                ..common
            },
            Workload::HubChurn => Plan {
                hubs: 40,
                groups_per_hub: 199,
                // One load is ≈ 0.13 s.
                extra_loads: 13,
                // One group per hub per batch, never the same group twice:
                // warm-up + measured batches stay below `groups_per_hub`.
                batches: 100,
                frames_after_checkpoint: 28,
                ..common
            },
        }
    }

    /// A seconds-long pass over the same code paths, for the contract test.
    pub fn tiny(workload: Workload) -> Plan {
        Plan {
            scale: 0.001,
            hubs: 4,
            groups_per_hub: 16,
            shards: 2,
            batch_records: if workload == Workload::SecBulk { 16 } else { 4 },
            warmup_batches: 1,
            batches: 5,
            frames_after_checkpoint: 2,
            lookups: 12,
            lookup_interval: Duration::from_millis(5),
            burst_rounds: 2,
            burst_lookups: 512,
            setup_rounds: 1,
            extra_loads: 1,
            crash_rounds: 1,
            ..Plan::reference(workload)
        }
    }

    pub fn total_batches(&self) -> usize {
        self.warmup_batches + self.batches
    }
}

/// Everything one set-up round produces from the plan and the seed.
pub struct Inputs<R> {
    /// The population the server is bootstrapped with.
    pub initial: Vec<R>,
    /// Trained matcher (`None` serves with the heuristic matcher).
    pub model: Option<SavedModel>,
    /// Warm-up batches followed by the measured ones, in send order.
    pub batches: Vec<UpsertBatch<R>>,
    /// `batches`, rendered as protocol lines (newline included).
    pub lines: Vec<String>,
    /// The writer's think time before each batch.
    pub think_times: Vec<Duration>,
    /// Ids that stay live for the whole run, in paced-lookup order.
    pub lookup_ids: Vec<u32>,
    /// The population after every batch, sorted by id: what the oracle
    /// bootstraps in one shot.
    pub survivors: Vec<R>,
    /// Wall-clock of the pieces the per-layer report names.
    pub datagen_seconds: f64,
    pub train_seconds: f64,
}

/// Build a securities workload's inputs.
pub fn securities_inputs(plan: &Plan, seed: u64) -> Inputs<SecurityRecord> {
    let watch = Instant::now();
    let prepared = prepare_financial(&GenerationConfig::synthetic_scaled(plan.scale));
    let datagen_seconds = watch.elapsed().as_secs_f64();
    let records = prepared.data.securities.records();

    let watch = Instant::now();
    let spec = ModelSpec::DistilBert128All;
    let (matcher, _) = train_spec(
        records,
        &prepared.security_gt,
        &prepared.security_split,
        spec,
    );
    let train_seconds = watch.elapsed().as_secs_f64();

    // Leading 70 % bootstrapped, the rest held out as future inserts — ids
    // are shuffled by the generator, so the prefix is a uniform sample.
    let initial_len = records.len() * 7 / 10;
    let initial = records[..initial_len].to_vec();

    // Batches are drawn with a workload-fixed stream (see the module docs).
    let total = plan.total_batches();
    let (updates_per, inserts_per, deletes_per) = op_mix(plan.batch_records);
    let mut by_entity: FxHashMap<EntityId, Vec<u32>> = FxHashMap::default();
    for record in &initial {
        if let Some(entity) = record.entity {
            by_entity.entry(entity).or_default().push(record.id.0);
        }
    }
    let mut pool_rng = SplitRng::new(0x0b5e_55ed).split(plan.workload.name());
    let mut order: Vec<u32> = (0..initial_len as u32).collect();
    pool_rng.shuffle(&mut order);
    let mut deletes: Vec<RecordId> = Vec::new();
    let mut updates: Vec<SecurityRecord> = Vec::new();
    for id in order {
        if deletes.len() < deletes_per * total {
            deletes.push(RecordId(id));
            continue;
        }
        if updates.len() == updates_per * total {
            break;
        }
        // An update is a source catching up on a corporate event: the
        // record takes over the attributes a sibling source already shows.
        let record = &initial[id as usize];
        let siblings = record.entity.and_then(|entity| by_entity.get(&entity));
        let Some(sibling) = siblings.and_then(|ids| {
            let others: Vec<u32> = ids.iter().copied().filter(|&other| other != id).collect();
            (!others.is_empty()).then(|| others[pool_rng.next_below(others.len())])
        }) else {
            continue;
        };
        let mut updated = initial[sibling as usize].clone();
        updated.id = record.id;
        updated.source = record.source;
        updated.issuer = record.issuer;
        updates.push(updated);
    }
    assert_eq!(deletes.len(), deletes_per * total, "population too small");
    assert_eq!(updates.len(), updates_per * total, "population too small");
    let inserts = &records[initial_len..initial_len + inserts_per * total];
    let batches: Vec<UpsertBatch<SecurityRecord>> = (0..total)
        .map(|b| UpsertBatch {
            inserts: inserts[b * inserts_per..][..inserts_per].to_vec(),
            updates: updates[b * updates_per..][..updates_per].to_vec(),
            deletes: deletes[b * deletes_per..][..deletes_per].to_vec(),
        })
        .collect();

    finish(
        plan,
        seed,
        initial,
        Some(SavedModel::new(spec, matcher)),
        batches,
        datagen_seconds,
        train_seconds,
    )
}

/// Updates / inserts / deletes in a batch of `records`: half updates, a
/// quarter each of inserts and deletes, so the population size is steady.
fn op_mix(records: usize) -> (usize, usize, usize) {
    assert!(
        records >= 4 && records.is_multiple_of(4),
        "batch size must be 4k"
    );
    (records / 2, records / 4, records / 4)
}

/// Build the hub workload's inputs: companies over `datagen::hub`, served
/// with the heuristic matcher, churned by the hub's own two update
/// generators, alternating.
pub fn hub_inputs(plan: &Plan, seed: u64) -> Inputs<CompanyRecord> {
    let total = plan.total_batches();
    // One group per hub rotates per batch: 40 or 160 updates.
    let config = HubConfig {
        hubs: plan.hubs,
        groups_per_hub: plan.groups_per_hub,
        group_size: 4,
        churn_batches: total,
        churn_rewires: 1,
    };
    let watch = Instant::now();
    let initial = hub_companies(&config);
    let datagen_seconds = watch.elapsed().as_secs_f64();

    // Batch index b rotates group b of every hub. Even indexes degrade
    // that group's interior (clique → star: delete-created bridges), odd
    // ones re-submit its representative with a stamped city. With at least
    // as many groups as batches no record is written by two batches.
    assert!(
        config.groups_per_hub >= total,
        "hub rotations would wrap: raise groups_per_hub"
    );
    let batches: Vec<UpsertBatch<CompanyRecord>> = (0..total)
        .map(|index| UpsertBatch {
            inserts: Vec::new(),
            updates: if index % 2 == 0 {
                hub_interior_churn_updates(&config, index)
            } else {
                hub_churn_updates(&config, index)
            },
            deletes: Vec::new(),
        })
        .collect();
    finish(plan, seed, initial, None, batches, datagen_seconds, 0.0)
}

/// Render the batches, replay them over the population to find the
/// survivors, and draw the paced lookups from the seed.
fn finish<R: ServeDomain>(
    plan: &Plan,
    seed: u64,
    initial: Vec<R>,
    model: Option<SavedModel>,
    batches: Vec<UpsertBatch<R>>,
    datagen_seconds: f64,
    train_seconds: f64,
) -> Inputs<R> {
    let mut rng = SplitRng::new(seed).split("reads");
    let think_micros = plan.think_time.as_micros() as usize;
    let think_times = batches
        .iter()
        .map(|_| Duration::from_micros(rng.next_below(think_micros + 1) as u64))
        .collect();
    let lines = batches
        .iter()
        .map(|batch| {
            let mut line = batch.to_json().to_compact_string();
            line.push('\n');
            line
        })
        .collect();

    let mut population: BTreeMap<u32, R> = initial
        .iter()
        .map(|record| (record.id().0, record.clone()))
        .collect();
    let mut stable: Vec<u32> = population.keys().copied().collect();
    for batch in &batches {
        for id in &batch.deletes {
            population.remove(&id.0);
        }
        for record in batch.inserts.iter().chain(&batch.updates) {
            population.insert(record.id().0, record.clone());
        }
    }
    stable.retain(|id| population.contains_key(id));
    let lookup_ids = (0..plan.lookups)
        .map(|_| stable[rng.next_below(stable.len())])
        .collect();

    Inputs {
        initial,
        model,
        batches,
        lines,
        think_times,
        lookup_ids,
        survivors: population.into_values().collect(),
        datagen_seconds,
        train_seconds,
    }
}
