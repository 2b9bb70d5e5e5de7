//! Shared experiment harness for the table-regeneration binaries.
//!
//! Implements the paper's experimental protocol end to end:
//!
//! * datasets are generated at a configurable **scale factor**
//!   (`GRALMATCH_SCALE`, default 0.02 ⇒ 4K company entities; 1.0 is the
//!   paper-sized benchmark),
//! * models are fine-tuned on the train/val splits (60/20 % of groups),
//! * the end-to-end entity group matching experiment runs on the **test
//!   split** (20 % of groups — Table 2's record counts are exactly the test
//!   splits of the full datasets),
//! * the securities pipeline receives issuer groups from a heuristic
//!   company matching (see EXPERIMENTS.md for this simplification).

use crate::cli::BenchCli;
use gralmatch_blocking::TokenOverlapConfig;
use gralmatch_core::{
    blocked_candidates, entity_groups, group_assignment, prediction_graph, run_sharded,
    CleanupVariant, CompanyDomain, EngineStats, FixedScorerProvider, MatchEngine, MatchingDomain,
    MatchingOutcome, PipelineConfig, ProductDomain, ScorerProvider, SecurityDomain, ShardPlan,
    UpsertBatch, UpsertOutcome,
};
use gralmatch_datagen::{generate, generate_wdc, FinancialDataset, GenerationConfig, WdcConfig};
use gralmatch_lm::{
    predict_positive_with, train, train_with_negative_pool, CompiledDataset, CompiledScorer,
    HeuristicMatcher, ModelSpec, PairwiseMatcher, SavedModel, TrainedMatcher, TrainingReport,
};
use gralmatch_records::{
    CompanyRecord, Dataset, DatasetSplit, GroundTruth, ProductRecord, Record, RecordId, RecordPair,
    SecurityRecord, SplitRatios,
};
use gralmatch_util::{FxHashMap, FxHashSet, Parallelism, SplitRng};
use std::path::PathBuf;

/// JSON for one [`StageTrace`](gralmatch_core::StageTrace) entry —
/// seconds, item counts, and (when the stage observed one) the compiled
/// featurization arena's footprint. Shared by the repro and upsert report
/// writers so a new trace field cannot silently ship in only one report.
pub fn stage_trace_json(stage: &gralmatch_core::StageTrace) -> gralmatch_util::Json {
    use gralmatch_util::ToJson;
    let mut fields = vec![
        ("seconds".to_string(), stage.seconds.to_json()),
        ("items_in".to_string(), stage.items_in.to_json()),
        ("items_out".to_string(), stage.items_out.to_json()),
    ];
    // Memory next to wall-clock: the compiled arena backing the scoring.
    if let Some(bytes) = stage.arena_bytes {
        fields.push(("arena_bytes".to_string(), bytes.to_json()));
    }
    // Cleanup-bearing stages expose their per-phase wall-clock split. The
    // perf gate ignores nested objects inside a stage, so adding this is
    // shape-safe for existing baselines.
    if let Some(phases) = stage.phases {
        fields.push((
            "phases".to_string(),
            gralmatch_util::Json::obj([
                ("pre_cleanup_seconds", phases.pre_cleanup_seconds.to_json()),
                ("mincut_seconds", phases.mincut_seconds.to_json()),
                ("betweenness_seconds", phases.betweenness_seconds.to_json()),
                (
                    "bridge_cache_hits",
                    (phases.bridge_cache_hits as f64).to_json(),
                ),
                ("rescanned_nodes", (phases.rescanned_nodes as f64).to_json()),
                ("heals", (phases.heals as f64).to_json()),
            ]),
        ));
    }
    gralmatch_util::Json::Obj(fields)
}

/// Experiment scale factor.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Read from `GRALMATCH_SCALE` (default 0.02).
    pub fn from_env() -> Self {
        let factor = std::env::var("GRALMATCH_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.02);
        assert!(factor > 0.0 && factor <= 1.0, "scale must be in (0, 1]");
        Scale(factor)
    }
}

/// On-disk trained-model cache behind the `--save-model DIR` /
/// `--load-model DIR` flags of the repro/table4 binaries: models are
/// stored as [`SavedModel`] JSON under
/// `DIR/<tag>-s<scale>-<spec-key>.json` — the scale factor is part of
/// the key, so a cache warmed at one `GRALMATCH_SCALE` is never silently
/// reused for a differently sized dataset. With a load dir, a present
/// file skips training entirely (bit-identical scores — see
/// `lm::persist`); with a save dir, every freshly trained model is
/// written back. Pointing both at the same directory makes it a warm
/// cache across runs.
#[derive(Debug, Clone)]
pub struct ModelStore {
    save_dir: Option<PathBuf>,
    load_dir: Option<PathBuf>,
    scale: Scale,
}

impl ModelStore {
    /// No persistence: always train.
    pub fn disabled() -> Self {
        ModelStore {
            save_dir: None,
            load_dir: None,
            scale: Scale(1.0),
        }
    }

    /// Read `--save-model` / `--load-model` from parsed CLI flags (the
    /// scale comes from `GRALMATCH_SCALE` like the datasets themselves),
    /// creating the save directory eagerly so a typoed path fails before
    /// hours of training.
    pub fn from_cli(cli: &BenchCli) -> Self {
        let save_dir = cli.value("save-model").map(PathBuf::from);
        if let Some(dir) = &save_dir {
            std::fs::create_dir_all(dir).expect("--save-model directory is creatable");
        }
        ModelStore {
            save_dir,
            load_dir: cli.value("load-model").map(PathBuf::from),
            scale: Scale::from_env(),
        }
    }

    fn file_name(&self, tag: &str, spec: ModelSpec) -> String {
        let slug: String = tag
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        format!("{slug}-s{}-{}.json", self.scale.0, spec.key())
    }

    /// Load `tag`'s model for `spec` if persisted, else run `train` (and
    /// persist the result when saving is on). Returns the matcher and the
    /// training wall-clock (0 for a loaded model — the time column then
    /// reflects that no training happened).
    pub fn load_or_train(
        &self,
        tag: &str,
        spec: ModelSpec,
        train: impl FnOnce() -> (TrainedMatcher, TrainingReport),
    ) -> (TrainedMatcher, f64) {
        let file = self.file_name(tag, spec);
        if let Some(dir) = &self.load_dir {
            let path = dir.join(&file);
            if path.exists() {
                let saved = SavedModel::load(&path)
                    .unwrap_or_else(|e| panic!("loading {}: {e:?}", path.display()));
                assert_eq!(
                    saved.spec,
                    spec,
                    "{} was saved under a different model spec",
                    path.display()
                );
                eprintln!("model-store: loaded {}", path.display());
                return (saved.matcher, 0.0);
            }
        }
        let (matcher, report) = train();
        if let Some(dir) = &self.save_dir {
            let path = dir.join(&file);
            SavedModel::new(spec, matcher.clone())
                .save(&path)
                .unwrap_or_else(|e| panic!("saving {}: {e:?}", path.display()));
            eprintln!("model-store: saved {}", path.display());
        }
        (matcher, report.train_seconds)
    }
}

/// Run a domain through the [`MatchEngine`]: one bootstrap batch under an
/// entity-keyed [`ShardPlan`] (`shards` = 1 is the unsharded setting),
/// evaluated under the paper's three-stage protocol. Scores go through
/// the compiled zero-allocation path; the trace reports the engine lineup
/// (`blocking → inference → merge`), identical for sharded and unsharded
/// runs.
pub fn run_domain_maybe_sharded<D>(
    domain: &D,
    matcher: &TrainedMatcher,
    encoded: &[gralmatch_lm::EncodedRecord],
    config: &PipelineConfig,
    shards: usize,
) -> MatchingOutcome
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    // Compile once, score every batch through the zero-allocation path —
    // same scores as the reference featurization, no per-pair hashing.
    let compiled = CompiledDataset::compile(encoded, &matcher.feature_config());
    let scorer = CompiledScorer::new(matcher, &compiled);
    let (engine, load) = MatchEngine::bootstrap_domain(
        domain,
        ShardPlan::new(shards),
        Box::new(FixedScorerProvider(&scorer)),
        config.clone(),
    )
    .expect("engine bootstrap succeeds");
    engine.evaluate(domain.ground_truth(), &load)
}

/// One batch of an upsert replay: the upsert outcome plus its wall-clock.
pub struct ReplayBatch {
    /// Batch index (0 = initial load).
    pub index: usize,
    /// What the batch did (counts, per-stage trace, groups).
    pub outcome: UpsertOutcome,
    /// End-to-end wall-clock seconds of the `apply_batch` call.
    pub seconds: f64,
}

/// Result of [`run_upsert_replay`]: per-batch latency plus the end-state
/// comparison against a one-shot run of the legacy sharded oracle.
pub struct UpsertReplay {
    /// Initial load followed by the delta batches.
    pub batches: Vec<ReplayBatch>,
    /// Final group count.
    pub num_groups: usize,
    /// Whether the engine's final groups equal a one-shot
    /// [`run_sharded`] (the legacy staged oracle) over the full
    /// population (they must for deterministic scorers; reported rather
    /// than asserted so the bench binary stays a measurement tool).
    pub matches_one_shot: bool,
    /// Wall-clock seconds of the one-shot oracle run, for the speedup
    /// column.
    pub one_shot_seconds: f64,
    /// Engine counters after the last batch.
    pub final_stats: EngineStats,
}

/// Replay a domain's records as an initial load (the first
/// `1 - delta_fraction` of the records) plus `num_batches` delta batches,
/// measuring per-batch reconciliation latency, then compare the end state
/// against a one-shot run of the legacy sharded oracle over the full
/// population.
pub fn run_upsert_replay<D>(
    domain: &D,
    scorer: &dyn gralmatch_lm::PairScorer,
    config: &PipelineConfig,
    plan: ShardPlan,
    num_batches: usize,
    delta_fraction: f64,
) -> UpsertReplay
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    run_upsert_replay_with(
        domain,
        Box::new(FixedScorerProvider(scorer)),
        config,
        plan,
        num_batches,
        delta_fraction,
    )
}

/// [`run_upsert_replay`] with a scorer provider — the entry point for
/// scorers whose compiled views are maintained incrementally alongside
/// the engine state (see
/// [`CompiledScorerProvider`](gralmatch_core::CompiledScorerProvider)).
/// The whole replay drives one [`MatchEngine`]: bootstrap with the
/// initial slice, then one `apply_batch` per delta.
pub fn run_upsert_replay_with<'a, D>(
    domain: &'a D,
    provider: Box<dyn ScorerProvider<D::Rec> + 'a>,
    config: &PipelineConfig,
    plan: ShardPlan,
    num_batches: usize,
    delta_fraction: f64,
) -> UpsertReplay
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    let records = domain.records();
    let delta_len = ((records.len() as f64 * delta_fraction) as usize)
        .clamp(num_batches.min(records.len()), records.len());
    let initial = records.len() - delta_len;

    let mut batches = Vec::with_capacity(num_batches + 1);
    let watch = gralmatch_util::Stopwatch::start();
    let (mut engine, load) = MatchEngine::bootstrap(
        plan,
        records[..initial].to_vec(),
        domain.blocking_strategies(),
        provider,
        config.clone(),
    )
    .expect("initial load succeeds");
    batches.push(ReplayBatch {
        index: 0,
        outcome: load,
        seconds: watch.elapsed_secs(),
    });

    let remainder = &records[initial..];
    let chunk = remainder.len().div_ceil(num_batches.max(1)).max(1);
    for (index, slice) in remainder.chunks(chunk).enumerate() {
        let watch = gralmatch_util::Stopwatch::start();
        let outcome = engine
            .apply_batch(&UpsertBatch::inserting(slice.to_vec()))
            .expect("delta batch succeeds");
        batches.push(ReplayBatch {
            index: index + 1,
            outcome,
            seconds: watch.elapsed_secs(),
        });
    }
    let final_stats = engine.stats();
    let groups = engine.groups();

    // The comparison run goes through the *legacy staged oracle* with an
    // independently built scorer view (`verify_scorer`), so the check
    // cross-checks both the engine's reconciliation and any incremental
    // scorer maintenance.
    let one_shot_watch = gralmatch_util::Stopwatch::start();
    let scorer = engine.provider_mut().verify_scorer();
    let one_shot = run_sharded(domain, scorer, config, &plan).expect("one-shot run succeeds");
    let one_shot_seconds = one_shot_watch.elapsed_secs();
    let normalize = |groups: &[Vec<RecordId>]| {
        let mut out: Vec<Vec<RecordId>> = groups
            .iter()
            .map(|g| {
                let mut g = g.clone();
                g.sort_unstable();
                g
            })
            .collect();
        out.sort();
        out
    };
    UpsertReplay {
        num_groups: groups.len(),
        matches_one_shot: normalize(&groups) == normalize(&one_shot.outcome.groups),
        one_shot_seconds,
        batches,
        final_stats,
    }
}

/// A generated financial benchmark with ground truths and splits.
pub struct PreparedFinancial {
    /// The generated datasets.
    pub data: FinancialDataset,
    /// Company ground truth.
    pub company_gt: GroundTruth,
    /// Security ground truth.
    pub security_gt: GroundTruth,
    /// Company split (60/20/20 by group).
    pub company_split: DatasetSplit,
    /// Security split.
    pub security_split: DatasetSplit,
}

/// Generate + split one financial benchmark.
pub fn prepare_financial(config: &GenerationConfig) -> PreparedFinancial {
    let data = generate(config).expect("valid config");
    let company_gt = data.companies.ground_truth();
    let security_gt = data.securities.ground_truth();
    let mut split_rng = SplitRng::new(config.seed ^ 0x5011).split("splits");
    let company_split = DatasetSplit::new(&company_gt, SplitRatios::default(), &mut split_rng);
    let security_split = DatasetSplit::new(&security_gt, SplitRatios::default(), &mut split_rng);
    PreparedFinancial {
        data,
        company_gt,
        security_gt,
        company_split,
        security_split,
    }
}

/// The synthetic benchmark at a scale factor.
pub fn prepare_synthetic(scale: Scale) -> PreparedFinancial {
    prepare_financial(&GenerationConfig::synthetic_scaled(scale.0))
}

/// The real-subset simulator (fixed size).
pub fn prepare_real_sim() -> PreparedFinancial {
    prepare_financial(&GenerationConfig::real_simulated())
}

/// The WDC-style product benchmark with ground truth and split.
pub struct PreparedWdc {
    /// Product records.
    pub products: Dataset<ProductRecord>,
    /// Ground truth.
    pub gt: GroundTruth,
    /// Split.
    pub split: DatasetSplit,
}

/// Generate + split the product benchmark. The split is **family-aware**:
/// a corner-case sibling always lands in the same split as its original,
/// so the hard negative pairs the benchmark exists for are evaluable
/// (mirrors how WDC ships fixed pair sets per split).
pub fn prepare_wdc() -> PreparedWdc {
    let generated = generate_wdc(&WdcConfig::default());
    let gt = generated.products.ground_truth();
    let mut split_rng = SplitRng::new(0xdc).split("splits");

    // Group entities by family, shuffle families, split 60/20/20.
    let mut by_family: FxHashMap<u32, Vec<gralmatch_records::EntityId>> = FxHashMap::default();
    for (&entity, &family) in &generated.family_of {
        by_family.entry(family).or_default().push(entity);
    }
    let mut families: Vec<u32> = by_family.keys().copied().collect();
    families.sort_unstable();
    split_rng.shuffle(&mut families);
    let n = families.len();
    let n_train = (n as f64 * 0.6).round() as usize;
    let n_val = (n as f64 * 0.2).round() as usize;

    let collect = |fams: &[u32]| -> (Vec<gralmatch_records::EntityId>, Vec<RecordId>) {
        let mut entities: Vec<gralmatch_records::EntityId> = fams
            .iter()
            .flat_map(|f| by_family[f].iter().copied())
            .collect();
        entities.sort_unstable();
        let mut records: Vec<RecordId> = entities
            .iter()
            .flat_map(|&e| gt.group_members(e).unwrap_or(&[]).iter().copied())
            .collect();
        records.sort_unstable();
        (entities, records)
    };
    let (train_entities, train_records) = collect(&families[..n_train]);
    let (val_entities, val_records) = collect(&families[n_train..n_train + n_val]);
    let (test_entities, test_records) = collect(&families[n_train + n_val..]);
    let split = DatasetSplit {
        train_entities,
        val_entities,
        test_entities,
        train_records,
        val_records,
        test_records,
    };
    PreparedWdc {
        products: generated.products,
        gt,
        split,
    }
}

/// Restrict a (companies, securities) universe to the given company and
/// security id sets, re-assigning dense ids and fixing cross-references.
/// Every kept security's issuer must be in `keep_companies`.
pub fn restrict_financial(
    companies: &[CompanyRecord],
    securities: &[SecurityRecord],
    keep_companies: &FxHashSet<RecordId>,
    keep_securities: &FxHashSet<RecordId>,
) -> (Vec<CompanyRecord>, Vec<SecurityRecord>) {
    let mut company_map: FxHashMap<RecordId, RecordId> = FxHashMap::default();
    let mut kept_companies: Vec<CompanyRecord> = Vec::with_capacity(keep_companies.len());
    for company in companies {
        if keep_companies.contains(&company.id) {
            let new_id = RecordId(kept_companies.len() as u32);
            company_map.insert(company.id, new_id);
            let mut cloned = company.clone();
            cloned.id = new_id;
            cloned.securities.clear(); // refilled below
            kept_companies.push(cloned);
        }
    }
    let mut kept_securities: Vec<SecurityRecord> = Vec::with_capacity(keep_securities.len());
    for security in securities {
        if keep_securities.contains(&security.id) {
            let Some(&issuer) = company_map.get(&security.issuer) else {
                panic!("kept security {} references dropped issuer", security.id);
            };
            let new_id = RecordId(kept_securities.len() as u32);
            let mut cloned = security.clone();
            cloned.id = new_id;
            cloned.issuer = issuer;
            kept_companies[issuer.0 as usize].securities.push(new_id);
            kept_securities.push(cloned);
        }
    }
    (kept_companies, kept_securities)
}

/// Test-split restriction for the **companies** experiment: test companies
/// plus all securities they issue (identifier context).
pub fn company_test_universe(
    prepared: &PreparedFinancial,
) -> (Vec<CompanyRecord>, Vec<SecurityRecord>) {
    let keep_companies = prepared.company_split.test_set();
    let keep_securities: FxHashSet<RecordId> = prepared
        .data
        .companies
        .records()
        .iter()
        .filter(|company| keep_companies.contains(&company.id))
        .flat_map(|company| company.securities.iter().copied())
        .collect();
    restrict_financial(
        prepared.data.companies.records(),
        prepared.data.securities.records(),
        &keep_companies,
        &keep_securities,
    )
}

/// Test-split restriction for the **securities** experiment: test
/// securities plus their issuing companies.
pub fn security_test_universe(
    prepared: &PreparedFinancial,
) -> (Vec<CompanyRecord>, Vec<SecurityRecord>) {
    let keep_securities = prepared.security_split.test_set();
    let keep_companies: FxHashSet<RecordId> = prepared
        .data
        .securities
        .records()
        .iter()
        .filter(|security| keep_securities.contains(&security.id))
        .map(|security| security.issuer)
        .collect();
    restrict_financial(
        prepared.data.companies.records(),
        prepared.data.securities.records(),
        &keep_companies,
        &keep_securities,
    )
}

/// Fine-tuning evaluation (Table 3): P/R/F1 on test pairs (all test
/// positives + 5:1 sampled negatives), matching Section 5.1.3.
#[derive(Debug, Clone, Copy)]
pub struct FineTuneEval {
    /// Precision on test pairs.
    pub precision: f64,
    /// Recall on test pairs.
    pub recall: f64,
    /// F1 on test pairs.
    pub f1: f64,
}

/// Evaluate a trained matcher on a split's test pairs. When
/// `negative_pool` is given (WDC's fixed corner-case pairs), negatives are
/// drawn from it first, topped up randomly — matching how fixed-pair
/// benchmarks evaluate.
pub fn evaluate_on_test_pairs<R: Record>(
    records: &[R],
    matcher: &TrainedMatcher,
    spec: ModelSpec,
    gt: &GroundTruth,
    split: &DatasetSplit,
    seed: u64,
    negative_pool: Option<&[RecordPair]>,
) -> FineTuneEval {
    let encoded = spec.encode_records(records);
    let test_set = split.test_set();
    let restricted = gt.restrict_to(&test_set);
    let positives = restricted.all_true_pairs();
    let mut rng = SplitRng::new(seed).split("test-negatives");
    let mut pairs: Vec<RecordPair> = positives.clone();
    let test_records = &split.test_records;
    let mut negatives = 0usize;
    let wanted = positives.len() * 5;
    if let Some(pool) = negative_pool {
        let mut hard: Vec<RecordPair> = pool
            .iter()
            .copied()
            .filter(|p| test_set.contains(&p.a) && test_set.contains(&p.b) && !gt.is_match_pair(*p))
            .collect();
        rng.shuffle(&mut hard);
        for pair in hard.into_iter().take(wanted) {
            pairs.push(pair);
            negatives += 1;
        }
    }
    let mut attempts = 0usize;
    while negatives < wanted && attempts < wanted * 20 + 100 && test_records.len() >= 2 {
        attempts += 1;
        let a = test_records[rng.next_below(test_records.len())];
        let b = test_records[rng.next_below(test_records.len())];
        if a == b || gt.is_match(a, b) {
            continue;
        }
        pairs.push(RecordPair::new(a, b));
        negatives += 1;
    }
    let compiled = CompiledDataset::compile(&encoded, &matcher.feature_config());
    let scorer = CompiledScorer::new(matcher, &compiled);
    let predicted =
        predict_positive_with(&scorer, &pairs, &Parallelism::Auto.pool_for(pairs.len()));
    let positive_set: FxHashSet<RecordPair> = positives.iter().copied().collect();
    let tp = predicted
        .iter()
        .filter(|p| positive_set.contains(p))
        .count() as u64;
    let fp = predicted.len() as u64 - tp;
    let fn_ = positives.len() as u64 - tp;
    let metrics = gralmatch_core::PairMetrics::from_counts(tp, fp, fn_);
    FineTuneEval {
        precision: metrics.precision,
        recall: metrics.recall,
        f1: metrics.f1,
    }
}

/// Train a spec on a dataset's train/val splits.
pub fn train_spec<R: Record>(
    records: &[R],
    gt: &GroundTruth,
    split: &DatasetSplit,
    spec: ModelSpec,
) -> (TrainedMatcher, TrainingReport) {
    let encoded = spec.encode_records(records);
    train(records, &encoded, gt, split, &spec.train_config()).expect("training succeeds")
}

/// Train a spec with a hard-negative pool (WDC protocol).
pub fn train_spec_with_pool<R: Record>(
    records: &[R],
    gt: &GroundTruth,
    split: &DatasetSplit,
    spec: ModelSpec,
    pool: &[RecordPair],
) -> (TrainedMatcher, TrainingReport) {
    let encoded = spec.encode_records(records);
    train_with_negative_pool(
        records,
        &encoded,
        gt,
        split,
        &spec.train_config(),
        Some(pool),
    )
    .expect("training succeeds")
}

/// The WDC hard-negative pool: token-overlap candidates over the full
/// product dataset (the corner-case pairs the benchmark ships). A single
/// shared token qualifies (`min_overlap: 1`) and the document-frequency cap
/// is widened: corner-case siblings share only the model-number token, and
/// they are exactly the pairs the pool exists to surface.
pub fn wdc_negative_pool(prepared: &PreparedWdc) -> Vec<RecordPair> {
    let pool_config = TokenOverlapConfig {
        top_n: 20,
        max_token_df: 600,
        min_overlap: 1,
    };
    let domain = ProductDomain::new(prepared.products.records()).with_token_config(pool_config);
    blocked_candidates(&domain).pairs_sorted()
}

/// Company-level grouping used as Issuer-Match input for the securities
/// pipeline: ID overlap + token overlap candidates decided by the
/// heuristic name matcher, grouped as connected components (the "benchmark
/// heuristic" company matching of Section 5.3.1).
pub fn heuristic_company_groups(
    companies: &[CompanyRecord],
    securities: &[SecurityRecord],
) -> FxHashMap<RecordId, u32> {
    let candidates = blocked_candidates(&CompanyDomain::new(companies, securities));
    let encoder = gralmatch_lm::PlainEncoder::new(128);
    let encoded = gralmatch_lm::encode_dataset(companies, &encoder);
    let matcher = HeuristicMatcher {
        jaccard_threshold: 0.45,
    };
    let pairs = candidates.pairs_sorted();
    let compiled = CompiledDataset::compile(&encoded, &matcher.feature_config());
    let scorer = CompiledScorer::new(&matcher, &compiled);
    let predicted =
        predict_positive_with(&scorer, &pairs, &Parallelism::Auto.pool_for(pairs.len()));
    let graph = prediction_graph(companies.len(), &predicted);
    let groups = entity_groups(&graph);
    group_assignment(&groups)
}

/// One Table 4 cell: pipeline outcome + training time.
pub struct Table4Cell {
    /// Records entering the end-to-end experiment (Table 2 column).
    pub num_records: usize,
    /// The pipeline outcome (stages, groups, timings).
    pub outcome: MatchingOutcome,
    /// Fine-tuning wall-clock seconds.
    pub train_seconds: f64,
}

/// End-to-end companies experiment for one spec. `shards > 1` runs the
/// engine under a multi-shard entity-keyed [`ShardPlan`]. `tag` names the
/// dataset for the [`ModelStore`]'s files.
#[allow(clippy::too_many_arguments)]
pub fn run_companies_table4(
    prepared: &PreparedFinancial,
    spec: ModelSpec,
    gamma: usize,
    mu: usize,
    variant: CleanupVariant,
    shards: usize,
    store: &ModelStore,
    tag: &str,
) -> Table4Cell {
    let (matcher, train_seconds) = store.load_or_train(&format!("{tag}-companies"), spec, || {
        train_spec(
            prepared.data.companies.records(),
            &prepared.company_gt,
            &prepared.company_split,
            spec,
        )
    });
    run_companies_table4_with(
        prepared,
        &matcher,
        train_seconds,
        spec,
        gamma,
        mu,
        variant,
        shards,
    )
}

/// Variant runner that reuses a trained matcher (sensitivity rows).
#[allow(clippy::too_many_arguments)]
pub fn run_companies_table4_with(
    prepared: &PreparedFinancial,
    matcher: &TrainedMatcher,
    train_seconds: f64,
    spec: ModelSpec,
    gamma: usize,
    mu: usize,
    variant: CleanupVariant,
    shards: usize,
) -> Table4Cell {
    let (test_companies, test_securities) = company_test_universe(prepared);
    let encoded = spec.encode_records(&test_companies);
    let domain = CompanyDomain::new(&test_companies, &test_securities);
    let config = PipelineConfig {
        cleanup: gralmatch_core::CleanupConfig::new(gamma, mu)
            .with_pre_cleanup(50)
            .variant(variant),
        parallelism: Parallelism::Auto,
    };
    let outcome = run_domain_maybe_sharded(&domain, matcher, &encoded, &config, shards);
    Table4Cell {
        num_records: test_companies.len(),
        outcome,
        train_seconds,
    }
}

/// End-to-end securities experiment for one spec. `shards > 1` runs the
/// engine under a multi-shard entity-keyed [`ShardPlan`]. `tag` names the
/// dataset for the [`ModelStore`]'s files.
pub fn run_securities_table4(
    prepared: &PreparedFinancial,
    spec: ModelSpec,
    gamma: usize,
    mu: usize,
    shards: usize,
    store: &ModelStore,
    tag: &str,
) -> Table4Cell {
    let (matcher, train_seconds) = store.load_or_train(&format!("{tag}-securities"), spec, || {
        train_spec(
            prepared.data.securities.records(),
            &prepared.security_gt,
            &prepared.security_split,
            spec,
        )
    });
    let (issuer_companies, test_securities) = security_test_universe(prepared);
    let encoded = spec.encode_records(&test_securities);
    let company_groups = heuristic_company_groups(&issuer_companies, &test_securities);
    let domain = SecurityDomain::new(&test_securities, &company_groups);
    let config = PipelineConfig {
        cleanup: gralmatch_core::CleanupConfig::new(gamma, mu),
        parallelism: Parallelism::Auto,
    };
    let outcome = run_domain_maybe_sharded(&domain, &matcher, &encoded, &config, shards);
    Table4Cell {
        num_records: test_securities.len(),
        outcome,
        train_seconds,
    }
}

/// End-to-end WDC products experiment for one spec. `shards > 1` runs the
/// engine under a multi-shard entity-keyed [`ShardPlan`].
pub fn run_wdc_table4(
    prepared: &PreparedWdc,
    spec: ModelSpec,
    gamma: usize,
    mu: usize,
    shards: usize,
    store: &ModelStore,
) -> Table4Cell {
    let (matcher, train_seconds) = store.load_or_train("wdc-products", spec, || {
        let pool = wdc_negative_pool(prepared);
        train_spec_with_pool(
            prepared.products.records(),
            &prepared.gt,
            &prepared.split,
            spec,
            &pool,
        )
    });
    // Restrict to the test split (100 % unseen entities).
    let keep = prepared.split.test_set();
    let mut test_products: Vec<ProductRecord> = Vec::new();
    for product in prepared.products.records() {
        if keep.contains(&product.id) {
            let mut cloned = product.clone();
            cloned.id = RecordId(test_products.len() as u32);
            test_products.push(cloned);
        }
    }
    let encoded = spec.encode_records(&test_products);
    let domain = ProductDomain::new(&test_products);
    let config = PipelineConfig {
        cleanup: gralmatch_core::CleanupConfig::new(gamma, mu),
        parallelism: Parallelism::Auto,
    };
    let outcome = run_domain_maybe_sharded(&domain, &matcher, &encoded, &config, shards);
    Table4Cell {
        num_records: test_products.len(),
        outcome,
        train_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PreparedFinancial {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 120;
        prepare_financial(&config)
    }

    #[test]
    fn restriction_preserves_references() {
        let prepared = tiny();
        let (companies, securities) = company_test_universe(&prepared);
        assert!(!companies.is_empty());
        for security in &securities {
            assert!(companies[security.issuer.0 as usize]
                .securities
                .contains(&security.id));
        }
        for (i, company) in companies.iter().enumerate() {
            assert_eq!(company.id.0 as usize, i);
        }
    }

    #[test]
    fn security_universe_contains_all_test_securities() {
        let prepared = tiny();
        let (_, securities) = security_test_universe(&prepared);
        assert_eq!(securities.len(), prepared.security_split.test_records.len());
    }

    #[test]
    fn heuristic_groups_cover_all_companies() {
        let prepared = tiny();
        let (companies, securities) = security_test_universe(&prepared);
        let groups = heuristic_company_groups(&companies, &securities);
        assert_eq!(groups.len(), companies.len());
    }

    #[test]
    fn scale_env_default() {
        std::env::remove_var("GRALMATCH_SCALE");
        let scale = Scale::from_env();
        assert!((scale.0 - 0.02).abs() < 1e-9);
    }
}
