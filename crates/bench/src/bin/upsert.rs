//! Incremental-upsert replay benchmark: loads a synthetic dataset as
//! initial load + K delta batches through one long-lived `MatchEngine`
//! and reports per-batch reconciliation latency next to the one-shot
//! wall-clock of the legacy sharded oracle.
//!
//! Usage:
//! `cargo run -p gralmatch-bench --bin upsert --release -- [--shards N] [--batches K] [out.json]`
//!
//! `GRALMATCH_SCALE` sizes the dataset (default 0.02), `--shards`
//! (default 4) the standing `ShardPlan`, `--batches` (default 3) the
//! number of delta batches replayed over the trailing 30 % of the
//! records. The scorer is the heuristic name matcher — deterministic and
//! training-free, so the numbers isolate the reconciliation engine. Its
//! compiled featurization view lives in the engine's
//! `CompiledScorerProvider`, which recompiles exactly the records each
//! batch touches.

use gralmatch_bench::cli::BenchCli;
use gralmatch_bench::harness::{prepare_synthetic, stage_trace_json, Scale};
use gralmatch_core::{CompanyDomain, CompiledScorerProvider, PipelineConfig, ShardPlan};
use gralmatch_lm::{HeuristicMatcher, PlainEncoder};
use gralmatch_util::{Json, ToJson};

fn main() {
    let scale = Scale::from_env();
    let cli = BenchCli::parse(&["shards", "batches"]);
    let shards = cli.shards_or(4);
    let batches = cli.usize_value("batches").unwrap_or(3);
    let out_path = cli.out_path("upsert-report.json");
    eprintln!(
        "upsert: scale {} shards {shards} batches {batches} -> {out_path}",
        scale.0
    );

    let prepared = prepare_synthetic(scale);
    let companies = prepared.data.companies.records();
    let domain = CompanyDomain::new(companies, prepared.data.securities.records());
    let provider = CompiledScorerProvider::new(
        HeuristicMatcher {
            jaccard_threshold: 0.45,
        },
        PlainEncoder::new(128),
    );
    let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);

    let replay = gralmatch_bench::harness::run_upsert_replay_with(
        &domain,
        Box::new(provider),
        &config,
        ShardPlan::new(shards),
        batches,
        0.3,
    );

    let mut batch_rows = Vec::new();
    let mut delta_seconds = 0.0;
    for batch in &replay.batches {
        let label = if batch.index == 0 {
            "initial load"
        } else {
            "delta"
        };
        eprintln!(
            "upsert: batch {} ({label}): {:.3}s, +{} records, {} pairs scored, {} records re-blocked in {} shards",
            batch.index,
            batch.seconds,
            batch.outcome.inserted,
            batch.outcome.pairs_scored,
            batch.outcome.blocking_affected_records,
            batch.outcome.touched_shards,
        );
        if batch.index > 0 {
            delta_seconds += batch.seconds;
        }
        let stages = Json::Obj(
            batch
                .outcome
                .trace
                .stages
                .iter()
                .map(|stage| (stage.stage.to_string(), stage_trace_json(stage)))
                .collect(),
        );
        batch_rows.push(Json::obj([
            ("index", batch.index.to_json()),
            ("seconds", batch.seconds.to_json()),
            ("inserted", batch.outcome.inserted.to_json()),
            ("pairs_scored", batch.outcome.pairs_scored.to_json()),
            ("new_predictions", batch.outcome.new_predictions.to_json()),
            ("touched_shards", batch.outcome.touched_shards.to_json()),
            (
                "blocking_affected_records",
                batch.outcome.blocking_affected_records.to_json(),
            ),
            (
                "blocking_flipped_tokens",
                batch.outcome.blocking_flipped_tokens.to_json(),
            ),
            (
                "touched_components",
                batch.outcome.touched_components.to_json(),
            ),
            ("stages", stages),
        ]));
    }
    eprintln!(
        "upsert: {} delta batches in {delta_seconds:.3}s vs one-shot {:.3}s (groups match: {})",
        batches, replay.one_shot_seconds, replay.matches_one_shot
    );

    let report = Json::obj([
        ("scale", scale.0.to_json()),
        ("shards", shards.to_json()),
        ("num_batches", batches.to_json()),
        ("num_groups", replay.num_groups.to_json()),
        ("matches_one_shot", replay.matches_one_shot.to_json()),
        ("one_shot_seconds", replay.one_shot_seconds.to_json()),
        ("delta_seconds_total", delta_seconds.to_json()),
        (
            "engine_apply_seconds",
            replay.final_stats.total_apply_seconds.to_json(),
        ),
        ("batches", Json::Arr(batch_rows)),
    ]);
    std::fs::write(&out_path, report.to_pretty_string()).expect("write report");
    println!("wrote {out_path}");
}
