//! Crash-recovery property tests for the binary snapshot + WAL path.
//!
//! A durable [`MatchEngine`] is "crashed" (dropped without a final
//! checkpoint) after every prefix of a seeded delete-bearing churn batch
//! sequence, then recovered with
//! [`recover_engine`](gralmatch::core::recover_engine). The oracle is a
//! plain in-memory engine replaying the same sequence: for every crash
//! point the recovered engine must reproduce the oracle's normalized
//! groups and epoch exactly — whatever mix of checkpointed snapshot and
//! replayed WAL frames the crash left behind — and must keep accepting
//! batches afterwards. Companies and securities both run, so the
//! property holds across record codecs, not just one domain.
//!
//! Crash *inside* a batch is covered too: a frame appended to the WAL
//! whose apply never happened (the write-ahead ordering) must be
//! replayed on recovery, and a crash *inside* a checkpoint (snapshot
//! written, WAL not yet truncated) must skip the already-incorporated
//! frames by seq. Damage cases close the loop: a flipped snapshot
//! byte is a refused [`Corrupt`](gralmatch::util::Error::Corrupt) load,
//! a truncated WAL tail is dropped cleanly with the torn frame reported.

use gralmatch::blocking::{Blocker, SecurityIdOverlap, TokenOverlap, TokenOverlapConfig};
use gralmatch::core::{
    churn_window, persist, recover_engine, scorer_provider, CheckpointPolicy, MatchEngine,
    PipelineConfig, ShardPlan, UpsertBatch, WalWriter,
};
use gralmatch::datagen::{generate, FinancialDataset, GenerationConfig};
use gralmatch::records::{CompanyRecord, Record, RecordId, SecurityRecord};
use gralmatch::util::{BinRecord, Error};
use std::path::{Path, PathBuf};

fn dataset(seed: u64) -> FinancialDataset {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 40;
    config.seed = seed;
    generate(&config).unwrap()
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

/// Seeded churn sequence: inserts over the held-out remainder with
/// delete/re-insert windows woven through, so recovery must reproduce
/// retractions, not just appends.
fn batch_sequence<R: Record + Clone>(
    records: &[R],
    initial: usize,
    k: usize,
) -> Vec<UpsertBatch<R>> {
    let remainder = &records[initial..];
    let chunk = remainder.len().div_ceil(k).max(1);
    let mut batches = Vec::new();
    let mut pending: Vec<R> = Vec::new();
    for (j, slice) in remainder.chunks(chunk).enumerate() {
        let churn: Vec<R> = records[churn_window(initial, j, 4)]
            .iter()
            .filter(|record| !pending.iter().any(|p| p.id() == record.id()))
            .cloned()
            .collect();
        batches.push(UpsertBatch {
            inserts: slice.iter().cloned().chain(pending.drain(..)).collect(),
            updates: Vec::new(),
            deletes: churn.iter().map(|record| record.id()).collect(),
        });
        pending = churn;
    }
    if !pending.is_empty() {
        batches.push(UpsertBatch::inserting(pending));
    }
    batches
}

fn security_lineup<'a>() -> Vec<Box<dyn Blocker<SecurityRecord> + 'a>> {
    vec![
        Box::new(SecurityIdOverlap),
        Box::new(TokenOverlap::new(TokenOverlapConfig::default())),
    ]
}

fn company_lineup<'a>() -> Vec<Box<dyn Blocker<CompanyRecord> + 'a>> {
    vec![Box::new(TokenOverlap::new(TokenOverlapConfig::default()))]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gralmatch-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create recovery scratch dir");
    dir
}

/// Tight policy so the crash points cover every recovery shape: fresh
/// checkpoint with an empty log, snapshot + partial log, and a log right
/// at the threshold boundary.
fn tight_policy() -> CheckpointPolicy {
    CheckpointPolicy {
        max_wal_batches: 2,
        max_wal_bytes: u64::MAX,
        fsync: false,
    }
}

/// The property: crash after `j` applied batches, recover, and the engine
/// must equal the oracle prefix — for every `j`, in every domain.
fn crash_at_every_prefix<R>(records: &[R], lineup: fn() -> Vec<Box<dyn Blocker<R>>>, tag: &str)
where
    R: Record + Clone + Sync + BinRecord + 'static,
{
    let config = PipelineConfig::new(25, 5);
    let plan = ShardPlan::new(2);
    let initial = records.len() * 3 / 5;
    let batches = batch_sequence(records, initial, 5);
    assert!(
        batches.iter().any(|batch| !batch.deletes.is_empty()),
        "the sequence must bear deletes to exercise retraction"
    );

    // Oracle: normalized groups after every prefix, in memory.
    let mut oracle = Vec::new();
    let (mut engine, _) = MatchEngine::bootstrap(
        plan,
        records[..initial].to_vec(),
        lineup(),
        scorer_provider::<R>(None),
        config.clone(),
    )
    .expect("oracle bootstrap");
    oracle.push(normalize(&engine.groups()));
    for batch in &batches {
        engine.apply_batch(batch).expect("oracle batch applies");
        oracle.push(normalize(&engine.groups()));
    }

    let dir = scratch_dir(tag);
    for j in 0..=batches.len() {
        let snapshot_path = dir.join(format!("crash-{j}.bin"));
        {
            let (mut engine, _) = MatchEngine::bootstrap(
                plan,
                records[..initial].to_vec(),
                lineup(),
                scorer_provider::<R>(None),
                config.clone(),
            )
            .expect("durable bootstrap");
            engine
                .enable_durability(&snapshot_path, tight_policy())
                .expect("enable durability");
            for batch in &batches[..j] {
                engine.apply_batch(batch).expect("durable batch applies");
            }
            // Crash: drop without a final checkpoint.
        }
        let (mut recovered, report) = recover_engine(
            &snapshot_path,
            lineup(),
            scorer_provider::<R>(None),
            config.clone(),
            tight_policy(),
        )
        .expect("recovery succeeds");
        assert!(!report.truncated_tail, "clean crash left no torn frame");
        assert_eq!(report.batches_skipped, 0, "clean crash left no stale frame");
        assert_eq!(
            report.snapshot_epoch as usize + report.batches_replayed,
            j + 1,
            "crash point {j}: snapshot epoch + replayed frames must land on the crash epoch"
        );
        assert_eq!(
            recovered.snapshot().epoch(),
            j as u64 + 1,
            "crash point {j}: recovered epoch"
        );
        assert_eq!(
            normalize(&recovered.groups()),
            oracle[j],
            "crash point {j}: recovered groups diverged from the oracle prefix"
        );
        // Recovery re-arms durability: the engine keeps accepting batches
        // and ends equal to the full oracle run.
        assert!(recovered.is_durable());
        for batch in &batches[j..] {
            recovered
                .apply_batch(batch)
                .expect("post-recovery batch applies");
        }
        assert_eq!(
            normalize(&recovered.groups()),
            oracle[batches.len()],
            "crash point {j}: post-recovery catch-up diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn securities_recover_exactly_at_every_crash_point() {
    let data = dataset(31);
    crash_at_every_prefix(data.securities.records(), security_lineup, "sec");
}

#[test]
fn companies_recover_exactly_at_every_crash_point() {
    let data = dataset(47);
    crash_at_every_prefix(data.companies.records(), company_lineup, "comp");
}

/// Normalized oracle groups per batch prefix.
type PrefixOracle = Vec<Vec<Vec<RecordId>>>;

/// Prepare a durable securities engine with `applied` batches applied,
/// then "crash" it. Returns the snapshot path, the full batch sequence,
/// and the oracle groups per prefix.
fn crashed_securities(
    dir: &Path,
    applied: usize,
) -> (PathBuf, Vec<UpsertBatch<SecurityRecord>>, PrefixOracle) {
    let data = dataset(59);
    let records = data.securities.records();
    let config = PipelineConfig::new(25, 5);
    let initial = records.len() * 3 / 5;
    let batches = batch_sequence(records, initial, 4);
    assert!(applied < batches.len());

    let mut oracle = Vec::new();
    let (mut engine, _) = MatchEngine::bootstrap(
        ShardPlan::new(2),
        records[..initial].to_vec(),
        security_lineup(),
        scorer_provider::<SecurityRecord>(None),
        config.clone(),
    )
    .expect("oracle bootstrap");
    oracle.push(normalize(&engine.groups()));
    for batch in &batches {
        engine.apply_batch(batch).expect("oracle batch applies");
        oracle.push(normalize(&engine.groups()));
    }

    let snapshot_path = dir.join("state.bin");
    let (mut engine, _) = MatchEngine::bootstrap(
        ShardPlan::new(2),
        records[..initial].to_vec(),
        security_lineup(),
        scorer_provider::<SecurityRecord>(None),
        config,
    )
    .expect("durable bootstrap");
    // Generous policy: every applied batch stays in the WAL.
    let policy = CheckpointPolicy {
        max_wal_batches: usize::MAX,
        max_wal_bytes: u64::MAX,
        fsync: false,
    };
    engine
        .enable_durability(&snapshot_path, policy)
        .expect("enable durability");
    for batch in &batches[..applied] {
        engine.apply_batch(batch).expect("durable batch applies");
    }
    (snapshot_path, batches, oracle)
}

fn recover_securities(
    snapshot_path: &Path,
) -> gralmatch::util::Result<(
    MatchEngine<'static, SecurityRecord>,
    persist::RecoveryReport,
)> {
    recover_engine(
        snapshot_path,
        security_lineup(),
        scorer_provider::<SecurityRecord>(None),
        PipelineConfig::new(25, 5),
        CheckpointPolicy::default(),
    )
}

/// The write-ahead ordering: a batch whose frame reached the log but
/// whose apply never ran (crash between append and publish) is part of
/// the durable history and must be replayed.
#[test]
fn wal_frame_without_apply_is_replayed() {
    let dir = scratch_dir("midbatch");
    let (snapshot_path, batches, oracle) = crashed_securities(&dir, 2);
    // Simulate the torn apply: frame 3 lands in the WAL, the in-memory
    // apply never happens.
    let mut wal = WalWriter::open(&persist::wal_path(&snapshot_path), false).expect("reopen WAL");
    assert_eq!(wal.frames(), 2, "two applied batches sit in the log");
    wal.append(wal.last_seq() + 1, &persist::encode_batch(&batches[2]))
        .expect("append unapplied frame");
    drop(wal);

    let (recovered, report) = recover_securities(&snapshot_path).expect("recovery succeeds");
    assert_eq!(report.batches_replayed, 3);
    assert!(!report.truncated_tail);
    assert_eq!(
        normalize(&recovered.groups()),
        oracle[3],
        "the logged-but-unapplied batch must be part of the recovered state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash *between* a checkpoint's snapshot write and its WAL truncate
/// leaves a snapshot that already incorporates every logged frame.
/// Recovery must skip those frames by seq — replaying one would
/// double-apply its inserts/deletes, fail validation, and leave the
/// store unrecoverable after a routine auto-checkpoint crash.
#[test]
fn interrupted_checkpoint_never_replays_incorporated_frames() {
    let dir = scratch_dir("ckpt");
    let (snapshot_path, batches, oracle) = crashed_securities(&dir, 3);
    // Simulate the interrupted checkpoint: rewrite the snapshot at the
    // fully-applied state (exactly what `checkpoint` writes) and leave
    // the three logged frames in place.
    {
        let (engine, report) = recover_securities(&snapshot_path).expect("staging recovery");
        assert_eq!(report.batches_replayed, 3);
        let bytes = persist::encode_state(
            engine.state(),
            engine.snapshot().epoch(),
            engine.stats().batches_applied,
        );
        persist::write_atomic(&snapshot_path, &bytes, false).expect("write snapshot");
    }

    let (mut recovered, report) = recover_securities(&snapshot_path).expect("recovery succeeds");
    assert_eq!(
        report.batches_skipped, 3,
        "the snapshot already incorporates every logged frame"
    );
    assert_eq!(report.batches_replayed, 0);
    assert!(!report.truncated_tail);
    assert_eq!(normalize(&recovered.groups()), oracle[3]);
    // The re-armed engine keeps accepting batches past the stale frames.
    for batch in &batches[3..] {
        recovered
            .apply_batch(batch)
            .expect("post-recovery batch applies");
    }
    assert_eq!(normalize(&recovered.groups()), oracle[batches.len()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated final frame (torn write at crash) is dropped cleanly: the
/// complete prefix replays, and the report flags the torn tail.
#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let dir = scratch_dir("torn");
    let (snapshot_path, _, oracle) = crashed_securities(&dir, 3);
    let wal = persist::wal_path(&snapshot_path);
    let len = std::fs::metadata(&wal).expect("WAL exists").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open WAL");
    file.set_len(len - 3).expect("tear the final frame");
    drop(file);

    let (recovered, report) = recover_securities(&snapshot_path).expect("recovery succeeds");
    assert!(report.truncated_tail, "the torn frame must be reported");
    assert_eq!(report.batches_replayed, 2, "only complete frames replay");
    assert_eq!(normalize(&recovered.groups()), oracle[2]);
    // The torn bytes are gone from the re-armed log: a fresh recovery
    // sees a clean two-frame WAL.
    let (_, report) = recover_securities(&snapshot_path).expect("second recovery succeeds");
    assert!(!report.truncated_tail);
    assert_eq!(report.batches_replayed, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged snapshot must refuse to load — [`Error::Corrupt`], not a
/// panic and not a silently wrong engine.
#[test]
fn flipped_snapshot_byte_is_refused_as_corrupt() {
    let dir = scratch_dir("corrupt");
    let (snapshot_path, _, _) = crashed_securities(&dir, 1);
    let mut bytes = std::fs::read(&snapshot_path).expect("read snapshot");
    let last = bytes.len() - 9; // inside the final section's payload
    bytes[last] ^= 0x01;
    std::fs::write(&snapshot_path, &bytes).expect("write damaged snapshot");

    let err = match recover_securities(&snapshot_path) {
        Ok(_) => panic!("damaged snapshot must not load"),
        Err(err) => err,
    };
    assert!(
        matches!(err, Error::Corrupt(_)),
        "expected Error::Corrupt, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The blocking index is derived state and never persisted: a recovered
/// engine starts without one, rebuilds each shard's entry the first time a
/// batch touches it (one full recount of that shard), and from then on
/// re-blocks by delta like the engine that never stopped — holding the same
/// candidates, with the same provenance, after every further batch.
#[test]
fn recovered_engine_rebuilds_its_blocking_index_on_first_touch() {
    let data = dataset(83);
    let records = data.securities.records();
    let config = PipelineConfig::new(25, 5);
    let initial = records.len() * 3 / 5;
    let mut batches = batch_sequence(records, initial, 4);
    // First after the recovery: a one-record rename, which a warm index
    // answers from the record's token neighbourhood and a fresh one by
    // recounting the record's shard.
    let mut renamed = records[0].clone();
    renamed.name.push_str(" Requalified");
    batches.insert(
        2,
        UpsertBatch {
            updates: vec![renamed],
            ..UpsertBatch::new()
        },
    );

    let bootstrap = || {
        MatchEngine::bootstrap(
            ShardPlan::new(2),
            records[..initial].to_vec(),
            security_lineup(),
            scorer_provider::<SecurityRecord>(None),
            config.clone(),
        )
        .expect("bootstrap")
        .0
    };
    let mut oracle = bootstrap();
    let dir = scratch_dir("reblock");
    let snapshot_path = dir.join("state.bin");
    {
        let mut durable = bootstrap();
        durable
            .enable_durability(&snapshot_path, CheckpointPolicy::default())
            .expect("enable durability");
        for batch in &batches[..2] {
            oracle.apply_batch(batch).expect("oracle batch applies");
            durable.apply_batch(batch).expect("durable batch applies");
        }
        // Checkpoint, so recovery replays nothing and the first batch
        // after it is the index's first touch.
        durable.checkpoint().expect("checkpoint");
    }
    let (mut recovered, report) = recover_securities(&snapshot_path).expect("recovery succeeds");
    assert_eq!(report.batches_replayed, 0);

    let mut affected = Vec::new();
    for (j, batch) in batches.iter().enumerate().skip(2) {
        let expected = oracle.apply_batch(batch).expect("oracle batch applies");
        let outcome = recovered
            .apply_batch(batch)
            .expect("post-recovery batch applies");
        affected.push((
            outcome.blocking_affected_records,
            expected.blocking_affected_records,
        ));
        let (standing, reference) = (recovered.state().candidates(), oracle.state().candidates());
        assert_eq!(
            standing.pairs_sorted(),
            reference.pairs_sorted(),
            "batch {j}: candidate pairs"
        );
        for (pair, flags) in reference.iter() {
            assert_eq!(standing.provenance(pair), flags, "batch {j}: {pair:?}");
        }
        assert_eq!(
            recovered.state().predicted().sorted(),
            oracle.state().predicted().sorted()
        );
        assert_eq!(
            normalize(&recovered.groups()),
            normalize(&oracle.groups()),
            "batch {j}: groups"
        );
    }
    let (first, last) = (affected[0], affected[affected.len() - 1]);
    assert!(
        first.0 > first.1,
        "first touch after recovery recounts whole shards: {first:?}"
    );
    assert_eq!(last.0, last.1, "both indexes warm by the last batch");
    let _ = std::fs::remove_dir_all(&dir);
}
