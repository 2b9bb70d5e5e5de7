//! Crash-safe binary persistence: [`PipelineState`] snapshots + a
//! write-ahead log of applied [`UpsertBatch`]es.
//!
//! The JSON codec on [`PipelineState`] stays the debug/export format;
//! production durability goes through this module instead:
//!
//! * **Snapshot** — a single file (`SNAPSHOT_MAGIC` + format version)
//!   of checksummed sections (header, string table, records, per-shard
//!   candidate sets, global set, predicted edges, cleaned edges), each
//!   a contiguous little-endian table mirroring the in-memory layout, so
//!   loading is a near-sequential read with no per-value text parsing.
//!   The header carries the engine's published epoch and batch counter,
//!   so a resumed engine serves from exactly the persisted epoch.
//! * **WAL** — an append-only log (`WAL_MAGIC` + version, then
//!   `[len u64][seq u64][payload][checksum64(seq ‖ payload) u64]` frames,
//!   one encoded batch each, where `seq` is the engine's batch counter
//!   after the batch applies — strictly increasing across checkpoints).
//!   [`MatchEngine::apply_batch`] appends the batch *before* applying it;
//!   recovery loads the last snapshot, skips frames the snapshot already
//!   incorporates (`seq` at or below the header's batch counter — the
//!   crash-between-snapshot-and-truncate case), and replays the rest,
//!   truncating a torn final frame instead of failing. Frames are flushed
//!   per batch and optionally fsynced ([`CheckpointPolicy::fsync`]).
//! * **Checkpoint** — atomically (temp file + rename, fsynced when the
//!   policy asks) rewrite the snapshot at the current epoch and truncate
//!   the WAL, driven by the batch/byte thresholds in [`CheckpointPolicy`]
//!   or an explicit [`MatchEngine::checkpoint`] call.
//!
//! Both file kinds are canonical: equal states encode to identical
//! bytes regardless of mutation history (records sorted by id, candidate
//! and edge tables sorted), mirroring the JSON codec's guarantee.
//!
//! [`MatchEngine::apply_batch`]: crate::engine::MatchEngine::apply_batch
//! [`MatchEngine::checkpoint`]: crate::engine::MatchEngine::checkpoint

use crate::engine::{MatchEngine, ScorerProvider};
use crate::incremental::{PipelineState, StateParts, UpsertBatch};
use crate::pipeline::PipelineConfig;
use crate::shard::{ShardKey, ShardPlan};
use gralmatch_blocking::{Blocker, CandidateSet};
use gralmatch_records::{Record, RecordId, RecordPair};
use gralmatch_util::binfmt::{
    check_magic, checksum64, read_section, write_magic, write_section, BinReader, BinRecord,
    BinWriter, StringTable, MAGIC_LEN,
};
use gralmatch_util::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Leading magic of a binary state snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GMSN";
/// Leading magic of a write-ahead log file.
pub const WAL_MAGIC: [u8; 4] = *b"GMWL";

// Snapshot section tags, in file order.
const SEC_HEADER: u8 = 1;
const SEC_STRINGS: u8 = 2;
const SEC_RECORDS: u8 = 3;
const SEC_LOCAL: u8 = 4;
const SEC_GLOBAL: u8 = 5;
const SEC_PREDICTED: u8 = 6;
const SEC_CLEANED: u8 = 7;

/// When the engine folds the WAL back into a fresh snapshot.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many batches sit in the WAL.
    pub max_wal_batches: usize,
    /// Checkpoint once the WAL grows past this many bytes.
    pub max_wal_bytes: u64,
    /// `fsync` the WAL after every append (and the log after header
    /// writes/truncation), and `sync_all` checkpoint snapshot/sidecar
    /// temp files before their renames (plus the parent directory after)
    /// so checkpoints survive power loss, not just process crashes. Off
    /// by default: the serving benchmarks measure encode+write cost, and
    /// tests exercise clean-process crashes.
    pub fsync: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            max_wal_batches: 256,
            max_wal_bytes: 64 << 20,
            fsync: false,
        }
    }
}

/// What a checkpoint wrote.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    /// The published epoch captured in the snapshot header.
    pub epoch: u64,
    /// Size of the snapshot file.
    pub snapshot_bytes: u64,
}

/// What [`recover_engine`] found on disk.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Epoch the snapshot was checkpointed at.
    pub snapshot_epoch: u64,
    /// Complete WAL frames replayed on top of the snapshot.
    pub batches_replayed: usize,
    /// Complete WAL frames the snapshot already incorporated (their seq
    /// was at or below the snapshot's batch counter): the residue of a
    /// crash between a checkpoint's snapshot write and its WAL truncate.
    pub batches_skipped: usize,
    /// Whether a torn final frame was detected (and truncated away).
    pub truncated_tail: bool,
}

/// The WAL path paired with a snapshot path: `<snapshot>.wal`.
pub fn wal_path(snapshot_path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.wal", snapshot_path.display()))
}

/// The scorer-fingerprint sidecar next to a snapshot: `<snapshot>.scorer`
/// (same convention as the serve layer's JSON states).
pub fn fingerprint_path(snapshot_path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.scorer", snapshot_path.display()))
}

/// Write `bytes` to `path` atomically: a sibling temp file + rename, so a
/// crash mid-write can never leave a torn file under the real name.
///
/// With `fsync`, the temp file is `sync_all`ed before the rename and the
/// parent directory is fsynced after it, so the contents *and* the rename
/// survive power loss — without it the write is atomic against process
/// crashes only (the OS may reorder the rename ahead of the data).
pub fn write_atomic(path: &Path, bytes: &[u8], fsync: bool) -> Result<()> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if fsync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, path)?;
    if fsync {
        let parent = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Whether `bytes` begin like a binary snapshot (vs the JSON state
/// format, whose first byte is `{`).
pub fn is_binary_state(bytes: &[u8]) -> bool {
    bytes.starts_with(&SNAPSHOT_MAGIC)
}

fn shard_key_tag(key: ShardKey) -> u8 {
    match key {
        ShardKey::Entity => 0,
        ShardKey::Source => 1,
    }
}

fn shard_key_from_tag(tag: u8) -> Result<ShardKey> {
    match tag {
        0 => Ok(ShardKey::Entity),
        1 => Ok(ShardKey::Source),
        _ => Err(Error::Corrupt(format!("shard key tag {tag}"))),
    }
}

fn encode_candidate_set(set: &CandidateSet, w: &mut BinWriter) {
    let mut entries: Vec<(RecordPair, u8)> = set.iter().collect();
    entries.sort_unstable_by_key(|(pair, _)| *pair);
    w.put_u32(entries.len() as u32);
    for (pair, flags) in entries {
        w.put_u32(pair.a.0);
        w.put_u32(pair.b.0);
        w.put_u8(flags);
    }
}

fn decode_candidate_set(r: &mut BinReader<'_>) -> Result<CandidateSet> {
    let count = r.get_u32()? as usize;
    // 9 bytes per entry bounds `count` from the section length, so a
    // corrupt huge count cannot trigger a giant reservation.
    let mut set = CandidateSet::new();
    set.reserve(count.min(r.remaining() / 9 + 1));
    for _ in 0..count {
        let a = r.get_u32()?;
        let b = r.get_u32()?;
        let flags = r.get_u8()?;
        if a >= b {
            return Err(Error::Corrupt(format!(
                "candidate pair ({a}, {b}) is not canonical (a < b)"
            )));
        }
        if flags == 0 {
            return Err(Error::Corrupt(format!(
                "candidate pair ({a}, {b}) with empty provenance"
            )));
        }
        set.add_flags(RecordPair::new(RecordId(a), RecordId(b)), flags);
    }
    Ok(set)
}

fn encode_pairs(pairs: &[RecordPair], w: &mut BinWriter) {
    w.put_u32(pairs.len() as u32);
    for pair in pairs {
        w.put_u32(pair.a.0);
        w.put_u32(pair.b.0);
    }
}

fn decode_pairs(r: &mut BinReader<'_>) -> Result<Vec<RecordPair>> {
    let count = r.get_u32()? as usize;
    let mut pairs = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        let a = r.get_u32()?;
        let b = r.get_u32()?;
        if a >= b {
            return Err(Error::Corrupt(format!(
                "edge ({a}, {b}) is not canonical (a < b)"
            )));
        }
        pairs.push(RecordPair::new(RecordId(a), RecordId(b)));
    }
    Ok(pairs)
}

/// A decoded snapshot: the state plus the engine counters persisted with
/// it, so a resumed engine publishes from exactly the saved epoch.
#[derive(Debug)]
pub struct StateSnapshot<R> {
    /// The reconstructed pipeline state.
    pub state: PipelineState<R>,
    /// Published epoch at checkpoint time.
    pub epoch: u64,
    /// Engine batch counter at checkpoint time.
    pub batches_applied: usize,
}

/// Encode a state (plus the engine counters that belong in the header)
/// into the binary snapshot format. Canonical: equal states produce
/// identical bytes.
pub fn encode_state<R>(state: &PipelineState<R>, epoch: u64, batches_applied: usize) -> Vec<u8>
where
    R: Record + Clone + Sync + BinRecord,
{
    // Records are encoded first (sorted by id, like the JSON codec) so
    // the string table they intern into can be written ahead of them.
    let mut strings = StringTable::new();
    let mut records = BinWriter::new();
    let mut by_id: Vec<&R> = state.live_records().iter().collect();
    by_id.sort_unstable_by_key(|record| record.id());
    records.put_u32(by_id.len() as u32);
    for record in by_id {
        record.encode_bin(&mut records, &mut strings);
    }

    let plan = state.plan();
    let mut header = BinWriter::new();
    header.put_u64(epoch);
    header.put_u64(batches_applied as u64);
    header.put_u64(plan.num_shards as u64);
    header.put_u8(shard_key_tag(plan.key));
    header.put_u64(state.num_ids() as u64);

    let mut string_section = BinWriter::new();
    strings.write(&mut string_section);

    let mut local = BinWriter::new();
    local.put_u32(state.local_sets().len() as u32);
    for set in state.local_sets() {
        encode_candidate_set(set, &mut local);
    }
    let mut global = BinWriter::new();
    encode_candidate_set(state.global_set(), &mut global);

    let mut predicted = BinWriter::new();
    encode_pairs(&state.predicted().sorted(), &mut predicted);

    let mut cleaned_edges: Vec<RecordPair> = state
        .cleaned()
        .edges()
        .map(|edge| RecordPair::new(RecordId(edge.a), RecordId(edge.b)))
        .collect();
    cleaned_edges.sort_unstable();
    let mut cleaned = BinWriter::new();
    encode_pairs(&cleaned_edges, &mut cleaned);

    let mut out = BinWriter::new();
    write_magic(&mut out, &SNAPSHOT_MAGIC);
    write_section(&mut out, SEC_HEADER, header.as_bytes());
    write_section(&mut out, SEC_STRINGS, string_section.as_bytes());
    write_section(&mut out, SEC_RECORDS, records.as_bytes());
    write_section(&mut out, SEC_LOCAL, local.as_bytes());
    write_section(&mut out, SEC_GLOBAL, global.as_bytes());
    write_section(&mut out, SEC_PREDICTED, predicted.as_bytes());
    write_section(&mut out, SEC_CLEANED, cleaned.as_bytes());
    out.into_bytes()
}

/// Decode a snapshot written by [`encode_state`], validating magic,
/// format version, and every section checksum, then rebuilding the
/// derived indexes exactly like the JSON decoder does.
pub fn decode_state<R>(bytes: &[u8]) -> Result<StateSnapshot<R>>
where
    R: Record + Clone + Sync + BinRecord,
{
    let mut r = BinReader::new(bytes);
    check_magic(&mut r, &SNAPSHOT_MAGIC)?;

    let header = read_section(&mut r, SEC_HEADER)?;
    let mut h = BinReader::new(header);
    let epoch = h.get_u64()?;
    let batches_applied = h.get_u64()? as usize;
    let num_shards = h.get_u64()? as usize;
    let key = shard_key_from_tag(h.get_u8()?)?;
    let num_ids = h.get_u64()? as usize;
    let plan = ShardPlan::new(num_shards.max(1)).with_key(key);
    if num_shards == 0 {
        return Err(Error::Corrupt("snapshot header with zero shards".into()));
    }

    let string_section = read_section(&mut r, SEC_STRINGS)?;
    let strings = StringTable::read(&mut BinReader::new(string_section))?;

    let record_section = read_section(&mut r, SEC_RECORDS)?;
    let mut rr = BinReader::new(record_section);
    let count = rr.get_u32()? as usize;
    let mut records = Vec::with_capacity(count.min(record_section.len()));
    for _ in 0..count {
        records.push(R::decode_bin(&mut rr, &strings)?);
    }

    let local_section = read_section(&mut r, SEC_LOCAL)?;
    let mut lr = BinReader::new(local_section);
    let num_sets = lr.get_u32()? as usize;
    let mut local = Vec::with_capacity(num_sets.min(local_section.len()));
    for _ in 0..num_sets {
        local.push(decode_candidate_set(&mut lr)?);
    }

    let global_section = read_section(&mut r, SEC_GLOBAL)?;
    let global = decode_candidate_set(&mut BinReader::new(global_section))?;

    let predicted_section = read_section(&mut r, SEC_PREDICTED)?;
    let predicted = decode_pairs(&mut BinReader::new(predicted_section))?;

    let cleaned_section = read_section(&mut r, SEC_CLEANED)?;
    let cleaned_edges = decode_pairs(&mut BinReader::new(cleaned_section))?;

    let state = PipelineState::from_parts(StateParts {
        plan,
        num_ids,
        records,
        local,
        global,
        predicted,
        cleaned_edges,
    })
    .map_err(Error::Corrupt)?;
    Ok(StateSnapshot {
        state,
        epoch,
        batches_applied,
    })
}

/// Encode one [`UpsertBatch`] as a WAL frame payload: a per-frame string
/// table followed by the insert/update/delete tables.
pub fn encode_batch<R: BinRecord>(batch: &UpsertBatch<R>) -> Vec<u8> {
    let mut strings = StringTable::new();
    let mut body = BinWriter::new();
    body.put_u32(batch.inserts.len() as u32);
    for record in &batch.inserts {
        record.encode_bin(&mut body, &mut strings);
    }
    body.put_u32(batch.updates.len() as u32);
    for record in &batch.updates {
        record.encode_bin(&mut body, &mut strings);
    }
    body.put_u32(batch.deletes.len() as u32);
    for RecordId(id) in &batch.deletes {
        body.put_u32(*id);
    }
    let mut out = BinWriter::new();
    strings.write(&mut out);
    out.put_bytes(body.as_bytes());
    out.into_bytes()
}

/// Decode a payload written by [`encode_batch`].
pub fn decode_batch<R: BinRecord>(bytes: &[u8]) -> Result<UpsertBatch<R>> {
    let mut r = BinReader::new(bytes);
    let strings = StringTable::read(&mut r)?;
    let mut batch = UpsertBatch::new();
    let inserts = r.get_u32()? as usize;
    for _ in 0..inserts {
        batch.inserts.push(R::decode_bin(&mut r, &strings)?);
    }
    let updates = r.get_u32()? as usize;
    for _ in 0..updates {
        batch.updates.push(R::decode_bin(&mut r, &strings)?);
    }
    let deletes = r.get_u32()? as usize;
    for _ in 0..deletes {
        batch.deletes.push(RecordId(r.get_u32()?));
    }
    if !r.is_empty() {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after batch payload",
            r.remaining()
        )));
    }
    Ok(batch)
}

/// One pass over raw WAL bytes: complete checksummed frames plus where
/// the valid prefix ends.
struct WalScan {
    /// `(seq, payload start, payload len)` per complete frame.
    frames: Vec<(u64, usize, usize)>,
    valid_len: u64,
    torn: bool,
    header_missing: bool,
    /// Seq of the last complete frame (0 when there is none).
    last_seq: u64,
}

fn scan_wal(bytes: &[u8]) -> Result<WalScan> {
    if bytes.is_empty() {
        return Ok(WalScan {
            frames: Vec::new(),
            valid_len: 0,
            torn: false,
            header_missing: true,
            last_seq: 0,
        });
    }
    if bytes.len() < MAGIC_LEN {
        // A crash while writing the 5-byte header: treat as torn, not
        // corrupt — there is nothing to lose yet.
        return Ok(WalScan {
            frames: Vec::new(),
            valid_len: 0,
            torn: true,
            header_missing: true,
            last_seq: 0,
        });
    }
    check_magic(&mut BinReader::new(bytes), &WAL_MAGIC)?;
    let mut frames = Vec::new();
    let mut pos = MAGIC_LEN;
    let mut torn = false;
    let mut last_seq = 0;
    while pos < bytes.len() {
        let remaining = (bytes.len() - pos) as u64;
        if remaining < 8 {
            torn = true;
            break;
        }
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        // Checked: `len` is untrusted on-disk data, and a torn/corrupt
        // length near u64::MAX must read as a torn tail, not overflow
        // the bounds check and panic on the slice below.
        let frame_total = match len.checked_add(24) {
            Some(total) if remaining >= total => total as usize,
            _ => {
                torn = true;
                break;
            }
        };
        let len = len as usize;
        let seq = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        let checksum =
            u64::from_le_bytes(bytes[pos + 16 + len..pos + 24 + len].try_into().unwrap());
        // The checksum covers seq + payload, so a damaged seq field is
        // caught exactly like a damaged payload.
        if checksum != checksum64(&bytes[pos + 8..pos + 16 + len]) {
            torn = true;
            break;
        }
        frames.push((seq, pos + 16, len));
        last_seq = seq;
        pos += frame_total;
    }
    // `pos` stops right after the last complete frame (or at the header
    // when there is none), so it is exactly the valid prefix length.
    Ok(WalScan {
        frames,
        valid_len: pos as u64,
        torn,
        header_missing: false,
        last_seq,
    })
}

/// One complete WAL frame: the engine batch sequence number it was
/// appended under, and its payload (a still-encoded batch; see
/// [`decode_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// The engine's batch counter after this batch applies. Strictly
    /// increasing across the log, *including* across checkpoints, so
    /// recovery can tell a frame the snapshot already incorporates from
    /// one it must replay.
    pub seq: u64,
    /// The frame payload.
    pub payload: Vec<u8>,
}

/// The complete frames of a WAL file, in append order.
pub struct WalReplay {
    /// Complete frames, in append order.
    pub frames: Vec<WalFrame>,
    /// Whether an incomplete/checksum-failing tail followed the last
    /// complete frame.
    pub torn: bool,
}

/// Read every complete frame of the WAL at `path`. A missing file is an
/// empty log; a torn tail stops the scan (reported, not an error); a bad
/// magic or format version **is** an error — that file is not a WAL.
pub fn read_wal(path: &Path) -> Result<WalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let scan = scan_wal(&bytes)?;
    Ok(WalReplay {
        frames: scan
            .frames
            .iter()
            .map(|&(seq, start, len)| WalFrame {
                seq,
                payload: bytes[start..start + len].to_vec(),
            })
            .collect(),
        torn: scan.torn,
    })
}

/// Append-only WAL writer. Opening validates the header (creating it for
/// a fresh file) and truncates any torn tail, so the on-disk log is
/// always a valid prefix once a writer holds it.
pub struct WalWriter {
    file: File,
    frames: usize,
    bytes: u64,
    last_seq: u64,
    fsync: bool,
}

impl WalWriter {
    /// Open (or create) the WAL at `path` for appending.
    pub fn open(path: &Path, fsync: bool) -> Result<Self> {
        let existing = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let scan = scan_wal(&existing)?;
        // Deliberately not truncating on open: the valid frame prefix is
        // the durable history; only the torn tail (if any) is cut below.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let valid_len = if scan.header_missing {
            let mut header = BinWriter::new();
            write_magic(&mut header, &WAL_MAGIC);
            file.set_len(0)?;
            file.write_all(header.as_bytes())?;
            MAGIC_LEN as u64
        } else {
            scan.valid_len
        };
        if valid_len < existing.len() as u64 {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        if fsync {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            frames: scan.frames.len(),
            bytes: valid_len,
            last_seq: scan.last_seq,
            fsync,
        })
    }

    /// Frames currently in the log (complete ones; a torn tail was
    /// dropped at open).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Log size in bytes, including the header.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Seq of the last frame in the log (0 when the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Append one frame:
    /// `[len u64][seq u64][payload][checksum64(seq ‖ payload) u64]`,
    /// flushed (and fsynced when the policy asks) before returning.
    /// `seq` must exceed every seq already in the log — recovery relies
    /// on it to order frames against the snapshot's batch counter.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> Result<()> {
        if seq <= self.last_seq {
            return Err(Error::InvalidConfig(format!(
                "WAL frame seq {seq} must exceed the log's last seq {}",
                self.last_seq
            )));
        }
        let mut frame = Vec::with_capacity(payload.len() + 24);
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(payload);
        let checksum = checksum64(&frame[8..]);
        frame.extend_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.frames += 1;
        self.bytes += frame.len() as u64;
        self.last_seq = seq;
        Ok(())
    }

    /// Drop every frame (checkpoint took them into the snapshot),
    /// leaving just the header.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(MAGIC_LEN as u64)?;
        self.file.seek(SeekFrom::Start(MAGIC_LEN as u64))?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.frames = 0;
        self.bytes = MAGIC_LEN as u64;
        self.last_seq = 0;
        Ok(())
    }
}

/// The engine-side durability bundle: the open WAL plus monomorphized
/// encode hooks, held as plain `fn` pointers so `MatchEngine` itself
/// never grows a [`BinRecord`] bound — only
/// [`MatchEngine::enable_durability`] requires it.
///
/// [`MatchEngine::enable_durability`]: crate::engine::MatchEngine::enable_durability
pub(crate) struct Durability<R> {
    pub(crate) wal: WalWriter,
    pub(crate) snapshot_path: PathBuf,
    pub(crate) policy: CheckpointPolicy,
    pub(crate) fingerprint: Option<String>,
    pub(crate) encode_batch: fn(&UpsertBatch<R>) -> Vec<u8>,
    pub(crate) encode_state: fn(&PipelineState<R>, u64, usize) -> Vec<u8>,
}

/// Recover an engine from its snapshot + WAL: decode the snapshot,
/// resume at the persisted epoch, replay every complete WAL frame the
/// snapshot does not already incorporate (a torn tail is truncated, not
/// an error), and re-arm durability on the same files so subsequent
/// batches keep appending where the log left off. The recovered engine
/// is bit-for-bit the engine that wrote the files — same groups, same
/// epoch — including after a crash between a WAL append and the
/// in-memory apply (the appended batch replays), and after a crash
/// between a checkpoint's snapshot write and its WAL truncate (the
/// already-incorporated frames carry a seq at or below the snapshot's
/// batch counter and are skipped, never double-applied).
pub fn recover_engine<'a, R>(
    snapshot_path: &Path,
    strategies: Vec<Box<dyn Blocker<R> + 'a>>,
    provider: Box<dyn ScorerProvider<R> + 'a>,
    config: PipelineConfig,
    policy: CheckpointPolicy,
) -> Result<(MatchEngine<'a, R>, RecoveryReport)>
where
    R: Record + Clone + Sync + BinRecord,
{
    let bytes = std::fs::read(snapshot_path)?;
    let snapshot = decode_state::<R>(&bytes)?;
    let mut engine = MatchEngine::from_state_at(
        snapshot.state,
        snapshot.epoch,
        snapshot.batches_applied,
        strategies,
        provider,
        config,
    );
    let replay = read_wal(&wal_path(snapshot_path))?;
    // A crash between a checkpoint's snapshot write and its WAL truncate
    // leaves a log whose leading frames the snapshot already folded in.
    // Replaying one would double-apply its inserts/deletes and fail
    // validation, so every frame with seq <= the snapshot's batch
    // counter is skipped; the survivors must then continue the counter
    // without a gap — a gap means the snapshot and log are not the same
    // lineage, which is corruption, not a crash artifact.
    let mut next_seq = snapshot.batches_applied as u64 + 1;
    let mut batches_replayed = 0;
    let mut batches_skipped = 0;
    for frame in &replay.frames {
        if frame.seq < next_seq {
            batches_skipped += 1;
            continue;
        }
        if frame.seq > next_seq {
            return Err(Error::Corrupt(format!(
                "WAL frame seq {} where {next_seq} was expected — the log does not continue \
                 the snapshot's batch counter",
                frame.seq
            )));
        }
        let batch = decode_batch::<R>(&frame.payload)?;
        engine.apply_batch(&batch)?;
        batches_replayed += 1;
        next_seq += 1;
    }
    // Re-arm on the same files: `WalWriter::open` drops the torn tail,
    // and the snapshot already matches the log prefix, so no checkpoint
    // is forced here — restart cost stays O(snapshot + tail). Skipped
    // frames stay in the log (harmless — every recovery skips them) and
    // are dropped by the next checkpoint.
    engine.attach_durability(snapshot_path.to_path_buf(), policy)?;
    Ok((
        engine,
        RecoveryReport {
            snapshot_epoch: snapshot.epoch,
            batches_replayed,
            batches_skipped,
            truncated_tail: replay.torn,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{MatchingDomain, SecurityDomain};
    use crate::engine::FixedScorerProvider;
    use crate::incremental::churn_window;
    use crate::pipeline::OracleScorer;
    use crate::shard::ShardPlan;
    use gralmatch_blocking::{SecurityIdOverlap, TokenOverlap, TokenOverlapConfig};
    use gralmatch_datagen::{generate, FinancialDataset, GenerationConfig};
    use gralmatch_records::SecurityRecord;
    use gralmatch_util::FxHashMap;

    fn dataset() -> FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 60;
        generate(&config).unwrap()
    }

    fn company_groups(data: &FinancialDataset) -> FxHashMap<RecordId, u32> {
        data.companies
            .records()
            .iter()
            .map(|company| (company.id, company.entity.unwrap().0))
            .collect()
    }

    fn security_lineup() -> Vec<Box<dyn Blocker<SecurityRecord>>> {
        vec![
            Box::new(SecurityIdOverlap),
            Box::new(TokenOverlap::new(TokenOverlapConfig::default())),
        ]
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gralmatch-persist-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Bootstrap 2/3 of the securities; the rest arrive as churn batches.
    fn bootstrap_engine<'a>(
        securities: &[SecurityRecord],
        scorer: &'a OracleScorer<'a>,
    ) -> MatchEngine<'a, SecurityRecord> {
        let split = securities.len() * 2 / 3;
        let (engine, _) = MatchEngine::bootstrap(
            ShardPlan::new(3),
            securities[..split].to_vec(),
            security_lineup(),
            Box::new(FixedScorerProvider(scorer)),
            PipelineConfig::new(25, 5),
        )
        .unwrap();
        engine
    }

    fn churn_batches(securities: &[SecurityRecord]) -> Vec<UpsertBatch<SecurityRecord>> {
        let split = securities.len() * 2 / 3;
        (0..3)
            .map(|j| {
                let window = churn_window(split, j, 7);
                UpsertBatch {
                    inserts: securities[split + j..split + j + 1].to_vec(),
                    updates: Vec::new(),
                    deletes: window.map(|i| securities[i].id).collect(),
                }
            })
            .collect()
    }

    fn normalized_groups<R: Record + Clone + Sync>(
        engine: &MatchEngine<'_, R>,
    ) -> Vec<Vec<RecordId>> {
        let mut groups = engine.groups();
        for group in &mut groups {
            group.sort_unstable();
        }
        groups.sort();
        groups
    }

    #[test]
    fn snapshot_round_trips_bit_for_bit() {
        let data = dataset();
        let securities = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let engine = bootstrap_engine(&securities, &scorer);

        let bytes = encode_state(engine.state(), 7, 3);
        let snapshot = decode_state::<SecurityRecord>(&bytes).unwrap();
        assert_eq!(snapshot.epoch, 7);
        assert_eq!(snapshot.batches_applied, 3);
        // Canonical: re-encoding the decoded state reproduces the bytes.
        assert_eq!(encode_state(&snapshot.state, 7, 3), bytes);
        // Equivalent to the JSON codec's view of the same state.
        use gralmatch_util::ToJson;
        assert_eq!(
            snapshot.state.to_json().to_pretty_string(),
            engine.state().to_json().to_pretty_string()
        );
    }

    #[test]
    fn snapshot_rejects_corruption_and_wrong_version() {
        let data = dataset();
        let securities = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let engine = bootstrap_engine(&securities, &scorer);
        let bytes = encode_state(engine.state(), 1, 1);

        // A flipped byte in any section payload fails its checksum.
        for offset in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x20;
            assert!(
                matches!(decode_state::<SecurityRecord>(&bad), Err(Error::Corrupt(_))),
                "flipped byte at {offset} must be detected"
            );
        }

        // Wrong format version byte is a coded error naming the version.
        let mut versioned = bytes.clone();
        versioned[4] = versioned[4].wrapping_add(1);
        let err = decode_state::<SecurityRecord>(&versioned).unwrap_err();
        assert!(err.to_string().contains("unsupported format version"));

        // Truncation is corrupt, not a panic.
        assert!(matches!(
            decode_state::<SecurityRecord>(&bytes[..bytes.len() / 2]),
            Err(Error::Corrupt(_))
        ));
        assert!(!is_binary_state(b"{\"plan\":{}}"));
        assert!(is_binary_state(&bytes));
    }

    #[test]
    fn batch_round_trips() {
        let data = dataset();
        let securities = data.securities.records().to_vec();
        for batch in churn_batches(&securities) {
            let payload = encode_batch(&batch);
            let decoded = decode_batch::<SecurityRecord>(&payload).unwrap();
            assert_eq!(decoded.inserts, batch.inserts);
            assert_eq!(decoded.updates, batch.updates);
            assert_eq!(decoded.deletes, batch.deletes);
        }
    }

    #[test]
    fn wal_appends_replays_and_truncates_torn_tail() {
        let dir = test_dir("wal");
        let path = dir.join("state.bin.wal");
        let mut wal = WalWriter::open(&path, false).unwrap();
        wal.append(1, b"alpha").unwrap();
        wal.append(2, b"beta-beta").unwrap();
        assert_eq!(wal.frames(), 2);
        assert_eq!(wal.last_seq(), 2);
        // A non-increasing seq is a caller bug, refused before the write.
        assert!(matches!(
            wal.append(2, b"stale"),
            Err(Error::InvalidConfig(_))
        ));
        drop(wal);

        let replay = read_wal(&path).unwrap();
        assert_eq!(
            replay.frames,
            vec![
                WalFrame {
                    seq: 1,
                    payload: b"alpha".to_vec()
                },
                WalFrame {
                    seq: 2,
                    payload: b"beta-beta".to_vec()
                },
            ]
        );
        assert!(!replay.torn);

        // Simulate a torn append: a frame header + partial payload.
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&(100u64).to_le_bytes()).unwrap();
        file.write_all(b"partial").unwrap();
        drop(file);

        let replay = read_wal(&path).unwrap();
        assert_eq!(
            replay.frames.len(),
            2,
            "torn tail must not hide good frames"
        );
        assert!(replay.torn);

        // Re-opening truncates the torn tail and appends cleanly after it.
        let mut wal = WalWriter::open(&path, false).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        assert_eq!(wal.frames(), 2);
        wal.append(wal.last_seq() + 1, b"gamma").unwrap();
        drop(wal);
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.frames.len(), 3);
        assert!(!replay.torn);

        // A torn length field reading near u64::MAX is a truncatable
        // tail like any other — never an arithmetic overflow/panic.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&u64::MAX.to_le_bytes()).unwrap();
        file.write_all(b"garbage").unwrap();
        drop(file);
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.frames.len(), 3);
        assert!(replay.torn);
        let wal = WalWriter::open(&path, false).unwrap();
        assert_eq!(wal.frames(), 3);
        assert_eq!(wal.last_seq(), 3);
        drop(wal);

        // A file that is not a WAL at all is a hard error.
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(read_wal(&path), Err(Error::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_engine_recovers_to_oracle_with_auto_checkpoints() {
        let dir = test_dir("recover");
        let snapshot_path = dir.join("state.bin");
        let data = dataset();
        let securities = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let batches = churn_batches(&securities);

        // Durable engine: checkpoint every 2 batches, so the run exercises
        // both an auto-checkpoint and a WAL tail.
        let policy = CheckpointPolicy {
            max_wal_batches: 2,
            ..CheckpointPolicy::default()
        };
        let mut durable = bootstrap_engine(&securities, &scorer);
        durable.enable_durability(&snapshot_path, policy).unwrap();
        for batch in &batches {
            durable.apply_batch(batch).unwrap();
        }
        let expected_epoch = durable.snapshot().epoch();
        let expected_groups = normalized_groups(&durable);
        let expected_batches = durable.stats().batches_applied;
        drop(durable);

        // 3 batches with a threshold of 2: one auto-checkpoint after the
        // second, one frame left in the WAL.
        let (recovered, report) = recover_engine::<SecurityRecord>(
            &snapshot_path,
            security_lineup(),
            Box::new(FixedScorerProvider(&scorer)),
            PipelineConfig::new(25, 5),
            policy,
        )
        .unwrap();
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(report.batches_skipped, 0);
        assert!(!report.truncated_tail);
        assert_eq!(report.snapshot_epoch, expected_epoch - 1);
        assert_eq!(recovered.snapshot().epoch(), expected_epoch);
        assert_eq!(recovered.stats().batches_applied, expected_batches);
        assert_eq!(normalized_groups(&recovered), expected_groups);
        assert!(recovered.is_durable());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash *between* a checkpoint's snapshot write and its WAL
    /// truncate leaves a snapshot that already incorporates the log's
    /// leading frames. Recovery must skip those (their seq sits at or
    /// below the snapshot's batch counter) instead of double-applying
    /// them — which would fail validation and brick the store.
    #[test]
    fn interrupted_checkpoint_skips_already_incorporated_frames() {
        let dir = test_dir("interrupted");
        let snapshot_path = dir.join("state.bin");
        let data = dataset();
        let securities = data.securities.records().to_vec();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(&securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let batches = churn_batches(&securities);

        // Thresholds high enough that no auto-checkpoint fires: the WAL
        // keeps all three frames.
        let mut durable = bootstrap_engine(&securities, &scorer);
        durable
            .enable_durability(&snapshot_path, CheckpointPolicy::default())
            .unwrap();
        for batch in &batches[..2] {
            durable.apply_batch(batch).unwrap();
        }
        // Interrupted checkpoint: the snapshot lands (incorporating the
        // two logged batches) but the WAL truncate never runs.
        let bytes = encode_state(
            durable.state(),
            durable.snapshot().epoch(),
            durable.stats().batches_applied,
        );
        write_atomic(&snapshot_path, &bytes, false).unwrap();
        // One more batch after the interrupted checkpoint: a mixed log
        // of incorporated frames and a live tail.
        durable.apply_batch(&batches[2]).unwrap();
        let expected_epoch = durable.snapshot().epoch();
        let expected_groups = normalized_groups(&durable);
        let expected_batches = durable.stats().batches_applied;
        drop(durable);

        let (recovered, report) = recover_engine::<SecurityRecord>(
            &snapshot_path,
            security_lineup(),
            Box::new(FixedScorerProvider(&scorer)),
            PipelineConfig::new(25, 5),
            CheckpointPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.batches_skipped, 2, "incorporated frames skipped");
        assert_eq!(report.batches_replayed, 1, "the live tail replays");
        assert_eq!(recovered.snapshot().epoch(), expected_epoch);
        assert_eq!(recovered.stats().batches_applied, expected_batches);
        assert_eq!(normalized_groups(&recovered), expected_groups);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
