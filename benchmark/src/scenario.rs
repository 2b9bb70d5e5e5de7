//! One run of one workload against the real `serve` process: set up,
//! serve under churn, burst, crash and recover, verify. The skeleton is the
//! same for every workload, so every workload reports every end-to-end
//! metric.

use crate::client::Connection;
use crate::probes;
use crate::server::{self, Server, ServerSpec};
use crate::spec::END_TO_END;
use crate::stats::{median, percentile, samples_beyond, tail_percentile};
use crate::workload::{hub_inputs, securities_inputs, Inputs, Plan, Workload};
use gralmatch_bench::serve::{
    bootstrap_tenant, lookup_response, HostSession, ServeCommand, ServeDomain,
};
use gralmatch_core::{group_metrics, EngineTenant, ShardPlan};
use gralmatch_records::{GroundTruth, RecordId};
use gralmatch_util::FxHashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The tenant every workload serves under.
pub const TENANT: &str = "bench";

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, count: u64) {
        self.attempted += count;
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// `count` operations failed the same way.
    pub fn fail_times(&mut self, count: u64, message: &str) {
        for _ in 0..count {
            self.fail(message.into());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

/// One measured value: metric name, value, and how many samples the
/// statistic was taken over.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    /// How the value was reduced from its samples (`median`, `p90`, …).
    pub statistic: String,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub tally: Tally,
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// CPU yardstick before and after the workload, in ms.
    pub yardstick_ms: (f64, f64),
    pub wall_seconds: f64,
    /// Every server process the run started (all reaped by the time the
    /// result exists).
    pub server_pids: Vec<u32>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    pub fn end_to_end_value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether the box sped up or slowed down by more than 10 % across the
    /// run, by the fixed CPU yardstick.
    pub fn disturbed(&self) -> bool {
        let (before, after) = self.yardstick_ms;
        (before - after).abs() / before.min(after) > 0.10
    }
}

/// Per-batch numbers parsed from the server's `applied …` reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppliedReply {
    pub server_seconds: f64,
    pub blocking_seconds: f64,
    pub inference_seconds: f64,
    pub merge_seconds: f64,
    pub pairs_scored: u64,
    pub components_recleaned: u64,
    pub groups: u64,
}

/// Everything the serve phase observed, for the end-to-end statistics and
/// the reply-derived per-layer metrics.
#[derive(Debug, Default)]
pub struct ServeObservations {
    pub apply_ms: Vec<f64>,
    pub applied: Vec<AppliedReply>,
    pub request_bytes: u64,
    pub checkpoint_ms: f64,
    pub reads: ReadObservations,
}

/// What the paced reader observed.
#[derive(Debug, Default)]
pub struct ReadObservations {
    pub lookup_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub reply_bytes: u64,
}

/// Run one workload once.
pub fn run_workload(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    traced: bool,
) -> Result<RunResult, String> {
    let binary = server::build_serve()?;
    let watch = Instant::now();
    let yardstick_before = yardstick_ms();
    let mut result = match workload {
        Workload::SecTrickle | Workload::SecBulk => {
            run(plan, seed, traced, &binary, securities_inputs)
        }
        Workload::HubChurn => run(plan, seed, traced, &binary, hub_inputs),
    }?;
    result.yardstick_ms = (yardstick_before, yardstick_ms());
    result.wall_seconds = watch.elapsed().as_secs_f64();
    if traced {
        let (before, after) = result.yardstick_ms;
        result
            .per_layer
            .push(("host.yardstick_ms", (before + after) / 2.0));
    }
    Ok(result)
}

/// A fixed amount of single-threaded integer work: the median of five
/// ~20 ms repetitions. Shorter slices read the box's clock jitter, not its
/// load.
pub fn yardstick_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let watch = Instant::now();
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            for _ in 0..12_000_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
            }
            std::hint::black_box(state);
            watch.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// A scratch directory under `benchmark/out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create(name: &str) -> Result<Scratch, String> {
        let path = server::out_root().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub(crate) fn io<T>(what: &str, result: std::io::Result<T>) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

/// One set-up round's products.
struct SetUp<R: ServeDomain> {
    inputs: Inputs<R>,
    /// The in-process engine the state file was written from; the per-layer
    /// probes run against it.
    session: HostSession,
    server: Server,
    spec: ServerSpec,
    load_seconds: f64,
    setup_seconds: f64,
}

/// Everything before the server answers `hello`: inputs from the seed, one
/// bulk load, the persisted state, the spawned process.
fn set_up<R: ServeDomain>(
    plan: &Plan,
    seed: u64,
    binary: &Path,
    dir: &Path,
    make_inputs: fn(&Plan, u64) -> Inputs<R>,
) -> Result<SetUp<R>, String> {
    let watch = Instant::now();
    let inputs = make_inputs(plan, seed);
    let state_path = dir.join("state.json");
    let mut tenant_spec = format!("{TENANT}:{}:{}", R::DOMAIN, state_path.display());
    if let Some(model) = &inputs.model {
        let model_path = dir.join("model.json");
        model
            .save(&model_path)
            .map_err(|e| format!("saving the model: {e:?}"))?;
        tenant_spec.push_str(&format!(":{}", model_path.display()));
    }

    let (tenant, load_seconds) = timed_load(plan, &inputs)?;

    let session = HostSession::single(TENANT, Box::new(tenant))
        .map_err(|e| format!("wrapping the tenant: {e:?}"))?;
    session.save_state(TENANT, &state_path.display().to_string())?;

    let spec = ServerSpec {
        binary: binary.to_path_buf(),
        tenant: tenant_spec,
        durable_dir: dir.join("durable"),
    };
    let server = Server::spawn(&spec)?;
    let hello = io(
        "hello",
        Connection::open(server.addr).and_then(|mut c| c.command("hello")),
    )?;
    if !hello.starts_with("hello gralmatch-serve") {
        return Err(format!("unexpected hello reply: {hello}"));
    }
    Ok(SetUp {
        inputs,
        session,
        server,
        spec,
        load_seconds,
        setup_seconds: watch.elapsed().as_secs_f64(),
    })
}

/// One bulk load of the initial population into a fresh engine, and the
/// seconds it took.
fn timed_load<R: ServeDomain>(
    plan: &Plan,
    inputs: &Inputs<R>,
) -> Result<(EngineTenant<R>, f64), String> {
    let population = inputs.initial.clone();
    let model = inputs.model.clone();
    let watch = Instant::now();
    let (tenant, _) = bootstrap_tenant::<R>(population, ShardPlan::new(plan.shards), model)
        .map_err(|e| format!("bootstrap: {e:?}"))?;
    Ok((tenant, watch.elapsed().as_secs_f64()))
}

fn run<R: ServeDomain>(
    plan: &Plan,
    seed: u64,
    traced: bool,
    binary: &Path,
    make_inputs: fn(&Plan, u64) -> Inputs<R>,
) -> Result<RunResult, String> {
    let scratch = Scratch::create(&format!(
        "{}-{seed}-{}",
        plan.workload.name(),
        std::process::id()
    ))?;
    let mut tally = Tally::default();
    // Each kind of run repeats the phases whose timing it reports: the
    // pipelined burst in an untraced run, bulk load and recovery (per-layer
    // metrics) in a traced one. An untraced run still crashes once, for the
    // durability check.
    let (burst_rounds, crash_rounds, extra_loads) = if traced {
        (1, plan.crash_rounds, plan.extra_loads)
    } else {
        (plan.burst_rounds, 1, 0)
    };

    // ── Phases 0 + 1: set up `setup_rounds` times; each round's bulk load
    // is one load sample, the last round's server is the one measured; then
    // `extra_loads` more loads, beside that (idle) server. ──
    let mut setup_seconds = Vec::new();
    let mut load_seconds = Vec::new();
    let mut kept = None;
    let mut server_pids = Vec::new();
    for round in 0..plan.setup_rounds {
        drop(kept.take());
        let dir = scratch.0.join(format!("round{round}"));
        io(
            "creating the round directory",
            std::fs::create_dir_all(&dir),
        )?;
        let round = set_up(plan, seed, binary, &dir, make_inputs)?;
        setup_seconds.push(round.setup_seconds);
        load_seconds.push(round.load_seconds);
        tally.ok(1);
        server_pids.push(round.server.pid());
        kept = Some(round);
    }
    let SetUp {
        inputs,
        session,
        mut server,
        spec,
        ..
    } = kept.expect("plans have ≥ 1 set-up round");
    for _ in 0..extra_loads {
        load_seconds.push(timed_load(plan, &inputs)?.1);
        tally.ok(1);
    }
    // Only the probes of a traced run use the in-process engine again; an
    // untraced run should not hold its tens of megabytes beside the server.
    let mut session = traced.then_some(session);

    // ── Phase 2: serve. One writer connection replays the batches closed
    // loop; one reader connection sends paced lookups. ──
    let (observed, serve_tally) = serve_phase(plan, &inputs, &server)?;
    tally.absorb(serve_tally);

    // The state is quiescent from here to the crash: dump every live
    // record's group over the socket. The dump is what gets verified.
    let mut connection = io("connecting", Connection::open(server.addr))?;
    let stats_before = stats_counters(&io("stats", connection.command("stats"))?);
    tally.ok(1);
    if stats_before.first() != Some(&(inputs.survivors.len() as u64)) {
        tally.fail(format!(
            "server holds {:?} live records, the op sequence leaves {}",
            stats_before.first(),
            inputs.survivors.len()
        ));
    }
    let survivor_ids: Vec<u32> = inputs.survivors.iter().map(|r| r.id().0).collect();
    let dump = dump_groups(&mut connection, &survivor_ids, &mut tally)?;

    // ── Phase 3: burst. Pipelined lookups against the static state, every
    // reply checked against the dump. ──
    let burst = burst_requests(plan, seed, &survivor_ids, &dump);
    let mut burst_rates = Vec::new();
    for _ in 0..burst_rounds {
        let mut wrong = 0u64;
        let elapsed = io(
            "pipelined burst",
            connection.pipelined(&burst.requests, |index, reply| {
                wrong += u64::from(reply != burst.expected[index]);
            }),
        )?;
        tally.ok(burst.requests.len() as u64);
        tally.fail_times(wrong, "a burst reply differs from the quiescent dump");
        burst_rates.push(burst.requests.len() as f64 / elapsed.as_secs_f64());
    }

    let socket_probes = if traced {
        Some(probes::socket(&mut connection, &server, &mut tally)?)
    } else {
        None
    };
    drop(connection);

    // ── Phase 4: crash. ──
    let peak_rss_mb = server.vm_hwm_kb().unwrap_or(0) as f64 / 1024.0;
    let disk_bytes = server::dir_bytes(&spec.durable_dir);
    let mut recovery_seconds = Vec::new();
    let mut recovery_lines = Vec::new();
    for _ in 0..crash_rounds {
        server.kill();
        let watch = Instant::now();
        server = Server::spawn(&spec)?;
        server_pids.push(server.pid());
        let mut connection = io("connecting", Connection::open(server.addr))?;
        let hello = io("hello", connection.command("hello"))?;
        let stats_after = stats_counters(&io("stats", connection.command("stats"))?);
        recovery_seconds.push(watch.elapsed().as_secs_f64());
        tally.ok(2);
        if !hello.starts_with("hello gralmatch-serve") {
            tally.fail(format!("unexpected hello after recovery: {hello}"));
        }
        // Every acked batch must be back: same counters, same groups.
        if stats_after != stats_before {
            tally.fail(format!(
                "stats after kill -9 {stats_after:?} differ from before {stats_before:?}"
            ));
        }
        let recovered = dump_groups(&mut connection, &survivor_ids, &mut tally)?;
        let lost = recovered.iter().zip(&dump).filter(|(a, b)| a != b).count();
        tally.fail_times(lost as u64, "a group changed across kill -9 + recovery");
        recovery_lines.extend(
            server
                .stderr()
                .into_iter()
                .filter(|line| line.contains(" recovered ")),
        );
    }
    server.kill();

    // ── Phase 5: verify against a one-shot bootstrap over the survivors,
    // and score the groups read over the socket against ground truth. ──
    let (oracle, _) = bootstrap_tenant::<R>(
        inputs.survivors.clone(),
        ShardPlan::new(plan.shards),
        inputs.model.clone(),
    )
    .map_err(|e| format!("oracle bootstrap: {e:?}"))?;
    let oracle_snapshot = oracle.engine().snapshot();
    for (&id, reply) in survivor_ids.iter().zip(&dump) {
        let expected = lookup_response(
            TENANT,
            &oracle_snapshot,
            &ServeCommand::GroupOf(RecordId(id)),
        )
        .expect("group_of is snapshot-answerable");
        if expected.as_deref() != Ok(reply.as_str()) {
            tally.fail(format!(
                "record {id}: served {reply:?}, one-shot oracle {expected:?}"
            ));
        }
    }
    let groups = groups_of_dump(&survivor_ids, &dump);
    let truth = GroundTruth::from_records(&inputs.survivors);
    let group_f1 = group_metrics(&groups, &truth).pairs.f1;

    // ── What the client saw: the end-to-end metrics, and the three timings
    // a traced run reports per layer. ──
    let apply_tail = tail_percentile(observed.apply_ms.len());
    let lookup_tail = tail_percentile(observed.reads.lookup_us.len());
    let median_of = |name, values: &[f64]| Measured {
        name,
        value: median(values),
        samples: values.len(),
        statistic: "median".into(),
    };
    let tail_of = |name, values: &[f64], p: f64| Measured {
        name,
        value: percentile(values, p),
        samples: values.len(),
        statistic: format!(
            "p{:.0} ({} beyond)",
            p * 100.0,
            samples_beyond(values.len(), p)
        ),
    };
    let single = |name, value| Measured {
        name,
        value,
        samples: 1,
        statistic: "value".into(),
    };
    let load_rates: Vec<f64> = load_seconds
        .iter()
        .map(|seconds| inputs.initial.len() as f64 / seconds)
        .collect();
    let client = vec![
        median_of("setup_s", &setup_seconds),
        median_of("load_records_per_s", &load_rates),
        median_of("apply_p50_ms", &observed.apply_ms),
        tail_of("apply_tail_ms", &observed.apply_ms, apply_tail),
        median_of("lookup_p50_us", &observed.reads.lookup_us),
        tail_of("lookup_tail_us", &observed.reads.lookup_us, lookup_tail),
        median_of("lookups_per_s", &burst_rates),
        median_of("recovery_s", &recovery_seconds),
        single("group_f1", group_f1),
        single("peak_rss_mb", peak_rss_mb),
        single(
            "disk_bytes_per_record",
            disk_bytes as f64 / inputs.survivors.len() as f64,
        ),
    ];

    let (end_to_end, demoted): (Vec<Measured>, Vec<Measured>) = client
        .into_iter()
        .partition(|m| END_TO_END.iter().any(|spec| spec.name == m.name));

    let mut per_layer = match socket_probes.zip(session.as_mut()) {
        Some((socket_probes, session)) => probes::per_layer(probes::Observed {
            plan,
            inputs: &inputs,
            session,
            scratch: &scratch.0,
            serve: &observed,
            socket: socket_probes,
            recovery_lines: &recovery_lines,
            lookup_p50_us: median(&observed.reads.lookup_us),
        })?,
        None => Vec::new(),
    };
    if traced {
        per_layer.extend(demoted.iter().map(|m| (m.name, m.value)));
    }

    Ok(RunResult {
        workload: plan.workload,
        seed,
        traced,
        tally,
        end_to_end,
        per_layer,
        yardstick_ms: (0.0, 0.0),
        wall_seconds: 0.0,
        server_pids,
    })
}

/// The writer and the reader of the serve phase, on one thread each.
fn serve_phase<R: ServeDomain>(
    plan: &Plan,
    inputs: &Inputs<R>,
    server: &Server,
) -> Result<(ServeObservations, Tally), String> {
    let addr = server.addr;
    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || write_batches(plan, inputs, addr));
        let reader = scope.spawn(move || paced_lookups(plan, &inputs.lookup_ids, addr));
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (mut observed, mut tally) = written?;
    let (reads, read_tally) = read?;
    observed.reads = reads;
    tally.absorb(read_tally);
    Ok((observed, tally))
}

fn write_batches<R: ServeDomain>(
    plan: &Plan,
    inputs: &Inputs<R>,
    addr: std::net::SocketAddr,
) -> Result<(ServeObservations, Tally), String> {
    let mut connection = io("writer connection", Connection::open(addr))?;
    let mut observed = ServeObservations::default();
    let mut tally = Tally::default();
    let total = inputs.lines.len();
    for (index, (line, batch)) in inputs.lines.iter().zip(&inputs.batches).enumerate() {
        std::thread::sleep(inputs.think_times[index]);
        let (reply, rtt) = io("inline batch", connection.round_trip(line.as_bytes()))?;
        tally.ok(1);
        let acked = format!(
            "applied +{}~{}-{} in ",
            batch.inserts.len(),
            batch.updates.len(),
            batch.deletes.len()
        );
        match parse_applied(&reply).filter(|_| reply.starts_with(&acked)) {
            Some(applied) if index >= plan.warmup_batches => {
                observed.apply_ms.push(rtt.as_secs_f64() * 1e3);
                observed.applied.push(applied);
                observed.request_bytes += line.len() as u64;
            }
            Some(_) => {}
            None => tally.fail(format!("batch {index} answered {reply:?}")),
        }
        // Checkpoint at a fixed batch index, so the WAL holds a fixed frame
        // count at the crash whatever the timing was.
        if index + 1 + plan.frames_after_checkpoint == total {
            let (reply, rtt) = io("checkpoint", connection.round_trip(b"checkpoint\n"))?;
            tally.ok(1);
            observed.checkpoint_ms = rtt.as_secs_f64() * 1e3;
            if !reply.starts_with("checkpointed ") {
                tally.fail(format!("checkpoint answered {reply:?}"));
            }
        }
    }
    Ok((observed, tally))
}

/// One `group_of` every `lookup_interval`, or when the previous reply
/// arrives if that is later; latency is send → reply, lateness is how long
/// after its due time a request left.
fn paced_lookups(
    plan: &Plan,
    ids: &[u32],
    addr: std::net::SocketAddr,
) -> Result<(ReadObservations, Tally), String> {
    let mut connection = io("reader connection", Connection::open(addr))?;
    let mut observed = ReadObservations::default();
    let mut tally = Tally::default();
    let mut due = Instant::now();
    for &id in ids {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        observed
            .late_us
            .push(sent.duration_since(due).as_secs_f64() * 1e6);
        let request = format!("group_of {id}\n");
        let (reply, rtt) = io("paced lookup", connection.round_trip(request.as_bytes()))?;
        tally.ok(1);
        if !reply.starts_with(&format!("record {id} → group ")) {
            tally.fail(format!("group_of {id} answered {reply:?}"));
        }
        observed.lookup_us.push(rtt.as_secs_f64() * 1e6);
        observed.reply_bytes += reply.len() as u64 + 1;
        due = (due + plan.lookup_interval).max(Instant::now());
    }
    Ok((observed, tally))
}

/// The number that ends right before the first `marker` in `text`.
pub fn number_before(text: &str, marker: &str) -> Option<f64> {
    let head = &text[..text.find(marker)?];
    let start = head
        .rfind(|c: char| !(c.is_ascii_digit() || c == '.'))
        .map_or(0, |at| at + 1);
    head[start..].parse().ok()
}

/// Parse `applied +i~u-d in <s>s (blocking <s>s, inference <s>s over <n>
/// pairs, merge <s>s, <k> components re-cleaned) → <g> groups`.
pub fn parse_applied(reply: &str) -> Option<AppliedReply> {
    reply.starts_with("applied +").then_some(())?;
    Some(AppliedReply {
        server_seconds: number_before(reply, "s (blocking ")?,
        blocking_seconds: number_before(reply, "s, inference ")?,
        inference_seconds: number_before(reply, "s over ")?,
        merge_seconds: number_before(&reply[reply.find(", merge ")?..], "s, ")?,
        pairs_scored: number_before(reply, " pairs,")? as u64,
        components_recleaned: number_before(reply, " components re-cleaned")? as u64,
        groups: number_before(reply, " groups")? as u64,
    })
}

/// The counters of a `stats` reply that must survive a crash: live
/// records, ids, groups, largest group, candidates, predictions, batches
/// applied, snapshot epoch — everything but the apply-seconds total, which
/// replay re-measures.
fn stats_counters(reply: &str) -> Vec<u64> {
    let integers = |text: &str| -> Vec<u64> {
        text.split(|c: char| !c.is_ascii_digit())
            .filter_map(|token| token.parse().ok())
            .collect()
    };
    match (
        reply.find(" live records"),
        reply.find(" batches applied in "),
        reply.find("snapshot epoch "),
    ) {
        (Some(_), Some(applied), Some(epoch)) => {
            let colon = reply.find(": ").map_or(0, |at| at + 2);
            let mut counters = integers(&reply[colon..applied]);
            counters.extend(integers(&reply[epoch..]));
            counters
        }
        _ => Vec::new(),
    }
}

/// `group_of` for every id, pipelined; returns the reply lines.
fn dump_groups(
    connection: &mut Connection,
    ids: &[u32],
    tally: &mut Tally,
) -> Result<Vec<String>, String> {
    let requests: Vec<String> = ids.iter().map(|id| format!("group_of {id}\n")).collect();
    let mut replies = Vec::with_capacity(ids.len());
    io(
        "group dump",
        connection.pipelined(&requests, |_, reply| replies.push(reply.to_string())),
    )?;
    tally.ok(ids.len() as u64);
    for (id, reply) in ids.iter().zip(&replies) {
        if !reply.starts_with(&format!("record {id} → group ")) {
            tally.fail(format!("group_of {id} answered {reply:?}"));
        }
    }
    Ok(replies)
}

/// The partition the dump describes: records keyed by the group id each
/// reply names.
fn groups_of_dump(ids: &[u32], dump: &[String]) -> Vec<Vec<RecordId>> {
    let mut groups: FxHashMap<u32, Vec<RecordId>> = FxHashMap::default();
    for (&id, reply) in ids.iter().zip(dump) {
        let group = group_id(reply).unwrap_or(id);
        groups.entry(group).or_default().push(RecordId(id));
    }
    let mut groups: Vec<Vec<RecordId>> = groups.into_values().collect();
    groups.sort();
    groups
}

/// The `<g>` of `record <id> → group <g> (…`.
fn group_id(reply: &str) -> Option<u32> {
    reply
        .split(" → group ")
        .nth(1)?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

struct Burst {
    requests: Vec<String>,
    expected: Vec<String>,
}

/// The pipelined mix: 80 % `group_of` on live ids, 20 % `members` on group
/// ids, both drawn from the seed; expected replies come from the dump.
fn burst_requests(plan: &Plan, seed: u64, ids: &[u32], dump: &[String]) -> Burst {
    let roots: Vec<(u32, String)> = ids
        .iter()
        .zip(dump)
        .filter(|(&id, reply)| group_id(reply) == Some(id))
        .filter_map(|(&id, reply)| {
            let members = reply.split(": ").nth(1)?;
            Some((id, format!("group {id}: {members}")))
        })
        .collect();
    let mut rng = gralmatch_util::SplitRng::new(seed).split("burst");
    let mut burst = Burst {
        requests: Vec::with_capacity(plan.burst_lookups),
        expected: Vec::with_capacity(plan.burst_lookups),
    };
    for _ in 0..plan.burst_lookups {
        if rng.next_below(5) == 0 && !roots.is_empty() {
            let (root, expected) = &roots[rng.next_below(roots.len())];
            burst.requests.push(format!("members {root}\n"));
            burst.expected.push(expected.clone());
        } else {
            let at = rng.next_below(ids.len());
            burst.requests.push(format!("group_of {}\n", ids[at]));
            burst.expected.push(dump[at].clone());
        }
    }
    burst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applied_reply_parses() {
        let reply = "applied +1~2-1 in 0.0750s (blocking 0.0700s, inference 0.0010s over 12 \
                     pairs, merge 0.0020s, 3 components re-cleaned) → 5000 groups";
        let parsed = parse_applied(reply).unwrap();
        assert_eq!(parsed.server_seconds, 0.075);
        assert_eq!(parsed.blocking_seconds, 0.07);
        assert_eq!(parsed.inference_seconds, 0.001);
        assert_eq!(parsed.merge_seconds, 0.002);
        assert_eq!(parsed.pairs_scored, 12);
        assert_eq!(parsed.components_recleaned, 3);
        assert_eq!(parsed.groups, 5000);
        assert!(parse_applied("error: bad-batch: nope").is_none());
    }

    #[test]
    fn stats_counters_skip_the_seconds_total() {
        let reply = "tenant bench: 7063 live records (7070 ids), 3200 groups (largest 5), \
                     9000 candidates, 4000 predictions, 104 batches applied in 12.3456s, \
                     snapshot epoch 105";
        assert_eq!(
            stats_counters(reply),
            vec![7063, 7070, 3200, 5, 9000, 4000, 104, 105]
        );
    }

    #[test]
    fn group_id_reads_the_reply() {
        let reply = "record 7 → group 3 (2 members): [3, 7]";
        assert_eq!(group_id(reply), Some(3));
    }
}
