//! Per-layer probes of the traced run. Three sources, as the README's
//! metric table marks them:
//!
//! * **reply** — parsed from the server's own `applied …` / recovery lines;
//! * **probe** — the harness times a call into the layer's public function
//!   on the workload's own inputs (spans recorded from the benchmark's
//!   files, around the calls into each layer);
//! * **os / socket** — `/proc`, file sizes, and extra requests over TCP.
//!
//! Nothing here runs in an untraced run, so end-to-end numbers never pay
//! for it.

use crate::client::Connection;
use crate::scenario::{io, number_before, AppliedReply, ServeObservations, Tally, TENANT};
use crate::server::Server;
use crate::stats::{median, percentile};
use crate::workload::{Inputs, Plan};
use gralmatch_bench::serve::{
    lookup_response, parse_request, resume_tenant, serve_config, HostSession, ServeDomain,
};
use gralmatch_blocking::{blocking_quality, run_blockers, BlockingContext, CandidateSet};
use gralmatch_core::{
    decode_state, encode_batch, encode_state, graph_cleanup, pairwise_metrics, prediction_graph,
    scorer_provider, EngineTenant, UpsertBatch, UpsertOutcome, WalWriter,
};
use gralmatch_graph::connected_components;
use gralmatch_lm::score_pairs_with;
use gralmatch_records::{GroundTruth, RecordId};
use gralmatch_util::{FromJson, Json, Parallelism};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the extra socket requests of a traced run measured.
pub struct SocketProbes {
    ping_rtt_us: f64,
    pipelined_ping_per_s: f64,
    connect_hello_ms: f64,
}

/// Ping, pipelined ping and connect + `hello` against the live server,
/// after the burst and before the crash.
pub fn socket(
    connection: &mut Connection,
    server: &Server,
    tally: &mut Tally,
) -> Result<SocketProbes, String> {
    let mut ping_us = Vec::new();
    for _ in 0..40 {
        let (reply, rtt) = io("ping", connection.round_trip(b"ping\n"))?;
        tally.ok(1);
        if reply != "pong" {
            tally.fail(format!("ping answered {reply:?}"));
        }
        ping_us.push(rtt.as_secs_f64() * 1e6);
    }

    let pings = vec!["ping\n".to_string(); 20_000];
    let mut wrong = 0u64;
    let elapsed = io(
        "pipelined ping",
        connection.pipelined(&pings, |_, reply| wrong += u64::from(reply != "pong")),
    )?;
    tally.ok(pings.len() as u64);
    tally.fail_times(wrong, "a pipelined ping was not answered pong");

    let mut connect_ms = Vec::new();
    for _ in 0..5 {
        let watch = Instant::now();
        let hello = io(
            "connect + hello",
            Connection::open(server.addr).and_then(|mut fresh| fresh.command("hello")),
        )?;
        connect_ms.push(watch.elapsed().as_secs_f64() * 1e3);
        tally.ok(1);
        if !hello.starts_with("hello gralmatch-serve") {
            tally.fail(format!("hello answered {hello:?}"));
        }
    }

    Ok(SocketProbes {
        ping_rtt_us: median(&ping_us),
        pipelined_ping_per_s: pings.len() as f64 / elapsed.as_secs_f64(),
        connect_hello_ms: median(&connect_ms),
    })
}

/// Everything a traced run hands the probes.
pub struct Observed<'a, R: ServeDomain> {
    pub plan: &'a Plan,
    pub inputs: &'a Inputs<R>,
    /// The in-process engine, still at the bootstrapped population.
    pub session: &'a mut HostSession,
    pub scratch: &'a Path,
    pub serve: &'a ServeObservations,
    pub socket: SocketProbes,
    /// The server's `… recovered … in <s>s (… <n> WAL frame(s) replayed…`
    /// lines, one per restart.
    pub recovery_lines: &'a [String],
    pub lookup_p50_us: f64,
}

/// Seconds a closure took.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let watch = Instant::now();
    let value = work();
    (value, watch.elapsed().as_secs_f64())
}

/// Nanoseconds per call of `work` over `calls` calls — the total divided,
/// never a per-call clock read.
fn ns_per_call(calls: usize, mut work: impl FnMut(usize)) -> f64 {
    let watch = Instant::now();
    for call in 0..calls {
        work(call);
    }
    watch.elapsed().as_secs_f64() * 1e9 / calls as f64
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let count = values.len().max(1) as f64;
    values.sum::<f64>() / count
}

/// Compute every per-layer metric (except `host.yardstick_ms`, which the
/// caller owns).
pub fn per_layer<R: ServeDomain>(
    observed: Observed<'_, R>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let Observed {
        plan,
        inputs,
        session,
        scratch,
        serve,
        socket,
        recovery_lines,
        lookup_p50_us,
    } = observed;
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let state_json = session
        .state_json(TENANT)
        .map_err(|e| format!("state json: {e}"))?;
    let tenant: &mut EngineTenant<R> = session
        .host_mut()
        .typed_tenant_mut::<R>(TENANT)
        .ok_or("the in-process tenant lost its type")?;
    let config = serve_config();
    let records: Vec<R> = tenant.engine().state().live_records().to_vec();
    let truth = GroundTruth::from_records(&records);
    let pool = Parallelism::Auto.pool_for(records.len());
    let measured = &inputs.batches[plan.warmup_batches..];

    // ── bench::net ──
    out.push(("net.ping_rtt_us", socket.ping_rtt_us));
    out.push(("net.connect_hello_ms", socket.connect_hello_ms));
    let overheads: Vec<f64> = serve
        .apply_ms
        .iter()
        .zip(&serve.applied)
        .map(|(rtt_ms, applied)| rtt_ms - applied.server_seconds * 1e3)
        .collect();
    out.push(("net.apply_overhead_ms", median(&overheads)));
    out.push(("net.pipelined_ping_per_s", socket.pipelined_ping_per_s));
    out.push((
        "net.bytes_in_per_apply",
        serve.request_bytes as f64 / serve.applied.len() as f64,
    ));
    out.push((
        "net.bytes_out_per_lookup",
        serve.reads.reply_bytes as f64 / serve.reads.lookup_us.len() as f64,
    ));

    // ── bench::serve + util::json ──
    out.push((
        "serve.lookup_minus_ping_us",
        lookup_p50_us - socket.ping_rtt_us,
    ));
    let lookup_lines: Vec<String> = inputs
        .lookup_ids
        .iter()
        .map(|id| format!("group_of {id}"))
        .collect();
    out.push((
        "serve.parse_request_ns",
        ns_per_call(200_000, |call| {
            black_box(parse_request(black_box(&lookup_lines[call % lookup_lines.len()])).is_ok());
        }),
    ));
    let snapshot = tenant.engine().snapshot();
    let commands: Vec<_> = lookup_lines
        .iter()
        .filter_map(|line| parse_request(line).ok().flatten())
        .map(|request| request.command)
        .collect();
    out.push((
        "serve.lookup_response_ns",
        ns_per_call(200_000, |call| {
            black_box(lookup_response(
                TENANT,
                &snapshot,
                &commands[call % commands.len()],
            ));
        }),
    ));
    let decode_ms: Vec<f64> = inputs.lines[plan.warmup_batches..]
        .iter()
        .take(20)
        .map(|line| {
            timed(|| {
                let json = Json::parse(line).expect("rendered batches parse");
                black_box(UpsertBatch::<R>::from_json(&json).expect("rendered batches decode"));
            })
            .1 * 1e3
        })
        .collect();
    out.push(("serve.batch_decode_ms", median(&decode_ms)));
    let (_, parse_seconds) = timed(|| black_box(Json::parse(&state_json).is_ok()));
    out.push((
        "json.parse_mb_per_s",
        state_json.len() as f64 / 1e6 / parse_seconds,
    ));

    // ── core::persist ──
    let encoded: Vec<(Vec<u8>, f64)> = measured
        .iter()
        .map(|batch| timed(|| encode_batch(batch)))
        .collect();
    out.push((
        "persist.encode_batch_us",
        median(&encoded.iter().map(|(_, s)| s * 1e6).collect::<Vec<_>>()),
    ));
    let wal_path = scratch.join("probe.wal");
    let mut wal =
        WalWriter::open(&wal_path, false).map_err(|e| format!("opening the probe WAL: {e}"))?;
    let append_us: Vec<f64> = encoded
        .iter()
        .enumerate()
        .map(|(index, (payload, _))| {
            timed(|| {
                wal.append(index as u64 + 1, payload)
                    .expect("probe WAL append")
            })
            .1 * 1e6
        })
        .collect();
    out.push(("persist.wal_append_us", median(&append_us)));
    out.push((
        "persist.wal_bytes_per_batch",
        wal.bytes() as f64 / wal.frames() as f64,
    ));
    let (snapshot_bytes, encode_seconds) =
        timed(|| encode_state(tenant.engine().state(), snapshot.epoch(), 1));
    out.push(("persist.snapshot_encode_ms", encode_seconds * 1e3));
    let (decoded, decode_seconds) = timed(|| decode_state::<R>(&snapshot_bytes).is_ok());
    if !decoded {
        return Err("the probe snapshot did not decode".into());
    }
    out.push(("persist.snapshot_decode_ms", decode_seconds * 1e3));
    out.push((
        "persist.snapshot_bytes_per_record",
        snapshot_bytes.len() as f64 / records.len() as f64,
    ));
    out.push(("persist.checkpoint_ms", serve.checkpoint_ms));
    let recoveries: Vec<(f64, f64)> = recovery_lines
        .iter()
        .filter_map(|line| parse_recovery(line))
        .collect();
    let (recover_seconds, frames) = *recoveries
        .first()
        .ok_or("the restarted server printed no recovery line")?;
    out.push(("persist.frames_replayed", frames));
    out.push((
        "persist.replay_ms_per_frame",
        (recover_seconds - decode_seconds).max(0.0) * 1e3 / frames.max(1.0),
    ));

    // ── core::engine, as the server reported each measured batch ──
    let total: f64 = serve.applied.iter().map(|a| a.server_seconds).sum();
    let share =
        |stage: fn(&AppliedReply) -> f64| serve.applied.iter().map(stage).sum::<f64>() / total;
    let server_ms: Vec<f64> = serve
        .applied
        .iter()
        .map(|a| a.server_seconds * 1e3)
        .collect();
    out.push(("engine.apply_server_ms", median(&server_ms)));
    let (blocking, inference, merge) = (
        share(|a| a.blocking_seconds),
        share(|a| a.inference_seconds),
        share(|a| a.merge_seconds),
    );
    out.push(("engine.blocking_share", blocking));
    out.push(("engine.inference_share", inference));
    out.push(("engine.merge_share", merge));
    out.push(("engine.other_share", 1.0 - blocking - inference - merge));
    out.push((
        "engine.pairs_scored_per_batch",
        mean(serve.applied.iter().map(|a| a.pairs_scored as f64)),
    ));
    out.push((
        "engine.components_recleaned_per_batch",
        mean(serve.applied.iter().map(|a| a.components_recleaned as f64)),
    ));
    let merge_ms = mean(serve.applied.iter().map(|a| a.merge_seconds * 1e3));

    // ── blocking ──
    let strategies = R::serve_strategies();
    let context = BlockingContext::with_pool(pool);
    let (_, blocking_seconds) = timed(|| black_box(run_blockers(&records, &strategies, &context)));
    out.push(("blocking.full_s", blocking_seconds));
    let delta: Vec<R> = measured[0]
        .inserts
        .iter()
        .chain(&measured[0].updates)
        .cloned()
        .collect();
    let (_, delta_seconds) = timed(|| {
        for strategy in &strategies {
            let mut candidates = CandidateSet::new();
            strategy.block_delta(&delta, &records, &context, &mut candidates);
            black_box(candidates.len());
        }
    });
    out.push(("blocking.delta_ms", delta_seconds * 1e3));
    let (_, join_seconds) = timed(|| {
        for strategy in strategies.iter().filter(|s| s.cross_shard()) {
            let mut candidates = CandidateSet::new();
            strategy.block(&records, &context, &mut candidates);
            black_box(candidates.len());
        }
    });
    out.push(("blocking.id_join_ms", join_seconds * 1e3));
    let candidates = tenant.engine().state().candidates();
    out.push(("blocking.candidates", candidates.len() as f64));
    out.push((
        "blocking.candidates_per_record",
        candidates.len() as f64 / records.len() as f64,
    ));
    out.push((
        "blocking.pair_completeness",
        blocking_quality(candidates, &truth, records.len()).recall,
    ));

    // ── lm ──
    out.push(("lm.train_s", inputs.train_seconds));
    let mut provider = scorer_provider::<R>(inputs.model.clone());
    let (_, compile_seconds) = timed(|| provider.prime(&records));
    out.push(("lm.compile_s", compile_seconds));
    out.push((
        "lm.arena_mb",
        provider.scorer().memory_bytes().unwrap_or(0) as f64 / 1e6,
    ));
    let pairs = candidates.pairs_sorted();
    let (_, score_seconds) =
        timed(|| black_box(score_pairs_with(provider.scorer(), &pairs, &pool).len()));
    out.push(("lm.pairs_per_s", pairs.len() as f64 / score_seconds));
    let (_, absorb_seconds) = timed(|| provider.absorb(&measured[0]));
    out.push((
        "lm.recompile_us_per_record",
        absorb_seconds * 1e6 / measured[0].len() as f64,
    ));
    // Positives from the engine's own standing predictions: the probe
    // provider above has absorbed a batch the engine has not.
    let predicted = tenant.engine().state().predicted();
    out.push((
        "lm.positive_share",
        predicted.len() as f64 / pairs.len() as f64,
    ));
    out.push(("lm.pair_f1", pairwise_metrics(predicted, &truth).f1));

    // ── core::cleanup + graph, one shot over the standing predictions ──
    out.push(("merge.ms_per_batch", merge_ms));
    let num_ids = tenant.engine().state().num_ids();
    let mut graph = prediction_graph(num_ids, predicted);
    let (components, components_seconds) = timed(|| connected_components(&graph));
    out.push(("graph.components_ms", components_seconds * 1e3));
    let largest = components.iter().map(Vec::len).max().unwrap_or(0);
    let report = graph_cleanup(&mut graph, &config.cleanup);
    out.push(("cleanup.full_s", report.seconds));
    out.push(("cleanup.mincut_s", report.mincut_seconds));
    out.push(("cleanup.betweenness_s", report.betweenness_seconds));
    out.push((
        "cleanup.edges_removed",
        (report.pre_cleanup_removed + report.mincut_removed + report.betweenness_removed) as f64,
    ));
    out.push(("cleanup.largest_component_before", largest as f64));

    // ── core::snapshot read path ──
    let ids: Vec<RecordId> = inputs.lookup_ids.iter().map(|&id| RecordId(id)).collect();
    out.push((
        "snapshot.group_of_ns",
        ns_per_call(10_000_000, |call| {
            black_box(snapshot.group_of(ids[call % ids.len()]));
        }),
    ));
    drop(snapshot);

    // ── engine.resume: JSON state → serving engine ──
    let (resumed, resume_seconds) = timed(|| resume_tenant::<R>(&state_json, inputs.model.clone()));
    resumed.map_err(|e| format!("resuming the probe state: {e:?}"))?;
    out.push(("engine.resume_ms", resume_seconds * 1e3));

    // ── In-process replay of the workload's first measured batches: the
    // indexed cleanup, the cut index and the snapshot publish, per batch.
    // The warm-up batches go first so the engine meets each batch in the
    // state the server met it in (for the seed's own order). ──
    for batch in &inputs.batches[..plan.warmup_batches] {
        tenant
            .apply(batch)
            .map_err(|e| format!("probe warm-up: {e}"))?;
    }
    let replayed: Vec<UpsertOutcome> = measured
        .iter()
        .take(16)
        .map(|batch| tenant.apply(batch).map(|(outcome, _)| outcome))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe replay: {e}"))?;
    let phases = |outcome: &UpsertOutcome| {
        outcome
            .trace
            .stage(gralmatch_core::stage_names::MERGE)
            .and_then(|stage| stage.phases)
            .unwrap_or_default()
    };
    out.push((
        "cleanup.indexed_ms_per_batch",
        mean(replayed.iter().map(|o| {
            let p = phases(o);
            (p.pre_cleanup_seconds + p.mincut_seconds + p.betweenness_seconds) * 1e3
        })),
    ));
    out.push((
        "graph.cut_index_hits_per_batch",
        mean(replayed.iter().map(|o| phases(o).bridge_cache_hits as f64)),
    ));
    out.push((
        "graph.rescanned_nodes_per_batch",
        mean(replayed.iter().map(|o| phases(o).rescanned_nodes as f64)),
    ));
    out.push((
        "snapshot.advance_us",
        mean(replayed.iter().map(|o| o.snapshot_publish_seconds * 1e6)),
    ));
    out.push((
        "snapshot.buckets_rebuilt_per_batch",
        mean(replayed.iter().map(|o| o.snapshot_buckets_rebuilt as f64)),
    ));

    // ── Delta-size sweep at the (now fixed) population: d live records,
    // evenly spaced through the id space, re-submitted unchanged. ──
    let live: Vec<R> = tenant.engine().state().live_records().to_vec();
    for (name, size, repeats) in [
        ("engine.apply_d1_ms", 1usize, 3usize),
        ("engine.apply_d8_ms", 8, 3),
        ("engine.apply_d64_ms", 64, 3),
        ("engine.apply_d512_ms", 512, 1),
    ] {
        let size = size.min(live.len());
        let mut samples = Vec::new();
        for repeat in 0..repeats {
            let stride = live.len() / size;
            let batch = UpsertBatch {
                inserts: Vec::new(),
                updates: (0..size)
                    .map(|k| live[(k * stride + repeat * 7) % live.len()].clone())
                    .collect(),
                deletes: Vec::new(),
            };
            let (_, seconds) = tenant
                .apply(&batch)
                .map_err(|e| format!("delta sweep: {e}"))?;
            samples.push(seconds * 1e3);
        }
        out.push((name, median(&samples)));
    }

    // ── The harness itself ──
    out.push(("datagen.generate_s", inputs.datagen_seconds));
    out.push(("gen.late_p99_us", percentile(&serve.reads.late_us, 0.99)));
    Ok(out)
}

/// `(seconds, frames)` of `… recovered <path> in <s>s (snapshot epoch <e>,
/// <n> WAL frame(s) replayed…`.
fn parse_recovery(line: &str) -> Option<(f64, f64)> {
    Some((
        number_before(line, "s (snapshot epoch ")?,
        number_before(line, " WAL frame(s) replayed")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::parse_recovery;

    #[test]
    fn recovery_line_parses() {
        let line = "serve: tenant bench (securities) recovered out/durable/bench.bin in 1.234s \
                    (snapshot epoch 97, 8 WAL frame(s) replayed)";
        assert_eq!(parse_recovery(line), Some((1.234, 8.0)));
        let skipped = "serve: tenant bench (companies) recovered x.bin in 0.500s (snapshot \
                       epoch 3, 2 WAL frame(s) replayed, 1 already-checkpointed frame(s) skipped)";
        assert_eq!(parse_recovery(skipped), Some((0.5, 2.0)));
    }
}
