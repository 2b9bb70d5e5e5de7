//! The benchmark's vocabulary: workload and metric names, units and
//! directions. `BENCHMARK.json` at the repository root repeats them (and
//! adds the bounds); `tests/contract.rs` holds the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Per-layer counts that must repeat bit-for-bit at a fixed seed.
    pub exact: bool,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a client of the serve process sees. Every workload reports all of
/// them, from the untraced run.
pub const END_TO_END: [MetricSpec; 8] = [
    metric("setup_s", "s", Lower),
    metric("apply_tail_ms", "ms", Lower),
    metric("lookup_p50_us", "us", Lower),
    metric("lookup_tail_us", "us", Lower),
    metric("lookups_per_s", "1/s", Higher),
    metric("group_f1", "ratio", Higher),
    metric("peak_rss_mb", "MB", Lower),
    metric("disk_bytes_per_record", "B", Lower),
];

/// Single-layer numbers, from the traced run only. Grouped by the module
/// the number belongs to; the README maps each group to the end-to-end
/// metric it should move.
pub const PER_LAYER: [MetricSpec; 64] = [
    // Client-side timings of the whole process that ISSUE 12 lists as
    // end-to-end. On the reference box identical code disagrees with itself
    // by 5–11 % on them, so they cannot hold the ≤ 0.10 bound the ISSUE
    // gives timing medians, and by its rule they are reported here, without
    // a bound (see the README's noise section).
    metric("load_records_per_s", "1/s", Higher),
    metric("apply_p50_ms", "ms", Lower),
    metric("recovery_s", "s", Lower),
    // bench::net — the socket front-end.
    metric("net.ping_rtt_us", "us", Lower),
    metric("net.connect_hello_ms", "ms", Lower),
    metric("net.apply_overhead_ms", "ms", Lower),
    metric("net.pipelined_ping_per_s", "1/s", Higher),
    exact("net.bytes_in_per_apply", "B", Lower),
    exact("net.bytes_out_per_lookup", "B", Lower),
    // bench::serve + util::json — protocol parsing and rendering.
    metric("serve.lookup_minus_ping_us", "us", Lower),
    metric("serve.parse_request_ns", "ns", Lower),
    metric("serve.lookup_response_ns", "ns", Lower),
    metric("serve.batch_decode_ms", "ms", Lower),
    metric("json.parse_mb_per_s", "MB/s", Higher),
    // core::persist — WAL, snapshot, recovery.
    metric("persist.encode_batch_us", "us", Lower),
    metric("persist.wal_append_us", "us", Lower),
    exact("persist.wal_bytes_per_batch", "B", Lower),
    metric("persist.snapshot_encode_ms", "ms", Lower),
    metric("persist.snapshot_decode_ms", "ms", Lower),
    exact("persist.snapshot_bytes_per_record", "B", Lower),
    metric("persist.checkpoint_ms", "ms", Lower),
    exact("persist.frames_replayed", "count", Lower),
    metric("persist.replay_ms_per_frame", "ms", Lower),
    // core::engine — one batch apply, as the server reports it and as an
    // in-process delta-size sweep.
    metric("engine.apply_server_ms", "ms", Lower),
    metric("engine.blocking_share", "ratio", Lower),
    metric("engine.inference_share", "ratio", Lower),
    metric("engine.merge_share", "ratio", Lower),
    metric("engine.other_share", "ratio", Lower),
    exact("engine.pairs_scored_per_batch", "count", Lower),
    exact("engine.components_recleaned_per_batch", "count", Lower),
    metric("engine.apply_d1_ms", "ms", Lower),
    metric("engine.apply_d8_ms", "ms", Lower),
    metric("engine.apply_d64_ms", "ms", Lower),
    metric("engine.apply_d512_ms", "ms", Lower),
    metric("engine.resume_ms", "ms", Lower),
    // blocking — candidate generation.
    metric("blocking.full_s", "s", Lower),
    metric("blocking.delta_ms", "ms", Lower),
    metric("blocking.id_join_ms", "ms", Lower),
    exact("blocking.candidates", "count", Lower),
    metric("blocking.candidates_per_record", "ratio", Lower),
    metric("blocking.pair_completeness", "ratio", Higher),
    // lm — the pairwise matcher.
    metric("lm.train_s", "s", Lower),
    metric("lm.compile_s", "s", Lower),
    metric("lm.arena_mb", "MB", Lower),
    metric("lm.pairs_per_s", "1/s", Higher),
    metric("lm.recompile_us_per_record", "us", Lower),
    metric("lm.positive_share", "ratio", Lower),
    metric("lm.pair_f1", "ratio", Higher),
    // core::cleanup + graph — merge and graph cleanup.
    metric("merge.ms_per_batch", "ms", Lower),
    metric("cleanup.full_s", "s", Lower),
    metric("cleanup.mincut_s", "s", Lower),
    metric("cleanup.betweenness_s", "s", Lower),
    metric("cleanup.indexed_ms_per_batch", "ms", Lower),
    exact("cleanup.edges_removed", "count", Lower),
    exact("cleanup.largest_component_before", "count", Lower),
    metric("graph.cut_index_hits_per_batch", "count", Higher),
    exact("graph.rescanned_nodes_per_batch", "count", Lower),
    metric("graph.components_ms", "ms", Lower),
    // core::snapshot — the published read path.
    metric("snapshot.advance_us", "us", Lower),
    exact("snapshot.buckets_rebuilt_per_batch", "count", Lower),
    metric("snapshot.group_of_ns", "ns", Lower),
    // The harness itself: input generation and the validity of the run.
    metric("datagen.generate_s", "s", Lower),
    metric("gen.late_p99_us", "us", Lower),
    metric("host.yardstick_ms", "ms", Lower),
];

/// Whether `name` is made of the characters the benchmark contract allows.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
