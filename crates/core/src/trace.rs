//! Unified per-stage diagnostics for pipeline runs.
//!
//! Every stage of the execution engine records wall-clock seconds, item
//! counts, and the resident-set delta into a [`PipelineTrace`] — replacing
//! the old ad-hoc `inference_seconds` field with a uniform view over the
//! whole Figure 1 pipeline. The Table 4 binaries read the inference stage's
//! timing from here; ops dashboards get blocking/cleanup/grouping for free.

use std::fmt;

/// Canonical stage names used by the standard pipeline.
pub mod stage_names {
    /// Candidate generation.
    pub const BLOCKING: &str = "blocking";
    /// Pairwise matching over blocked candidates.
    pub const INFERENCE: &str = "inference";
    /// Pre-cleanup + Algorithm 1.
    pub const CLEANUP: &str = "cleanup";
    /// Connected components → entity groups.
    pub const GROUPING: &str = "grouping";
    /// Cross-shard merge (sharded pipelines only): boundary blocking +
    /// scoring, component union, boundary cleanup.
    pub const MERGE: &str = "merge";
}

/// Per-phase wall-clock split of a cleanup-bearing stage: the pre-cleanup
/// pass, the min-cut phase, and the betweenness phase of Algorithm 1.
///
/// Min-cut/betweenness seconds are summed across components, so under a
/// parallel pool they can exceed the stage wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CleanupPhases {
    /// Seconds removing token-overlap edges from oversized components.
    pub pre_cleanup_seconds: f64,
    /// Seconds in the min-cut phase (bridge-first + Stoer–Wagner).
    pub mincut_seconds: f64,
    /// Seconds in the betweenness-removal phase.
    pub betweenness_seconds: f64,
    /// Min-cut rounds answered from the persistent
    /// [`CutIndex`](gralmatch_graph::CutIndex) without a Tarjan scan
    /// (0 on the non-indexed path).
    pub bridge_cache_hits: usize,
    /// Nodes the `CutIndex` had to Tarjan-rescan (dirty blocks + cold
    /// regions; 0 on the non-indexed path).
    pub rescanned_nodes: usize,
    /// Region rescans no fed delta explains
    /// ([`CutIndexStats::heals`](gralmatch_graph::CutIndexStats::heals));
    /// 0 under a complete delta feed.
    pub heals: usize,
}

impl CleanupPhases {
    /// Fieldwise sum, for rolling shard traces up.
    pub fn merged(self, other: CleanupPhases) -> CleanupPhases {
        CleanupPhases {
            pre_cleanup_seconds: self.pre_cleanup_seconds + other.pre_cleanup_seconds,
            mincut_seconds: self.mincut_seconds + other.mincut_seconds,
            betweenness_seconds: self.betweenness_seconds + other.betweenness_seconds,
            bridge_cache_hits: self.bridge_cache_hits + other.bridge_cache_hits,
            rescanned_nodes: self.rescanned_nodes + other.rescanned_nodes,
            heals: self.heals + other.heals,
        }
    }
}

/// Diagnostics of one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// Stage name (see [`stage_names`] for the standard pipeline).
    pub stage: &'static str,
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
    /// Items entering the stage (records, candidate pairs, edges…).
    pub items_in: usize,
    /// Items leaving the stage.
    pub items_out: usize,
    /// Resident-set change across the stage, when the platform exposes RSS.
    pub rss_delta_bytes: Option<i64>,
    /// Heap bytes of the scorer's compiled featurization arena (symbol
    /// arena + per-symbol feature tables + interner), reported by
    /// inference stages driven by a compiled scorer — the memory side of
    /// the compile-once/score-many tradeoff, next to the wall-clock.
    pub arena_bytes: Option<usize>,
    /// Seconds of the stage's core work only, when the stage distinguishes
    /// it from setup/evaluation bookkeeping (e.g. pair scoring without the
    /// candidate sort and metrics pass). `seconds` is always the full
    /// stage wall-clock.
    pub core_seconds: Option<f64>,
    /// Per-phase cleanup timing split, reported by cleanup-bearing stages
    /// (cleanup, merge).
    pub phases: Option<CleanupPhases>,
}

impl StageTrace {
    /// Input items processed per second (0 for an instantaneous stage).
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items_in as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Ordered stage diagnostics of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTrace {
    /// One entry per executed stage, in execution order.
    pub stages: Vec<StageTrace>,
}

impl PipelineTrace {
    /// Record a finished stage.
    pub fn push(&mut self, stage: StageTrace) {
        self.stages.push(stage);
    }

    /// Roll several traces (e.g. one per shard) up into one: same-named
    /// stages are summed — seconds, item counts, RSS deltas, and core
    /// timings — in first-appearance order, so a sharded run reports one
    /// aggregate line per stage like an unsharded run does.
    pub fn rolled_up(traces: &[PipelineTrace]) -> PipelineTrace {
        let mut rolled = PipelineTrace::default();
        for trace in traces {
            for stage in &trace.stages {
                match rolled.stages.iter_mut().find(|s| s.stage == stage.stage) {
                    Some(existing) => {
                        existing.seconds += stage.seconds;
                        existing.items_in += stage.items_in;
                        existing.items_out += stage.items_out;
                        existing.rss_delta_bytes =
                            match (existing.rss_delta_bytes, stage.rss_delta_bytes) {
                                (Some(a), Some(b)) => Some(a + b),
                                (a, b) => a.or(b),
                            };
                        // Shards share one compiled arena: report the
                        // largest observation, not a double-counting sum.
                        existing.arena_bytes = match (existing.arena_bytes, stage.arena_bytes) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            (a, b) => a.or(b),
                        };
                        existing.core_seconds = match (existing.core_seconds, stage.core_seconds) {
                            (Some(a), Some(b)) => Some(a + b),
                            (a, b) => a.or(b),
                        };
                        existing.phases = match (existing.phases, stage.phases) {
                            (Some(a), Some(b)) => Some(a.merged(b)),
                            (a, b) => a.or(b),
                        };
                    }
                    None => rolled.stages.push(stage.clone()),
                }
            }
        }
        rolled
    }

    /// Total wall-clock seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// The trace of a stage by name (first match).
    pub fn stage(&self, name: &str) -> Option<&StageTrace> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Seconds spent in a stage (0.0 when the stage did not run).
    pub fn seconds_for(&self, name: &str) -> f64 {
        self.stage(name).map_or(0.0, |s| s.seconds)
    }

    /// Seconds of the pairwise-matching stage (Table 4's time column).
    ///
    /// Uses the stage's core-work timing (scoring only) when available, so
    /// the number stays comparable to the pre-engine `inference_seconds`
    /// field, which excluded candidate sorting and metrics evaluation.
    pub fn inference_seconds(&self) -> f64 {
        self.stage(stage_names::INFERENCE)
            .map_or(0.0, |s| s.core_seconds.unwrap_or(s.seconds))
    }
}

impl fmt::Display for PipelineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>10} {:>12} {:>12} {:>14}",
            "stage", "seconds", "items in", "items out", "rss delta"
        )?;
        for stage in &self.stages {
            let rss = stage.rss_delta_bytes.map_or("-".to_string(), |d| {
                format!("{:+.1} MiB", d as f64 / (1024.0 * 1024.0))
            });
            writeln!(
                f,
                "{:<12} {:>10.3} {:>12} {:>12} {:>14}",
                stage.stage, stage.seconds, stage.items_in, stage.items_out, rss
            )?;
        }
        write!(f, "total        {:>10.3}", self.total_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineTrace {
        let mut trace = PipelineTrace::default();
        trace.push(StageTrace {
            stage: stage_names::BLOCKING,
            seconds: 0.5,
            items_in: 100,
            items_out: 400,
            rss_delta_bytes: Some(1 << 20),
            arena_bytes: None,
            core_seconds: None,
            phases: None,
        });
        trace.push(StageTrace {
            stage: stage_names::INFERENCE,
            seconds: 2.0,
            items_in: 400,
            items_out: 120,
            rss_delta_bytes: None,
            arena_bytes: Some(1 << 16),
            core_seconds: Some(1.5),
            phases: Some(CleanupPhases {
                pre_cleanup_seconds: 0.1,
                mincut_seconds: 0.3,
                betweenness_seconds: 0.2,
                bridge_cache_hits: 5,
                rescanned_nodes: 7,
                heals: 1,
            }),
        });
        trace
    }

    #[test]
    fn totals_and_lookup() {
        let trace = sample();
        assert!((trace.total_seconds() - 2.5).abs() < 1e-12);
        assert_eq!(trace.stage(stage_names::BLOCKING).unwrap().items_out, 400);
        assert_eq!(trace.seconds_for("missing"), 0.0);
        // inference_seconds prefers the core-work timing when present.
        assert!((trace.inference_seconds() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_items_in_per_second() {
        let trace = sample();
        let inference = trace.stage(stage_names::INFERENCE).unwrap();
        assert!((inference.throughput() - 200.0).abs() < 1e-9);
        let instant = StageTrace {
            stage: "x",
            seconds: 0.0,
            items_in: 10,
            items_out: 10,
            rss_delta_bytes: None,
            arena_bytes: None,
            core_seconds: None,
            phases: None,
        };
        assert_eq!(instant.throughput(), 0.0);
    }

    #[test]
    fn rolled_up_sums_same_named_stages() {
        let shard_a = sample();
        let shard_b = sample();
        let rolled = PipelineTrace::rolled_up(&[shard_a, shard_b]);
        assert_eq!(rolled.stages.len(), 2, "one aggregate line per stage");
        let blocking = rolled.stage(stage_names::BLOCKING).unwrap();
        assert!((blocking.seconds - 1.0).abs() < 1e-12);
        assert_eq!(blocking.items_in, 200);
        assert_eq!(blocking.rss_delta_bytes, Some(2 << 20));
        let inference = rolled.stage(stage_names::INFERENCE).unwrap();
        assert_eq!(inference.core_seconds, Some(3.0));
        // Phase splits sum fieldwise across shards.
        let phases = inference.phases.unwrap();
        assert!((phases.pre_cleanup_seconds - 0.2).abs() < 1e-12);
        assert!((phases.mincut_seconds - 0.6).abs() < 1e-12);
        assert!((phases.betweenness_seconds - 0.4).abs() < 1e-12);
        assert_eq!(phases.bridge_cache_hits, 10);
        assert_eq!(phases.rescanned_nodes, 14);
        assert_eq!(phases.heals, 2);
        // Arena sizes roll up as a max (shards share one compiled view).
        assert_eq!(inference.arena_bytes, Some(1 << 16));
        // Order is first-appearance: blocking before inference.
        assert_eq!(rolled.stages[0].stage, stage_names::BLOCKING);
    }

    #[test]
    fn display_renders_all_stages() {
        let text = sample().to_string();
        assert!(text.contains("blocking"));
        assert!(text.contains("inference"));
        assert!(text.contains("total"));
    }
}
