//! GraLMatch core: entity group matching with graph cleanup.
//!
//! The paper's primary contribution, end to end (Figure 1), as a
//! **domain-generic staged execution engine**: a
//! [`MatchingDomain`] (companies, securities,
//! products, or any future workload) plugs its records, ground truth, and
//! declarative blocking-strategy list into the
//! [`StagePipeline`], which drives blocking →
//! pairwise matching → **GraLMatch Graph Cleanup** (pre-cleanup +
//! Algorithm 1: minimum edge cuts above γ, max-betweenness edge removal
//! above μ) → entity groups, with per-stage diagnostics in a
//! [`PipelineTrace`] and the three-stage evaluation
//! protocol (pairwise / pre-cleanup / post-cleanup) with Cluster Purity.
//!
//! * [`domain`] — the `MatchingDomain` trait + the three paper domains,
//! * [`engine`] — the long-lived `MatchEngine`: bootstrap / apply-batch /
//!   group-lookup lifecycle, the single production execution path,
//! * [`host`] — the multi-tenant `EngineHost`: named, domain-erased
//!   `TenantEngine`s with per-tenant model routing and hot model swap,
//! * [`stage`] — the `Stage` trait, context, and the legacy staged lineup
//!   (kept as the equivalence-test oracle),
//! * [`shard`] — the `ShardPlan` partition, the dirty-component
//!   `MergeStage`, and the legacy sharded oracle runner,
//! * [`incremental`] — upsert batches against a persisted `PipelineState`,
//! * [`persist`] — crash-safe binary persistence: checksummed
//!   `PipelineState` snapshots, the append-only `UpsertBatch` WAL, and
//!   snapshot+replay recovery,
//! * [`snapshot`] — immutable epoch-published `GroupSnapshot` for
//!   lock-free concurrent group lookups,
//! * [`trace`] — unified per-stage wall-clock/throughput/memory reporting,
//! * [`groups`] — prediction graph, components, closure counting,
//! * [`cleanup`] — Algorithm 1 + pre-cleanup + sensitivity variants,
//! * [`metrics`] — pairwise & group metrics, Cluster Purity,
//! * [`pipeline`] — config, outcome, oracle scorers.

pub mod adaptive;
pub mod calibration;
pub mod cleanup;
pub mod consolidate;
pub mod diagnostics;
pub mod domain;
pub mod engine;
pub mod groups;
pub mod host;
pub mod incremental;
pub mod label_propagation;
pub mod metrics;
pub mod persist;
pub mod pipeline;
pub mod shard;
pub mod snapshot;
pub mod stage;
pub mod trace;

pub use adaptive::{adaptive_cleanup, AdaptiveConfig};
pub use calibration::{
    average_precision, best_f1_threshold, precision_recall_curve, threshold_for_precision, PrPoint,
};
pub use cleanup::{
    graph_cleanup, graph_cleanup_with_index, graph_cleanup_with_pool, pre_cleanup,
    pre_cleanup_edges, reference_graph_cleanup, CleanupConfig, CleanupReport, CleanupVariant,
};
pub use consolidate::{consolidate_companies, consolidate_company_group, GoldenCompany};
pub use diagnostics::{diagnose, GraphDiagnostics};
pub use domain::{
    blocked_candidates, run_domain, run_domain_staged, run_domain_with_matcher, CompanyDomain,
    MatchingDomain, ProductDomain, SecurityDomain,
};
pub use engine::{
    CompiledScorerProvider, EngineStats, FixedScorerProvider, GroupIndex, MatchEngine,
    ScorerProvider,
};
pub use groups::{count_group_pairs, entity_groups, group_assignment, prediction_graph};
pub use host::{
    model_fingerprint, scorer_provider, EngineHost, EngineTenant, HostError, TenantEngine,
    HEURISTIC_JACCARD,
};
pub use incremental::{
    churn_window, BlockingIndex, PipelineState, Predictions, UpsertBatch, UpsertOutcome,
};
pub use label_propagation::{label_propagation_groups, LabelPropagationConfig};
pub use metrics::{group_metrics, pairwise_metrics, GroupMetrics, PairMetrics};
pub use persist::{
    decode_batch, decode_state, encode_batch, encode_state, recover_engine, CheckpointInfo,
    CheckpointPolicy, RecoveryReport, StateSnapshot, WalFrame, WalReplay, WalWriter,
};
pub use pipeline::{
    run_with_candidates, MatchingOutcome, OracleMatcher, OracleScorer, PipelineConfig,
};
pub use shard::{run_sharded, MergeResult, MergeStage, ShardKey, ShardPlan, ShardedOutcome};
pub use snapshot::GroupSnapshot;
pub use stage::{
    BlockingStage, CleanupStage, GroupingStage, InferenceStage, Stage, StageContext, StagePipeline,
    StageStats,
};
pub use trace::{stage_names, CleanupPhases, PipelineTrace, StageTrace};
