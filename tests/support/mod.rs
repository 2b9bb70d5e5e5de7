//! Checks shared by the integration suites (`mod support;`).

use gralmatch::blocking::Blocker;
use gralmatch::core::{PipelineConfig, PipelineState};
use gralmatch::graph::{Edge, Graph};
use gralmatch::lm::PairScorer;
use gralmatch::records::Record;

fn sorted_edges(graph: &Graph) -> Vec<Edge> {
    let mut edges: Vec<Edge> = graph.edges().collect();
    edges.sort_unstable();
    edges
}

/// The per-batch form of "incremental equals one-shot": after a batch,
/// the state's standing predictions and cleaned graph must equal those of
/// a fresh one-shot load of its live records (one insert-only batch
/// against an empty state, where every component is cleaned from
/// scratch). Comparing only the groups at the end of a replay would miss
/// a divergence that a later batch happens to repair.
pub fn assert_matches_fresh_load<R: Record + Clone + Sync>(
    state: &PipelineState<R>,
    strategies: &[Box<dyn Blocker<R> + '_>],
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
    context: &str,
) {
    let (fresh, _) = PipelineState::initial_load(
        state.plan(),
        state.live_records().to_vec(),
        strategies,
        scorer,
        config,
    )
    .unwrap_or_else(|e| panic!("{context}: one-shot load failed: {e:?}"));
    assert_eq!(
        state.predicted().sorted(),
        fresh.predicted().sorted(),
        "{context}: standing predictions diverged from a one-shot load"
    );
    assert_eq!(
        sorted_edges(state.cleaned()),
        sorted_edges(fresh.cleaned()),
        "{context}: cleaned graph diverged from a one-shot load"
    );
}
