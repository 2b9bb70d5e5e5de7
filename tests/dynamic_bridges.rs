//! Property tests for the persistent cut-structure index
//! ([`CutIndex`]) under edge churn.
//!
//! The index is a cache of Tarjan-derived structure (bridges +
//! 2-edge-connected blocks) maintained across insert/remove deltas; its
//! contract is that a [`structure_for`](CutIndex::structure_for) query
//! after *any* fed delta sequence equals a from-scratch
//! [`cut_structure`] computation, and that a cleanup driven by it
//! ([`graph_cleanup_with_index`]) is bit-for-bit the plain
//! [`graph_cleanup`]. Three layers:
//!
//! * raw index vs scratch Tarjan on seeded random insert/remove
//!   sequences (bridges, block partition, block annotations);
//! * indexed cleanup vs plain cleanup across churn rounds on random
//!   clique-plus-noise graphs (edge sets and phase counters);
//! * the incremental engine replaying *interior* record churn — updates
//!   whose degraded names retract clique edges so bridges are created by
//!   deletion — with a warm index, against a one-shot load after every
//!   batch and a one-shot sharded oracle at the end; the index must never
//!   need a heal.
//!
//! The offline build has no `proptest`; cases are deterministic seeded
//! instances with the seed in every assertion message.

use gralmatch::core::{
    graph_cleanup, graph_cleanup_with_index, run_sharded, BlockingIndex, CleanupConfig,
    CompanyDomain, MatchingDomain, PipelineConfig, PipelineState, ShardPlan, UpsertBatch,
};
use gralmatch::datagen::{hub_companies, hub_interior_churn_updates, HubConfig};
use gralmatch::graph::{connected_components, cut_structure, CutIndex, Edge, Graph, Subgraph};
use gralmatch::lm::{
    encode_dataset, CompiledDataset, CompiledScorer, HeuristicMatcher, PairwiseMatcher,
    PlainEncoder,
};
use gralmatch::records::RecordId;
use gralmatch::util::{Parallelism, SplitRng};

mod support;

fn sorted_edges(graph: &Graph) -> Vec<Edge> {
    let mut edges: Vec<Edge> = graph.edges().collect();
    edges.sort_unstable();
    edges
}

/// Relabel a block assignment to first-occurrence order so two labelings
/// of the same partition compare equal.
fn canonical_blocks(block_of: &[u32]) -> Vec<u32> {
    let mut relabel: Vec<u32> = Vec::new();
    let mut map = gralmatch::util::FxHashMap::default();
    for &block in block_of {
        let next = map.len() as u32;
        relabel.push(*map.entry(block).or_insert(next));
    }
    relabel
}

/// Assert the index's view of every component equals a scratch
/// [`cut_structure`] pass: same bridge set, same block partition, and
/// bridge block annotations consistent with the labeling.
fn assert_index_matches_scratch(index: &mut CutIndex, graph: &Graph, context: &str) {
    for component in connected_components(graph) {
        if component.len() < 2 {
            continue;
        }
        let sub = Subgraph::induce(graph, &component);
        let structure = index.structure_for(&sub, &component);
        let oracle = cut_structure(&sub);
        let mut bridges: Vec<(u32, u32)> = structure.bridges.iter().map(|&(e, _, _)| e).collect();
        bridges.sort_unstable();
        assert_eq!(bridges, oracle.bridges, "{context}: bridge set diverged");
        assert_eq!(
            structure.num_blocks, oracle.num_blocks,
            "{context}: block count diverged"
        );
        assert_eq!(
            canonical_blocks(&structure.block_of),
            canonical_blocks(&oracle.block_of),
            "{context}: block partition diverged"
        );
        for &((a, b), block_a, block_b) in &structure.bridges {
            assert_eq!(
                (
                    structure.block_of[a as usize],
                    structure.block_of[b as usize]
                ),
                (block_a, block_b),
                "{context}: bridge ({a},{b}) annotated with wrong blocks"
            );
        }
    }
}

/// Apply one random insert-or-remove to `graph`, feeding the index and
/// keeping `edges` in sync. Returns a description of the op.
fn random_op(
    rng: &mut SplitRng,
    n: usize,
    graph: &mut Graph,
    index: &mut CutIndex,
    edges: &mut Vec<Edge>,
) -> String {
    if rng.next_below(2) == 0 || edges.is_empty() {
        let a = rng.next_below(n) as u32;
        let b = rng.next_below(n) as u32;
        if a != b && graph.add_edge(a, b) {
            index.insert_edge(a, b);
            edges.push(Edge::new(a, b));
            return format!("insert ({a},{b})");
        }
        "noop".to_string()
    } else {
        let edge = edges.swap_remove(rng.next_below(edges.len()));
        graph.remove_edge(edge.a, edge.b);
        index.remove_edge(edge.a, edge.b);
        format!("remove ({},{})", edge.a, edge.b)
    }
}

#[test]
fn cut_index_matches_scratch_under_random_churn() {
    for seed in [5u64, 29, 101] {
        let mut rng = SplitRng::new(seed).split("dynamic-bridges");
        let n = 40usize;
        let mut graph = Graph::with_nodes(n);
        // Sparse bootstrap: plenty of bridges, some cycles.
        for _ in 0..45 {
            let a = rng.next_below(n) as u32;
            let b = rng.next_below(n) as u32;
            if a != b {
                graph.add_edge(a, b);
            }
        }
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        assert_index_matches_scratch(&mut index, &graph, &format!("seed {seed} bootstrap"));

        let mut edges = sorted_edges(&graph);
        let mut history = Vec::new();
        for step in 0..150 {
            history.push(random_op(&mut rng, n, &mut graph, &mut index, &mut edges));
            // Query every few ops so cached structure is repeatedly
            // reused and re-validated mid-sequence, and after every op
            // near the end where state is most churned.
            if step % 5 == 4 || step > 120 {
                assert_index_matches_scratch(
                    &mut index,
                    &graph,
                    &format!("seed {seed} step {step} (last ops: {:?})", {
                        let from = history.len().saturating_sub(5);
                        &history[from..]
                    }),
                );
            }
        }
    }
}

#[test]
fn indexed_cleanup_matches_plain_under_random_churn() {
    // Clique backbones plus random noise, cleaned and churned repeatedly:
    // every round the indexed cleanup of the live graph must be
    // bit-for-bit the plain cleanup of a fresh clone, with equal phase
    // counters — across deltas that both close cycles and cut bridges.
    for seed in [7u64, 43, 97] {
        let mut rng = SplitRng::new(seed).split("dynamic-cleanup");
        let num_cliques = 12;
        let clique = 5;
        let n = num_cliques * clique;
        let mut graph = Graph::with_nodes(n);
        for c in 0..num_cliques {
            for i in 0..clique {
                for j in (i + 1)..clique {
                    graph.add_edge((c * clique + i) as u32, (c * clique + j) as u32);
                }
            }
        }
        for _ in 0..30 {
            let a = rng.next_below(n) as u32;
            let b = rng.next_below(n) as u32;
            if a != b {
                graph.add_edge(a, b);
            }
        }
        let config = CleanupConfig::new(8, 5);
        let mut index = CutIndex::new();
        index.rebuild_from(&graph);
        for round in 0..4 {
            let mut oracle = graph.clone();
            let oracle_report = graph_cleanup(&mut oracle, &config);
            let components = connected_components(&graph);
            let report = graph_cleanup_with_index(&mut graph, &components, &config, &mut index);
            assert_eq!(
                sorted_edges(&graph),
                sorted_edges(&oracle),
                "seed {seed} round {round}: indexed cleanup removed a different edge set"
            );
            assert_eq!(
                (
                    report.mincut_removed,
                    report.betweenness_removed,
                    report.mincut_rounds,
                    report.betweenness_rounds,
                ),
                (
                    oracle_report.mincut_removed,
                    oracle_report.betweenness_removed,
                    oracle_report.mincut_rounds,
                    oracle_report.betweenness_rounds,
                ),
                "seed {seed} round {round}: indexed cleanup counters diverged"
            );
            let mut edges = sorted_edges(&graph);
            for _ in 0..25 {
                random_op(&mut rng, n, &mut graph, &mut index, &mut edges);
            }
        }
    }
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

#[test]
fn interior_churn_replay_with_index_matches_one_shot_groups() {
    // The delete-driven side of the hub workload through the real
    // pipeline: interior churn updates degrade two members' names per
    // rotated group so the group's clique collapses to a star around its
    // representative — clique edges are *retracted* and the surviving
    // rep edges become bridges created by deletion — then restore them a
    // batch later. The replay drives `apply_with_index` with a warm
    // CutIndex and a kept BlockingIndex (the engine's configuration), so
    // every delta flows through insert_edge/remove_edge maintenance and
    // every re-block through the maintained shard indexes; the final
    // groups must equal a one-shot sharded run over the final records.
    let config = HubConfig {
        hubs: 2,
        groups_per_hub: 12,
        group_size: 4,
        churn_batches: 4,
        churn_rewires: 4,
    };
    let companies = hub_companies(&config);

    let token_config = gralmatch::blocking::TokenOverlapConfig {
        top_n: 50,
        max_token_df: 600,
        min_overlap: 2,
    };
    let no_securities = [];
    let domain =
        CompanyDomain::new(&companies, &no_securities).with_token_config(token_config.clone());
    let strategies = domain.blocking_strategies();

    let encoder = PlainEncoder::new(128);
    let matcher = HeuristicMatcher {
        jaccard_threshold: 0.45,
    };
    // Names change across batches (that is the point), so each state is
    // scored through a freshly compiled encoding of the current records.
    let scorer_for = |records: &[gralmatch::records::CompanyRecord]| {
        let encoded = encode_dataset(records, &encoder);
        CompiledDataset::compile(&encoded, &matcher.feature_config())
    };

    let mut pipeline_config = PipelineConfig::new(config.group_size + 1, config.group_size);
    pipeline_config.parallelism = Parallelism::Fixed(4);
    let plan = ShardPlan::new(2);

    let bootstrap_compiled = scorer_for(&companies);
    let (mut state, _load) = PipelineState::initial_load(
        plan,
        companies.clone(),
        &strategies,
        &CompiledScorer::new(&matcher, &bootstrap_compiled),
        &pipeline_config,
    )
    .unwrap();
    let mut index = CutIndex::new();
    index.rebuild_from(state.cleaned());
    let mut blocking = BlockingIndex::default();

    let mut final_records = companies.clone();
    for batch in 0..config.churn_batches {
        let updates = hub_interior_churn_updates(&config, batch);
        for update in &updates {
            final_records[update.id.0 as usize] = update.clone();
        }
        let compiled = scorer_for(&final_records);
        let scorer = CompiledScorer::new(&matcher, &compiled);
        state
            .apply_with_index(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates,
                    deletes: Vec::new(),
                },
                &strategies,
                &scorer,
                &pipeline_config,
                Some(&mut index),
                Some(&mut blocking),
            )
            .unwrap_or_else(|e| panic!("interior churn batch {batch}: {e:?}"));
        support::assert_matches_fresh_load(
            &state,
            &strategies,
            &scorer,
            &pipeline_config,
            &format!("interior churn batch {batch}"),
        );
    }

    // Final batch: restore every still-degraded record, so the end state
    // is the bootstrap population again (and the restores themselves run
    // through the index's insert-edge maintenance one more time).
    let restore: Vec<gralmatch::records::CompanyRecord> = final_records
        .iter()
        .zip(&companies)
        .filter(|(current, original)| current.name != original.name)
        .map(|(_, original)| original.clone())
        .collect();
    assert!(!restore.is_empty(), "last rotation left nothing degraded");
    for update in &restore {
        final_records[update.id.0 as usize] = update.clone();
    }
    let compiled = scorer_for(&final_records);
    let scorer = CompiledScorer::new(&matcher, &compiled);
    state
        .apply_with_index(
            &UpsertBatch {
                inserts: Vec::new(),
                updates: restore,
                deletes: Vec::new(),
            },
            &strategies,
            &scorer,
            &pipeline_config,
            Some(&mut index),
            Some(&mut blocking),
        )
        .unwrap_or_else(|e| panic!("restore batch: {e:?}"));
    support::assert_matches_fresh_load(
        &state,
        &strategies,
        &scorer,
        &pipeline_config,
        "restore batch",
    );
    assert_eq!(
        index.stats.heals, 0,
        "every edge mutation was fed, so the index never needed a heal"
    );
    let last_groups = state.groups();

    let final_domain =
        CompanyDomain::new(&final_records, &no_securities).with_token_config(token_config);
    let final_compiled = scorer_for(&final_records);
    let one_shot = run_sharded(
        &final_domain,
        &CompiledScorer::new(&matcher, &final_compiled),
        &pipeline_config,
        &plan,
    )
    .unwrap();
    assert_eq!(
        normalize(&last_groups),
        normalize(&one_shot.outcome.groups),
        "interior churn replay diverged from one-shot groups"
    );

    // Semantics: with every degrade restored, the cleanup must have cut
    // every hub bridge and spared every clique — each multi-record group
    // is exactly one entity's records.
    let groups = normalize(&last_groups);
    let multi: Vec<&Vec<RecordId>> = groups.iter().filter(|g| g.len() > 1).collect();
    let sizes: Vec<usize> = multi.iter().map(|g| g.len()).collect();
    assert_eq!(
        multi.len(),
        config.hubs * config.groups_per_hub,
        "multi-group sizes: {sizes:?}"
    );
    for group in multi {
        assert_eq!(group.len(), config.group_size, "a group was cut");
        let entity = companies[group[0].0 as usize].entity.unwrap();
        assert!(
            group
                .iter()
                .all(|id| companies[id.0 as usize].entity.unwrap() == entity),
            "group mixes entities: {group:?}"
        );
    }
}
