//! Property tests for the scaled graph cleanup.
//!
//! The cleanup rewrite (bridge-first splitting, per-component scratch
//! graphs, worker-pool fan-out) must be an *execution strategy*, not a
//! semantics change:
//!
//! * parallel cleanup is bit-for-bit identical to sequential on hub
//!   worst-case graphs and on seeded random clique-plus-noise graphs;
//! * new and reference ([`reference_graph_cleanup`]) cleanups both land
//!   every component at or under μ;
//! * replaying the hub-entity dataset through the incremental engine —
//!   bootstrap load plus churn batches that keep dirtying the
//!   mega-component — lands on exactly the groups of a one-shot
//!   [`run_sharded`] over the final population;
//! * a delta batch's merge costs its touched components: on a 10k-record
//!   hub state a one-record update walks only its own component and
//!   allocates nothing the size of the id space.
//!
//! The offline build has no `proptest`; cases are deterministic seeded
//! instances with the seed in every assertion message.

use gralmatch::core::{
    graph_cleanup, graph_cleanup_with_pool, prediction_graph, reference_graph_cleanup, run_sharded,
    CleanupConfig, CompanyDomain, CompiledScorerProvider, MatchEngine, MatchingDomain,
    PipelineConfig, PipelineState, ShardPlan, UpsertBatch,
};
use gralmatch::datagen::{hub_churn_updates, hub_companies, hub_graph, HubConfig};
use gralmatch::graph::{component_of, connected_components, Edge, Graph};
use gralmatch::lm::{
    CompiledDataset, CompiledScorer, HeuristicMatcher, PairwiseMatcher, PlainEncoder,
};
use gralmatch::records::{CompanyRecord, RecordId};
use gralmatch::util::{Parallelism, SplitRng, WorkerPool};

fn sorted_edges(graph: &Graph) -> Vec<Edge> {
    let mut edges: Vec<Edge> = graph.edges().collect();
    edges.sort_unstable();
    edges
}

/// Assert sequential and pool-backed cleanup agree bit for bit on `graph`.
fn assert_parallel_matches_sequential(graph: &Graph, config: &CleanupConfig, context: &str) {
    let mut sequential = graph.clone();
    let sequential_report = graph_cleanup(&mut sequential, config);
    let mut parallel = graph.clone();
    let pool = WorkerPool::new(4);
    let parallel_report = graph_cleanup_with_pool(&mut parallel, config, &pool);

    assert_eq!(
        sorted_edges(&sequential),
        sorted_edges(&parallel),
        "{context}: parallel cleanup removed a different edge set"
    );
    assert_eq!(
        (
            sequential_report.mincut_removed,
            sequential_report.betweenness_removed,
            sequential_report.mincut_rounds,
            sequential_report.betweenness_rounds,
        ),
        (
            parallel_report.mincut_removed,
            parallel_report.betweenness_removed,
            parallel_report.mincut_rounds,
            parallel_report.betweenness_rounds,
        ),
        "{context}: parallel cleanup counters diverged"
    );
    for component in connected_components(&parallel) {
        assert!(
            component.len() <= config.mu,
            "{context}: component of {} survived cleanup (μ = {})",
            component.len(),
            config.mu
        );
    }
}

#[test]
fn parallel_cleanup_matches_sequential_on_hub_graphs() {
    for (hubs, groups, size) in [(1, 20, 4), (3, 11, 5), (2, 40, 3)] {
        let config = HubConfig {
            hubs,
            groups_per_hub: groups,
            group_size: size,
            churn_batches: 2,
            churn_rewires: 3,
        };
        let hub = hub_graph(&config);
        let mut graph = Graph::with_nodes(hub.num_nodes);
        for &(a, b) in &hub.bootstrap_edges {
            graph.add_edge(a, b);
        }
        let cleanup = CleanupConfig::new(size + 1, size);
        assert_parallel_matches_sequential(
            &graph,
            &cleanup,
            &format!("hub graph {hubs}×{groups}×{size}"),
        );
    }
}

#[test]
fn parallel_cleanup_matches_sequential_on_random_graphs() {
    // Clique backbones plus random noise edges: guarantees mega-components
    // with non-trivial cuts (not just bridges), so the Stoer–Wagner
    // fallback path is exercised alongside the bridge fast path.
    for seed in [3u64, 17, 71] {
        let mut rng = SplitRng::new(seed).split("cleanup-scaling");
        let num_cliques = 18;
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
        for _ in 0..40 {
            let a = rng.next_below(n) as u32;
            let b = rng.next_below(n) as u32;
            if a != b {
                graph.add_edge(a, b);
            }
        }
        let cleanup = CleanupConfig::new(12, 6);
        assert_parallel_matches_sequential(&graph, &cleanup, &format!("random graph seed {seed}"));
    }
}

#[test]
fn new_and_reference_cleanup_reach_the_same_size_bound() {
    // The two implementations may choose different cut edges (bridge-first
    // vs Stoer–Wagner order), so removed-edge sets are not comparable —
    // the contract is the Algorithm 1 postcondition: no component above μ.
    let config = HubConfig {
        hubs: 2,
        groups_per_hub: 25,
        group_size: 4,
        churn_batches: 2,
        churn_rewires: 3,
    };
    let hub = hub_graph(&config);
    let cleanup = CleanupConfig::new(config.group_size + 1, config.group_size);
    for (name, reference) in [("new", false), ("reference", true)] {
        let mut graph = Graph::with_nodes(hub.num_nodes);
        for &(a, b) in &hub.bootstrap_edges {
            graph.add_edge(a, b);
        }
        let report = if reference {
            reference_graph_cleanup(&mut graph, &cleanup)
        } else {
            graph_cleanup(&mut graph, &cleanup)
        };
        assert!(report.mincut_removed > 0, "{name}: no cuts on a hub graph");
        for component in connected_components(&graph) {
            assert!(
                component.len() <= cleanup.mu,
                "{name}: component of {} survived (μ = {})",
                component.len(),
                cleanup.mu
            );
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
fn hub_churn_replay_matches_one_shot_groups() {
    // The engine-level mirror of the hubbench protocol: load the full hub
    // dataset, then replay churn batches that re-submit rotating group
    // representatives (city-stamped, names unchanged). Every batch dirties
    // the hub mega-component and forces a re-clean through the parallel
    // cleanup; the final groups must equal a one-shot sharded run.
    let config = HubConfig {
        hubs: 2,
        groups_per_hub: 12,
        group_size: 4,
        churn_batches: 3,
        churn_rewires: 4,
    };
    let companies = hub_companies(&config);

    // The rep–hub candidate pairs tie with many rep–rep pairs on overlap
    // count, so widen top-n beyond the default 10 to keep them all; the
    // hub tokens appear in every rep, so raise the DF cut too.
    let token_config = gralmatch::blocking::TokenOverlapConfig {
        top_n: 50,
        max_token_df: 600,
        min_overlap: 2,
    };
    let no_securities = [];
    let domain =
        CompanyDomain::new(&companies, &no_securities).with_token_config(token_config.clone());
    let strategies = domain.blocking_strategies();

    // Names never change across churn, so one compiled encoding of the
    // bootstrap population scores every replay state.
    let encoder = PlainEncoder::new(128);
    let encoded = gralmatch::lm::encode_dataset(&companies, &encoder);
    let matcher = HeuristicMatcher {
        jaccard_threshold: 0.45,
    };
    let compiled = CompiledDataset::compile(&encoded, &matcher.feature_config());
    let scorer = CompiledScorer::new(&matcher, &compiled);

    let mut pipeline_config = PipelineConfig::new(config.group_size + 1, config.group_size);
    pipeline_config.parallelism = Parallelism::Fixed(4);
    let plan = ShardPlan::new(2);

    let (mut state, _) = PipelineState::initial_load(
        plan,
        companies.clone(),
        &strategies,
        &scorer,
        &pipeline_config,
    )
    .unwrap();
    let mut final_records = companies.clone();
    for batch in 0..config.churn_batches {
        let updates = hub_churn_updates(&config, batch);
        for update in &updates {
            final_records[update.id.0 as usize] = update.clone();
        }
        let outcome = state
            .apply(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates,
                    deletes: Vec::new(),
                },
                &strategies,
                &scorer,
                &pipeline_config,
            )
            .unwrap_or_else(|e| panic!("churn batch {batch}: {e:?}"));
        // Every re-submitted pair scores positive again, so the cleaned
        // graph's net edge delta is the re-welded hub bridges alone: no
        // block goes dirty and the cut index rescans nothing.
        assert!(outcome.retracted_predictions > 0);
        assert_eq!(outcome.cleanup.rescanned_nodes, 0, "churn batch {batch}");
    }
    let last_groups = state.groups();

    let final_domain =
        CompanyDomain::new(&final_records, &no_securities).with_token_config(token_config);
    let one_shot = run_sharded(&final_domain, &scorer, &pipeline_config, &plan).unwrap();
    assert_eq!(
        normalize(&last_groups),
        normalize(&one_shot.outcome.groups),
        "hub churn replay diverged from one-shot groups"
    );

    // Semantics: the cleanup must cut every hub bridge and spare every
    // clique — each multi-record group is exactly one entity's records.
    let groups = normalize(&last_groups);
    let cliques: Vec<&Vec<RecordId>> = groups.iter().filter(|g| g.len() > 1).collect();
    assert_eq!(cliques.len(), config.hubs * config.groups_per_hub);
    for group in cliques {
        assert_eq!(group.len(), config.group_size, "a clique was cut");
        let entity = entity_of(&companies, group[0]);
        assert!(
            group.iter().all(|id| entity_of(&companies, *id) == entity),
            "group mixes entities: {group:?}"
        );
    }
}

fn entity_of(companies: &[CompanyRecord], id: RecordId) -> u32 {
    companies[id.0 as usize].entity.unwrap().0
}

#[test]
fn delta_merge_work_is_bounded_by_the_touched_components() {
    // 40 independent hub mega-components of 253 records each.
    let config = HubConfig {
        hubs: 40,
        groups_per_hub: 63,
        group_size: 4,
        churn_batches: 1,
        churn_rewires: 1,
    };
    let companies = hub_companies(&config);
    assert!(companies.len() >= 10_000);
    let token_config = gralmatch::blocking::TokenOverlapConfig {
        top_n: 50,
        max_token_df: 600,
        min_overlap: 2,
    };
    let no_securities = [];
    let domain = CompanyDomain::new(&companies, &no_securities).with_token_config(token_config);
    let matcher = HeuristicMatcher {
        jaccard_threshold: 0.45,
    };
    let provider = CompiledScorerProvider::new(matcher, PlainEncoder::new(128));
    let (mut engine, load) = MatchEngine::bootstrap(
        ShardPlan::new(2),
        companies.clone(),
        domain.blocking_strategies(),
        Box::new(provider),
        PipelineConfig::new(config.group_size + 1, config.group_size),
    )
    .unwrap();
    assert_eq!(load.merge_visited_nodes, companies.len());
    assert!(
        load.population_allocations > 0,
        "the bootstrap grows the cleaned graph to the id space"
    );

    // A name-only update of one group member, then its delete and its
    // re-insert: each batch's merge walks at most the member's raw
    // component and never allocates at the size of the id space.
    let id = config.member_node(7, 11, 2);
    let mut renamed = companies[id as usize].clone();
    renamed.name.push_str(" renamed");
    let raw = prediction_graph(engine.state().num_ids(), engine.state().predicted());
    let component = component_of(&raw, id);
    assert!(
        component.len() * 20 < companies.len(),
        "{}",
        component.len()
    );
    let batches = [
        UpsertBatch {
            updates: vec![renamed.clone()],
            ..UpsertBatch::new()
        },
        UpsertBatch {
            deletes: vec![RecordId(id)],
            ..UpsertBatch::new()
        },
        UpsertBatch::inserting(vec![renamed]),
    ];
    for (step, batch) in batches.iter().enumerate() {
        let outcome = engine.apply_batch(batch).unwrap();
        assert!(outcome.merge_visited_nodes > 0, "batch {step}");
        assert!(
            outcome.merge_visited_nodes <= component.len(),
            "batch {step}: walked {} nodes, its component has {}",
            outcome.merge_visited_nodes,
            component.len()
        );
        assert_eq!(outcome.population_allocations, 0, "batch {step}");
        assert_eq!(outcome.num_groups, engine.state().groups().len());
    }
}
