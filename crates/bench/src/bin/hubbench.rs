//! Hub-entity cleanup benchmark: the worst case the cleanup rewrite is
//! for.
//!
//! Builds the [`hub_graph`] workload (per-hub mega-components of cliques
//! welded together by bridge edges to one popular record, plus churn
//! batches that keep re-adding the hub bridges) and runs the same
//! bootstrap-then-churn protocol through both cleanup implementations:
//!
//! * **new** — [`graph_cleanup_with_pool`]: bridge-first splitting, one
//!   mutable scratch graph per component lineage, per-component fan-out;
//! * **reference** — [`reference_graph_cleanup`]: the seed algorithm that
//!   re-induces the component and runs Stoer–Wagner after every removal.
//!
//! `--steady` adds a third protocol: a long steady-state schedule
//! ([`hub_steady_schedule`]) that re-adds every hub bridge each batch and
//! retracts/restores interior clique edges (delete-created bridges), run
//! once with a warm [`CutIndex`] fed the exact edge deltas
//! ([`graph_cleanup_with_index`]) and once through the sequential rescan
//! path ([`graph_cleanup`]). The two runs must produce bit-identical final
//! edge sets, and the indexed run must be at least `--min-steady-speedup`
//! (default 3) times faster.
//!
//! The report (default `HUBBENCH.json`, or merged into a repro report
//! with `--merge-into`) carries a gated `cleanup` object
//! (`cleanup:hub_bootstrap_s`, `cleanup:hub_churn_s`, and with `--steady`
//! `cleanup:hub_steady_s` — seconds, bigger = worse) and an ungated
//! `cleanup_info` object with the speedups, both paths' timings, and
//! workload shape. `--mode reference` swaps the reference timings into
//! the gated bootstrap/churn lines and `--mode rescan` swaps the
//! un-indexed steady timing into `cleanup:hub_steady_s` — CI uses those
//! to verify `perfcmp` fails on either injected fallback.
//!
//! Exits nonzero when the new path is less than `--min-speedup` (default
//! 4) times faster than the reference, when the steady speedup falls
//! short, or when any path leaves an oversized component behind. The
//! report is written before the checks so baseline regeneration works
//! everywhere.

use gralmatch_bench::cli::BenchCli;
use gralmatch_bench::harness::Scale;
use gralmatch_core::{
    graph_cleanup, graph_cleanup_with_index, graph_cleanup_with_pool, reference_graph_cleanup,
    CleanupConfig, CleanupReport,
};
use gralmatch_datagen::{hub_graph, hub_steady_schedule, HubConfig, HubGraph, SteadyBatch};
use gralmatch_graph::{connected_components, largest_component, CutIndex, Edge, Graph};
use gralmatch_util::{Json, Parallelism, Stopwatch, ToJson, WorkerPool};

/// One implementation's run over the bootstrap + churn protocol.
struct ProtocolRun {
    bootstrap_s: f64,
    churn_s: f64,
    report: CleanupReport,
    largest_after: usize,
}

impl ProtocolRun {
    fn total(&self) -> f64 {
        self.bootstrap_s + self.churn_s
    }
}

/// Run `reps` repetitions of bootstrap-clean + churn-reclean, summing
/// wall-clock (totals, not per-rep means, so the gated numbers aggregate
/// like every other stage line).
fn run_protocol(
    hub: &HubGraph,
    reps: usize,
    mut clean: impl FnMut(&mut Graph) -> CleanupReport,
) -> ProtocolRun {
    let mut bootstrap_s = 0.0;
    let mut churn_s = 0.0;
    let mut report = CleanupReport::default();
    let mut largest_after = 0;
    for _ in 0..reps {
        let mut graph = Graph::with_nodes(hub.num_nodes);
        for &(a, b) in &hub.bootstrap_edges {
            graph.add_edge(a, b);
        }
        let watch = Stopwatch::start();
        report.merge(&clean(&mut graph));
        bootstrap_s += watch.elapsed_secs();
        for batch in &hub.churn_batches {
            for &(a, b) in batch {
                graph.add_edge(a, b);
            }
            let watch = Stopwatch::start();
            report.merge(&clean(&mut graph));
            churn_s += watch.elapsed_secs();
        }
        largest_after = largest_component(&graph).map_or(0, |c| c.len());
    }
    ProtocolRun {
        bootstrap_s,
        churn_s,
        report,
        largest_after,
    }
}

/// One implementation's run over the steady-state churn protocol.
struct SteadyRun {
    steady_s: f64,
    report: CleanupReport,
    largest_after: usize,
    /// Sorted edge set after the final re-clean of each rep — the indexed
    /// and rescan paths must agree bit for bit.
    final_edges: Vec<Edge>,
}

/// Run `reps` repetitions of the steady-state protocol: bootstrap-clean
/// once (untimed), then per steady batch re-add every hub bridge, apply
/// the batch's interior restores/retractions, and re-clean (timed). With
/// `indexed`, a [`CutIndex`] is kept warm across the whole rep via the
/// same delta feed the engine's merge uses; otherwise each re-clean is the
/// sequential rescan path, isolating the index win from pool parallelism.
fn run_steady(
    hub: &HubGraph,
    config: &CleanupConfig,
    hub_bridges: &[(u32, u32)],
    schedule: &[SteadyBatch],
    reps: usize,
    indexed: bool,
) -> SteadyRun {
    let mut steady_s = 0.0;
    let mut report = CleanupReport::default();
    let mut largest_after = 0;
    let mut final_edges = Vec::new();
    for _ in 0..reps {
        let mut graph = Graph::with_nodes(hub.num_nodes);
        for &(a, b) in &hub.bootstrap_edges {
            graph.add_edge(a, b);
        }
        let mut index = CutIndex::new();
        if indexed {
            index.rebuild_from(&graph);
            let components = connected_components(&graph);
            graph_cleanup_with_index(&mut graph, &components, config, &mut index);
        } else {
            graph_cleanup(&mut graph, config);
        }
        for batch in schedule {
            for &(a, b) in hub_bridges.iter().chain(&batch.add) {
                if graph.add_edge(a, b) && indexed {
                    index.insert_edge(a, b);
                }
            }
            for &(a, b) in &batch.remove {
                if graph.remove_edge(a, b) && indexed {
                    index.remove_edge(a, b);
                }
            }
            let watch = Stopwatch::start();
            let batch_report = if indexed {
                let components = connected_components(&graph);
                graph_cleanup_with_index(&mut graph, &components, config, &mut index)
            } else {
                graph_cleanup(&mut graph, config)
            };
            steady_s += watch.elapsed_secs();
            report.merge(&batch_report);
        }
        largest_after = largest_component(&graph).map_or(0, |c| c.len());
        final_edges = graph.edges().collect();
        final_edges.sort();
    }
    SteadyRun {
        steady_s,
        report,
        largest_after,
        final_edges,
    }
}

fn main() {
    let cli = BenchCli::parse_with_switches(
        &[
            "merge-into",
            "mode",
            "reps",
            "min-speedup",
            "min-steady-speedup",
            "steady-batches",
        ],
        &["steady"],
    );
    let out_path = cli.out_path("HUBBENCH.json");
    let scale = Scale::from_env();
    let steady = cli.switch("steady");
    let mode = cli.value("mode").unwrap_or("new");
    assert!(
        mode == "new" || mode == "reference" || mode == "rescan",
        "--mode must be `new`, `reference` or `rescan`, got {mode:?}"
    );
    assert!(
        mode != "rescan" || steady,
        "--mode rescan only makes sense with --steady"
    );
    let reps = cli.usize_value("reps").unwrap_or(3).max(1);
    let min_speedup: f64 = cli
        .value("min-speedup")
        .map(|v| v.parse().expect("--min-speedup needs a number"))
        .unwrap_or(4.0);
    let min_steady_speedup: f64 = cli
        .value("min-steady-speedup")
        .map(|v| v.parse().expect("--min-steady-speedup needs a number"))
        .unwrap_or(3.0);

    let hub_config = HubConfig::scaled(scale.0);
    let hub = hub_graph(&hub_config);
    // γ just above the clique size, μ at it: every hub bridge must go,
    // every clique must survive — the thresholds the workload is built for.
    let cleanup_config = CleanupConfig::new(hub_config.group_size + 1, hub_config.group_size);
    println!(
        "hubbench: {} hubs × {} groups of {} ({} nodes, mega-component {}), {} churn batches, \
         {reps} reps",
        hub_config.hubs,
        hub_config.groups_per_hub,
        hub_config.group_size,
        hub.num_nodes,
        hub.mega_component_size,
        hub.churn_batches.len()
    );

    let pool: WorkerPool = Parallelism::Auto.pool_for(hub.bootstrap_edges.len());
    let new_run = run_protocol(&hub, reps, |graph| {
        graph_cleanup_with_pool(graph, &cleanup_config, &pool)
    });
    let reference_run = run_protocol(&hub, reps, |graph| {
        reference_graph_cleanup(graph, &cleanup_config)
    });
    let speedup = if new_run.total() > 0.0 {
        reference_run.total() / new_run.total()
    } else {
        f64::INFINITY
    };
    println!(
        "hubbench: new {:.4}s (bootstrap {:.4}s + churn {:.4}s) vs reference {:.4}s → {speedup:.1}x",
        new_run.total(),
        new_run.bootstrap_s,
        new_run.churn_s,
        reference_run.total()
    );

    // Steady-state protocol: a long schedule that keeps re-adding the same
    // hub bridges and retracting/restoring interior clique edges, run with
    // a warm CutIndex vs the sequential rescan path.
    let steady_runs = steady.then(|| {
        let batches = cli
            .usize_value("steady-batches")
            .unwrap_or(hub.churn_batches.len() * 4)
            .max(1);
        let schedule = hub_steady_schedule(&hub_config, batches);
        let hub_bridges = hub_config.hub_bridges();
        let indexed = run_steady(&hub, &cleanup_config, &hub_bridges, &schedule, reps, true);
        let rescan = run_steady(&hub, &cleanup_config, &hub_bridges, &schedule, reps, false);
        assert_eq!(
            indexed.final_edges, rescan.final_edges,
            "indexed and rescan steady cleanups diverged"
        );
        assert_eq!(
            (
                indexed.report.mincut_removed,
                indexed.report.betweenness_removed
            ),
            (
                rescan.report.mincut_removed,
                rescan.report.betweenness_removed
            ),
            "indexed and rescan steady cleanups removed different edge counts"
        );
        let steady_speedup = if indexed.steady_s > 0.0 {
            rescan.steady_s / indexed.steady_s
        } else {
            f64::INFINITY
        };
        println!(
            "hubbench: steady ({batches} batches) indexed {:.4}s vs rescan {:.4}s → \
             {steady_speedup:.1}x (cache hits {}, rescanned nodes {})",
            indexed.steady_s,
            rescan.steady_s,
            indexed.report.bridge_cache_hits,
            indexed.report.rescanned_nodes
        );
        (indexed, rescan, steady_speedup, batches)
    });

    // Gated section: seconds, bigger = worse. Default is the new path;
    // `--mode reference` injects the sequential full-recompute numbers and
    // `--mode rescan` injects the un-indexed steady timing, so CI can
    // prove the gate catches either fallback.
    let gated = match mode {
        "reference" => &reference_run,
        _ => &new_run,
    };
    let mut cleanup_fields = vec![
        ("hub_bootstrap_s", gated.bootstrap_s.to_json()),
        ("hub_churn_s", gated.churn_s.to_json()),
    ];
    if let Some((indexed, rescan, _, _)) = &steady_runs {
        let gated_steady = match mode {
            "rescan" => rescan.steady_s,
            _ => indexed.steady_s,
        };
        cleanup_fields.push(("hub_steady_s", gated_steady.to_json()));
    }
    let cleanup = Json::obj(cleanup_fields);
    let mut cleanup_info = Json::obj([
        ("mode", Json::Str(mode.to_string())),
        ("speedup_vs_reference", speedup.to_json()),
        ("new_bootstrap_s", new_run.bootstrap_s.to_json()),
        ("new_churn_s", new_run.churn_s.to_json()),
        ("reference_bootstrap_s", reference_run.bootstrap_s.to_json()),
        ("reference_churn_s", reference_run.churn_s.to_json()),
        ("reps", (reps as f64).to_json()),
        ("nodes", (hub.num_nodes as f64).to_json()),
        (
            "mega_component_size",
            (hub.mega_component_size as f64).to_json(),
        ),
        (
            "bootstrap_edges",
            (hub.bootstrap_edges.len() as f64).to_json(),
        ),
        ("churn_batches", (hub.churn_batches.len() as f64).to_json()),
        (
            "new_mincut_removed",
            (new_run.report.mincut_removed as f64).to_json(),
        ),
        (
            "new_betweenness_removed",
            (new_run.report.betweenness_removed as f64).to_json(),
        ),
    ]);
    if let (Some((indexed, rescan, steady_speedup, batches)), Json::Obj(fields)) =
        (&steady_runs, &mut cleanup_info)
    {
        fields.extend([
            (
                "steady_speedup_vs_rescan".to_string(),
                steady_speedup.to_json(),
            ),
            ("indexed_steady_s".to_string(), indexed.steady_s.to_json()),
            ("rescan_steady_s".to_string(), rescan.steady_s.to_json()),
            ("steady_batches".to_string(), (*batches as f64).to_json()),
            (
                "steady_bridge_cache_hits".to_string(),
                (indexed.report.bridge_cache_hits as f64).to_json(),
            ),
            (
                "steady_rescanned_nodes".to_string(),
                (indexed.report.rescanned_nodes as f64).to_json(),
            ),
        ]);
    }
    write_report(&out_path, cli.value("merge-into"), cleanup, cleanup_info);

    // Correctness backstop: every path must leave every component ≤ μ.
    let mut runs = vec![
        ("new", new_run.largest_after),
        ("reference", reference_run.largest_after),
    ];
    if let Some((indexed, rescan, _, _)) = &steady_runs {
        runs.push(("steady-indexed", indexed.largest_after));
        runs.push(("steady-rescan", rescan.largest_after));
    }
    for (name, largest_after) in runs {
        if largest_after > hub_config.group_size {
            eprintln!(
                "hubbench: FAILED — {name} cleanup left a component of {largest_after} (> μ = {})",
                hub_config.group_size
            );
            std::process::exit(1);
        }
    }
    if speedup < min_speedup {
        eprintln!(
            "hubbench: FAILED — new cleanup only {speedup:.2}x the sequential full-recompute \
             reference (expected ≥ {min_speedup}x)"
        );
        std::process::exit(1);
    }
    if let Some((_, _, steady_speedup, _)) = &steady_runs {
        if *steady_speedup < min_steady_speedup {
            eprintln!(
                "hubbench: FAILED — indexed steady cleanup only {steady_speedup:.2}x the rescan \
                 path (expected ≥ {min_steady_speedup}x)"
            );
            std::process::exit(1);
        }
        println!("hubbench steady ok: {steady_speedup:.1}x over rescan");
    }
    println!("hubbench ok: {speedup:.1}x over reference → {out_path}");
}

/// Write the standalone report, and optionally merge the two cleanup
/// sections into an existing repro report (replacing prior ones).
fn write_report(out_path: &str, merge_into: Option<&str>, cleanup: Json, cleanup_info: Json) {
    let report = Json::obj([
        ("cleanup", cleanup.clone()),
        ("cleanup_info", cleanup_info.clone()),
    ]);
    std::fs::write(out_path, report.to_pretty_string()).expect("write hubbench report");
    let Some(path) = merge_into else { return };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut target = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {}", e.message));
    let Json::Obj(fields) = &mut target else {
        panic!("{path} is not a JSON object");
    };
    fields.retain(|(key, _)| key != "cleanup" && key != "cleanup_info");
    fields.push(("cleanup".to_string(), cleanup));
    fields.push(("cleanup_info".to_string(), cleanup_info));
    std::fs::write(path, target.to_pretty_string()).expect("write merged report");
    eprintln!("hubbench: merged cleanup sections into {path}");
}
