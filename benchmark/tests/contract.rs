//! The benchmark's contract with `BENCHMARK.json` and with the box it runs
//! on: same vocabulary, every metric emitted, exact counts repeat, nothing
//! left behind.

use gralmatch_benchmark::scenario::run_workload;
use gralmatch_benchmark::server::{out_root, process_alive, repo_root};
use gralmatch_benchmark::spec::{valid_name, MetricSpec, END_TO_END, PER_LAYER};
use gralmatch_benchmark::workload::{Plan, Workload};
use gralmatch_benchmark::{noise, report};
use gralmatch_util::Json;

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}: {entry:?}"))
}

fn assert_same_metrics(listed: &[Json], spec: &[MetricSpec], what: &str) {
    let listed: Vec<(&str, &str, &str)> = listed
        .iter()
        .map(|entry| {
            (
                text(entry, "name"),
                text(entry, "unit"),
                text(entry, "better"),
            )
        })
        .collect();
    let expected: Vec<(&str, &str, &str)> = spec
        .iter()
        .map(|metric| (metric.name, metric.unit, metric.better.as_str()))
        .collect();
    assert_eq!(
        listed, expected,
        "{what} of BENCHMARK.json and spec.rs differ"
    );
}

#[test]
fn benchmark_json_and_the_harness_share_one_vocabulary() {
    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|entry| text(entry, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let list = |key: &str| json.get(key).and_then(Json::as_arr).expect("metric list");
    assert_same_metrics(list("end_to_end"), &END_TO_END, "end_to_end");
    assert_same_metrics(list("per_layer"), &PER_LAYER, "per_layer");

    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|metric| metric.name)
        .chain(Workload::ALL.map(Workload::name))
        .collect();
    assert!(names.iter().all(|name| valid_name(name)), "{names:?}");
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");

    let bounds = noise::bounds().expect("every end-to-end metric has a bound");
    assert!(bounds.iter().all(|(_, bound)| (0.0..=0.20).contains(bound)));
    assert!(bounds.iter().any(|(name, _)| name == "setup_s"));
}

/// A seconds-long pass of every workload, traced (a traced run measures the
/// end-to-end metrics too), twice with one seed.
#[test]
fn tiny_pass_emits_every_metric_repeats_exact_counts_and_leaves_nothing_behind() {
    for workload in Workload::ALL {
        let plan = Plan::tiny(workload);
        let first = run_workload(workload, &plan, 7, true).expect("first tiny run");
        let second = run_workload(workload, &plan, 7, true).expect("second tiny run");
        for result in [&first, &second] {
            assert!(result.correct(), "{:?}", result.tally.messages);
            assert!(result.tally.attempted > 0);
            let end_to_end: Vec<&str> = result.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(end_to_end, END_TO_END.map(|metric| metric.name));
            let per_layer: Vec<&str> = report::metrics(result)
                .iter()
                .map(|(spec, _)| spec.name)
                .collect();
            assert_eq!(per_layer, PER_LAYER.map(|metric| metric.name));
            for (spec, value) in report::metrics(result) {
                assert!(value.is_finite(), "{} is {value}", spec.name);
            }
            assert!(
                result.end_to_end.iter().all(|m| m.value > 0.0),
                "an end-to-end metric is 0: {:?}",
                result.end_to_end
            );
            assert!(!result.server_pids.is_empty());
            for &pid in &result.server_pids {
                assert!(!process_alive(pid), "server {pid} outlived its run");
            }
            let line = report::json_line(result);
            let parsed = Json::parse(&line).expect("the result line is JSON");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(parsed.get(key).is_some(), "result line lacks {key}");
            }
        }
        for ((spec, a), (_, b)) in report::metrics(&first).iter().zip(report::metrics(&second)) {
            if spec.exact {
                assert_eq!(*a, b, "{} did not repeat on {}", spec.name, workload.name());
            }
        }
        for exact in ["group_f1", "disk_bytes_per_record"] {
            assert_eq!(
                first.end_to_end_value(exact),
                second.end_to_end_value(exact),
                "{exact} did not repeat on {}",
                workload.name()
            );
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(out_root())
        .map(|entries| entries.filter_map(Result::ok).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
}
