//! `noise`: how far identical code disagrees with itself. Runs N sets of M
//! untraced runs (run *i* of every set uses seed `base + i`, as the
//! benchmark's acceptance rule does) and prints, per workload and
//! end-to-end metric, the median and quartiles of all runs, their
//! (q3 − q1) / median, the widest (q3 − q1) / median of any one set, the
//! largest gap between two sets' medians in the metric's worse direction,
//! and the bound from `BENCHMARK.json`.

use crate::scenario::run_workload;
use crate::server::repo_root;
use crate::spec::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::{Plan, Workload};
use gralmatch_util::Json;

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Json::as_str);
            let bound = metric.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(name, bound)| (name.to_string(), bound))
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

/// Run the sets and print the table; `Ok(false)` when any set-to-set gap
/// exceeds its bound. The spread column is there to be read against the
/// bound (it should stay below a third of it); it does not decide the exit
/// code.
pub fn run(
    workloads: &[Workload],
    sets: usize,
    runs: usize,
    base_seed: u64,
) -> Result<bool, String> {
    let bounds = bounds()?;
    // per_set[set][workload][metric] = one value per run
    let mut per_set: Vec<Vec<Vec<Vec<f64>>>> = Vec::with_capacity(sets);
    for set in 0..sets {
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
        for run in 0..runs {
            for (w, &workload) in workloads.iter().enumerate() {
                let plan = Plan::reference(workload);
                let result = run_workload(workload, &plan, base_seed + run as u64, false)?;
                // The raw values, so a spread can be told apart afterwards:
                // a seed that is slow in every set is the workload's order
                // dependence, a set that is slow for every seed is the box.
                let raw: Vec<String> = result
                    .end_to_end
                    .iter()
                    .map(|m| format!("{}={:.4}", m.name, m.value))
                    .collect();
                eprintln!(
                    "noise: set {set} seed {} {} — {:.1}s, {} failed, yardstick {:.1} → {:.1} ms{} — {}",
                    result.seed,
                    workload.name(),
                    result.wall_seconds,
                    result.tally.failed,
                    result.yardstick_ms.0,
                    result.yardstick_ms.1,
                    if result.disturbed() { ", disturbed" } else { "" },
                    raw.join(" ")
                );
                if !result.correct() {
                    return Err(format!(
                        "{} seed {} was incorrect: {:?}",
                        workload.name(),
                        result.seed,
                        result.tally.messages
                    ));
                }
                for (m, spec) in END_TO_END.iter().enumerate() {
                    let value = result
                        .end_to_end_value(spec.name)
                        .ok_or_else(|| format!("run printed no {}", spec.name))?;
                    values[w][m].push(value);
                }
            }
        }
        per_set.push(values);
    }

    println!("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | widest of one set | largest set gap | bound | gap within bound |");
    println!("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |");
    let mut all_within = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let per_set: Vec<&Vec<f64>> = per_set.iter().map(|set| &set[w][m]).collect();
            let pooled: Vec<f64> = per_set.iter().flat_map(|set| set.iter().copied()).collect();
            let (q1, q3) = quartiles(&pooled);
            let spread = per_set
                .iter()
                .map(|set| {
                    let (q1, q3) = quartiles(set);
                    (q3 - q1) / median(set)
                })
                .fold(0.0, f64::max);
            // A later set is "worse" than an earlier one by this share of
            // the earlier median; the acceptance rule bounds exactly that.
            let medians: Vec<f64> = per_set.iter().map(|set| median(set)).collect();
            let mut gap: f64 = 0.0;
            for (i, &first) in medians.iter().enumerate() {
                for &second in &medians[i + 1..] {
                    let worse = match spec.better {
                        Better::Lower => (second - first) / first,
                        Better::Higher => (first - second) / first,
                    };
                    gap = gap.max(worse.abs());
                }
            }
            let bound = bounds
                .iter()
                .find(|(name, _)| name == spec.name)
                .map(|&(_, bound)| bound)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", spec.name))?;
            let within = gap <= bound;
            all_within &= within;
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} | {} |",
                workload.name(),
                spec.name,
                spec.unit,
                median(&pooled),
                q1,
                q3,
                (q3 - q1) / median(&pooled),
                spread,
                gap,
                bound,
                if within { "yes" } else { "NO" }
            );
        }
    }
    Ok(all_within)
}
