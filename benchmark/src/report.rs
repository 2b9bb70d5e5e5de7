//! Rendering: the human-readable table and the one-line JSON result the
//! benchmark contract asks for.

use crate::scenario::RunResult;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};

fn spec_of(name: &str) -> &'static MetricSpec {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|spec| spec.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec"))
}

/// The metrics of a run, in spec order: end-to-end for an untraced run,
/// per-layer for a traced one. A metric the run did not produce is a bug in
/// the harness, so it panics.
pub fn metrics(result: &RunResult) -> Vec<(&'static MetricSpec, f64)> {
    let specs: &'static [MetricSpec] = if result.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    specs
        .iter()
        .map(|spec| {
            let value = if result.traced {
                result
                    .per_layer
                    .iter()
                    .find(|(name, _)| *name == spec.name)
                    .map(|&(_, value)| value)
            } else {
                result.end_to_end_value(spec.name)
            };
            (
                spec,
                value.unwrap_or_else(|| panic!("no {} measured", spec.name)),
            )
        })
        .collect()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, values printed with all their digits.
pub fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = metrics(result)
        .into_iter()
        .map(|(spec, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(value),
                spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.tally.attempted,
        result.tally.failed,
        metrics.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// The table a person reads.
pub fn table(result: &RunResult) -> String {
    let mut out = format!(
        "workload {} seed {} ({}): {} ops attempted, {} failed, {:.1}s wall, yardstick {:.2} → {:.2} ms{}\n",
        result.workload.name(),
        result.seed,
        if result.traced { "traced" } else { "untraced" },
        result.tally.attempted,
        result.tally.failed,
        result.wall_seconds,
        result.yardstick_ms.0,
        result.yardstick_ms.1,
        if result.disturbed() { " — DISTURBED" } else { "" },
    );
    for message in &result.tally.messages {
        out.push_str(&format!("  failure: {message}\n"));
    }
    if result.traced {
        out.push_str(
            "  end-to-end, as this traced run saw them (the untraced run's are the record):\n",
        );
    }
    for measured in &result.end_to_end {
        let spec = spec_of(measured.name);
        out.push_str(&format!(
            "  {:<24} {:>16.4} {:<6} {:<7} {} of {}\n",
            spec.name,
            measured.value,
            spec.unit,
            spec.better.as_str(),
            measured.statistic,
            measured.samples,
        ));
    }
    for (spec, value) in result.traced.then(|| metrics(result)).into_iter().flatten() {
        out.push_str(&format!(
            "  {:<40} {:>16.4} {:<6} {}{}\n",
            spec.name,
            value,
            spec.unit,
            spec.better.as_str(),
            if spec.exact { ", exact" } else { "" },
        ));
    }
    out
}

/// The traced run's end-to-end numbers beside the untraced run's: their
/// distance is what tracing cost.
pub fn overhead_table(untraced: &RunResult, traced: &RunResult) -> String {
    let mut out = format!(
        "tracing overhead, workload {} seed {} (traced − untraced, share of untraced):\n",
        untraced.workload.name(),
        untraced.seed
    );
    for plain in &untraced.end_to_end {
        if let Some(probed) = traced.end_to_end_value(plain.name) {
            out.push_str(&format!(
                "  {:<24} {:>16.4} → {:>16.4}  {:+.2} %\n",
                plain.name,
                plain.value,
                probed,
                (probed - plain.value) / plain.value * 100.0
            ));
        }
    }
    out
}
