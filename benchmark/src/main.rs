//! `gralmatch-benchmark run|noise` — see `README.md`.

use gralmatch_bench::cli::BenchCli;
use gralmatch_benchmark::scenario::{run_workload, RunResult};
use gralmatch_benchmark::workload::{Plan, Workload};
use gralmatch_benchmark::{noise, report};

const USAGE: &str =
    "usage: gralmatch-benchmark run --workload <sec_trickle|sec_bulk|hub_churn|all> \
     [--seed N] [--seconds S] [--trace 0|1|both]\n       \
     gralmatch-benchmark noise [--workload <name|all>] [--sets N] [--runs M] [--seed N]";

/// The box the bounds in `BENCHMARK.json` were measured on.
const REFERENCE_CORES: usize = 2;

fn main() {
    std::process::exit(match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("gralmatch-benchmark: {message}");
            2
        }
    });
}

fn real_main() -> Result<bool, String> {
    // A bare `--trace` asks for both runs and the overhead between them.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = args.iter().position(|arg| arg == "--trace") {
        if args.get(at + 1).is_none_or(|next| next.starts_with("--")) {
            args.insert(at + 1, "both".into());
        }
    }
    let cli = BenchCli::parse_from(
        args,
        &["workload", "seed", "seconds", "trace", "sets", "runs"],
    )?;
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        cli.value(flag).map_or(Ok(default), |value| {
            value
                .parse()
                .map_err(|_| format!("--{flag} wants a whole number, got {value:?}"))
        })
    };
    let workloads = match cli.value("workload").unwrap_or("all") {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::from_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?],
    };
    let seed = number("seed", 1)?;
    // The driver passes `--seconds`; a run replays fixed counts (the bounds
    // hold at those counts only), so the value changes nothing.
    number("seconds", 0)?;

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores != REFERENCE_CORES {
        eprintln!(
            "warning: this box has {cores} cores; the bounds in BENCHMARK.json were set on \
             {REFERENCE_CORES}"
        );
    }

    match cli.positional().first().map(String::as_str) {
        Some("run") => {
            let (untraced, traced) = match cli.value("trace").unwrap_or("0") {
                "0" => (true, false),
                "1" => (false, true),
                "both" => (true, true),
                other => return Err(format!("--trace wants 0, 1 or both, got {other:?}")),
            };
            let mut correct = true;
            for workload in workloads {
                let plan = Plan::reference(workload);
                let plain = untraced
                    .then(|| run_steady(workload, &plan, seed, false))
                    .transpose()?;
                let probed = traced
                    .then(|| run_steady(workload, &plan, seed, true))
                    .transpose()?;
                if let (Some(plain), Some(probed)) = (&plain, &probed) {
                    print!("{}", report::overhead_table(plain, probed));
                }
                // The traced result goes last: with `--trace both` its line
                // is the one a line-reading caller sees.
                for result in plain.iter().chain(&probed) {
                    correct &= result.correct();
                    println!("{}", report::json_line(result));
                }
            }
            Ok(correct)
        }
        Some("noise") => noise::run(
            &workloads,
            number("sets", 3)? as usize,
            number("runs", 5)?.max(2) as usize,
            seed,
        ),
        _ => Err(USAGE.into()),
    }
}

/// Run once; when the CPU yardstick moved by more than 10 % across the run
/// the box was disturbed, so run once more and keep that.
fn run_steady(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    traced: bool,
) -> Result<RunResult, String> {
    let mut result = run_workload(workload, plan, seed, traced)?;
    print!("{}", report::table(&result));
    if result.disturbed() {
        eprintln!("warning: the box was disturbed during this run; running it once more");
        result = run_workload(workload, plan, seed, traced)?;
        print!("{}", report::table(&result));
        if result.disturbed() {
            eprintln!("warning: disturbed again; reporting this run as it is");
        }
    }
    Ok(result)
}
