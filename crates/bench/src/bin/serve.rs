//! The match *service*: a multi-tenant [`EngineHost`] that loads one or
//! more persisted `PipelineState`s + trained matchers from disk — one
//! named tenant per domain — applies `UpsertBatch` streams from files
//! and stdin, and answers group lookups over the versioned line protocol
//! (`docs/PROTOCOL.md`) with per-tenant latency traces.
//!
//! Two subcommands:
//!
//! ```text
//! serve bootstrap [--domain companies|securities|products] [--shards N]
//!                 [--deltas K] [--model model.json]
//!                 [--state serve-state.json] [--deltas-out serve-deltas]
//! ```
//! generates the domain's benchmark records (`GRALMATCH_SCALE`),
//! bootstraps an engine over the leading 70 % of them, persists its
//! state + scorer-fingerprint sidecar, and writes `K` delta-batch files
//! over the remainder — **with delete/re-insert churn woven through
//! them**, so replaying the deltas exercises component re-cleaning, not
//! just growth.
//!
//! ```text
//! serve run [--tenant NAME:DOMAIN:STATE[:MODEL]]…
//!           [--state serve-state.json] [--model model.json]
//!           [--durable DIR]
//!           [--apply [TENANT:]delta-1.json]… [--save-state [TENANT:]out.json]
//!           [--listen ADDR [--readers N] [--client-script FILE]]
//! ```
//! resumes every `--tenant` engine from its state file (scoring through
//! its own loaded model, or the heuristic matcher when none is given) —
//! with no `--tenant`, a one-entry `securities` host from `--state` —
//! applies each `--apply` batch with a latency trace, then serves the
//! line protocol from stdin until EOF or over TCP with `--listen` (see
//! `gralmatch_bench::net`; `--client-script` streams a request file
//! through a real TCP client against the bound listener and shuts the
//! server down after). Malformed lines answer with a coded
//! `error: <code>: <message>` line and the service keeps running.
//!
//! `--durable DIR` arms crash-safe binary persistence on every tenant:
//! each keeps a checksummed binary snapshot at `DIR/<tenant>.bin` plus an
//! append-only WAL at `DIR/<tenant>.bin.wal` (`docs/STATE.md`), and a
//! restart recovers from snapshot + WAL tail instead of re-parsing the
//! JSON state. A state file that is itself a binary snapshot (magic
//! `GMSN`) is detected and recovered from directly, with or without
//! `--durable`.

use gralmatch_bench::cli::BenchCli;
use gralmatch_bench::harness::{prepare_synthetic, Scale};
use gralmatch_bench::net::{serve_tcp, LineClient};
use gralmatch_bench::serve::{
    bootstrap_tenant, fingerprint_path, latency_line, load_batch_json, resume_tenant_named,
    resume_tenant_named_binary, save_batch, HostSession, ServeDomain,
};
use gralmatch_core::{
    churn_window, model_fingerprint, persist, CheckpointPolicy, EngineHost, RecoveryReport,
    ShardPlan, TenantEngine, UpsertBatch,
};
use gralmatch_datagen::{generate_wdc, WdcConfig};
use gralmatch_lm::SavedModel;
use gralmatch_records::{CompanyRecord, ProductRecord, SecurityRecord};
use std::io::BufRead;
use std::net::TcpListener;
use std::path::Path;

fn load_model(path: Option<&str>) -> Option<SavedModel> {
    path.map(|path| {
        SavedModel::load(Path::new(path)).unwrap_or_else(|e| panic!("loading {path}: {e:?}"))
    })
}

/// WDC product records scaled like the synthetic financial benchmark, so
/// `GRALMATCH_SCALE` governs every domain's serve footprint.
fn scaled_products(scale: Scale) -> Vec<ProductRecord> {
    let config = WdcConfig {
        num_entities: ((760.0 * scale.0) as usize).max(40),
        ..WdcConfig::default()
    };
    generate_wdc(&config).products.records().to_vec()
}

fn bootstrap(cli: &BenchCli) {
    let scale = Scale::from_env();
    match cli.value("domain").unwrap_or("securities") {
        "securities" => bootstrap_domain::<SecurityRecord>(
            cli,
            scale,
            prepare_synthetic(scale).data.securities.records().to_vec(),
        ),
        "companies" => bootstrap_domain::<CompanyRecord>(
            cli,
            scale,
            prepare_synthetic(scale).data.companies.records().to_vec(),
        ),
        "products" => bootstrap_domain::<ProductRecord>(cli, scale, scaled_products(scale)),
        other => {
            eprintln!("unknown --domain {other:?} (expected companies | securities | products)");
            std::process::exit(2);
        }
    }
}

fn bootstrap_domain<R: ServeDomain>(cli: &BenchCli, scale: Scale, records: Vec<R>) {
    let shards = cli.shards_or(4);
    let deltas = cli.usize_value("deltas").unwrap_or(3);
    let state_path = cli.value("state").unwrap_or("serve-state.json").to_string();
    let deltas_dir = cli
        .value("deltas-out")
        .unwrap_or("serve-deltas")
        .to_string();
    eprintln!(
        "serve bootstrap: domain {} scale {} shards {shards} deltas {deltas} -> {state_path}, \
         {deltas_dir}/",
        R::DOMAIN,
        scale.0
    );

    let initial = records.len() * 7 / 10;
    let model = load_model(cli.value("model"));
    let fingerprint = model_fingerprint(R::DOMAIN, model.as_ref());
    let (tenant, outcome) =
        bootstrap_tenant::<R>(records[..initial].to_vec(), ShardPlan::new(shards), model)
            .expect("bootstrap succeeds");
    eprintln!("serve bootstrap: {}", latency_line(&outcome, 0.0));
    std::fs::write(&state_path, tenant.state_json()).expect("write state");
    // Record which scorer produced the standing predictions — `run`
    // refuses to reconcile this state under a different one.
    std::fs::write(fingerprint_path(&state_path), &fingerprint).expect("write scorer sidecar");

    // Delta files over the remainder, with churn: batch j deletes a small
    // slice of already-loaded records, batch j+1 re-inserts it — so a
    // replay exercises retraction and component re-cleaning.
    std::fs::create_dir_all(&deltas_dir).expect("create deltas dir");
    let remainder = &records[initial..];
    let chunk = remainder.len().div_ceil(deltas.max(1)).max(1);
    let mut pending: Vec<R> = Vec::new();
    for (j, slice) in remainder.chunks(chunk).take(deltas).enumerate() {
        let churn: Vec<R> = records[churn_window(initial, j, 5)]
            .iter()
            .filter(|record| !pending.iter().any(|p| p.id() == record.id()))
            .cloned()
            .collect();
        let mut batch = UpsertBatch::inserting(slice.to_vec());
        batch.inserts.append(&mut pending);
        batch.deletes = churn.iter().map(|record| record.id()).collect();
        pending = churn;
        let path = format!("{deltas_dir}/delta-{}.json", j + 1);
        save_batch(&path, &batch).expect("write delta batch");
        eprintln!(
            "serve bootstrap: wrote {path} (+{} inserts, -{} deletes)",
            batch.inserts.len(),
            batch.deletes.len()
        );
    }
    // A final restore batch keeps the delta set closed: applying every
    // file ends with the full population live.
    let mut delta_files = remainder.chunks(chunk).take(deltas).count();
    if !pending.is_empty() {
        let path = format!("{deltas_dir}/delta-{}.json", delta_files + 1);
        save_batch(&path, &UpsertBatch::inserting(pending)).expect("write restore batch");
        eprintln!("serve bootstrap: wrote {path} (churn restore)");
        delta_files += 1;
    }
    println!(
        "bootstrapped {state_path} ({} tenant, {initial} records live, {delta_files} delta \
         files — apply all of them to reach the full population)",
        R::DOMAIN
    );
}

/// Resume one tenant from its state file, enforcing the scorer sidecar.
/// With `durable_dir`, an existing checkpoint at `DIR/<name>.bin` wins
/// over the state file (the fast-restart path), and a tenant resumed
/// from JSON gets durability enabled there afterwards.
fn resume_one(
    name: &str,
    domain: &str,
    state_path: &str,
    model_path: Option<&str>,
    durable_dir: Option<&str>,
) -> Box<dyn TenantEngine> {
    let model = load_model(model_path);
    // Standing predictions were scored under the bootstrap scorer; mixing
    // in a different one would silently blend scoring regimes. The
    // sidecar is advisory (absent for hand-built states) but a recorded
    // mismatch is fatal.
    let fingerprint = model_fingerprint(domain, model.as_ref());
    let check_sidecar = |path: &str| {
        if let Ok(recorded) = std::fs::read_to_string(fingerprint_path(path)) {
            assert_eq!(
                recorded.trim(),
                fingerprint,
                "{path} was built with a different scorer — pass the matching model for \
                 tenant {name}"
            );
        }
    };
    let report_recovery = |path: &str, report: &RecoveryReport, seconds: f64| {
        eprintln!(
            "serve: tenant {name} ({domain}) recovered {path} in {seconds:.3}s (snapshot \
             epoch {}, {} WAL frame(s) replayed{}{})",
            report.snapshot_epoch,
            report.batches_replayed,
            if report.batches_skipped > 0 {
                format!(
                    ", {} already-checkpointed frame(s) skipped",
                    report.batches_skipped
                )
            } else {
                String::new()
            },
            if report.truncated_tail {
                ", torn tail truncated"
            } else {
                ""
            },
        );
    };
    let load_watch = gralmatch_util::Stopwatch::start();

    let durable_snapshot = durable_dir.map(|dir| format!("{dir}/{name}.bin"));
    let mut recovered_from_checkpoint = false;
    let mut tenant: Box<dyn TenantEngine> = match &durable_snapshot {
        // A checkpoint from a previous durable run wins over the state
        // file: O(snapshot + WAL tail) instead of a JSON re-parse.
        Some(path) if Path::new(path).exists() => {
            check_sidecar(path);
            let (tenant, report) =
                resume_tenant_named_binary(domain, path, model, CheckpointPolicy::default())
                    .unwrap_or_else(|e| panic!("recovering {path} as {domain}: {e:?}"));
            report_recovery(path, &report, load_watch.elapsed_secs());
            recovered_from_checkpoint = true;
            tenant
        }
        _ => {
            let bytes =
                std::fs::read(state_path).unwrap_or_else(|e| panic!("reading {state_path}: {e}"));
            check_sidecar(state_path);
            if persist::is_binary_state(&bytes) {
                let (tenant, report) = resume_tenant_named_binary(
                    domain,
                    state_path,
                    model,
                    CheckpointPolicy::default(),
                )
                .unwrap_or_else(|e| panic!("recovering {state_path} as {domain}: {e:?}"));
                report_recovery(state_path, &report, load_watch.elapsed_secs());
                tenant
            } else {
                let text = String::from_utf8(bytes).unwrap_or_else(|e| {
                    panic!(
                        "{state_path} is neither a binary snapshot nor \
                     UTF-8 JSON: {e}"
                    )
                });
                let tenant = resume_tenant_named(domain, &text, model)
                    .unwrap_or_else(|e| panic!("resuming {state_path} as {domain}: {e:?}"));
                let stats = tenant.stats();
                eprintln!(
                    "serve: tenant {name} ({domain}) resumed {state_path} in {:.3}s ({} live \
                     records, {} groups)",
                    load_watch.elapsed_secs(),
                    stats.num_live,
                    stats.num_groups
                );
                tenant
            }
        }
    };
    if let Some(path) = &durable_snapshot {
        if !recovered_from_checkpoint {
            if let Some(dir) = durable_dir {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("creating durable dir {dir}: {e}"));
            }
            tenant
                .enable_durability(Path::new(path), CheckpointPolicy::default())
                .unwrap_or_else(|e| panic!("enabling durability for tenant {name}: {e}"));
            eprintln!("serve: tenant {name} durable at {path} (WAL {path}.wal)");
        }
    }
    tenant
}

/// Split an `[TENANT:]path` flag value against the registered tenants.
fn tenant_path<'a>(session: &HostSession, value: &'a str) -> (String, &'a str) {
    match value.split_once(':') {
        Some((tenant, path)) if session.host().tenant(tenant).is_some() => {
            (tenant.to_string(), path)
        }
        _ => (session.default_tenant().to_string(), value),
    }
}

fn run(cli: &BenchCli) {
    let mut host = EngineHost::new();
    let specs = cli.all("tenant");
    let durable_dir = cli.value("durable");
    if specs.is_empty() {
        // Single-tenant fallback: one securities host from --state.
        let state_path = cli.value("state").unwrap_or("serve-state.json");
        host.add_tenant(
            "securities",
            resume_one(
                "securities",
                "securities",
                state_path,
                cli.value("model"),
                durable_dir,
            ),
        )
        .expect("register fallback tenant");
    } else {
        for spec in specs {
            // NAME:DOMAIN:STATE[:MODEL]
            let parts: Vec<&str> = spec.splitn(4, ':').collect();
            let [name, domain, state_path] = parts[..3] else {
                panic!("--tenant wants NAME:DOMAIN:STATE[:MODEL], got {spec:?}");
            };
            host.add_tenant(
                name,
                resume_one(name, domain, state_path, parts.get(3).copied(), durable_dir),
            )
            .unwrap_or_else(|e| panic!("registering tenant {name}: {e}"));
        }
    }
    let mut session = HostSession::new(host).expect("serve run needs at least one tenant");

    for value in cli.all("apply") {
        let (tenant, path) = tenant_path(&session, value);
        let batch = load_batch_json(path).unwrap_or_else(|e| panic!("{path}: {e:?}"));
        let (outcome, seconds) = session
            .apply_json(&tenant, &batch)
            .unwrap_or_else(|e| panic!("{path} → {tenant}: {e}"));
        println!("{path} → {tenant}: {}", latency_line(&outcome, seconds));
    }

    if let Some(addr) = cli.value("listen") {
        let readers = cli.usize_value("readers").unwrap_or(4);
        let listener = TcpListener::bind(addr).unwrap_or_else(|e| panic!("binding {addr}: {e}"));
        let local = listener.local_addr().expect("bound socket has an address");
        eprintln!(
            "serve: listening on {local} with {readers} reader thread(s), {} tenant(s); send \
             `shutdown` to stop",
            session.host().len()
        );
        let script = cli
            .value("client-script")
            .map(|path| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}")));
        let client =
            script.map(|script| std::thread::spawn(move || run_client_script(local, &script)));
        let (finished, report) = serve_tcp(listener, session, readers).expect("serve loop");
        session = finished;
        if let Some(client) = client {
            client.join().expect("client script panicked");
        }
        eprintln!(
            "serve: served {} request(s) over {} connection(s)",
            report.requests, report.connections
        );
    } else {
        serve_stdin(&mut session);
    }

    for name in session.host().names() {
        let latency = session.latency(name).expect("tenant has a histogram");
        if latency.count() > 0 {
            eprintln!(
                "serve: tenant {name} batch apply latency {}",
                latency.summary()
            );
        }
    }
    for value in cli.all("save-state") {
        let (tenant, path) = tenant_path(&session, value);
        let message = session
            .save_state(&tenant, path)
            .unwrap_or_else(|e| panic!("saving {path}: {e}"));
        eprintln!("serve: {message}");
    }
}

/// Stream a request file through a real TCP client against our own
/// listener, echoing request → response pairs, and shut the server down
/// at the end — one process, end-to-end over the wire (CI's
/// tenant-smoke).
fn run_client_script(addr: std::net::SocketAddr, script: &str) {
    let mut client = LineClient::connect(addr).expect("connect to own listener");
    let mut lines: Vec<&str> = script
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    if lines.last() != Some(&"shutdown") {
        lines.push("shutdown");
    }
    for line in lines {
        let response = client.request(line).expect("request round trip");
        println!("{line} → {response}");
    }
}

/// The stdin protocol loop. Every failure — unknown command or tenant,
/// malformed inline batch JSON, rejected apply, even non-UTF-8 input —
/// answers with an in-stream `error: <code>: <message>` line; only EOF,
/// `shutdown`, or an unreadable stdin ends the loop.
fn serve_stdin(session: &mut HostSession) {
    let mut cursor = session.default_tenant().to_string();
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match input.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                println!("error: io: stdin read failed: {e}");
                break;
            }
        }
        // Invalid UTF-8 turns into replacement characters and falls
        // through to a protocol error instead of terminating the service.
        let line = String::from_utf8_lossy(&buf).trim().to_string();
        if line == "shutdown" {
            println!("shutting down");
            break;
        }
        match session.command(&mut cursor, &line) {
            Ok(response) if response.is_empty() => {}
            Ok(response) => println!("{response}"),
            Err(message) => println!("error: {message}"),
        }
    }
}

fn main() {
    let cli = BenchCli::parse(&[
        "domain",
        "shards",
        "deltas",
        "deltas-out",
        "state",
        "model",
        "tenant",
        "durable",
        "apply",
        "save-state",
        "listen",
        "readers",
        "client-script",
    ]);
    match cli.positional().first().map(String::as_str) {
        Some("bootstrap") => bootstrap(&cli),
        Some("run") => run(&cli),
        other => {
            eprintln!(
                "usage: serve bootstrap|run [--domain D] [--shards N] [--deltas K] \
                 [--deltas-out DIR] [--state FILE] [--model FILE] \
                 [--tenant NAME:DOMAIN:STATE[:MODEL]]... [--durable DIR] \
                 [--apply [TENANT:]FILE]... \
                 [--save-state [TENANT:]FILE]... [--listen ADDR] [--readers N] \
                 [--client-script FILE] (got {other:?})"
            );
            std::process::exit(2);
        }
    }
}
