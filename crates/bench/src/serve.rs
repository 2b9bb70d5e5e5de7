//! The serve layer: a multi-tenant [`EngineHost`] session behind a line
//! protocol, persisted to and resumed from disk.
//!
//! This is the ROADMAP's multi-tenant engine host made concrete: a
//! [`HostSession`] wraps an [`EngineHost`] of named, domain-erased
//! tenants (companies, securities, products — each an
//! [`EngineTenant`] whose state round-trips
//! through the `PipelineState` JSON codec and whose matcher loads from a
//! [`SavedModel`], falling back to the training-free heuristic), applies
//! [`UpsertBatch`] streams per tenant, and answers group lookups through
//! the line protocol documented in `docs/PROTOCOL.md`:
//!
//! ```text
//! hello                         → versioned banner (protocol-version=2)
//! ping / help / tenants         → liveness, usage, tenant listing
//! use <tenant>                  → set the connection's current tenant
//! [<tenant>.]group_of <id>      → the record's group id + members
//! [<tenant>.]members <id>       → one group's members
//! [<tenant>.]stats              → tenant counters + snapshot epoch
//! [<tenant>.]latency            → tenant batch-apply latency histogram
//! [<tenant>.]apply <path>       → apply a batch file, print its latency
//! [<tenant>.]save_state <path>  → persist state + scorer sidecar
//! [<tenant>.]checkpoint         → binary snapshot + WAL truncate (durable tenants)
//! model <tenant> <path>         → hot-swap the tenant's SavedModel
//! {"inserts":[…],…}             → apply an inline batch (current tenant)
//! ```
//!
//! Every failure is a **coded** error line — `error: <code>: <message>`
//! with a stable machine-parseable code ([`ErrorCode`]) — so clients can
//! distinguish an unknown record ([`ErrorCode::UnknownRecord`]) from an
//! unknown tenant ([`ErrorCode::UnknownTenant`]) from a parse failure.
//!
//! Protocol lines parse into a [`ServeRequest`]; snapshot-answerable
//! requests (`group_of`/`members`/`stats`) are answered by
//! [`lookup_response`] against a [`GroupSnapshot`] — the same function
//! serves both the single-threaded [`HostSession::command`] loop and the
//! concurrent TCP readers in [`crate::net`], so the two paths cannot
//! drift.
//!
//! The `serve` binary is a thin CLI over this module (`bootstrap` builds
//! per-domain states + delta-batch files; `run` hosts any number of
//! `--tenant` engines over stdin or TCP); the tests below drive the same
//! session API the binary uses.

use gralmatch_blocking::{Blocker, SecurityIdOverlap, TokenOverlap, TokenOverlapConfig};
use gralmatch_core::{
    model_fingerprint, persist, scorer_provider, CheckpointPolicy, EngineHost, EngineTenant,
    GroupSnapshot, HostError, MatchEngine, PipelineConfig, PipelineState, RecoveryReport,
    ShardPlan, TenantEngine, UpsertBatch, UpsertOutcome,
};
use gralmatch_lm::SavedModel;
use gralmatch_records::{CompanyRecord, ProductRecord, Record, RecordId, SecurityRecord};
use gralmatch_util::{BinRecord, Error, FromJson, Json, LatencyHistogram, ToJson};

/// The line-protocol version the `hello` banner reports. Bump when a
/// response format or command grammar changes incompatibly.
pub const PROTOCOL_VERSION: u32 = 2;

/// A record type servable as a tenant: its domain name (the fingerprint
/// namespace) plus its **serve blocking lineup** — self-contained
/// recipes only (no cross-domain borrows), because the same list must be
/// used at bootstrap and at every resume so incremental re-blocking
/// reconciles against the candidates the state was built with.
pub trait ServeDomain:
    Record + Clone + Send + Sync + ToJson + FromJson + BinRecord + Sized + 'static
{
    /// Domain name: `"companies"`, `"securities"`, or `"products"`.
    const DOMAIN: &'static str;

    /// The blocking lineup serve-time engines run under.
    fn serve_strategies() -> Vec<Box<dyn Blocker<Self> + 'static>>;
}

impl ServeDomain for SecurityRecord {
    const DOMAIN: &'static str = "securities";

    /// Cross-shard identifier hash join plus the shard-local
    /// token-overlap recipe.
    fn serve_strategies() -> Vec<Box<dyn Blocker<Self> + 'static>> {
        vec![
            Box::new(SecurityIdOverlap),
            Box::new(TokenOverlap::new(TokenOverlapConfig::default())),
        ]
    }
}

impl ServeDomain for CompanyRecord {
    const DOMAIN: &'static str = "companies";

    /// Token overlap only: the one-shot pipeline's `CompanyIdOverlap`
    /// joins companies through a borrowed securities slice, which a
    /// self-contained long-lived tenant cannot carry — the same
    /// serve-vs-paper lineup deviation the securities recipe already
    /// makes by dropping `IssuerMatch`.
    fn serve_strategies() -> Vec<Box<dyn Blocker<Self> + 'static>> {
        vec![Box::new(TokenOverlap::new(TokenOverlapConfig::default()))]
    }
}

impl ServeDomain for ProductRecord {
    const DOMAIN: &'static str = "products";

    /// Products match purely by text (WDC offers carry no id codes).
    fn serve_strategies() -> Vec<Box<dyn Blocker<Self> + 'static>> {
        vec![Box::new(TokenOverlap::new(TokenOverlapConfig::default()))]
    }
}

/// The serve pipeline configuration (synthetic-benchmark γ/μ), shared by
/// all tenants.
pub fn serve_config() -> PipelineConfig {
    PipelineConfig::new(25, 5)
}

/// Bootstrap a tenant engine from records (one insert-only batch) under
/// the domain's serve lineup, fingerprinted for `R::DOMAIN`.
pub fn bootstrap_tenant<R: ServeDomain>(
    records: Vec<R>,
    plan: ShardPlan,
    model: Option<SavedModel>,
) -> Result<(EngineTenant<R>, UpsertOutcome), Error> {
    let fingerprint = model_fingerprint(R::DOMAIN, model.as_ref());
    let (engine, outcome) = MatchEngine::bootstrap(
        plan,
        records,
        R::serve_strategies(),
        scorer_provider(model),
        serve_config(),
    )?;
    Ok((EngineTenant::new(R::DOMAIN, engine, fingerprint), outcome))
}

/// Resume a tenant engine from a persisted state (JSON text of
/// [`PipelineState::to_json`]); no pairs are re-scored.
pub fn resume_tenant<R: ServeDomain>(
    state_json: &str,
    model: Option<SavedModel>,
) -> Result<EngineTenant<R>, Error> {
    let fingerprint = model_fingerprint(R::DOMAIN, model.as_ref());
    let json = Json::parse(state_json).map_err(|e| Error::InvalidConfig(e.message))?;
    let state: PipelineState<R> =
        PipelineState::from_json(&json).map_err(|e| Error::InvalidConfig(e.message))?;
    let engine = MatchEngine::from_state(
        state,
        R::serve_strategies(),
        scorer_provider(model),
        serve_config(),
    );
    Ok(EngineTenant::new(R::DOMAIN, engine, fingerprint))
}

/// [`resume_tenant`] dispatched on a domain name string (the `serve` bin's
/// `--tenant name:domain:state[:model]` flag) — the one place the three
/// record types are enumerated for serving.
pub fn resume_tenant_named(
    domain: &str,
    state_json: &str,
    model: Option<SavedModel>,
) -> Result<Box<dyn TenantEngine>, Error> {
    match domain {
        "securities" => Ok(Box::new(resume_tenant::<SecurityRecord>(
            state_json, model,
        )?)),
        "companies" => Ok(Box::new(resume_tenant::<CompanyRecord>(state_json, model)?)),
        "products" => Ok(Box::new(resume_tenant::<ProductRecord>(state_json, model)?)),
        other => Err(Error::InvalidConfig(format!(
            "unknown domain {other:?} (expected companies | securities | products)"
        ))),
    }
}

/// Resume a tenant engine from a **binary** snapshot + WAL
/// ([`gralmatch_core::persist`]): decode the checksummed snapshot, replay
/// the log tail, and re-arm durability on the same files. The fingerprint
/// is computed from `model` *before* the provider consumes it, exactly as
/// the JSON resume does, and is re-attached so subsequent checkpoints
/// keep the `.scorer` sidecar current.
pub fn resume_tenant_binary<R: ServeDomain>(
    snapshot_path: &str,
    model: Option<SavedModel>,
    policy: CheckpointPolicy,
) -> Result<(EngineTenant<R>, RecoveryReport), Error> {
    let fingerprint = model_fingerprint(R::DOMAIN, model.as_ref());
    let (mut engine, report) = gralmatch_core::recover_engine(
        std::path::Path::new(snapshot_path),
        R::serve_strategies(),
        scorer_provider(model),
        serve_config(),
        policy,
    )?;
    engine.set_durability_fingerprint(Some(fingerprint.clone()));
    Ok((EngineTenant::new(R::DOMAIN, engine, fingerprint), report))
}

/// [`resume_tenant_binary`] dispatched on a domain name string — the
/// binary twin of [`resume_tenant_named`].
pub fn resume_tenant_named_binary(
    domain: &str,
    snapshot_path: &str,
    model: Option<SavedModel>,
    policy: CheckpointPolicy,
) -> Result<(Box<dyn TenantEngine>, RecoveryReport), Error> {
    match domain {
        "securities" => {
            let (tenant, report) =
                resume_tenant_binary::<SecurityRecord>(snapshot_path, model, policy)?;
            Ok((Box::new(tenant), report))
        }
        "companies" => {
            let (tenant, report) =
                resume_tenant_binary::<CompanyRecord>(snapshot_path, model, policy)?;
            Ok((Box::new(tenant), report))
        }
        "products" => {
            let (tenant, report) =
                resume_tenant_binary::<ProductRecord>(snapshot_path, model, policy)?;
            Ok((Box::new(tenant), report))
        }
        other => Err(Error::InvalidConfig(format!(
            "unknown domain {other:?} (expected companies | securities | products)"
        ))),
    }
}

/// One batch application's latency summary, for the per-batch trace the
/// serve binary prints.
pub fn latency_line(outcome: &UpsertOutcome, seconds: f64) -> String {
    use gralmatch_core::stage_names;
    let stage = |name: &str| outcome.trace.stage(name).map_or(0.0, |stage| stage.seconds);
    format!(
        "applied +{}~{}-{} in {seconds:.4}s (blocking {:.4}s, inference {:.4}s over {} pairs, \
         merge {:.4}s, {} components re-cleaned) → {} groups",
        outcome.inserted,
        outcome.updated,
        outcome.deleted,
        stage(stage_names::BLOCKING),
        stage(stage_names::INFERENCE),
        outcome.pairs_scored,
        stage(stage_names::MERGE),
        outcome.touched_components,
        outcome.num_groups,
    )
}

/// Stable machine-parseable error codes. Every protocol failure is one
/// line of the form `error: <code>: <message>` — the code set is the
/// client contract (an unknown record and a parse failure must never be
/// indistinguishable again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The verb does not exist, or a tenant prefix was used on a command
    /// that does not take one.
    BadCommand,
    /// The verb exists but its arguments are missing or malformed.
    BadArgument,
    /// An inline or file batch failed to parse.
    BadBatch,
    /// The addressed tenant is not registered.
    UnknownTenant,
    /// `group_of` on an id that is not live.
    UnknownRecord,
    /// `members` on an id that is not a group id.
    UnknownGroup,
    /// The engine rejected a well-formed batch (validation failure).
    ApplyRejected,
    /// A model swap was refused; the old scorer keeps serving.
    ModelRejected,
    /// `checkpoint` on a tenant that never enabled durability.
    NotDurable,
    /// Reading or writing a file failed.
    Io,
    /// The single writer is gone (server shutting down).
    WriterGone,
    /// A request line over TCP exceeded the fixed maximum length; the
    /// connection is closed after this error.
    LineTooLong,
}

impl ErrorCode {
    /// The wire token for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadCommand => "bad-command",
            ErrorCode::BadArgument => "bad-argument",
            ErrorCode::BadBatch => "bad-batch",
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::UnknownRecord => "unknown-record",
            ErrorCode::UnknownGroup => "unknown-group",
            ErrorCode::ApplyRejected => "apply-rejected",
            ErrorCode::ModelRejected => "model-rejected",
            ErrorCode::NotDurable => "not-durable",
            ErrorCode::Io => "io",
            ErrorCode::WriterGone => "writer-gone",
            ErrorCode::LineTooLong => "line-too-long",
        }
    }
}

/// Build a coded error payload (`<code>: <message>` — the serving layers
/// prefix `error: ` when writing it to a client).
pub fn coded(code: ErrorCode, message: impl std::fmt::Display) -> String {
    format!("{}: {message}", code.as_str())
}

/// Map a [`HostError`] onto its protocol error code.
pub fn host_error(err: &HostError) -> String {
    match err {
        HostError::UnknownTenant(name) => coded(
            ErrorCode::UnknownTenant,
            format!("no tenant named {name:?} (try `tenants`)"),
        ),
        HostError::BadBatch(message) => coded(ErrorCode::BadBatch, message),
        HostError::BatchRejected(message) => coded(ErrorCode::ApplyRejected, message),
        HostError::ModelRejected(message) => coded(ErrorCode::ModelRejected, message),
        HostError::InvalidTenant(message) => coded(ErrorCode::BadArgument, message),
        HostError::Durability(message) => coded(ErrorCode::Io, message),
    }
}

/// One protocol verb. Batches stay as raw JSON here — they parse into the
/// addressed tenant's record type behind the vtable
/// ([`TenantEngine::apply_batch_json`]), which is what lets one grammar
/// serve every domain.
#[derive(Debug, Clone)]
pub enum ServeCommand {
    /// `hello` — versioned banner.
    Hello,
    /// `ping` — liveness.
    Ping,
    /// `help` — one-line usage.
    Help,
    /// `tenants` — list tenants with domains and epochs.
    Tenants,
    /// `use <tenant>` — set the session's current tenant.
    Use(String),
    /// `group_of <record-id>`
    GroupOf(RecordId),
    /// `members <group-id>`
    Members(RecordId),
    /// `stats`
    Stats,
    /// `latency` — the tenant's batch-apply histogram.
    Latency,
    /// `apply <path>`
    ApplyFile(String),
    /// An inline `{"inserts":…}` batch (still unparsed JSON).
    InlineBatch(Json),
    /// `save_state <path>`
    SaveState(String),
    /// `checkpoint` — force a binary snapshot rewrite + WAL truncate on a
    /// durable tenant.
    Checkpoint,
    /// `model <tenant> <path>` — hot model swap.
    Model {
        /// The tenant to swap.
        tenant: String,
        /// Path of the `SavedModel` JSON (sidecar at `<path>.scorer`).
        path: String,
    },
}

impl ServeCommand {
    /// Whether [`lookup_response`] can answer this command from a tenant
    /// snapshot alone (any thread, any epoch).
    pub fn is_lookup(&self) -> bool {
        matches!(
            self,
            ServeCommand::GroupOf(_) | ServeCommand::Members(_) | ServeCommand::Stats
        )
    }

    /// Whether this command is answered by the session/connection layer
    /// itself (no engine access at all).
    pub fn is_session(&self) -> bool {
        matches!(
            self,
            ServeCommand::Hello
                | ServeCommand::Ping
                | ServeCommand::Help
                | ServeCommand::Tenants
                | ServeCommand::Use(_)
        )
    }

    /// Whether a `<tenant>.` prefix may address this command.
    pub fn tenant_scoped(&self) -> bool {
        matches!(
            self,
            ServeCommand::GroupOf(_)
                | ServeCommand::Members(_)
                | ServeCommand::Stats
                | ServeCommand::Latency
                | ServeCommand::ApplyFile(_)
                | ServeCommand::SaveState(_)
                | ServeCommand::Checkpoint
        )
    }
}

/// One parsed protocol line: an optional `<tenant>.` address plus the
/// verb. `tenant: None` means the session's current tenant.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Explicit tenant address (`sec.group_of 7`), if any.
    pub tenant: Option<String>,
    /// The verb.
    pub command: ServeCommand,
}

/// The one-line `help` response (responses are one line per request line,
/// so help is too).
pub const HELP_LINE: &str = "commands: hello | ping | help | tenants | use <tenant> | \
     [<tenant>.]group_of <id> | [<tenant>.]members <id> | [<tenant>.]stats | \
     [<tenant>.]latency | [<tenant>.]apply <batch.json> | [<tenant>.]save_state <state.json> | \
     [<tenant>.]checkpoint | model <tenant> <model.json> | \
     inline batch JSON {\"inserts\":…} | shutdown";

/// The versioned `hello` banner.
pub fn hello_line(tenants: usize, default_tenant: &str) -> String {
    format!(
        "hello gralmatch-serve protocol-version={PROTOCOL_VERSION} tenants={tenants} \
         default={default_tenant}"
    )
}

/// The `tenants` listing over `(name, domain, epoch)` rows.
pub fn tenants_line<'a>(rows: impl Iterator<Item = (&'a str, &'a str, u64)>) -> String {
    let rendered: Vec<String> = rows
        .map(|(name, domain, epoch)| format!("{name}={domain}@epoch={epoch}"))
        .collect();
    format!("tenants: {}", rendered.join(", "))
}

/// Parse one protocol line. `Ok(None)` is an empty line (no response);
/// `Err` is a coded error payload for the client — the connection or
/// session stays usable either way.
pub fn parse_request(line: &str) -> Result<Option<ServeRequest>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if line.starts_with('{') {
        let json = Json::parse(line).map_err(|e| {
            coded(
                ErrorCode::BadBatch,
                format!("bad batch JSON: {}", e.message),
            )
        })?;
        return Ok(Some(ServeRequest {
            tenant: None,
            command: ServeCommand::InlineBatch(json),
        }));
    }
    let mut parts = line.split_whitespace();
    let head = parts.next().unwrap_or_default();
    let (tenant, verb) = match head.split_once('.') {
        Some((tenant, verb)) => (Some(tenant.to_string()), verb),
        None => (None, head),
    };
    let command = match verb {
        "hello" => ServeCommand::Hello,
        "ping" => ServeCommand::Ping,
        "help" => ServeCommand::Help,
        "tenants" => ServeCommand::Tenants,
        "use" => ServeCommand::Use(
            parts
                .next()
                .ok_or_else(|| coded(ErrorCode::BadArgument, "usage: use <tenant>"))?
                .to_string(),
        ),
        "group_of" => ServeCommand::GroupOf(RecordId(parse_id(parts.next())?)),
        "members" => ServeCommand::Members(RecordId(parse_id(parts.next())?)),
        "stats" => ServeCommand::Stats,
        "latency" => ServeCommand::Latency,
        "apply" => ServeCommand::ApplyFile(
            parts
                .next()
                .ok_or_else(|| coded(ErrorCode::BadArgument, "usage: apply <batch.json>"))?
                .to_string(),
        ),
        "save_state" => ServeCommand::SaveState(
            parts
                .next()
                .ok_or_else(|| coded(ErrorCode::BadArgument, "usage: save_state <state.json>"))?
                .to_string(),
        ),
        "checkpoint" => ServeCommand::Checkpoint,
        "model" => {
            let usage = || coded(ErrorCode::BadArgument, "usage: model <tenant> <model.json>");
            ServeCommand::Model {
                tenant: parts.next().ok_or_else(usage)?.to_string(),
                path: parts.next().ok_or_else(usage)?.to_string(),
            }
        }
        other => {
            return Err(coded(
                ErrorCode::BadCommand,
                format!("unknown command {other:?} — try `help`"),
            ))
        }
    };
    if tenant.is_some() && !command.tenant_scoped() {
        return Err(coded(
            ErrorCode::BadCommand,
            format!("`{verb}` does not take a `<tenant>.` prefix"),
        ));
    }
    Ok(Some(ServeRequest { tenant, command }))
}

/// Answer a snapshot-answerable command from `tenant_name`'s snapshot
/// (`None` when the command needs the session or the writer). Every
/// response is one line, internally consistent with the snapshot's epoch;
/// misses are **coded errors** (`unknown-record`, `unknown-group`), not
/// Ok-lines, so clients can branch without parsing prose.
pub fn lookup_response(
    tenant_name: &str,
    snapshot: &GroupSnapshot,
    command: &ServeCommand,
) -> Option<Result<String, String>> {
    match command {
        ServeCommand::GroupOf(id) => Some(match snapshot.group_of(*id) {
            Some(group) => {
                let members = snapshot
                    .group_members(group)
                    .expect("group id came from the snapshot");
                Ok(format!(
                    "record {} → group {} ({} member{}): {}",
                    id.0,
                    group.0,
                    members.len(),
                    if members.len() == 1 { "" } else { "s" },
                    render_members(members),
                ))
            }
            None => Err(coded(
                ErrorCode::UnknownRecord,
                format!(
                    "record {} is not live on tenant {tenant_name} (epoch {})",
                    id.0,
                    snapshot.epoch()
                ),
            )),
        }),
        ServeCommand::Members(id) => Some(match snapshot.group_members(*id) {
            Some(members) => Ok(format!("group {}: {}", id.0, render_members(members))),
            None => Err(coded(
                ErrorCode::UnknownGroup,
                format!(
                    "{} is not a group id on tenant {tenant_name} (epoch {})",
                    id.0,
                    snapshot.epoch()
                ),
            )),
        }),
        ServeCommand::Stats => {
            let stats = snapshot.stats();
            Some(Ok(format!(
                "tenant {tenant_name}: {} live records ({} ids), {} groups (largest {}), \
                 {} candidates, {} predictions, {} batches applied in {:.4}s, snapshot epoch {}",
                stats.num_live,
                stats.num_ids,
                stats.num_groups,
                stats.largest_group,
                stats.num_candidates,
                stats.num_predicted,
                stats.batches_applied,
                stats.total_apply_seconds,
                snapshot.epoch(),
            )))
        }
        _ => None,
    }
}

fn parse_id(token: Option<&str>) -> Result<u32, String> {
    token
        .ok_or_else(|| coded(ErrorCode::BadArgument, "missing record id"))?
        .parse()
        .map_err(|_| coded(ErrorCode::BadArgument, "record ids are unsigned integers"))
}

fn render_members(members: &[RecordId]) -> String {
    const SHOWN: usize = 16;
    let mut rendered: Vec<String> = members
        .iter()
        .take(SHOWN)
        .map(|id| id.0.to_string())
        .collect();
    if members.len() > SHOWN {
        rendered.push(format!("… +{}", members.len() - SHOWN));
    }
    format!("[{}]", rendered.join(", "))
}

/// Sidecar path recording which scorer a state or model file pairs with.
pub fn fingerprint_path(path: &str) -> String {
    format!("{path}.scorer")
}

/// A live serve session: the tenant host plus the protocol, with one
/// batch-apply [`LatencyHistogram`] per tenant. This is the single-writer
/// side — `bench::net` forwards every mutating command here.
pub struct HostSession {
    host: EngineHost,
    /// Per-tenant apply latency, parallel to the host's tenant order.
    latencies: Vec<LatencyHistogram>,
}

impl HostSession {
    /// Wrap a host (at least one tenant).
    pub fn new(host: EngineHost) -> Result<Self, Error> {
        if host.is_empty() {
            return Err(Error::EmptyInput("a serve session needs ≥ 1 tenant"));
        }
        let latencies = (0..host.len()).map(|_| LatencyHistogram::new()).collect();
        Ok(HostSession { host, latencies })
    }

    /// A one-entry host — the single-tenant deployment shape.
    pub fn single(name: &str, tenant: Box<dyn TenantEngine>) -> Result<Self, Error> {
        let mut host = EngineHost::new();
        host.add_tenant(name, tenant)
            .map_err(|e| Error::InvalidConfig(e.to_string()))?;
        HostSession::new(host)
    }

    /// The wrapped host.
    pub fn host(&self) -> &EngineHost {
        &self.host
    }

    /// The wrapped host, mutably (in-process drivers).
    pub fn host_mut(&mut self) -> &mut EngineHost {
        &mut self.host
    }

    /// The default tenant's name (first registered).
    pub fn default_tenant(&self) -> &str {
        self.host
            .default_tenant()
            .expect("sessions hold ≥ 1 tenant")
    }

    /// A tenant's batch-apply latency histogram (applies through this
    /// session — [`apply`](Self::apply)/[`apply_json`](Self::apply_json)
    /// and protocol batches).
    pub fn latency(&self, tenant: &str) -> Option<&LatencyHistogram> {
        let index = self.host.names().iter().position(|name| *name == tenant)?;
        Some(&self.latencies[index])
    }

    fn record_latency(&mut self, tenant: &str, seconds: f64) {
        if let Some(index) = self.host.names().iter().position(|name| *name == tenant) {
            self.latencies[index].record_duration(std::time::Duration::from_secs_f64(seconds));
        }
    }

    /// Apply one JSON batch to `tenant`, recording its latency.
    pub fn apply_json(
        &mut self,
        tenant: &str,
        batch: &Json,
    ) -> Result<(UpsertOutcome, f64), HostError> {
        let entry = self
            .host
            .tenant_mut(tenant)
            .ok_or_else(|| HostError::UnknownTenant(tenant.to_string()))?;
        let (outcome, seconds) = entry.apply_batch_json(batch)?;
        self.record_latency(tenant, seconds);
        Ok((outcome, seconds))
    }

    /// Apply one typed batch to `tenant` (no JSON boundary), recording
    /// its latency. Fails with `UnknownTenant` when the name is missing
    /// *or* `R` is not the tenant's record type.
    pub fn apply<R: ServeDomain>(
        &mut self,
        tenant: &str,
        batch: &UpsertBatch<R>,
    ) -> Result<(UpsertOutcome, f64), HostError> {
        let entry = self
            .host
            .typed_tenant_mut::<R>(tenant)
            .ok_or_else(|| HostError::UnknownTenant(format!("{tenant} (as {})", R::DOMAIN)))?;
        let (outcome, seconds) = entry.apply(batch)?;
        self.record_latency(tenant, seconds);
        Ok((outcome, seconds))
    }

    /// Serialize one tenant's standing state.
    pub fn state_json(&self, tenant: &str) -> Result<String, HostError> {
        self.host
            .tenant(tenant)
            .map(TenantEngine::state_json)
            .ok_or_else(|| HostError::UnknownTenant(tenant.to_string()))
    }

    /// Persist one tenant's state **and** its scorer fingerprint sidecar
    /// (`<path>.scorer`) — resume refuses a recorded mismatch.
    pub fn save_state(&self, tenant: &str, path: &str) -> Result<String, String> {
        let entry = self
            .host
            .tenant(tenant)
            .ok_or_else(|| host_error(&HostError::UnknownTenant(tenant.to_string())))?;
        persist::write_atomic(
            std::path::Path::new(path),
            entry.state_json().as_bytes(),
            false,
        )
        .map_err(|e| coded(ErrorCode::Io, format!("{path}: {e}")))?;
        persist::write_atomic(
            std::path::Path::new(&fingerprint_path(path)),
            entry.fingerprint().as_bytes(),
            false,
        )
        .map_err(|e| coded(ErrorCode::Io, format!("{path}.scorer: {e}")))?;
        Ok(format!("state saved to {path} (tenant {tenant})"))
    }

    /// Hot-swap `tenant`'s model from a `SavedModel` file, validating the
    /// `<path>.scorer` sidecar when present. On any error the old scorer
    /// keeps serving.
    pub fn swap_model_file(&mut self, tenant: &str, path: &str) -> Result<String, String> {
        let model = SavedModel::load(std::path::Path::new(path))
            .map_err(|e| coded(ErrorCode::Io, format!("{path}: {e:?}")))?;
        let recorded = std::fs::read_to_string(fingerprint_path(path)).ok();
        let fingerprint = self
            .host
            .swap_model(tenant, model, recorded.as_deref())
            .map_err(|e| host_error(&e))?;
        Ok(format!("model swapped on {tenant}: {fingerprint}"))
    }

    /// Execute one protocol line against the session, with `cursor` as
    /// the session's current-tenant state (the stdin analogue of a TCP
    /// connection's `use` state). Errors are coded payloads; the session
    /// stays usable.
    pub fn command(&mut self, cursor: &mut String, line: &str) -> Result<String, String> {
        let Some(request) = parse_request(line)? else {
            return Ok(String::new());
        };
        if let ServeCommand::Use(name) = &request.command {
            return if self.host.tenant(name).is_some() {
                cursor.clone_from(name);
                Ok(format!("using {name}"))
            } else {
                Err(host_error(&HostError::UnknownTenant(name.clone())))
            };
        }
        match &request.command {
            ServeCommand::Hello => {
                return Ok(hello_line(self.host.len(), self.default_tenant()));
            }
            ServeCommand::Ping => return Ok("pong".to_string()),
            ServeCommand::Help => return Ok(HELP_LINE.to_string()),
            ServeCommand::Tenants => {
                return Ok(tenants_line(self.host.iter().map(|(name, tenant)| {
                    (name, tenant.domain(), tenant.snapshot().epoch())
                })));
            }
            _ => {}
        }
        let tenant = request.tenant.clone().unwrap_or_else(|| cursor.clone());
        if self.host.tenant(&tenant).is_none() {
            return Err(host_error(&HostError::UnknownTenant(tenant)));
        }
        if request.command.is_lookup() {
            let snapshot = self
                .host
                .tenant(&tenant)
                .expect("tenant checked above")
                .snapshot();
            return lookup_response(&tenant, &snapshot, &request.command)
                .expect("is_lookup commands are snapshot-answerable");
        }
        self.execute(&tenant, &request.command)
    }

    /// Execute one **writer-side** command (`latency`, `apply`, inline
    /// batch, `save_state`, `model`) against `tenant`. This is the
    /// function `bench::net`'s write queue drains into.
    pub fn execute(&mut self, tenant: &str, command: &ServeCommand) -> Result<String, String> {
        match command {
            ServeCommand::InlineBatch(json) => {
                let (outcome, seconds) =
                    self.apply_json(tenant, json).map_err(|e| host_error(&e))?;
                Ok(latency_line(&outcome, seconds))
            }
            ServeCommand::ApplyFile(path) => {
                let json = load_batch_json(path)
                    .map_err(|e| coded(ErrorCode::Io, format!("{path}: {e:?}")))?;
                let (outcome, seconds) =
                    self.apply_json(tenant, &json).map_err(|e| host_error(&e))?;
                Ok(latency_line(&outcome, seconds))
            }
            ServeCommand::SaveState(path) => self.save_state(tenant, path),
            ServeCommand::Checkpoint => {
                let entry = self
                    .host
                    .tenant_mut(tenant)
                    .ok_or_else(|| host_error(&HostError::UnknownTenant(tenant.to_string())))?;
                if !entry.is_durable() {
                    return Err(coded(
                        ErrorCode::NotDurable,
                        format!(
                            "tenant {tenant} has no durability enabled (run the server with \
                             --durable)"
                        ),
                    ));
                }
                let info = entry.checkpoint().map_err(|e| host_error(&e))?;
                Ok(format!(
                    "checkpointed {tenant} at epoch {} ({} bytes)",
                    info.epoch, info.snapshot_bytes
                ))
            }
            ServeCommand::Model { tenant, path } => {
                let tenant = tenant.clone();
                let path = path.clone();
                self.swap_model_file(&tenant, &path)
            }
            ServeCommand::Latency => {
                let histogram = self
                    .latency(tenant)
                    .ok_or_else(|| host_error(&HostError::UnknownTenant(tenant.to_string())))?;
                Ok(if histogram.count() == 0 {
                    format!("tenant {tenant}: no batches applied yet")
                } else {
                    format!(
                        "tenant {tenant}: {} batch(es) applied, latency {}",
                        histogram.count(),
                        histogram.summary()
                    )
                })
            }
            other => unreachable!("command {other:?} is not writer-side"),
        }
    }
}

/// Read one batch file as raw JSON (parsed into the tenant's record type
/// at apply time).
pub fn load_batch_json(path: &str) -> Result<Json, Error> {
    let text = std::fs::read_to_string(path).map_err(Error::Io)?;
    Json::parse(&text).map_err(|e| Error::InvalidConfig(e.message))
}

/// Write one [`UpsertBatch`] as a JSON file.
pub fn save_batch<R: Record + ToJson>(path: &str, batch: &UpsertBatch<R>) -> Result<(), Error> {
    std::fs::write(path, batch.to_json().to_pretty_string()).map_err(Error::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_datagen::{generate, generate_wdc, GenerationConfig, WdcConfig};

    fn financial() -> gralmatch_datagen::FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 60;
        generate(&config).unwrap()
    }

    fn securities() -> Vec<SecurityRecord> {
        financial().securities.records().to_vec()
    }

    fn products() -> Vec<ProductRecord> {
        let config = WdcConfig {
            num_entities: 30,
            num_sources: 4,
            ..WdcConfig::default()
        };
        generate_wdc(&config).products.records().to_vec()
    }

    /// A three-tenant session: securities (default), companies, products.
    fn tri_tenant_session() -> HostSession {
        let data = financial();
        let mut host = EngineHost::new();
        let (sec, _) =
            bootstrap_tenant(data.securities.records().to_vec(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("sec", Box::new(sec)).unwrap();
        let (comp, _) =
            bootstrap_tenant(data.companies.records().to_vec(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("comp", Box::new(comp)).unwrap();
        let (prod, _) = bootstrap_tenant(products(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("prod", Box::new(prod)).unwrap();
        HostSession::new(host).unwrap()
    }

    /// The satellite smoke: persist a bootstrapped tenant, resume it from
    /// JSON, apply a delete-bearing batch, and check the lookups reflect
    /// the re-cleaned components.
    #[test]
    fn resumed_tenant_reflects_delete_bearing_batches_in_lookups() {
        let records = securities();
        let (tenant, load) =
            bootstrap_tenant::<SecurityRecord>(records.clone(), ShardPlan::new(3), None).unwrap();
        assert_eq!(load.inserted, records.len());
        let state = tenant.state_json();

        // Resume from disk-shaped state with a fresh provider.
        let mut resumed = resume_tenant::<SecurityRecord>(&state, None).unwrap();
        assert_eq!(resumed.engine().groups(), tenant.engine().groups());
        assert_eq!(resumed.fingerprint(), tenant.fingerprint());

        // Delete one member of a multi-record group.
        let group = resumed
            .engine()
            .groups()
            .into_iter()
            .find(|group| group.len() > 1)
            .expect("some multi-record group");
        let victim = group[0];
        let survivors: Vec<RecordId> = group[1..].to_vec();
        let (outcome, _) = resumed
            .apply(&UpsertBatch {
                inserts: Vec::new(),
                updates: Vec::new(),
                deletes: vec![victim],
            })
            .unwrap();
        assert_eq!(outcome.deleted, 1);

        // The deleted id no longer resolves; the survivors' group was
        // re-cleaned and no longer contains it.
        assert_eq!(resumed.group_of(victim), None);
        for &id in &survivors {
            let root = resumed.group_of(id).expect("survivor stays live");
            let members = resumed.group_members(root).unwrap();
            assert!(!members.contains(&victim), "lookup still sees deleted id");
        }
    }

    #[test]
    fn latency_line_counts_live_groups_in_the_unchanged_wire_text() {
        let records = securities();
        let (mut tenant, _) =
            bootstrap_tenant::<SecurityRecord>(records, ShardPlan::new(2), None).unwrap();
        // Deleted ids stay in the id space as dead singletons: they are
        // not groups, in the engine's count or in the state's.
        let victims: Vec<RecordId> = tenant
            .engine()
            .groups()
            .into_iter()
            .find(|group| group.len() > 1)
            .expect("some multi-record group");
        let (mut outcome, _) = tenant
            .apply(&UpsertBatch {
                deletes: victims.clone(),
                ..UpsertBatch::new()
            })
            .unwrap();
        let groups = tenant.engine().state().groups().len();
        assert_eq!(outcome.num_groups, groups);
        assert_eq!(outcome.num_groups, tenant.engine().groups().len());

        // The reply text clients parse, byte for byte (timings zeroed).
        for stage in &mut outcome.trace.stages {
            stage.seconds = 0.0;
        }
        assert_eq!(
            latency_line(&outcome, 0.25),
            format!(
                "applied +0~0-{} in 0.2500s (blocking 0.0000s, inference 0.0000s over {} pairs, \
                 merge 0.0000s, {} components re-cleaned) → {groups} groups",
                victims.len(),
                outcome.pairs_scored,
                outcome.touched_components,
            )
        );
    }

    #[test]
    fn command_protocol_round_trips_across_tenants() {
        let mut session = tri_tenant_session();
        let mut cursor = session.default_tenant().to_string();
        assert_eq!(cursor, "sec");

        // Session commands.
        let hello = session.command(&mut cursor, "hello").unwrap();
        assert!(hello.contains("protocol-version=2"), "{hello}");
        assert!(hello.contains("tenants=3"), "{hello}");
        assert_eq!(session.command(&mut cursor, "ping").unwrap(), "pong");
        let help = session.command(&mut cursor, "help").unwrap();
        assert!(help.contains("group_of"), "{help}");
        let tenants = session.command(&mut cursor, "tenants").unwrap();
        for expected in [
            "sec=securities@epoch=1",
            "comp=companies@epoch=1",
            "prod=products@epoch=1",
        ] {
            assert!(tenants.contains(expected), "{tenants}");
        }

        // Lookups on the current tenant, explicit addressing, and `use`.
        let stats = session.command(&mut cursor, "stats").unwrap();
        assert!(stats.starts_with("tenant sec:"), "{stats}");
        assert!(stats.contains("live records"), "{stats}");
        let comp_stats = session.command(&mut cursor, "comp.stats").unwrap();
        assert!(comp_stats.starts_with("tenant comp:"), "{comp_stats}");
        assert_eq!(
            cursor, "sec",
            "explicit addressing must not move the cursor"
        );
        assert_eq!(
            session.command(&mut cursor, "use prod").unwrap(),
            "using prod"
        );
        assert_eq!(cursor, "prod");
        let stats = session.command(&mut cursor, "stats").unwrap();
        assert!(stats.starts_with("tenant prod:"), "{stats}");
        session.command(&mut cursor, "use sec").unwrap();

        // Coded errors: distinct codes for distinct failures.
        let err = session.command(&mut cursor, "bogus").unwrap_err();
        assert!(err.starts_with("bad-command: "), "{err}");
        let err = session
            .command(&mut cursor, "group_of notanid")
            .unwrap_err();
        assert!(err.starts_with("bad-argument: "), "{err}");
        let err = session.command(&mut cursor, "group_of 999999").unwrap_err();
        assert!(err.starts_with("unknown-record: "), "{err}");
        let err = session.command(&mut cursor, "members 999999").unwrap_err();
        assert!(err.starts_with("unknown-group: "), "{err}");
        let err = session.command(&mut cursor, "nope.stats").unwrap_err();
        assert!(err.starts_with("unknown-tenant: "), "{err}");
        let err = session.command(&mut cursor, "use nope").unwrap_err();
        assert!(err.starts_with("unknown-tenant: "), "{err}");
        let err = session.command(&mut cursor, "{not json").unwrap_err();
        assert!(err.starts_with("bad-batch: "), "{err}");
        let err = session.command(&mut cursor, "sec.ping").unwrap_err();
        assert!(err.starts_with("bad-command: "), "{err}");
        assert_eq!(session.command(&mut cursor, "").unwrap(), "");

        // An inline batch applies to the *current* tenant and shows up in
        // its latency histogram — and only its.
        let held_out = securities()[0].clone();
        let delete = UpsertBatch::<SecurityRecord> {
            inserts: Vec::new(),
            updates: Vec::new(),
            deletes: vec![held_out.id],
        };
        let response = session
            .command(&mut cursor, &delete.to_json().to_compact_string())
            .unwrap();
        assert!(response.contains("applied +0~0-1"), "{response}");
        let latency = session.command(&mut cursor, "latency").unwrap();
        assert!(latency.contains("1 batch(es) applied"), "{latency}");
        let prod_latency = session.command(&mut cursor, "prod.latency").unwrap();
        assert!(
            prod_latency.contains("no batches applied"),
            "{prod_latency}"
        );

        // The apply bumped only sec's epoch.
        let tenants = session.command(&mut cursor, "tenants").unwrap();
        assert!(tenants.contains("sec=securities@epoch=2"), "{tenants}");
        assert!(tenants.contains("comp=companies@epoch=1"), "{tenants}");
        assert!(tenants.contains("prod=products@epoch=1"), "{tenants}");
    }

    /// Snapshot-served lookups and the session's command loop are the
    /// same code path — identical responses (and identical coded errors)
    /// for every read request.
    #[test]
    fn snapshot_lookups_match_session_responses() {
        let records = securities();
        let (tenant, _) =
            bootstrap_tenant::<SecurityRecord>(records, ShardPlan::new(2), None).unwrap();
        let mut session = HostSession::single("sec", Box::new(tenant)).unwrap();
        let mut cursor = session.default_tenant().to_string();
        let snapshot = session.host().tenant("sec").unwrap().snapshot();
        let max_id = snapshot.stats().num_ids as u32;
        for id in 0..max_id.min(64) {
            for line in [format!("group_of {id}"), format!("members {id}")] {
                let request = parse_request(&line).unwrap().unwrap();
                assert!(request.command.is_lookup());
                assert_eq!(
                    lookup_response("sec", &snapshot, &request.command),
                    Some(session.command(&mut cursor, &line)),
                    "{line}"
                );
            }
        }
        let stats = parse_request("stats").unwrap().unwrap();
        assert_eq!(
            lookup_response("sec", &snapshot, &stats.command).unwrap(),
            session.command(&mut cursor, "stats")
        );
        // Write requests are not answerable from a snapshot.
        let write = parse_request("apply some.json").unwrap().unwrap();
        assert!(!write.command.is_lookup());
        assert!(lookup_response("sec", &snapshot, &write.command).is_none());
    }

    #[test]
    fn typed_applies_route_by_name_and_type() {
        let mut session = tri_tenant_session();
        let victim = securities()[0].id;
        let batch = UpsertBatch::<SecurityRecord> {
            inserts: Vec::new(),
            updates: Vec::new(),
            deletes: vec![victim],
        };
        // Right name, wrong record type: UnknownTenant, nothing applied.
        let err = session.apply("comp", &batch).unwrap_err();
        assert!(matches!(err, HostError::UnknownTenant(_)), "{err:?}");
        let (outcome, _) = session.apply("sec", &batch).unwrap();
        assert_eq!(outcome.deleted, 1);
        assert_eq!(session.latency("sec").unwrap().count(), 1);
        assert_eq!(session.latency("comp").unwrap().count(), 0);
    }
}
