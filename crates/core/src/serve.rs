//! Serve mode (DESIGN.md §14): a crash-survivable, multi-tenant experiment
//! daemon.
//!
//! `intellinoc serve` accepts experiment grids as JSON over the std-only
//! HTTP server from `noc-telemetry`, schedules them onto the `noc-runner`
//! worker pool, and streams per-run Prometheus metrics plus per-job JSONL
//! journals. The design goal is *crash-survivability*: a `kill -9` at any
//! point loses no accepted job and never double-counts a unit.
//!
//! Mechanisms, in dependency order:
//!
//! 1. **Write-ahead submission log** (`wal.jsonl`): every accepted
//!    submission and every lifecycle transition (cancel / pause / resume /
//!    terminal) is appended and `fsync`'d *before* the HTTP response is
//!    written. Torn trailing lines (a crash mid-append) are tolerated on
//!    replay, exactly like the runner journal.
//! 2. **Chunked execution**: a job's grid runs through
//!    [`run_grid`](crate::run_grid) in small `max_units` chunks against the
//!    job's journal with `resume` enabled. Between chunks the worker
//!    observes cancel / pause / drain; a paused or draining job goes back
//!    to the queue, so the scheduler moves on to the next runnable job.
//!    Because the runner merges resumed and fresh records in canonical key
//!    order, the final merged report is byte-identical no matter how many
//!    times the daemon crashed, paused and resumed in between.
//! 3. **Recovery**: on start the WAL is replayed (last record wins), each
//!    non-terminal job's journal is scanned to classify it as
//!    done / resumed / queued, and execution picks up where it stopped. A
//!    crash between the report write and the terminal WAL record re-runs a
//!    fully-journaled job, which rewrites the same report bytes.
//! 4. **Supervision**: a supervisor thread restarts the scheduler if it
//!    dies (e.g. a panic outside the per-job isolation), requeueing any
//!    job stuck in `running`.
//! 5. **Chaos points** ([`ChaosKill`]): test-only `process::abort()` sites
//!    (accept, mid-unit, mid-WAL-append, mid-response, pool-panic), armed
//!    one at a time with `serve --chaos-kill point:k`. The CLI's test
//!    suite arms every point at its first and second hit and asserts the
//!    recovery invariants after each.
//!
//! Pure-std constraint: the daemon cannot catch SIGTERM, so graceful
//! shutdown is an HTTP endpoint (`POST /api/drain`, [`DRAIN_DEADLINE`]);
//! `kill -9` is the crash path the WAL exists for.

use crate::bench::{BenchSpec, BenchWorkload};
use crate::designs::Design;
use crate::experiment::{
    rate_workload, run_grid_hooked, ExperimentConfig, ExperimentOutcome, UnitSinks,
};
use crate::runner::{
    derive_seed, panic_message, scan_log, seal, ChaosOptions, LogScan, RunStatus, RunnerConfig,
    RunnerReport, UnitRecord,
};
use noc_sim::{
    json_str, render_exposition, HttpRequest, HttpResponse, HttpServer, MetricsHub, MetricsRegistry,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Maximum units a grid spec may expand to: a serve job (designs × rates)
/// or a bench grid (designs × workloads × seeds).
pub const MAX_JOB_UNITS: usize = 4096;

/// Default units dispatched per scheduler chunk (the cancel / pause /
/// crash-recovery granularity).
pub const DEFAULT_CHUNK_UNITS: usize = 2;

/// How long `POST /api/drain` lets running chunks finish before the daemon
/// abandons them (their journals keep every finished unit).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Chaos kill points
// ---------------------------------------------------------------------------

/// A named `process::abort()` site inside the daemon, armed by
/// `--chaos-kill` to emulate `kill -9` at adversarial moments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// In the submit handler, before the WAL append (job lost; client
    /// must retry).
    Accept,
    /// Inside a unit executor, before the experiment runs.
    MidUnit,
    /// Mid-WAL-append: half the record's bytes reach the file, then abort
    /// (exercises torn-line tolerance).
    MidWal,
    /// After the WAL append but before the HTTP response (job accepted;
    /// client sees a dead connection and must retry idempotently).
    MidResponse,
    /// A panic on the scheduler thread outside per-job isolation (the
    /// supervisor must restart the pool; the process survives).
    PoolPanic,
}

impl ChaosPoint {
    /// Every kill point.
    pub const ALL: [ChaosPoint; 5] = [
        ChaosPoint::Accept,
        ChaosPoint::MidUnit,
        ChaosPoint::MidWal,
        ChaosPoint::MidResponse,
        ChaosPoint::PoolPanic,
    ];

    /// Stable CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChaosPoint::Accept => "accept",
            ChaosPoint::MidUnit => "mid-unit",
            ChaosPoint::MidWal => "mid-wal",
            ChaosPoint::MidResponse => "mid-response",
            ChaosPoint::PoolPanic => "pool-panic",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(s: &str) -> Result<ChaosPoint, String> {
        ChaosPoint::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| format!("unknown chaos point: {s} (try accept, mid-unit, mid-wal, mid-response, pool-panic)"))
    }
}

/// Arms one [`ChaosPoint`] to fire on its `after`-th hit.
#[derive(Debug)]
pub struct ChaosKill {
    point: ChaosPoint,
    after: u32,
    hits: AtomicU32,
}

impl ChaosKill {
    /// Arms `point` to fire on its `after`-th hit (1-based).
    #[must_use]
    pub fn new(point: ChaosPoint, after: u32) -> ChaosKill {
        ChaosKill { point, after: after.max(1), hits: AtomicU32::new(0) }
    }

    /// Parses the CLI form `point:occurrence`, e.g. `mid-wal:2`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the expected form.
    pub fn parse(s: &str) -> Result<ChaosKill, String> {
        let (point, after) = s
            .split_once(':')
            .ok_or_else(|| format!("chaos kill must be point:occurrence, got `{s}`"))?;
        let after: u32 = after
            .parse()
            .map_err(|_| format!("chaos occurrence must be a positive integer, got `{after}`"))?;
        if after == 0 {
            return Err("chaos occurrence is 1-based; 0 is invalid".into());
        }
        Ok(ChaosKill::new(ChaosPoint::parse(point)?, after))
    }

    /// Whether this hit of `point` is the armed one (counts only matching
    /// points).
    fn fires(&self, point: ChaosPoint) -> bool {
        if point != self.point {
            return false;
        }
        self.hits.fetch_add(1, Ordering::SeqCst) + 1 == self.after
    }

    /// Aborts the process (no destructors — the `kill -9` equivalent) if
    /// this hit of `point` is the armed one.
    fn trip(&self, point: ChaosPoint) {
        if self.fires(point) {
            eprintln!(
                "{{\"event\":\"serve-chaos-abort\",\"point\":\"{}\",\"after\":{}}}",
                point.label(),
                self.after
            );
            let _ = std::io::stderr().flush();
            std::process::abort();
        }
    }
}

// ---------------------------------------------------------------------------
// Job specs and validation
// ---------------------------------------------------------------------------

/// An experiment grid submitted to the daemon: the cross product of
/// `designs` × `rates`, one experiment per cell (uniform open-loop by
/// default, closed-loop request–reply when `reqreply` is set).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Tenant-unique job name (idempotency key; `[A-Za-z0-9._-]{1,64}`).
    pub name: String,
    /// Design keywords (`secded`, `eb`, `cp`, `cpd`, `intellinoc`).
    pub designs: Vec<String>,
    /// Injection rates (packets/node/cycle), each in `(0, 1]`.
    pub rates: Vec<f64>,
    /// Packets per node.
    pub ppn: u64,
    /// Master seed; unit seeds derive from `(seed, unit key)`.
    pub seed: u64,
    /// Per-unit cycle budget (0 = the experiment default).
    pub max_cycles: u64,
    /// Closed-loop request–reply protocol for every cell (`None`, JSON
    /// `null` or an absent key, as in submissions and WAL records from
    /// before the closed-loop era, keeps the open-loop uniform workload).
    #[serde(default)]
    pub reqreply: Option<noc_traffic::ReqReplySpec>,
    /// Journey-tracing sampling period: every `n`-th packet per unit gets a
    /// hop-level journey log, fetchable at `/api/jobs/<id>/journeys`
    /// (0 or absent = tracing off).
    #[serde(default)]
    pub journeys_every: u64,
}

/// Whether `s` is a safe identifier token (tenant names, job names).
#[must_use]
pub fn token_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Expands and validates a spec into its grid: one cell per design × rate,
/// design-major, keyed `serve/<design>/r<rate>` and seeded from `(spec.seed,
/// key)`, with the spec's cycle budget when it sets one.
///
/// # Errors
///
/// Rejects malformed names, unknown designs, a grid [`BenchSpec::validate`]
/// refuses, and duplicate cells.
fn job_units(spec: &JobSpec) -> Result<Vec<(String, ExperimentConfig)>, String> {
    if !token_ok(&spec.name) {
        return Err(format!("job name must match [A-Za-z0-9._-]{{1,64}}, got `{}`", spec.name));
    }
    let grid = BenchSpec {
        designs: spec.designs.iter().map(|d| Design::parse(d)).collect::<Result<_, _>>()?,
        rates: spec.rates.iter().map(|&rate| BenchWorkload::Rate(rate)).collect(),
        seeds: 1,
        ppn: spec.ppn,
        master_seed: spec.seed,
        reqreply: spec.reqreply.clone(),
    };
    grid.validate()?;
    let mut units = Vec::new();
    let mut seen = BTreeSet::new();
    for &design in &grid.designs {
        for &rate in &spec.rates {
            let key = format!("serve/{}/r{rate}", design.label());
            if !seen.insert(key.clone()) {
                return Err(format!("duplicate grid cell: {key}"));
            }
            let workload = rate_workload(rate, spec.ppn, spec.reqreply.as_ref());
            let mut cfg =
                ExperimentConfig::new(design, workload).with_seed(derive_seed(spec.seed, &key));
            if spec.max_cycles > 0 {
                cfg.max_cycles = spec.max_cycles;
            }
            units.push((key, cfg));
        }
    }
    Ok(units)
}

/// Runs (a chunk of) a spec's grid through the runner engine.
///
/// # Errors
///
/// Propagates engine-level errors (journal mismatch or I/O).
fn run_spec_units(
    spec: &JobSpec,
    rcfg: &RunnerConfig,
    chaos: Option<&Arc<ChaosKill>>,
    journeys: Option<&Path>,
) -> Result<RunnerReport<ExperimentOutcome>, String> {
    let cells = job_units(spec)?;
    if let Some(dir) = journeys {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let sinks = UnitSinks { prof: None, journeys: journeys.map(|d| (d, spec.journeys_every)) };
    run_grid_hooked(&cells, rcfg, &ChaosOptions::default(), sinks, || {
        if let Some(k) = chaos {
            k.trip(ChaosPoint::MidUnit);
        }
    })
}

/// Renders a merged grid report as deterministic CSV (the serve-mode
/// report artifact; byte-identical across crashes and resumes).
#[must_use]
pub fn serve_report_csv(report: &RunnerReport<ExperimentOutcome>) -> String {
    let mut out =
        String::from("key,status,exec_cycles,avg_latency,p99_latency,delivery_rate,power_mw\n");
    for rec in &report.records {
        out.push_str(&rec.key);
        out.push(',');
        out.push_str(rec.status.label());
        match rec.payload.as_ref().map(|o| &o.report) {
            Some(r) => out.push_str(&format!(
                ",{},{:.3},{:.3},{:.6},{:.3}\n",
                r.exec_cycles,
                r.avg_latency(),
                r.stats.latency_percentile(0.99),
                r.stats.delivery_ratio(),
                r.power.total_mw()
            )),
            None => out.push_str(",,,,,\n"),
        }
    }
    out
}

/// Computes the reference report for `spec` in-process (serial, no
/// journal): what an uninterrupted daemon run must byte-match.
///
/// # Errors
///
/// Propagates spec validation and engine errors.
pub fn reference_report_csv(spec: &JobSpec) -> Result<String, String> {
    let report = run_spec_units(spec, &RunnerConfig::serial(), None, None)?;
    Ok(serve_report_csv(&report))
}

// ---------------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------------

/// A job's lifecycle state: `queued → running → done | failed | cancelled`
/// (`paused` is an orthogonal flag on a queued/running job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the scheduler (also the post-crash state of
    /// interrupted jobs until their journal is resumed).
    Queued,
    /// The scheduler is executing its grid.
    Running,
    /// Every unit terminal, none failed; report written.
    Done,
    /// Spec rejected at execution, engine error, or >= 1 failed unit.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire label.
    fn parse(s: &str) -> Result<JobState, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!("unknown job state: {other}")),
        }
    }

    /// Whether the job can never run again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
struct Job {
    id: String,
    tenant: String,
    priority: i64,
    seq: u64,
    spec: JobSpec,
    state: JobState,
    paused: bool,
    cancel_requested: bool,
    units_total: usize,
    units_done: usize,
    error: Option<String>,
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WalHeader {
    wal: String,
    version: u64,
}

impl WalHeader {
    fn expected() -> WalHeader {
        WalHeader { wal: "intellinoc-serve".to_owned(), version: 1 }
    }
}

/// One WAL record. `action` is `submit` / `cancel` / `pause` / `resume` /
/// `terminal`; `spec` rides on `submit`, `state` and `error` on `terminal`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WalRecord {
    action: String,
    id: String,
    tenant: String,
    priority: i64,
    spec: Option<JobSpec>,
    state: Option<String>,
    error: Option<String>,
}

/// Reads the WAL back under the runner journal's torn-tail rule
/// ([`scan_log`]): a torn trailing line (crash mid-append — its response
/// was never written, so dropping it is safe) is ignored; a missing file or
/// an unreadable header with no records behind it (crash during WAL
/// creation) yields an empty log flagged for re-creation.
///
/// # Errors
///
/// A wrong header, an unreadable header *with* records behind it, an
/// unreadable non-trailing record, or I/O failure.
fn read_wal(path: &Path) -> Result<LogScan<WalRecord>, String> {
    scan_log(path, "WAL", |h: &WalHeader| {
        if h.wal == "intellinoc-serve" && h.version == 1 {
            Ok(())
        } else {
            Err(format!("WAL {} has wrong header {h:?}", path.display()))
        }
    })
}

/// Appends fsync'd records to the WAL. Every append reaches the disk
/// before the caller proceeds (the "write-ahead" in write-ahead log).
struct WalWriter {
    file: File,
    path: PathBuf,
}

impl WalWriter {
    fn create(path: &Path) -> Result<WalWriter, String> {
        let mut file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let header = serde_json::to_string(&WalHeader::expected())
            .map_err(|e| format!("encode WAL header: {e}"))?;
        let header = seal(&header);
        file.write_all(header.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(WalWriter { file, path: path.to_path_buf() })
    }

    /// Opens for append, first truncating to `valid_len` — the end of the
    /// last committed line — so records are never spliced onto a torn tail.
    fn append(path: &Path, valid_len: u64) -> Result<WalWriter, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        file.set_len(valid_len).map_err(|e| format!("truncate {}: {e}", path.display()))?;
        Ok(WalWriter { file, path: path.to_path_buf() })
    }

    fn log(&mut self, rec: &WalRecord, chaos: Option<&Arc<ChaosKill>>) -> Result<(), String> {
        let line = serde_json::to_string(rec).map_err(|e| format!("encode WAL record: {e}"))?;
        let line = seal(&line);
        if let Some(k) = chaos {
            if k.fires(ChaosPoint::MidWal) {
                // Torn append: half the record reaches the disk, then the
                // process dies with no destructors.
                let half = &line.as_bytes()[..line.len() / 2];
                let _ = self.file.write_all(half);
                let _ = self.file.sync_data();
                eprintln!("{{\"event\":\"serve-chaos-abort\",\"point\":\"mid-wal\"}}");
                let _ = std::io::stderr().flush();
                std::process::abort();
            }
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("append {}: {e}", self.path.display()))
    }
}

// ---------------------------------------------------------------------------
// Daemon configuration and shared state
// ---------------------------------------------------------------------------

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: `wal.jsonl`, `journals/<id>.jsonl`,
    /// `reports/<id>.csv`.
    pub state_dir: PathBuf,
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads per job chunk (0/1 = serial).
    pub jobs: usize,
    /// Units dispatched per scheduler chunk (cancel/pause granularity).
    pub chunk_units: usize,
    /// Armed chaos kill point (tests only).
    pub chaos: Option<Arc<ChaosKill>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("serve-state"),
            addr: "127.0.0.1:0".to_owned(),
            jobs: 0,
            chunk_units: DEFAULT_CHUNK_UNITS,
            chaos: None,
        }
    }
}

/// Mutex-guarded daemon core: the job table and the WAL writer (WAL
/// appends are serialized by this lock).
struct Core {
    jobs: BTreeMap<String, Job>,
    wal: Option<WalWriter>,
    next_seq: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    drained: bool,
}

struct Shared {
    cfg: ServeConfig,
    core: Mutex<Core>,
    wake: Condvar,
    hub: Arc<MetricsHub>,
    restarts: AtomicU64,
    http_requests: AtomicU64,
    recovery_ms: AtomicU64,
}

/// Locks the core, recovering from poisoning (a panicking worker must
/// never wedge the daemon).
fn lock_core(shared: &Shared) -> MutexGuard<'_, Core> {
    shared.core.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait_core<'a>(shared: &'a Shared, guard: MutexGuard<'a, Core>, ms: u64) -> MutexGuard<'a, Core> {
    match shared.wake.wait_timeout(guard, Duration::from_millis(ms)) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

fn wal_path(state_dir: &Path) -> PathBuf {
    state_dir.join("wal.jsonl")
}

fn journal_path(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join("journals").join(format!("{id}.jsonl"))
}

fn report_path(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join("reports").join(format!("{id}.csv"))
}

/// Per-job post-mortem bundle directory: unit keys repeat across jobs
/// (`serve/SECDED/r0.005` appears in every grid), so bundles are
/// namespaced by job id.
fn postmortem_dir(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join("postmortems").join(id)
}

/// Per-job journey-log directory (one `journeys-*.jsonl` per unit),
/// namespaced by job id like the post-mortem bundles.
fn journeys_dir(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join("journeys").join(id)
}

/// Counts terminal (non-skipped) unit records in a job journal,
/// tolerating a torn trailing line. Returns 0 for a missing journal (and
/// for one the runner's resume will refuse anyway).
fn journal_done_count(path: &Path) -> usize {
    let Ok(scan) = scan_log(path, "journal", |_: &serde::Content| Ok(())) else { return 0 };
    let records: Vec<UnitRecord<serde::Content>> = scan.records;
    let keys: BTreeSet<&str> =
        records.iter().filter(|r| r.status != RunStatus::Skipped).map(|r| r.key.as_str()).collect();
    keys.len()
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Builds the `noc_serve_*` exposition from the current core state and
/// publishes it to the hub (scrapes only ever see published snapshots).
fn publish_metrics(shared: &Shared, core: &Core) {
    let mut reg = MetricsRegistry::new();
    let _ = reg.declare_gauge("noc_serve_jobs", "Jobs by lifecycle state.");
    let _ = reg.declare_counter(
        "noc_serve_accepted_total",
        "Submissions accepted (WAL'd) since the state dir was created.",
    );
    let _ =
        reg.declare_counter("noc_serve_units_done_total", "Terminal grid units across all jobs.");
    let _ =
        reg.declare_counter("noc_serve_restarts_total", "Worker-pool restarts by the supervisor.");
    let _ = reg.declare_counter("noc_serve_http_requests_total", "HTTP requests handled.");
    let _ = reg.declare_gauge(
        "noc_serve_recovery_seconds",
        "Wall-clock spent replaying the WAL at the last start.",
    );
    let _ = reg.declare_gauge("noc_serve_draining", "1 while a drain is in progress.");

    let mut by_state: BTreeMap<&str, f64> = BTreeMap::new();
    for s in
        [JobState::Queued, JobState::Running, JobState::Done, JobState::Failed, JobState::Cancelled]
    {
        by_state.insert(s.label(), 0.0);
    }
    let mut units_done = 0usize;
    for job in core.jobs.values() {
        *by_state.entry(job.state.label()).or_insert(0.0) += 1.0;
        units_done += job.units_done;
    }
    for (state, n) in &by_state {
        let _ = reg.gauge_set("noc_serve_jobs", &[("state", state)], *n);
    }
    let _ = reg.counter_set("noc_serve_accepted_total", &[], core.next_seq as f64);
    let _ = reg.counter_set("noc_serve_units_done_total", &[], units_done as f64);
    let _ = reg.counter_set(
        "noc_serve_restarts_total",
        &[],
        shared.restarts.load(Ordering::SeqCst) as f64,
    );
    let _ = reg.counter_set(
        "noc_serve_http_requests_total",
        &[],
        shared.http_requests.load(Ordering::SeqCst) as f64,
    );
    let _ = reg.gauge_set(
        "noc_serve_recovery_seconds",
        &[],
        shared.recovery_ms.load(Ordering::SeqCst) as f64 / 1_000.0,
    );
    let _ = reg.gauge_set("noc_serve_draining", &[], f64::from(u8::from(core.draining)));
    shared.hub.publish(render_exposition(&reg));
}

// ---------------------------------------------------------------------------
// Scheduler and supervisor
// ---------------------------------------------------------------------------

/// Highest-priority runnable job, FIFO within a priority tier.
fn pick_runnable(core: &Core) -> Option<String> {
    core.jobs
        .values()
        .filter(|j| j.state == JobState::Queued && !j.paused && !j.cancel_requested)
        .max_by_key(|j| (j.priority, std::cmp::Reverse(j.seq)))
        .map(|j| j.id.clone())
}

fn running_count(core: &Core) -> usize {
    core.jobs.values().filter(|j| j.state == JobState::Running).count()
}

/// Marks a job terminal: WAL `terminal` record (fsync'd), state change,
/// metrics, wakeups. A WAL append failure is logged but does not block the
/// in-memory transition — on restart the job simply re-runs and rewrites
/// the same report bytes.
fn finalize_job(shared: &Shared, id: &str, state: JobState, error: Option<String>) {
    let mut core = lock_core(shared);
    let Some(job) = core.jobs.get(id) else { return };
    if job.state.is_terminal() {
        return;
    }
    let rec = WalRecord {
        action: "terminal".to_owned(),
        id: id.to_owned(),
        tenant: job.tenant.clone(),
        priority: job.priority,
        spec: None,
        state: Some(state.label().to_owned()),
        error: error.clone(),
    };
    let chaos = shared.cfg.chaos.clone();
    if let Some(wal) = core.wal.as_mut() {
        if let Err(e) = wal.log(&rec, chaos.as_ref()) {
            eprintln!("{{\"event\":\"serve-wal-error\",\"error\":{}}}", json_str(&e));
        }
    }
    if let Some(job) = core.jobs.get_mut(id) {
        job.state = state;
        job.error = error;
        if state == JobState::Done {
            job.units_done = job.units_total;
        }
    }
    publish_metrics(shared, &core);
    shared.wake.notify_all();
}

enum Gate {
    Proceed,
    Cancelled,
    Requeue,
}

/// Observes control flags between chunks: drain requeues, then cancel
/// wins, then pause requeues. A requeued job is `queued` again, so the one
/// scheduler thread moves on (`pick_runnable` skips paused jobs, and
/// `resume` wakes it).
fn control_gate(shared: &Shared, id: &str) -> Gate {
    let mut core = lock_core(shared);
    let draining = core.draining;
    let Some(job) = core.jobs.get_mut(id) else { return Gate::Requeue };
    if !draining && job.cancel_requested {
        return Gate::Cancelled;
    }
    if !draining && !job.paused {
        return Gate::Proceed;
    }
    job.state = JobState::Queued;
    publish_metrics(shared, &core);
    shared.wake.notify_all();
    Gate::Requeue
}

/// Executes one job to a terminal state (or requeues it on drain), in
/// `chunk_units` steps against its resumable journal.
fn execute_job(shared: &Shared, id: &str) {
    let spec = {
        let core = lock_core(shared);
        match core.jobs.get(id) {
            Some(job) => job.spec.clone(),
            None => return,
        }
    };
    let jpath = journal_path(&shared.cfg.state_dir, id);
    loop {
        match control_gate(shared, id) {
            Gate::Requeue => return,
            Gate::Cancelled => {
                finalize_job(shared, id, JobState::Cancelled, None);
                return;
            }
            Gate::Proceed => {}
        }
        let rcfg = RunnerConfig {
            jobs: shared.cfg.jobs,
            journal: Some(jpath.clone()),
            resume: true,
            max_units: Some(shared.cfg.chunk_units.max(1)),
            // Units that die (stall / timeout / panic / fatal) leave a
            // post-mortem bundle in the state dir; like journals and
            // reports it survives `kill -9` and daemon restarts.
            blackbox: Some(postmortem_dir(&shared.cfg.state_dir, id)),
            ..RunnerConfig::default()
        };
        let jdir = (spec.journeys_every > 0).then(|| journeys_dir(&shared.cfg.state_dir, id));
        match run_spec_units(&spec, &rcfg, shared.cfg.chaos.as_ref(), jdir.as_deref()) {
            Err(e) => {
                finalize_job(shared, id, JobState::Failed, Some(e));
                return;
            }
            Ok(report) => {
                let counts = report.counts();
                let done = report.records.len() - counts.skipped;
                {
                    let mut core = lock_core(shared);
                    if let Some(job) = core.jobs.get_mut(id) {
                        job.units_done = done;
                    }
                    publish_metrics(shared, &core);
                }
                if counts.skipped == 0 {
                    let csv = serve_report_csv(&report);
                    if let Err(e) =
                        write_report_atomic(&report_path(&shared.cfg.state_dir, id), &csv)
                    {
                        finalize_job(shared, id, JobState::Failed, Some(e));
                        return;
                    }
                    let (state, error) = if counts.failed == 0 {
                        (JobState::Done, None)
                    } else {
                        (JobState::Failed, Some(format!("{} unit(s) failed", counts.failed)))
                    };
                    finalize_job(shared, id, state, error);
                    return;
                }
            }
        }
    }
}

/// Writes the report via tmp + rename so a crash never leaves a torn
/// report behind.
fn write_report_atomic(path: &Path, csv: &str) -> Result<(), String> {
    let tmp = path.with_extension("csv.tmp");
    let mut f = File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(csv.as_bytes())
        .and_then(|()| f.sync_data())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// The scheduler: one job at a time (intra-job parallelism comes from the
/// runner's worker pool), per-job panic isolation, drain-aware.
fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        let picked = {
            let mut core = lock_core(shared);
            loop {
                if let Some(id) = pick_runnable(&core) {
                    if let Some(job) = core.jobs.get_mut(&id) {
                        job.state = JobState::Running;
                    }
                    publish_metrics(shared, &core);
                    break Some(id);
                }
                if core.draining && running_count(&core) == 0 {
                    core.drained = true;
                    publish_metrics(shared, &core);
                    shared.wake.notify_all();
                    break None;
                }
                core = wait_core(shared, core, 200);
            }
        };
        let Some(id) = picked else { return };
        // The armed pool-panic fires here, outside the per-job isolation
        // below and outside the core lock (no poisoned daemon state): the
        // scheduler thread dies and the supervisor must recover.
        if let Some(k) = &shared.cfg.chaos {
            if k.fires(ChaosPoint::PoolPanic) {
                panic!("chaos: worker pool panic");
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(shared, &id);
        }));
        if let Err(payload) = result {
            finalize_job(
                shared,
                &id,
                JobState::Failed,
                Some(format!("worker panic: {}", panic_message(payload.as_ref()))),
            );
        }
    }
}

/// The supervisor: restarts a dead scheduler (requeueing `running` jobs),
/// and enforces the drain deadline by abandoning a wedged chunk.
fn supervisor_loop(shared: &Arc<Shared>, mut scheduler: thread::JoinHandle<()>) {
    loop {
        thread::sleep(Duration::from_millis(25));
        if scheduler.is_finished() {
            let _ = scheduler.join();
            let draining = lock_core(shared).draining;
            if draining {
                let mut core = lock_core(shared);
                core.drained = true;
                publish_metrics(shared, &core);
                shared.wake.notify_all();
                return;
            }
            shared.restarts.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "{{\"event\":\"serve-pool-restart\",\"restarts\":{}}}",
                shared.restarts.load(Ordering::SeqCst)
            );
            {
                let mut core = lock_core(shared);
                for job in core.jobs.values_mut() {
                    if job.state == JobState::Running {
                        job.state = JobState::Queued;
                    }
                }
                publish_metrics(shared, &core);
            }
            let respawn = Arc::clone(shared);
            scheduler = thread::spawn(move || scheduler_loop(&respawn));
        } else {
            let mut core = lock_core(shared);
            if core.drained {
                return;
            }
            if core.draining {
                if let Some(deadline) = core.drain_deadline {
                    if Instant::now() >= deadline {
                        // Deadline passed with a chunk still running:
                        // abandon it (its journal keeps the finished
                        // units; the job resumes on the next start).
                        core.drained = true;
                        publish_metrics(shared, &core);
                        shared.wake.notify_all();
                        return;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire types (also used by clients and tests to parse responses)
// ---------------------------------------------------------------------------

/// `POST /api/jobs` request body. All fields are required.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant identifier (`[A-Za-z0-9._-]{1,64}`): the namespace of job
    /// names, so `(tenant, spec.name)` is the idempotency key.
    pub tenant: String,
    /// Scheduling priority (higher runs sooner; FIFO within a tier).
    pub priority: i64,
    /// Submit in the paused state (the job holds until
    /// `POST /api/jobs/<id>/resume`).
    pub paused: bool,
    /// The experiment grid.
    pub spec: JobSpec,
}

/// `POST /api/jobs` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// Assigned (or, for a duplicate, existing) job id.
    pub id: String,
    /// Job state at response time.
    pub state: String,
    /// Whether `(tenant, spec.name)` matched an already-accepted job.
    pub duplicate: bool,
    /// Grid size.
    pub units: u64,
}

/// One job, as reported by `GET /api/jobs[/id]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id (`j-000001`-style, monotone in acceptance order).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Job name (idempotency key within the tenant).
    pub name: String,
    /// Scheduling priority.
    pub priority: i64,
    /// Lifecycle state label.
    pub state: String,
    /// Whether the job is paused.
    pub paused: bool,
    /// Grid size.
    pub units_total: u64,
    /// Terminal units so far.
    pub units_done: u64,
    /// Failure description, if any.
    pub error: Option<String>,
}

/// `GET /api/jobs` response body: global accounting plus every job.
/// Invariant once idle: `done + failed + cancelled == accepted`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobsSummary {
    /// Submissions ever accepted (WAL'd) in this state dir.
    pub accepted: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Jobs done.
    pub done: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Every tracked job.
    pub jobs: Vec<JobStatus>,
}

fn error_body(status: u16, msg: &str) -> HttpResponse {
    HttpResponse::json(status, format!("{{\"error\":{}}}", json_str(msg)))
}

fn job_status(job: &Job) -> JobStatus {
    JobStatus {
        id: job.id.clone(),
        tenant: job.tenant.clone(),
        name: job.spec.name.clone(),
        priority: job.priority,
        state: job.state.label().to_owned(),
        paused: job.paused,
        units_total: job.units_total as u64,
        units_done: job.units_done as u64,
        error: job.error.clone(),
    }
}

fn ok_json<T: Serialize>(status: u16, value: &T) -> HttpResponse {
    match serde_json::to_string(value) {
        Ok(body) => HttpResponse::json(status, body),
        Err(e) => error_body(500, &format!("encode response: {e}")),
    }
}

// ---------------------------------------------------------------------------
// HTTP handler
// ---------------------------------------------------------------------------

/// 405 with the route's correct `Allow` header (RFC 9110 §15.5.6: the
/// header is mandatory on 405 responses).
fn method_not_allowed(allow: &str) -> HttpResponse {
    error_body(405, "method not allowed").with_header("Allow", allow)
}

fn handle(shared: &Arc<Shared>, req: &HttpRequest) -> HttpResponse {
    shared.http_requests.fetch_add(1, Ordering::SeqCst);
    let path = req.path.split('?').next().unwrap_or("");
    let parts: Vec<&str> = path.trim_matches('/').split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => HttpResponse::text(200, "ok\n"),
        ("GET", ["metrics"]) => HttpResponse::text(200, shared.hub.snapshot()),
        ("POST", ["api", "jobs"]) => submit(shared, req),
        ("GET", ["api", "jobs"]) => list_jobs(shared),
        ("GET", ["api", "jobs", id]) => get_job(shared, id),
        ("GET", ["api", "jobs", id, "report"]) => get_report(shared, id),
        ("GET", ["api", "jobs", id, "postmortem"]) => get_postmortem(shared, id),
        ("GET", ["api", "jobs", id, "journeys"]) => get_journeys(shared, id),
        ("POST", ["api", "jobs", id, "cancel"]) => cancel_job(shared, id),
        ("POST", ["api", "jobs", id, "pause"]) => set_paused(shared, id, true),
        ("POST", ["api", "jobs", id, "resume"]) => set_paused(shared, id, false),
        ("POST", ["api", "drain"]) => drain_request(shared),
        (_, ["healthz" | "metrics"]) => method_not_allowed("GET"),
        (_, ["api", "jobs"]) => method_not_allowed("GET, POST"),
        (_, ["api", "jobs", _]) | (_, ["api", "jobs", _, "report" | "postmortem" | "journeys"]) => {
            method_not_allowed("GET")
        }
        (_, ["api", "jobs", _, "cancel" | "pause" | "resume"]) | (_, ["api", "drain"]) => {
            method_not_allowed("POST")
        }
        _ => error_body(404, "not found"),
    }
}

/// `GET /api/jobs/<id>/postmortem`: the job's first (lexicographic by
/// unit key) flight-recorder bundle, as raw JSONL ready for
/// `intellinoc postmortem`. `X-Postmortem-Bundles` counts how many the
/// job left behind.
fn get_postmortem(shared: &Arc<Shared>, id: &str) -> HttpResponse {
    {
        let core = lock_core(shared);
        if !core.jobs.contains_key(id) {
            return error_body(404, &format!("no such job: {id}"));
        }
    }
    let dir = postmortem_dir(&shared.cfg.state_dir, id);
    let mut bundles: Vec<PathBuf> = fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    bundles.sort();
    let Some(first) = bundles.first() else {
        return error_body(404, &format!("no postmortem bundle for job {id}"));
    };
    match fs::read_to_string(first) {
        Ok(text) => HttpResponse::text(200, text)
            .with_header("X-Postmortem-Bundles", &bundles.len().to_string()),
        Err(e) => error_body(500, &format!("read bundle: {e}")),
    }
}

/// `GET /api/jobs/<id>/journeys`: every journey log the job's units wrote,
/// concatenated in unit-key order (each log is self-delimiting: a header
/// line then its packet/transaction lines), ready for `intellinoc
/// journeys`. `X-Journey-Logs` counts the per-unit logs.
fn get_journeys(shared: &Arc<Shared>, id: &str) -> HttpResponse {
    {
        let core = lock_core(shared);
        if !core.jobs.contains_key(id) {
            return error_body(404, &format!("no such job: {id}"));
        }
    }
    let dir = journeys_dir(&shared.cfg.state_dir, id);
    let mut logs: Vec<PathBuf> = fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    logs.sort();
    if logs.is_empty() {
        return error_body(404, &format!("no journey logs for job {id} (journeys_every off?)"));
    }
    let mut body = String::new();
    for path in &logs {
        match fs::read_to_string(path) {
            Ok(text) => body.push_str(&text),
            Err(e) => return error_body(500, &format!("read journey log: {e}")),
        }
    }
    HttpResponse::text(200, body).with_header("X-Journey-Logs", &logs.len().to_string())
}

fn submit(shared: &Arc<Shared>, req: &HttpRequest) -> HttpResponse {
    if let Some(k) = &shared.cfg.chaos {
        k.trip(ChaosPoint::Accept);
    }
    let body = req.body_string();
    let sub: SubmitRequest = match serde_json::from_str(&body) {
        Ok(s) => s,
        Err(e) => return error_body(400, &format!("bad submission: {e}")),
    };
    if !token_ok(&sub.tenant) {
        return error_body(400, "tenant must match [A-Za-z0-9._-]{1,64}");
    }
    let units = match job_units(&sub.spec) {
        Ok(u) => u,
        Err(e) => return error_body(400, &e),
    };
    let mut core = lock_core(shared);
    if core.draining {
        return error_body(503, "draining");
    }
    if let Some(existing) =
        core.jobs.values().find(|j| j.tenant == sub.tenant && j.spec.name == sub.spec.name)
    {
        return ok_json(
            200,
            &SubmitResponse {
                id: existing.id.clone(),
                state: existing.state.label().to_owned(),
                duplicate: true,
                units: existing.units_total as u64,
            },
        );
    }
    let seq = core.next_seq + 1;
    let id = format!("j-{seq:06}");
    let rec = WalRecord {
        action: "submit".to_owned(),
        id: id.clone(),
        tenant: sub.tenant.clone(),
        priority: sub.priority,
        spec: Some(sub.spec.clone()),
        state: None,
        error: None,
    };
    let chaos = shared.cfg.chaos.clone();
    if let Some(wal) = core.wal.as_mut() {
        // Write-ahead: the record is on disk (fsync'd) before the job is
        // visible or the response is written. A crash after this point
        // cannot lose the job.
        if let Err(e) = wal.log(&rec, chaos.as_ref()) {
            return error_body(500, &format!("WAL append failed: {e}"));
        }
        if sub.paused {
            // A paused submission is two WAL records so replay re-derives
            // the paused flag the same way a live pause does.
            let pause = WalRecord { action: "pause".to_owned(), spec: None, ..rec.clone() };
            if let Err(e) = wal.log(&pause, chaos.as_ref()) {
                return error_body(500, &format!("WAL append failed: {e}"));
            }
        }
    }
    core.next_seq = seq;
    core.jobs.insert(
        id.clone(),
        Job {
            id: id.clone(),
            tenant: sub.tenant,
            priority: sub.priority,
            seq,
            spec: sub.spec,
            state: JobState::Queued,
            paused: sub.paused,
            cancel_requested: false,
            units_total: units.len(),
            units_done: 0,
            error: None,
        },
    );
    publish_metrics(shared, &core);
    shared.wake.notify_all();
    if let Some(k) = &chaos {
        // Accepted but unacknowledged: the client must retry and hit the
        // duplicate path.
        k.trip(ChaosPoint::MidResponse);
    }
    ok_json(
        202,
        &SubmitResponse {
            id,
            state: JobState::Queued.label().to_owned(),
            duplicate: false,
            units: units.len() as u64,
        },
    )
}

fn list_jobs(shared: &Arc<Shared>) -> HttpResponse {
    let core = lock_core(shared);
    let mut summary = JobsSummary {
        accepted: core.next_seq,
        queued: 0,
        running: 0,
        done: 0,
        failed: 0,
        cancelled: 0,
        draining: core.draining,
        jobs: Vec::new(),
    };
    for job in core.jobs.values() {
        match job.state {
            JobState::Queued => summary.queued += 1,
            JobState::Running => summary.running += 1,
            JobState::Done => summary.done += 1,
            JobState::Failed => summary.failed += 1,
            JobState::Cancelled => summary.cancelled += 1,
        }
        summary.jobs.push(job_status(job));
    }
    ok_json(200, &summary)
}

fn get_job(shared: &Arc<Shared>, id: &str) -> HttpResponse {
    let core = lock_core(shared);
    match core.jobs.get(id) {
        Some(job) => ok_json(200, &job_status(job)),
        None => error_body(404, &format!("no such job: {id}")),
    }
}

fn get_report(shared: &Arc<Shared>, id: &str) -> HttpResponse {
    let ready = {
        let core = lock_core(shared);
        match core.jobs.get(id) {
            Some(job) => matches!(job.state, JobState::Done | JobState::Failed),
            None => return error_body(404, &format!("no such job: {id}")),
        }
    };
    if !ready {
        return error_body(409, "report not ready (job not terminal)");
    }
    match fs::read_to_string(report_path(&shared.cfg.state_dir, id)) {
        Ok(csv) => HttpResponse::text(200, csv).with_header("X-Report-Format", "csv"),
        Err(e) => error_body(409, &format!("report unavailable: {e}")),
    }
}

/// Cancels a job. A queued job finalizes synchronously; a running one is
/// flagged and finalizes at its next chunk boundary.
fn cancel_job(shared: &Arc<Shared>, id: &str) -> HttpResponse {
    let mut core = lock_core(shared);
    let Some(job) = core.jobs.get(id) else {
        return error_body(404, &format!("no such job: {id}"));
    };
    if job.state.is_terminal() {
        return error_body(409, &format!("job is already {}", job.state.label()));
    }
    let rec = WalRecord {
        action: "cancel".to_owned(),
        id: id.to_owned(),
        tenant: job.tenant.clone(),
        priority: job.priority,
        spec: None,
        state: None,
        error: None,
    };
    let was_queued = job.state == JobState::Queued;
    let chaos = shared.cfg.chaos.clone();
    if let Some(wal) = core.wal.as_mut() {
        if let Err(e) = wal.log(&rec, chaos.as_ref()) {
            return error_body(500, &format!("WAL append failed: {e}"));
        }
    }
    if let Some(job) = core.jobs.get_mut(id) {
        job.cancel_requested = true;
    }
    if was_queued {
        drop(core);
        finalize_job(shared, id, JobState::Cancelled, None);
        let core = lock_core(shared);
        return match core.jobs.get(id) {
            Some(job) => ok_json(200, &job_status(job)),
            None => error_body(404, "job vanished"),
        };
    }
    publish_metrics(shared, &core);
    shared.wake.notify_all();
    match core.jobs.get(id) {
        Some(job) => ok_json(202, &job_status(job)),
        None => error_body(404, "job vanished"),
    }
}

fn set_paused(shared: &Arc<Shared>, id: &str, paused: bool) -> HttpResponse {
    let mut core = lock_core(shared);
    let Some(job) = core.jobs.get(id) else {
        return error_body(404, &format!("no such job: {id}"));
    };
    if job.state.is_terminal() {
        return error_body(409, &format!("job is already {}", job.state.label()));
    }
    let rec = WalRecord {
        action: if paused { "pause" } else { "resume" }.to_owned(),
        id: id.to_owned(),
        tenant: job.tenant.clone(),
        priority: job.priority,
        spec: None,
        state: None,
        error: None,
    };
    let chaos = shared.cfg.chaos.clone();
    if let Some(wal) = core.wal.as_mut() {
        if let Err(e) = wal.log(&rec, chaos.as_ref()) {
            return error_body(500, &format!("WAL append failed: {e}"));
        }
    }
    if let Some(job) = core.jobs.get_mut(id) {
        job.paused = paused;
    }
    publish_metrics(shared, &core);
    shared.wake.notify_all();
    match core.jobs.get(id) {
        Some(job) => ok_json(200, &job_status(job)),
        None => error_body(404, "job vanished"),
    }
}

/// Stops admissions and lets running chunks finish until `deadline` from
/// now (the supervisor abandons them after that).
fn start_drain(shared: &Shared, deadline: Duration) {
    let mut core = lock_core(shared);
    core.draining = true;
    core.drain_deadline = Some(Instant::now() + deadline);
    publish_metrics(shared, &core);
    shared.wake.notify_all();
}

/// `POST /api/drain`: any body is ignored; the deadline is [`DRAIN_DEADLINE`].
fn drain_request(shared: &Arc<Shared>) -> HttpResponse {
    start_drain(shared, DRAIN_DEADLINE);
    HttpResponse::json(
        200,
        format!("{{\"draining\":true,\"deadline_ms\":{}}}", DRAIN_DEADLINE.as_millis()),
    )
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

/// Classes of recovered jobs, for the post-replay report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Jobs already terminal in the WAL.
    pub done: usize,
    /// Interrupted jobs with journaled units (resume mid-grid).
    pub resumed: usize,
    /// Accepted jobs that never dispatched a unit.
    pub queued: usize,
}

/// The running daemon: HTTP endpoint + scheduler + supervisor over a
/// crash-safe state directory.
pub struct Daemon {
    shared: Arc<Shared>,
    http: HttpServer,
    supervisor: Option<thread::JoinHandle<()>>,
    recovery: RecoverySummary,
}

impl Daemon {
    /// Starts (or restarts) a daemon over `cfg.state_dir`: replays the
    /// WAL, classifies jobs, binds the HTTP endpoint, and spawns the
    /// scheduler and supervisor threads.
    ///
    /// # Errors
    ///
    /// State-directory I/O, an unreadable WAL, or a failed bind.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, String> {
        let t0 = Instant::now();
        fs::create_dir_all(cfg.state_dir.join("journals"))
            .and_then(|()| fs::create_dir_all(cfg.state_dir.join("reports")))
            .map_err(|e| format!("create state dir {}: {e}", cfg.state_dir.display()))?;
        let wal_p = wal_path(&cfg.state_dir);
        let LogScan { records, recreate, valid_len } = read_wal(&wal_p)?;

        // Replay: fold the log in order; the job table is exactly the
        // fold of its WAL.
        let mut jobs: BTreeMap<String, Job> = BTreeMap::new();
        let mut next_seq = 0u64;
        for rec in records {
            match rec.action.as_str() {
                "submit" => {
                    let Some(spec) = rec.spec else { continue };
                    let units_total = job_units(&spec).map(|u| u.len()).unwrap_or(0);
                    let seq =
                        rec.id.trim_start_matches("j-").parse::<u64>().unwrap_or(next_seq + 1);
                    next_seq = next_seq.max(seq);
                    jobs.insert(
                        rec.id.clone(),
                        Job {
                            id: rec.id,
                            tenant: rec.tenant,
                            priority: rec.priority,
                            seq,
                            spec,
                            state: JobState::Queued,
                            paused: false,
                            cancel_requested: false,
                            units_total,
                            units_done: 0,
                            error: None,
                        },
                    );
                }
                "cancel" => {
                    if let Some(job) = jobs.get_mut(&rec.id) {
                        job.cancel_requested = true;
                    }
                }
                "pause" => {
                    if let Some(job) = jobs.get_mut(&rec.id) {
                        job.paused = true;
                    }
                }
                "resume" => {
                    if let Some(job) = jobs.get_mut(&rec.id) {
                        job.paused = false;
                    }
                }
                "terminal" => {
                    if let Some(job) = jobs.get_mut(&rec.id) {
                        if let Some(state) =
                            rec.state.as_deref().and_then(|s| JobState::parse(s).ok())
                        {
                            job.state = state;
                            job.error = rec.error;
                            if state == JobState::Done {
                                job.units_done = job.units_total;
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // Classify survivors: terminal jobs are done; interrupted jobs
        // resume from their journal fingerprint (done-unit count), the
        // rest re-queue from scratch.
        let mut recovery = RecoverySummary::default();
        for job in jobs.values_mut() {
            if job.state.is_terminal() {
                recovery.done += 1;
            } else {
                job.state = JobState::Queued;
                job.units_done = journal_done_count(&journal_path(&cfg.state_dir, &job.id));
                if job.units_done > 0 {
                    recovery.resumed += 1;
                } else {
                    recovery.queued += 1;
                }
            }
        }

        let wal = if recreate {
            WalWriter::create(&wal_p)?
        } else {
            WalWriter::append(&wal_p, valid_len)?
        };
        let shared = Arc::new(Shared {
            cfg,
            core: Mutex::new(Core {
                jobs,
                wal: Some(wal),
                next_seq,
                draining: false,
                drain_deadline: None,
                drained: false,
            }),
            wake: Condvar::new(),
            hub: Arc::new(MetricsHub::new()),
            restarts: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            recovery_ms: AtomicU64::new(0),
        });

        let handler_shared = Arc::clone(&shared);
        let http = HttpServer::bind(
            &shared.cfg.addr,
            Arc::new(move |req: &HttpRequest| handle(&handler_shared, req)),
        )
        .map_err(|e| format!("bind {}: {e}", shared.cfg.addr))?;

        let sched_shared = Arc::clone(&shared);
        let scheduler = thread::spawn(move || scheduler_loop(&sched_shared));
        let sup_shared = Arc::clone(&shared);
        let supervisor = thread::spawn(move || supervisor_loop(&sup_shared, scheduler));

        let elapsed_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
        shared.recovery_ms.store(elapsed_ms, Ordering::SeqCst);
        {
            let core = lock_core(&shared);
            publish_metrics(&shared, &core);
        }
        eprintln!(
            "{{\"event\":\"serve-recovered\",\"jobs\":{},\"done\":{},\"resumed\":{},\"queued\":{},\"ms\":{}}}",
            recovery.done + recovery.resumed + recovery.queued,
            recovery.done,
            recovery.resumed,
            recovery.queued,
            elapsed_ms
        );
        Ok(Daemon { shared, http, supervisor: Some(supervisor), recovery })
    }

    /// The bound HTTP address.
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// The metrics hub serving `GET /metrics`.
    #[must_use]
    pub fn hub(&self) -> Arc<MetricsHub> {
        Arc::clone(&self.shared.hub)
    }

    /// What the WAL replay found at start.
    #[must_use]
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// Requests a drain (programmatic `POST /api/drain`).
    pub fn drain(&self, deadline: Duration) {
        start_drain(&self.shared, deadline);
    }

    /// Blocks until the drain completes (or `timeout` passes). Returns
    /// whether the daemon fully drained.
    pub fn wait_until_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut core = lock_core(&self.shared);
        while !core.drained {
            if Instant::now() >= deadline {
                return false;
            }
            core = wait_core(&self.shared, core, 100);
        }
        true
    }

    /// Drains with `deadline`, waits it out, stops the HTTP endpoint, and
    /// joins the supervisor. Returns whether the drain was clean.
    pub fn shutdown(mut self, deadline: Duration) -> bool {
        self.drain(deadline);
        let clean = self.wait_until_drained(deadline + Duration::from_secs(2));
        self.http.shutdown();
        if let Some(handle) = self.supervisor.take() {
            // The supervisor exits once drained is set (it set it); a
            // wedged chunk past the deadline leaves the thread detached.
            let patience = Instant::now() + Duration::from_secs(2);
            while !handle.is_finished() && Instant::now() < patience {
                thread::sleep(Duration::from_millis(10));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        clean
    }
}

// ---------------------------------------------------------------------------
// Minimal std HTTP client (tests and `benchmark/`)
// ---------------------------------------------------------------------------

/// Sends one HTTP/1.0 request and returns `(status, body)`.
///
/// # Errors
///
/// Connection, timeout, or malformed-response errors (a chaos-killed
/// daemon surfaces here as a connect/EOF failure the caller retries).
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let (status, _, body) = http_request_full(addr, method, path, body)?;
    Ok((status, body))
}

/// [`http_request`] variant that also returns the response headers
/// (lowercased names), for callers asserting on `Allow` or `X-Journey-Logs`.
///
/// # Errors
///
/// Same as [`http_request`].
#[allow(clippy::type_complexity)] // (status, headers, body) — a wire triple, not a domain type
pub fn http_request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Vec<(String, String)>, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let payload = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.0\r\nHost: intellinoc\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(req.as_bytes()).map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, response_body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response for {path} ({} bytes)", raw.len()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{status_line}`"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    Ok((status, headers, response_body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("intellinoc-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_owned(),
            designs: vec!["secded".to_owned()],
            rates: vec![0.005],
            ppn: 1,
            seed: 11,
            max_cycles: 50_000,
            reqreply: None,
            journeys_every: 0,
        }
    }

    #[test]
    fn job_spec_json_tolerates_missing_reqreply_and_accepts_it() {
        // Pre-closed-loop submissions and WAL records have no `reqreply`
        // key; they must parse as open-loop grids.
        let legacy =
            r#"{"name":"old","designs":["secded"],"rates":[0.01],"ppn":2,"seed":1,"max_cycles":0}"#;
        let spec: JobSpec = serde_json::from_str(legacy).unwrap();
        assert!(spec.reqreply.is_none());
        assert_eq!(spec.journeys_every, 0, "pre-journey submissions parse with tracing off");

        // Partial reqreply objects take the spec defaults field by field.
        let closed = r#"{"name":"new","designs":["secded"],"rates":[0.01],"ppn":2,"seed":1,"max_cycles":0,"reqreply":{"reply_timeout":500}}"#;
        let spec: JobSpec = serde_json::from_str(closed).unwrap();
        let rr = spec.reqreply.unwrap();
        assert_eq!(rr.reply_timeout, 500);
        assert_eq!(rr.max_retries, noc_traffic::ReqReplySpec::default().max_retries);
    }

    #[test]
    fn non_object_reqreply_is_rejected() {
        // Only an absent key or `null` means open loop; any other
        // non-object used to read as the default protocol (closed loop).
        for bad in ["false", "7", "\"off\"", "[]"] {
            let job = format!(
                r#"{{"name":"j","designs":["secded"],"rates":[0.01],"ppn":2,"seed":1,"max_cycles":0,"reqreply":{bad}}}"#
            );
            let bench = format!(
                r#"{{"designs":["Secded"],"rates":[0.1],"seeds":1,"ppn":2,"master_seed":1,"reqreply":{bad}}}"#
            );
            let errors = [
                serde_json::from_str::<JobSpec>(&job).unwrap_err().to_string(),
                serde_json::from_str::<crate::BenchSpec>(&bench).unwrap_err().to_string(),
            ];
            for e in errors {
                assert!(e.starts_with("field `reqreply`: expected object, found "), "{bad}: {e}");
            }
        }
    }

    #[test]
    fn closed_loop_job_reports_are_deterministic() {
        let mut spec = tiny_spec("closed");
        spec.ppn = 2;
        spec.reqreply = Some(noc_traffic::ReqReplySpec::default());
        let a = reference_report_csv(&spec).unwrap();
        let b = reference_report_csv(&spec).unwrap();
        assert_eq!(a, b);
        assert!(a.contains(",ok,"), "closed-loop cell must complete: {a}");
    }

    #[test]
    fn tokens_and_specs_are_validated() {
        assert!(token_ok("alice-1.2_x"));
        assert!(!token_ok(""));
        assert!(!token_ok("has space"));
        assert!(!token_ok(&"x".repeat(65)));

        assert!(job_units(&tiny_spec("ok")).is_ok());
        let mut bad = tiny_spec("bad design");
        assert!(job_units(&bad).unwrap_err().contains("name"));
        bad = tiny_spec("x");
        bad.designs = vec!["warp-drive".to_owned()];
        assert!(job_units(&bad).unwrap_err().contains("unknown design"));
        bad = tiny_spec("x");
        bad.rates = vec![0.0];
        assert!(job_units(&bad).unwrap_err().contains("rate"));
        bad = tiny_spec("x");
        bad.rates = vec![0.01, 0.01];
        assert!(job_units(&bad).unwrap_err().contains("duplicate"));
        bad = tiny_spec("x");
        bad.designs.clear();
        assert!(job_units(&bad).is_err());
    }

    #[test]
    fn chaos_kill_parses_and_counts_occurrences() {
        let k = ChaosKill::parse("mid-wal:2").unwrap();
        assert_eq!(k.point, ChaosPoint::MidWal);
        assert!(!k.fires(ChaosPoint::Accept), "other points must not count");
        assert!(!k.fires(ChaosPoint::MidWal), "first hit is not the armed one");
        assert!(k.fires(ChaosPoint::MidWal), "second hit fires");
        assert!(ChaosKill::parse("nope:1").is_err());
        assert!(ChaosKill::parse("accept").is_err());
        assert!(ChaosKill::parse("accept:0").is_err());
        for p in ChaosPoint::ALL {
            assert_eq!(ChaosPoint::parse(p.label()).unwrap(), p);
        }
    }

    #[test]
    fn wal_replay_tolerates_torn_tails_and_torn_headers() {
        let dir = tmp_dir("wal");
        let path = wal_path(&dir);

        // Missing and empty files re-create.
        assert!(read_wal(&path).unwrap().recreate);
        fs::write(&path, "").unwrap();
        assert!(read_wal(&path).unwrap().recreate);

        // A full log with a torn trailing record drops only the tear.
        let mut w = WalWriter::create(&path).unwrap();
        let rec = WalRecord {
            action: "submit".to_owned(),
            id: "j-000001".to_owned(),
            tenant: "alice".to_owned(),
            priority: 0,
            spec: Some(tiny_spec("a")),
            state: None,
            error: None,
        };
        w.log(&rec, None).unwrap();
        w.log(
            &WalRecord {
                action: "terminal".to_owned(),
                state: Some("done".to_owned()),
                ..rec.clone()
            },
            None,
        )
        .unwrap();
        drop(w);
        let intact = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{intact}{{\"action\":\"sub")).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(!scan.recreate);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].action, "terminal");
        // Appending truncates the tear away first, so the next record
        // starts on its own line and the log reads back whole.
        assert_eq!(scan.valid_len, intact.len() as u64);
        WalWriter::append(&path, scan.valid_len).unwrap().log(&rec, None).unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);

        // A torn header with no records re-creates; with records it is a
        // hard error (the log is unreadable, not merely torn).
        fs::write(&path, "{\"wal\":\"intelli").unwrap();
        assert!(read_wal(&path).unwrap().recreate);
        let body = intact.lines().nth(1).unwrap();
        fs::write(&path, format!("{{\"wal\":\"intelli\n{body}\n")).unwrap();
        assert!(read_wal(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_csv_is_deterministic_and_reference_matches_engine() {
        let spec = tiny_spec("csv");
        let a = reference_report_csv(&spec).unwrap();
        let b = reference_report_csv(&spec).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("key,status,exec_cycles,"));
        assert!(a.contains("serve/SECDED/r0.005,ok,"));
        // A cell that never ran keeps its row: the key, no metrics.
        let spec = JobSpec { rates: vec![0.005, 0.01], ..spec };
        let capped = RunnerConfig { max_units: Some(1), ..RunnerConfig::serial() };
        let partial = serve_report_csv(&run_spec_units(&spec, &capped, None, None).unwrap());
        assert_eq!(partial.lines().nth(1), a.lines().nth(1));
        assert_eq!(partial.lines().nth(2), Some("serve/SECDED/r0.01,skipped,,,,,"));
    }

    fn wait_job_status(addr: &str, id: &str) -> JobStatus {
        let (code, body) = http_request(addr, "GET", &format!("/api/jobs/{id}"), None).unwrap();
        assert_eq!(code, 200, "{body}");
        serde_json::from_str(&body).unwrap()
    }

    fn wait_job_done(addr: &str, id: &str) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (code, body) = http_request(addr, "GET", &format!("/api/jobs/{id}"), None).unwrap();
            assert_eq!(code, 200, "{body}");
            let status: JobStatus = serde_json::from_str(&body).unwrap();
            if status.state != "queued" && status.state != "running" {
                return status;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {body}");
            thread::sleep(Duration::from_millis(25));
        }
    }

    #[test]
    fn daemon_runs_jobs_dedupes_resubmits_and_serves_identical_reports() {
        let dir = tmp_dir("daemon");
        let daemon =
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
                .unwrap();
        let addr = daemon.local_addr().to_string();

        let submit = |spec: JobSpec| {
            let body = serde_json::to_string(&SubmitRequest {
                tenant: "alice".to_owned(),
                priority: 0,
                paused: false,
                spec,
            })
            .unwrap();
            http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap()
        };

        let (code, body) = submit(tiny_spec("one"));
        assert_eq!(code, 202, "{body}");
        let accepted: SubmitResponse = serde_json::from_str(&body).unwrap();
        assert!(!accepted.duplicate);

        // Resubmitting the same (tenant, name) returns the existing job.
        let (code, body) = submit(tiny_spec("one"));
        assert_eq!(code, 200, "{body}");
        let dup: SubmitResponse = serde_json::from_str(&body).unwrap();
        assert!(dup.duplicate);
        assert_eq!(dup.id, accepted.id);

        let done = wait_job_done(&addr, &accepted.id);
        assert_eq!(done.state, "done", "{done:?}");
        assert_eq!(done.units_done, done.units_total);

        let (code, csv) =
            http_request(&addr, "GET", &format!("/api/jobs/{}/report", accepted.id), None).unwrap();
        assert_eq!(code, 200);
        assert_eq!(csv, reference_report_csv(&tiny_spec("one")).unwrap());

        let (code, body) = submit(tiny_spec("two"));
        assert_eq!(code, 202, "{body}");
        let second: SubmitResponse = serde_json::from_str(&body).unwrap();
        wait_job_done(&addr, &second.id);

        let (_, metrics) = http_request(&addr, "GET", "/metrics", None).unwrap();
        assert!(metrics.contains("noc_serve_jobs"), "{metrics}");
        assert!(metrics.contains("noc_serve_accepted_total 2"), "{metrics}");

        assert!(daemon.shutdown(Duration::from_secs(10)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journeys_endpoint_serves_logs_and_404s_when_tracing_is_off() {
        let dir = tmp_dir("journeys");
        let daemon =
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
                .unwrap();
        let addr = daemon.local_addr().to_string();

        let submit = |spec: JobSpec| {
            let body = serde_json::to_string(&SubmitRequest {
                tenant: "alice".to_owned(),
                priority: 0,
                paused: false,
                spec,
            })
            .unwrap();
            let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap();
            assert_eq!(code, 202, "{resp}");
            let sub: SubmitResponse = serde_json::from_str(&resp).unwrap();
            sub.id
        };

        // A traced job serves one JSONL log per unit, with the count in
        // the X-Journey-Logs header.
        let mut spec = tiny_spec("traced");
        spec.journeys_every = 1;
        let id = submit(spec);
        let done = wait_job_done(&addr, &id);
        assert_eq!(done.state, "done", "{done:?}");
        let (code, headers, body) =
            http_request_full(&addr, "GET", &format!("/api/jobs/{id}/journeys"), None).unwrap();
        assert_eq!(code, 200, "{body}");
        let logs = headers.iter().find(|(n, _)| n == "x-journey-logs").map(|(_, v)| v.as_str());
        assert_eq!(logs, Some("1"), "one unit, one log");
        assert!(body.contains("\"kind\":\"journey-log\""), "{body}");
        assert!(body.contains("\"spans\":"), "{body}");

        // Tracing off: the job finishes but holds no journey logs.
        let id = submit(tiny_spec("untraced"));
        wait_job_done(&addr, &id);
        let (code, body) =
            http_request(&addr, "GET", &format!("/api/jobs/{id}/journeys"), None).unwrap();
        assert_eq!(code, 404, "{body}");
        let (code, _) = http_request(&addr, "GET", "/api/jobs/j-999999/journeys", None).unwrap();
        assert_eq!(code, 404, "unknown jobs 404");

        assert!(daemon.shutdown(Duration::from_secs(10)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_pause_resume_and_drain_reject_invalid_transitions() {
        let dir = tmp_dir("lifecycle");
        let daemon =
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
                .unwrap();
        let addr = daemon.local_addr().to_string();

        // Submit paused so the scheduler cannot start the job, then
        // cancel it: the cancel must win and finalize `cancelled`.
        let body = serde_json::to_string(&SubmitRequest {
            tenant: "bob".to_owned(),
            priority: 0,
            paused: true,
            spec: tiny_spec("paused"),
        })
        .unwrap();
        let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap();
        assert_eq!(code, 202, "{resp}");
        let sub: SubmitResponse = serde_json::from_str(&resp).unwrap();
        let status = wait_job_status(&addr, &sub.id);
        assert_eq!(status.state, "queued");
        assert!(status.paused);
        let (code, resp) =
            http_request(&addr, "POST", &format!("/api/jobs/{}/cancel", sub.id), None).unwrap();
        assert!(code == 200 || code == 202, "{resp}");
        let done = wait_job_done(&addr, &sub.id);
        assert_eq!(done.state, "cancelled", "{done:?}");

        // Terminal jobs reject further lifecycle changes and report 409.
        for op in ["cancel", "pause", "resume"] {
            let (code, _) =
                http_request(&addr, "POST", &format!("/api/jobs/{}/{op}", sub.id), None).unwrap();
            assert_eq!(code, 409, "{op} of a cancelled job must 409");
        }
        let (code, _) = http_request(&addr, "GET", "/api/jobs/j-999999/report", None).unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_request(&addr, "DELETE", "/api/jobs", None).unwrap();
        assert_eq!(code, 405);

        // Drain: new submissions bounce with 503 and the daemon settles.
        let (code, _) = http_request(&addr, "POST", "/api/drain", None).unwrap();
        assert_eq!(code, 200);
        let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap();
        assert_eq!(code, 503, "{resp}");
        assert!(daemon.wait_until_drained(Duration::from_secs(10)));
        assert!(daemon.shutdown(Duration::from_secs(5)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_surface_answers_wrong_methods_with_allow_headers() {
        let dir = tmp_dir("http-surface");
        let daemon =
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
                .unwrap();
        let addr = daemon.local_addr().to_string();

        // Every route answers a wrong method with 405 + its Allow header.
        for (method, path, allow) in [
            ("POST", "/healthz", "GET"),
            ("DELETE", "/metrics", "GET"),
            ("DELETE", "/api/jobs", "GET, POST"),
            ("POST", "/api/jobs/j-000001", "GET"),
            ("POST", "/api/jobs/j-000001/report", "GET"),
            ("POST", "/api/jobs/j-000001/postmortem", "GET"),
            ("POST", "/api/jobs/j-000001/journeys", "GET"),
            ("GET", "/api/jobs/j-000001/cancel", "POST"),
            ("GET", "/api/drain", "POST"),
        ] {
            let (code, headers, body) = http_request_full(&addr, method, path, None).unwrap();
            assert_eq!(code, 405, "{method} {path}: {body}");
            let got = headers.iter().find(|(n, _)| n == "allow").map(|(_, v)| v.as_str());
            assert_eq!(got, Some(allow), "{method} {path}");
        }
        let (code, body) = http_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        // A paused submission parks a job that has no bundle.
        let body = serde_json::to_string(&SubmitRequest {
            tenant: "alice".to_owned(),
            priority: 0,
            paused: true,
            spec: tiny_spec("parked"),
        })
        .unwrap();
        let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap();
        assert_eq!(code, 202, "{resp}");

        // Postmortems: unknown job and bundle-less job both 404.
        let (code, _) = http_request(&addr, "GET", "/api/jobs/j-999999/postmortem", None).unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_request(&addr, "GET", "/api/jobs/j-000001/postmortem", None).unwrap();
        assert_eq!(code, 404);

        assert!(daemon.shutdown(Duration::from_secs(10)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_replays_wal_and_resumes_to_identical_reports() {
        let dir = tmp_dir("restart");
        let spec = JobSpec {
            name: "grid".to_owned(),
            designs: vec!["secded".to_owned()],
            rates: vec![0.005, 0.01],
            ppn: 1,
            seed: 5,
            max_cycles: 50_000,
            reqreply: None,
            journeys_every: 0,
        };
        let reference = reference_report_csv(&spec).unwrap();

        // Phase 1: accept the job but give the scheduler no chance to
        // finish it cleanly — drop the daemon immediately after the first
        // chunk could start. Shutdown-with-drain guarantees the WAL holds
        // the submission and the journal holds zero or more units.
        {
            let daemon = Daemon::start(ServeConfig {
                state_dir: dir.clone(),
                chunk_units: 1,
                ..ServeConfig::default()
            })
            .unwrap();
            let addr = daemon.local_addr().to_string();
            let body = serde_json::to_string(&SubmitRequest {
                tenant: "alice".to_owned(),
                priority: 0,
                paused: false,
                spec: spec.clone(),
            })
            .unwrap();
            let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap();
            assert_eq!(code, 202, "{resp}");
            daemon.shutdown(Duration::from_secs(10));
        }

        // Phase 2: a fresh daemon over the same state dir must replay the
        // WAL, finish the job, and serve the byte-identical report.
        let daemon =
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
                .unwrap();
        let recovered = daemon.recovery();
        assert_eq!(recovered.done + recovered.resumed + recovered.queued, 1, "{recovered:?}");
        let addr = daemon.local_addr().to_string();
        let done = wait_job_done(&addr, "j-000001");
        assert_eq!(done.state, "done", "{done:?}");
        let (code, csv) = http_request(&addr, "GET", "/api/jobs/j-000001/report", None).unwrap();
        assert_eq!(code, 200);
        assert_eq!(csv, reference);
        assert!(daemon.shutdown(Duration::from_secs(10)));
        let _ = fs::remove_dir_all(&dir);
    }
}
