//! `noc-runner`: the fault-tolerant parallel execution engine for
//! experiment grids.
//!
//! Campaigns, sweeps, and bench grids are sets of *independent* experiment
//! units (one simulation each). This module runs any such set on a
//! std-thread worker pool with the same layered recovery discipline the
//! simulated mesh applies to its own traffic:
//!
//! * **Panic isolation** — each unit executes under
//!   [`std::panic::catch_unwind`]; a crashing unit becomes a structured
//!   `failed` record carrying the panic message and never poisons its
//!   siblings.
//! * **Deadlines** — a unit's cycle budget is its own `max_cycles`, and a
//!   chaos-marked unit's is clamped to [`CHAOS_DEADLINE_CYCLES`]; a run that
//!   exhausts it without finishing (or that the in-sim stall watchdog
//!   aborts) is reported `timed-out` with a [`TimeoutReport`] attached.
//! * **One attempt** — a unit is deterministic per `(config, seed)` and its
//!   seed never depends on how often it ran, so a failure is final: a panic
//!   or a [`UnitVerdict::Fatal`] marks the unit `failed`.
//! * **Journaled resume** — with a journal path configured, every terminal
//!   record is appended to a JSONL journal (flushed per line); a `resume`
//!   run reloads finished units from the journal and only executes the rest.
//!
//! Determinism is preserved by construction: each unit's RNG seed derives
//! from `(master_seed, run key)` via [`derive_seed`] — never from iteration
//! or completion order — and [`RunnerReport::records`] is returned in the
//! canonical unit order, so serial, parallel, and resumed executions of the
//! same grid produce byte-identical merged reports.
//!
//! The unit record is the grid's one account: the engine keeps one slot per
//! unit, and the runner log (`runner.jsonl`) is
//! [`RunnerReport::runner_log`] of the records, so it too is the same at
//! any worker count.

use noc_sim::{
    bundle_file_name, json_str, shared_recorder, BundleCause, BundleHead, FlightRecorder,
    RunReport, SharedRecorder, StallReport, DEFAULT_BLACKBOX_CAPACITY,
};
use serde::{Content, Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Derives a per-unit RNG seed from the master seed and the unit's stable
/// run key (FNV-1a over the key, finalized with a SplitMix64 round).
///
/// The derivation depends only on `(master, key)`, so a unit's seed is
/// identical whether the grid runs serially, on `--jobs N` workers, or
/// resumes from a journal — and independent of every other unit.
#[must_use]
pub fn derive_seed(master: u64, key: &str) -> u64 {
    let mut z = fnv1a(key) ^ master.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Execution-engine configuration, shared by every grid kind.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads. `0` or `1` runs serially (but still with panic
    /// isolation, deadlines, and journaling).
    pub jobs: usize,
    /// JSONL journal of terminal unit records (enables `resume`).
    pub journal: Option<PathBuf>,
    /// Reuse terminal records from the journal instead of re-running them.
    pub resume: bool,
    /// Dispatch at most this many units this invocation; the rest are
    /// reported `skipped` (interruption testing, sharded execution).
    pub max_units: Option<usize>,
    /// Flight recorder (`noc-blackbox`): when set, every unit runs with a
    /// [`FlightRecorder`] of [`DEFAULT_BLACKBOX_CAPACITY`] samples
    /// installed, and a unit that dies — stall, deadline timeout, panic, or
    /// fatal failure — leaves a post-mortem bundle at
    /// `<dir>/postmortem-<key>.jsonl` (the directory is created on first
    /// dump) for `intellinoc postmortem` to render. `None` disables it.
    pub blackbox: Option<PathBuf>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig { jobs: 1, journal: None, resume: false, max_units: None, blackbox: None }
    }
}

impl RunnerConfig {
    /// A serial, journal-less configuration.
    #[must_use]
    pub fn serial() -> Self {
        RunnerConfig::default()
    }

    /// Sets the worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Deliberate failure injection for robustness tests and CI smoke runs:
/// units whose key contains a marker substring are forced to misbehave.
#[derive(Debug, Clone, Default)]
pub struct ChaosOptions {
    /// Units whose key contains this substring panic at dispatch.
    pub panic_units: Option<String>,
    /// Units whose key contains this substring run under a tiny forced
    /// deadline (64 cycles) and therefore time out.
    pub timeout_units: Option<String>,
}

/// Forced deadline applied to chaos-marked timeout units.
pub const CHAOS_DEADLINE_CYCLES: u64 = 64;

impl ChaosOptions {
    /// Whether `key` is marked for a forced panic.
    fn panics(&self, key: &str) -> bool {
        self.panic_units.as_deref().is_some_and(|m| !m.is_empty() && key.contains(m))
    }

    /// Whether `key` is marked for a forced timeout.
    fn times_out(&self, key: &str) -> bool {
        self.timeout_units.as_deref().is_some_and(|m| !m.is_empty() && key.contains(m))
    }
}

/// Everything a unit executor gets to see about its run.
#[derive(Debug, Clone)]
pub struct UnitCtx<'a> {
    /// The unit's stable run key.
    pub key: &'a str,
    /// The unit's RNG seed: [`derive_seed`] of the master seed and key under
    /// [`run_units`], the seed its cell arrived with under `run_grid`.
    pub seed: u64,
    /// Simulated-cycle deadline clamped onto the unit's own budget: the
    /// chaos deadline for a unit `--force-timeout` marks, else `None`.
    pub deadline_cycles: Option<u64>,
    /// Flight recorder for this unit, when the black box is configured.
    /// Executors install it into the experiment's telemetry so the engine
    /// can dump a post-mortem bundle even if the unit panics — the handle
    /// lives outside the `catch_unwind` boundary.
    pub recorder: Option<SharedRecorder>,
}

/// Structured description of a run that exceeded its deadline (cycle
/// budget) or was aborted by the in-sim stall watchdog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeoutReport {
    /// The cycle budget the run was held to.
    pub deadline_cycles: u64,
    /// Cycles actually simulated before cancellation.
    pub cycles_run: u64,
    /// Packets still in flight when the run was cancelled.
    pub in_flight: u64,
    /// The stall watchdog's diagnostic, when the cancellation came from the
    /// watchdog rather than the budget.
    pub stall: Option<StallReport>,
}

/// Classifies a simulation that has stopped against its effective deadline.
///
/// Returns a [`TimeoutReport`] when the stall watchdog aborted the run (its
/// [`StallReport`] rides along) or the workload had not `finished` — the
/// simulator's own `is_done()`, so a run the budget cut off at an instant
/// with nothing in flight still counts; `None` for a clean completion.
#[must_use]
pub fn classify_timeout(
    report: &RunReport,
    finished: bool,
    deadline_cycles: u64,
) -> Option<TimeoutReport> {
    if finished && report.stall.is_none() {
        return None;
    }
    let s = &report.stats;
    Some(TimeoutReport {
        deadline_cycles,
        cycles_run: s.cycles,
        in_flight: s.packets_injected.saturating_sub(s.packets_delivered + s.packets_dropped),
        stall: report.stall.clone(),
    })
}

/// What a unit executor reports back.
#[derive(Debug, Clone)]
pub enum UnitVerdict<T> {
    /// The unit completed; `T` is its merged-report payload.
    Ok(T),
    /// The unit exceeded its deadline (or the stall watchdog fired); an
    /// optional partial payload rides along for the merged report.
    TimedOut {
        /// Partial results, when the simulation produced usable statistics.
        partial: Option<T>,
        /// The structured timeout diagnostic.
        report: TimeoutReport,
    },
    /// The unit failed; it is marked `failed` with this message.
    Fatal(String),
}

/// Terminal status of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed and produced a payload.
    Ok,
    /// Panicked or reported [`UnitVerdict::Fatal`].
    Failed,
    /// Cancelled by deadline or stall watchdog.
    TimedOut,
    /// Never dispatched (unit cap / interrupted invocation).
    Skipped,
}

impl RunStatus {
    /// Fixed status label (matches the serde encoding).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Failed => "failed",
            RunStatus::TimedOut => "timed-out",
            RunStatus::Skipped => "skipped",
        }
    }
}

// Written by hand: the four labels are the journal's status vocabulary, and
// a derived reader would also accept the tagged form `{"ok": null}`.
impl Serialize for RunStatus {
    fn serialize_content(&self) -> Content {
        Content::Str(self.label().to_owned())
    }
}

impl Deserialize for RunStatus {
    fn deserialize_content(content: &Content) -> Result<Self, serde::Error> {
        match content.as_str() {
            Some("ok") => Ok(RunStatus::Ok),
            Some("failed") => Ok(RunStatus::Failed),
            Some("timed-out") => Ok(RunStatus::TimedOut),
            Some("skipped") => Ok(RunStatus::Skipped),
            _ => Err(serde::Error::msg(format!("invalid run status: {content:?}"))),
        }
    }
}

/// The merged record of one unit: status, payload, diagnostics.
///
/// Serialized both into the journal and into merged reports; wall-clock
/// fields are excluded from serialization so merged reports stay
/// byte-deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitRecord<T> {
    /// The unit's stable run key.
    pub key: String,
    /// Terminal status.
    pub status: RunStatus,
    /// The unit's payload (`Some` for ok and partial timed-out records).
    pub payload: Option<T>,
    /// Panic message or failure description, for `failed` records.
    pub error: Option<String>,
    /// Timeout diagnostic, for `timed-out` records.
    pub timeout: Option<TimeoutReport>,
    /// Wall-clock milliseconds (nondeterministic; not serialized).
    #[serde(skip)]
    pub wall_ms: f64,
    /// Whether this record was reloaded from the journal (not serialized).
    #[serde(skip)]
    pub from_journal: bool,
    /// The cause and path of the post-mortem bundle this unit left when it
    /// died, if the write succeeded (not serialized).
    #[serde(skip)]
    pub bundle: Option<(BundleCause, PathBuf)>,
}

impl<T> UnitRecord<T> {
    /// The payload of a unit that finished `ok`: the one rule for a result
    /// that needs every run it reads (a baseline, a figure).
    ///
    /// # Errors
    ///
    /// Names the unit by key and status, with its error if it failed.
    pub(crate) fn ok_payload(&self) -> Result<&T, String> {
        if let (RunStatus::Ok, Some(payload)) = (self.status, &self.payload) {
            return Ok(payload);
        }
        let why = self.error.as_ref().map_or(String::new(), |e| format!(": {e}"));
        Err(format!("unit {} {}{why}", self.key, self.status.label()))
    }
}

/// Status tallies across a whole grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Units that completed.
    pub ok: usize,
    /// Units that failed (panic / fatal).
    pub failed: usize,
    /// Units cancelled by deadline or stall watchdog.
    pub timed_out: usize,
    /// Units never dispatched.
    pub skipped: usize,
}

/// The merged result of one grid execution: every unit's record in
/// canonical (input) order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerReport<T> {
    /// One record per unit, in the order the unit keys were supplied.
    pub records: Vec<UnitRecord<T>>,
}

impl<T> RunnerReport<T> {
    /// Status tallies.
    #[must_use]
    pub fn counts(&self) -> StatusCounts {
        let mut c = StatusCounts::default();
        for r in &self.records {
            match r.status {
                RunStatus::Ok => c.ok += 1,
                RunStatus::Failed => c.failed += 1,
                RunStatus::TimedOut => c.timed_out += 1,
                RunStatus::Skipped => c.skipped += 1,
            }
        }
        c
    }

    /// Whether every unit completed cleanly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.records.iter().all(|r| r.status == RunStatus::Ok)
    }

    /// Every unit's payload, in canonical order: the one rule for a result
    /// folded over a whole grid, which needs them all.
    ///
    /// # Errors
    ///
    /// Names the first unit that did not finish `ok`, with the summary.
    pub fn clean_payloads(&self) -> Result<Vec<&T>, String> {
        let unclean = |e| format!("{e} (grid not clean: {})", self.summary());
        self.records.iter().map(|r| r.ok_payload().map_err(unclean)).collect()
    }

    /// Payloads of successfully completed units, in canonical order.
    pub fn ok_payloads(&self) -> impl Iterator<Item = &T> {
        self.records.iter().filter(|r| r.status == RunStatus::Ok).filter_map(|r| r.payload.as_ref())
    }

    /// One-line human summary (`12 ok, 1 failed, 1 timed-out, 0 skipped`).
    #[must_use]
    pub fn summary(&self) -> String {
        let c = self.counts();
        format!(
            "{} ok, {} failed, {} timed-out, {} skipped",
            c.ok, c.failed, c.timed_out, c.skipped
        )
    }

    /// The per-run wall-clock block of the self-profile table, one row per
    /// unit sorted by key; empty when no row remains. Journal-reloaded and
    /// skipped units carry no wall time and are left out.
    #[must_use]
    pub fn wall_clock_table(&self) -> String {
        let mut rows: Vec<&UnitRecord<T>> = self
            .records
            .iter()
            .filter(|r| !r.from_journal && r.status != RunStatus::Skipped)
            .collect();
        if rows.is_empty() {
            return String::new();
        }
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        let mut out = String::from("  per-run wall clock\n");
        out.push_str("  run key                                    status           ms\n");
        for r in rows {
            let _ = writeln!(out, "  {:<42} {:<9} {:>9.1}", r.key, r.status.label(), r.wall_ms);
        }
        out
    }

    /// The runner log (`runner.jsonl`), read off the records in canonical
    /// order: a `unit-resumed` line per journaled record, a `unit-skipped`
    /// line per record past the unit cap, then per dispatched unit
    /// `unit-started`, `postmortem-dumped` if it left a bundle, and
    /// `unit-finished`. The same records render the same bytes whatever the
    /// worker count.
    #[must_use]
    pub fn runner_log(&self) -> String {
        let mut out = String::new();
        let mut line = |event: &str, key: &str, rest: String| {
            let _ = writeln!(out, "{{\"event\":\"{event}\",\"key\":{}{rest}}}", json_str(key));
        };
        let status = |r: &UnitRecord<T>| format!(",\"status\":\"{}\"", r.status.label());
        let skipped = |r: &&UnitRecord<T>| !r.from_journal && r.status == RunStatus::Skipped;
        for r in self.records.iter().filter(|r| r.from_journal) {
            line("unit-resumed", &r.key, status(r));
        }
        for r in self.records.iter().filter(skipped) {
            let reason = json_str(r.error.as_deref().unwrap_or_default());
            line("unit-skipped", &r.key, format!(",\"reason\":{reason}"));
        }
        for r in self.records.iter().filter(|r| !r.from_journal && !skipped(r)) {
            line("unit-started", &r.key, String::new());
            if let Some((cause, path)) = &r.bundle {
                let path = json_str(&path.display().to_string());
                line(
                    "postmortem-dumped",
                    &r.key,
                    format!(",\"cause\":\"{}\",\"path\":{path}", cause.label()),
                );
            }
            line("unit-finished", &r.key, status(r));
        }
        out
    }
}

/// Journal header line: identifies the journal format and pins the grid it
/// belongs to, so resuming against a different grid or seed is an error
/// instead of a silently wrong merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JournalHeader {
    /// Format marker.
    journal: String,
    /// Format version.
    version: u32,
    /// The grid's master seed.
    master_seed: u64,
    /// FNV-1a fingerprint over the canonical unit-key list.
    fingerprint: u64,
}

/// Journal format version (bumped on incompatible changes). Version 2:
/// grid payloads are whole `ExperimentOutcome`s, not per-kind row types.
const JOURNAL_VERSION: u32 = 2;

fn grid_fingerprint<'k>(keys: impl Iterator<Item = &'k str>) -> u64 {
    // A separator after each key, so ["ab","c"] and ["a","bc"] differ.
    fnv1a(&keys.map(|key| format!("{key}\u{1f}")).collect::<String>())
}

/// What [`scan_log`] recovers from an append-only JSONL log (one header
/// line, then one record per line) after a possible crash mid-append.
pub(crate) struct LogScan<R> {
    /// Every committed record, in file order.
    pub records: Vec<R>,
    /// Whether the file must be recreated rather than appended to: missing,
    /// empty, or a torn header line with no records after it (all what a
    /// `kill -9` during creation leaves behind).
    pub recreate: bool,
    /// Byte length of the valid prefix (header plus every kept record line,
    /// newlines included). Appending truncates the file to this length
    /// first, so a torn tail can never corrupt the record that follows it.
    pub valid_len: u64,
}

/// A log line as the runner journal and the serve WAL write it: the JSON
/// `text`, a tab, and the FNV-1a checksum of `text` in 16 hex digits. The
/// checksum is what tells a record that was written from a damaged one that
/// still parses (a changed byte inside a string or a number is valid JSON).
pub(crate) fn seal(text: &str) -> String {
    format!("{text}\t{:016x}", fnv1a(text))
}

/// A sealed line's text and whether its checksum matches; `None` for a line
/// with no seal (JSON never holds a raw tab).
fn unseal(line: &str) -> Option<(&str, bool)> {
    let (text, sum) = line.rsplit_once('\t')?;
    Some((text, sum == format!("{:016x}", fnv1a(text))))
}

/// FNV-1a over `text`'s bytes: seeds, grid fingerprints and line seals.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The one torn-tail scan, shared by the runner journal and the serve WAL
/// (`what` names the log in error messages; `check_header` rejects a log
/// that belongs to something else before any record is parsed). A torn
/// trailing line (interrupted process mid-write) is tolerated and ignored;
/// corruption anywhere else is an error. Any bytes after the final newline
/// are treated as torn even if they happen to parse — the `\n` is the
/// commit marker, and appending after an uncommitted tail would splice two
/// records onto one line. A broken header *followed by* records is a hard
/// error (append-only writes cannot produce that shape). A record whose
/// [`seal`] fails its checksum is corrupt (torn, if it is the last). A log
/// whose header carries no seal was written before lines were sealed and
/// is refused.
pub(crate) fn scan_log<H: Deserialize, R: Deserialize>(
    path: &Path,
    what: &str,
    check_header: impl FnOnce(&H) -> Result<(), String>,
) -> Result<LogScan<R>, String> {
    let recreate = || LogScan { records: Vec::new(), recreate: true, valid_len: 0 };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(recreate()),
        Err(e) => return Err(format!("reading {what} {path:?}: {e}")),
    };
    // Lossy decoding keeps a tear inside a multi-byte sequence confined to
    // the tail line, which is dropped below anyway.
    let content = String::from_utf8_lossy(&bytes);
    // Newline-committed lines, then the (possibly empty) torn tail.
    let Some(end) = content.rfind('\n') else { return Ok(recreate()) };
    let (committed, tail) = (&content[..end], &content[end + 1..]);
    let mut lines = committed.split('\n');
    let header_line = lines.next().expect("split yields at least one item");
    let rest: Vec<&str> = lines.collect();
    let header_seal = unseal(header_line);
    let header_text = header_seal.map_or(header_line, |(text, _)| text);
    match serde_json::from_str::<H>(header_text) {
        Ok(header) => {
            check_header(&header)?;
            let refused = match header_seal {
                Some((_, intact)) => (!intact).then_some("line 1 fails its checksum"),
                None => Some("was written before lines were sealed and cannot be read; delete it"),
            };
            if let Some(why) = refused {
                return Err(format!("{what} {path:?} {why}"));
            }
        }
        Err(e) => {
            if rest.iter().copied().chain([tail]).any(|l| !l.trim().is_empty()) {
                return Err(format!("{what} {path:?} has an unreadable header: {e}"));
            }
            return Ok(recreate());
        }
    }
    let mut records = Vec::new();
    let mut valid_len = header_line.len() as u64 + 1;
    for (i, line) in rest.iter().enumerate() {
        if !line.trim().is_empty() {
            let text = match unseal(line) {
                Some((text, true)) => Ok(text),
                _ => Err("checksum fails".to_owned()),
            };
            match text.and_then(|t| serde_json::from_str(t).map_err(|e| e.to_string())) {
                Ok(rec) => records.push(rec),
                // Only the final committed line may still be torn (append +
                // flush per record); it is dropped, not kept.
                Err(_) if i + 1 == rest.len() => break,
                Err(e) => return Err(format!("{what} {path:?} line {}: {e}", i + 2)),
            }
        }
        valid_len += line.len() as u64 + 1;
    }
    Ok(LogScan { records, recreate: false, valid_len })
}

/// Reads a journal back ([`scan_log`]), refusing one of another format
/// version or whose header pins a different grid or seed.
fn read_journal<T: Deserialize>(
    path: &Path,
    expected: &JournalHeader,
) -> Result<LogScan<UnitRecord<T>>, String> {
    scan_log(path, "journal", |header: &JournalHeader| {
        if header == expected {
            return Ok(());
        }
        if header.version != expected.version {
            return Err(format!(
                "journal {path:?} has format version {} but this build reads and writes \
                 version {}; delete it and re-run the grid",
                header.version, expected.version
            ));
        }
        Err(format!(
            "journal {path:?} belongs to a different grid \
             (seed {} / fingerprint {:#x}, expected seed {} / fingerprint {:#x}); \
             delete it or fix the configuration",
            header.master_seed, header.fingerprint, expected.master_seed, expected.fingerprint
        ))
    })
}

/// Append-mode journal writer, flushed after every record so an
/// interrupted (or Ctrl-C'd) invocation loses at most the in-flight line.
struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    fn create(path: &PathBuf, header: &JournalHeader) -> Result<Self, String> {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("creating journal {path:?}: {e}"))?;
        let line = seal(&serde_json::to_string(header).expect("header serializes"));
        writeln!(file, "{line}").map_err(|e| format!("writing journal {path:?}: {e}"))?;
        file.flush().map_err(|e| format!("flushing journal {path:?}: {e}"))?;
        Ok(JournalWriter { file, path: path.clone() })
    }

    /// Opens for append, first truncating to `valid_len` — the end of the
    /// last committed line — so records are never spliced onto a torn tail.
    fn append(path: &PathBuf, valid_len: u64) -> Result<Self, String> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("opening journal {path:?} for append: {e}"))?;
        file.set_len(valid_len).map_err(|e| format!("truncating journal {path:?}: {e}"))?;
        Ok(JournalWriter { file, path: path.clone() })
    }

    fn record<T: Serialize>(&mut self, rec: &UnitRecord<T>) -> Result<(), String> {
        let line = serde_json::to_string(rec)
            .map_err(|e| format!("serializing journal record {}: {e}", rec.key))?;
        let line = seal(&line);
        writeln!(self.file, "{line}")
            .map_err(|e| format!("writing journal {:?}: {e}", self.path))?;
        self.file.flush().map_err(|e| format!("flushing journal {:?}: {e}", self.path))
    }
}

/// Locks a recorder even when a panicking unit poisoned the mutex — the
/// post-mortem path must read the ring precisely when the unit crashed.
fn lock_recorder(rec: &SharedRecorder) -> std::sync::MutexGuard<'_, FlightRecorder> {
    match rec.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Writes the flight recorder's ring as the post-mortem bundle
/// `dir/postmortem-<key>.jsonl` (creating `dir`) and returns its path. The
/// recorder is read even if a panicking run poisoned its lock.
///
/// # Errors
///
/// The directory or the bundle could not be written.
pub fn dump_bundle(
    dir: &Path,
    recorder: &SharedRecorder,
    cause: BundleCause,
    key: &str,
    seed: u64,
    detail: &str,
    extras: &[(&str, String)],
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating blackbox dir {dir:?}: {e}"))?;
    let text = {
        let r = lock_recorder(recorder);
        let head = BundleHead {
            cause,
            key: key.to_owned(),
            seed,
            cycle: r.last_cycle(),
            detail: detail.to_owned(),
        };
        r.bundle(&head, extras)
    };
    let path = dir.join(bundle_file_name(key));
    std::fs::write(&path, &text).map_err(|e| format!("writing bundle {path:?}: {e}"))?;
    Ok(path)
}

/// The message a caught panic carried, for `failed` records.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Shared mutable state of one grid execution: the journal and one record
/// slot per unit, locked around short writes only.
struct Shared<T> {
    journal: Option<JournalWriter>,
    slots: Vec<Option<UnitRecord<T>>>,
    first_error: Option<String>,
}

/// Runs one unit to a terminal record: one attempt under `catch_unwind`,
/// chaos injection, the post-mortem dump of a dying unit, wall-clock
/// accounting.
fn run_one<T>(
    key: &str,
    seed: u64,
    cfg: &RunnerConfig,
    chaos: &ChaosOptions,
    exec: impl FnOnce(&UnitCtx) -> UnitVerdict<T>,
) -> UnitRecord<T> {
    let deadline = chaos.times_out(key).then_some(CHAOS_DEADLINE_CYCLES);
    let t0 = Instant::now();
    // The recorder handle stays out here, across the unwind boundary.
    let recorder = cfg.blackbox.as_ref().map(|_| shared_recorder(DEFAULT_BLACKBOX_CAPACITY));
    let ctx = UnitCtx { key, seed, deadline_cycles: deadline, recorder: recorder.clone() };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        assert!(!chaos.panics(key), "chaos: forced panic for unit {key}");
        exec(&ctx)
    }));
    let dump = |cause: BundleCause, detail: &str, extras: &[(&str, String)]| {
        let (dir, rec) = (cfg.blackbox.as_ref()?, recorder.as_ref()?);
        match dump_bundle(dir, rec, cause, key, seed, detail, extras) {
            Ok(path) => Some((cause, path)),
            Err(e) => {
                eprintln!("blackbox: {e}");
                None
            }
        }
    };
    let (status, payload, error, timeout, bundle) = match outcome {
        Ok(UnitVerdict::Ok(payload)) => (RunStatus::Ok, Some(payload), None, None, None),
        Ok(UnitVerdict::TimedOut { partial, report }) => {
            let cause =
                if report.stall.is_some() { BundleCause::Stall } else { BundleCause::Timeout };
            let detail = format!(
                "deadline {} cycles, {} simulated, {} packets in flight",
                report.deadline_cycles, report.cycles_run, report.in_flight
            );
            let extras = [("timeout-report", serde_json::to_string(&report).unwrap_or_default())];
            let bundle = dump(cause, &detail, &extras);
            (RunStatus::TimedOut, partial, None, Some(report), bundle)
        }
        Ok(UnitVerdict::Fatal(msg)) => {
            let bundle = dump(BundleCause::Fatal, &msg, &[]);
            (RunStatus::Failed, None, Some(msg), None, bundle)
        }
        Err(panic) => {
            let msg = format!("panic: {}", panic_message(panic.as_ref()));
            let bundle = dump(BundleCause::Panic, &msg, &[]);
            (RunStatus::Failed, None, Some(msg), None, bundle)
        }
    };
    UnitRecord {
        key: key.to_owned(),
        status,
        payload,
        error,
        timeout,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        from_journal: false,
        bundle,
    }
}

/// Executes the grid described by `keys` through `exec` under the engine's
/// recovery discipline, and returns every unit's record in `keys` order.
///
/// `exec` is called once per unit with its [`UnitCtx`] (stable
/// key, derived seed, effective deadline). It must be `Sync`: with
/// `cfg.jobs > 1` it runs concurrently on scoped worker threads.
///
/// # Errors
///
/// Returns an error for duplicate unit keys, an unreadable or mismatched
/// journal, or a journal write failure (reported after the grid finishes;
/// unit-level failures never abort the grid).
pub fn run_units<T, F>(
    master_seed: u64,
    keys: &[String],
    cfg: &RunnerConfig,
    chaos: &ChaosOptions,
    exec: F,
) -> Result<RunnerReport<T>, String>
where
    T: Serialize + Deserialize + Send,
    F: Fn(&UnitCtx) -> UnitVerdict<T> + Sync,
{
    run_seeded_units(
        master_seed,
        keys.len(),
        |i| (keys[i].as_str(), derive_seed(master_seed, &keys[i])),
        cfg,
        chaos,
        |_, ctx| exec(ctx),
    )
}

/// [`run_units`] over `units` units addressed by index: `unit(i)` is unit
/// `i`'s key and seed — the seed its [`UnitCtx`] and post-mortem bundle
/// carry — and `exec(i, ctx)` runs it; `grid_seed` only pins the journal
/// header. Each unit's record lands in its own slot, filled from the
/// journal (on resume), by the unit cap or by a worker, so the records come
/// back in index order whatever order the units finished in.
pub(crate) fn run_seeded_units<'k, T, F>(
    grid_seed: u64,
    units: usize,
    unit: impl Fn(usize) -> (&'k str, u64) + Sync,
    cfg: &RunnerConfig,
    chaos: &ChaosOptions,
    exec: F,
) -> Result<RunnerReport<T>, String>
where
    T: Serialize + Deserialize + Send,
    F: Fn(usize, &UnitCtx) -> UnitVerdict<T> + Sync,
{
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(units);
    for i in 0..units {
        let key = unit(i).0;
        if index.insert(key, i).is_some() {
            return Err(format!("duplicate run key: {key}"));
        }
    }
    let header = JournalHeader {
        journal: "intellinoc-runner".to_owned(),
        version: JOURNAL_VERSION,
        master_seed: grid_seed,
        fingerprint: grid_fingerprint((0..units).map(|i| unit(i).0)),
    };
    let mut slots: Vec<Option<UnitRecord<T>>> = (0..units).map(|_| None).collect();

    // Resume: reload terminal records for keys we already ran and append
    // after the journal's valid prefix. A missing journal, or one torn
    // during creation (empty file / partial header, the `kill -9` shapes),
    // yields no records and is recreated instead of being appended to
    // headerless.
    let mut append_at = None;
    if cfg.resume {
        let path = cfg
            .journal
            .as_ref()
            .ok_or("resume requires a journal path (set RunnerConfig::journal)")?;
        let scan = read_journal::<T>(path, &header)?;
        append_at = (!scan.recreate).then_some(scan.valid_len);
        for mut rec in scan.records {
            rec.from_journal = true;
            // Last write wins (a record may be re-journaled by a later run).
            if let Some(&i) = index.get(rec.key.as_str()) {
                slots[i] = Some(rec);
            }
        }
    }

    let journal = match (&cfg.journal, append_at) {
        (Some(path), Some(valid_len)) => Some(JournalWriter::append(path, valid_len)?),
        (Some(path), None) => Some(JournalWriter::create(path, &header)?),
        (None, _) => None,
    };

    // Pending units in canonical order, truncated by the unit cap.
    let mut dispatch: Vec<usize> = (0..units).filter(|&i| slots[i].is_none()).collect();
    let cap = cfg.max_units.unwrap_or(usize::MAX);
    for i in dispatch.split_off(dispatch.len().min(cap)) {
        slots[i] = Some(UnitRecord {
            key: unit(i).0.to_owned(),
            status: RunStatus::Skipped,
            payload: None,
            error: Some(format!("unit cap {cap} reached")),
            timeout: None,
            wall_ms: 0.0,
            from_journal: false,
            bundle: None,
        });
    }

    let shared = Mutex::new(Shared { journal, slots, first_error: None });
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(&i) = dispatch.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let (key, seed) = unit(i);
            let rec = run_one(key, seed, cfg, chaos, |ctx| exec(i, ctx));
            let mut s = shared.lock().expect("runner state lock");
            if let Some(journal) = s.journal.as_mut() {
                if let Err(e) = journal.record(&rec) {
                    // Journal failures degrade the run (resume is lost) but
                    // never abort it; the first one is surfaced at the end.
                    s.first_error.get_or_insert(e);
                }
            }
            s.slots[i] = Some(rec);
        }
    };
    let workers = cfg.jobs.max(1).min(dispatch.len().max(1));
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    let state = shared.into_inner().expect("runner state lock");
    if let Some(e) = state.first_error {
        return Err(e);
    }
    let records = state.slots.into_iter().map(|rec| rec.expect("every unit has a record"));
    Ok(RunnerReport { records: records.collect() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::NetworkStats;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("unit/{i}")).collect()
    }

    fn ok_exec(ctx: &UnitCtx) -> UnitVerdict<u64> {
        UnitVerdict::Ok(ctx.seed)
    }

    #[test]
    fn seeds_are_stable_and_key_dependent() {
        let a = derive_seed(7, "campaign/dead-links-2/IntelliNoC/r0.02");
        let b = derive_seed(7, "campaign/dead-links-2/IntelliNoC/r0.02");
        let c = derive_seed(7, "campaign/dead-links-2/Secded/r0.02");
        let d = derive_seed(8, "campaign/dead-links-2/IntelliNoC/r0.02");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let keys = vec!["a".to_owned(), "a".to_owned()];
        let err = run_units::<u64, _>(
            1,
            &keys,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            ok_exec,
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn serial_and_parallel_reports_are_identical() {
        let keys = keys(12);
        let serial =
            run_units(9, &keys, &RunnerConfig::serial(), &ChaosOptions::default(), ok_exec)
                .unwrap();
        let parallel = run_units(
            9,
            &keys,
            &RunnerConfig::serial().with_jobs(4),
            &ChaosOptions::default(),
            ok_exec,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        assert!(serial.is_clean());
        assert_eq!(serial.counts().ok, 12);
    }

    #[test]
    fn panics_are_contained_and_siblings_complete() {
        let keys = keys(6);
        let exec = |ctx: &UnitCtx| -> UnitVerdict<u64> {
            assert!(!ctx.key.ends_with("/3"), "unit 3 explodes");
            UnitVerdict::Ok(ctx.seed)
        };
        for jobs in [1, 4] {
            let report = run_units(
                1,
                &keys,
                &RunnerConfig::serial().with_jobs(jobs),
                &ChaosOptions::default(),
                exec,
            )
            .unwrap();
            let c = report.counts();
            assert_eq!((c.ok, c.failed), (5, 1), "jobs={jobs}");
            let failed = &report.records[3];
            assert_eq!(failed.status, RunStatus::Failed);
            assert!(failed.error.as_deref().unwrap().contains("unit 3 explodes"));
            assert!(failed.payload.is_none());
        }
    }

    #[test]
    fn chaos_panic_marker_forces_failure() {
        let keys = keys(3);
        let chaos = ChaosOptions { panic_units: Some("unit/1".into()), timeout_units: None };
        let report = run_units(1, &keys, &RunnerConfig::serial(), &chaos, ok_exec).unwrap();
        assert_eq!(report.records[1].status, RunStatus::Failed);
        assert!(report.records[1].error.as_deref().unwrap().contains("forced panic"));
        assert_eq!(report.counts().ok, 2);
    }

    #[test]
    fn fatal_failures_do_not_retry() {
        let keys = keys(1);
        let calls = AtomicUsize::new(0);
        let exec = |_: &UnitCtx| -> UnitVerdict<u64> {
            calls.fetch_add(1, Ordering::SeqCst);
            UnitVerdict::Fatal("bad config".into())
        };
        let report =
            run_units(1, &keys, &RunnerConfig::serial(), &ChaosOptions::default(), exec).unwrap();
        assert_eq!(report.records[0].status, RunStatus::Failed);
        assert_eq!(report.records[0].error.as_deref(), Some("bad config"));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one unit, one call");
    }

    #[test]
    fn unit_cap_skips_the_tail_in_order() {
        let keys = keys(5);
        let cfg = RunnerConfig { max_units: Some(2), ..RunnerConfig::serial() };
        let report = run_units(1, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        let statuses: Vec<RunStatus> = report.records.iter().map(|r| r.status).collect();
        assert_eq!(
            statuses,
            [
                RunStatus::Ok,
                RunStatus::Ok,
                RunStatus::Skipped,
                RunStatus::Skipped,
                RunStatus::Skipped
            ]
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn journal_roundtrip_and_resume_merge_identically() {
        let dir = std::env::temp_dir().join("intellinoc-runner-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("grid.jsonl");
        let _ = std::fs::remove_file(&journal);
        let keys = keys(6);

        // Uninterrupted reference run.
        let clean = run_units(5, &keys, &RunnerConfig::serial(), &ChaosOptions::default(), ok_exec)
            .unwrap();

        // Interrupted run: journal on, capped at 3 units.
        let cfg = RunnerConfig {
            journal: Some(journal.clone()),
            max_units: Some(3),
            ..RunnerConfig::serial()
        };
        let partial = run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        assert_eq!(partial.counts().ok, 3);
        assert_eq!(partial.counts().skipped, 3);

        // Resume: remaining units run, journaled units are reused.
        let cfg =
            RunnerConfig { journal: Some(journal.clone()), resume: true, ..RunnerConfig::serial() };
        let resumed = run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&clean).unwrap(),
            "resumed merge must be byte-identical to the uninterrupted run"
        );
        let reused = resumed.records.iter().filter(|r| r.from_journal).count();
        assert_eq!(reused, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_runner_log_reads_the_records_and_escapes_control_chars() {
        let keys: Vec<String> = ["k", "a\u{1}b\nc"].map(String::from).into();
        let cfg = RunnerConfig { max_units: Some(1), ..RunnerConfig::serial() };
        let report = run_units(1, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        let log = report.runner_log();
        assert_eq!(
            log,
            "{\"event\":\"unit-skipped\",\"key\":\"a\\u0001b\\nc\",\"reason\":\"unit cap 1 reached\"}\n\
             {\"event\":\"unit-started\",\"key\":\"k\"}\n\
             {\"event\":\"unit-finished\",\"key\":\"k\",\"status\":\"ok\"}\n"
        );
        for line in log.lines() {
            let v: Content = serde_json::from_str(line).expect("valid JSON");
            assert!(v
                .get("key")
                .and_then(Content::as_str)
                .is_some_and(|k| keys.contains(&k.into())));
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_journal() {
        let dir = std::env::temp_dir().join("intellinoc-runner-mismatch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("grid.jsonl");
        let keys_a = keys(3);
        let cfg = RunnerConfig { journal: Some(journal.clone()), ..RunnerConfig::serial() };
        run_units(5, &keys_a, &cfg, &ChaosOptions::default(), ok_exec).unwrap();

        // Different seed → different header → hard error.
        let cfg =
            RunnerConfig { journal: Some(journal.clone()), resume: true, ..RunnerConfig::serial() };
        let err = run_units(6, &keys_a, &cfg, &ChaosOptions::default(), ok_exec).unwrap_err();
        assert!(err.contains("different grid"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_journal_line_is_tolerated() {
        let dir = std::env::temp_dir().join("intellinoc-runner-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("grid.jsonl");
        let keys = keys(4);
        let cfg = RunnerConfig {
            journal: Some(journal.clone()),
            max_units: Some(2),
            ..RunnerConfig::serial()
        };
        run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        // Simulate a kill mid-append.
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        write!(f, "{{\"key\":\"unit/2\",\"status\":\"o").unwrap();
        drop(f);

        let cfg =
            RunnerConfig { journal: Some(journal.clone()), resume: true, ..RunnerConfig::serial() };
        let report = run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records.iter().filter(|r| r.from_journal).count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_empty_journal_header_is_recreated_on_resume() {
        let dir = std::env::temp_dir().join("intellinoc-runner-torn-header-test");
        std::fs::create_dir_all(&dir).unwrap();
        let keys = keys(3);
        let clean = run_units(5, &keys, &RunnerConfig::serial(), &ChaosOptions::default(), ok_exec)
            .unwrap();
        // kill -9 mid-header-write leaves a partial first line; resume must
        // treat the journal as empty and recreate it, not hard-error.
        for torn in ["", "{\"journal\":\"intellinoc-run", "{\"journal\":\"intellinoc-run\n"] {
            let journal = dir.join("grid.jsonl");
            std::fs::write(&journal, torn).unwrap();
            let cfg = RunnerConfig {
                journal: Some(journal.clone()),
                resume: true,
                ..RunnerConfig::serial()
            };
            let report = run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
            assert!(report.is_clean(), "torn={torn:?}");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&clean).unwrap()
            );
            // The recreated journal resumes cleanly a second time.
            let again = run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
            assert_eq!(again.records.iter().filter(|r| r.from_journal).count(), 3);
        }
        // A broken header *followed by* records is real corruption.
        let journal = dir.join("grid.jsonl");
        std::fs::write(&journal, "not json\n{\"key\":\"unit/0\"}\n").unwrap();
        let cfg =
            RunnerConfig { journal: Some(journal.clone()), resume: true, ..RunnerConfig::serial() };
        let err =
            run_units::<u64, _>(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap_err();
        assert!(err.contains("unreadable header"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unsealed_journal_is_refused_naming_the_file() {
        let dir = std::env::temp_dir().join("intellinoc-runner-unsealed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("grid.jsonl");
        let keys = keys(3);
        let cfg = RunnerConfig {
            journal: Some(journal.clone()),
            max_units: Some(2),
            ..RunnerConfig::serial()
        };
        run_units(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        // The same log as it was written before lines were sealed.
        let sealed = std::fs::read_to_string(&journal).unwrap();
        let unsealed: String =
            sealed.lines().map(|l| format!("{}\n", l.rsplit_once('\t').unwrap().0)).collect();
        std::fs::write(&journal, unsealed).unwrap();

        let cfg =
            RunnerConfig { journal: Some(journal.clone()), resume: true, ..RunnerConfig::serial() };
        let err =
            run_units::<u64, _>(5, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap_err();
        assert!(err.contains(&format!("{journal:?}")), "{err}");
        assert!(err.contains("before lines were sealed") && err.contains("delete it"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn classify_timeout_covers_stall_budget_and_clean() {
        let mut report = RunReport {
            exec_cycles: 10,
            stats: NetworkStats::default(),
            power: noc_power::PowerReport { static_mw: 0.0, dynamic_mw: 0.0, exec_cycles: 10 },
            mttf_hours: None,
            mean_temp_c: 0.0,
            max_temp_c: 0.0,
            mean_aging_factor: 1.0,
            injected_bit_flips: 0,
            faulty_flit_traversals: 0,
            stall: None,
            txn: None,
        };
        report.stats.packets_injected = 100;
        report.stats.packets_delivered = 100;
        report.stats.cycles = 5_000;
        assert!(classify_timeout(&report, true, 4_000).is_none(), "complete runs never time out");
        // Cut off between packets: nothing in flight, yet not finished.
        let t = classify_timeout(&report, false, 5_000).expect("unfinished is a timeout");
        assert_eq!((t.in_flight, t.cycles_run), (0, 5_000));

        // Budget exhaustion with traffic still in flight.
        report.stats.packets_delivered = 60;
        report.stats.packets_dropped = 10;
        let t = classify_timeout(&report, false, 5_000).expect("budget timeout");
        assert_eq!(t.in_flight, 30);
        assert!(t.stall.is_none());
        assert_eq!(t.deadline_cycles, 5_000);

        // Stall watchdog abort: the StallReport rides along even below the
        // deadline.
        report.stats.cycles = 1_000;
        report.stall = Some(StallReport {
            cycle: 900,
            window: 500,
            in_flight: 30,
            blocked: vec!["flit 7 at router 3".into()],
            dump: "vc dump".into(),
        });
        let t = classify_timeout(&report, false, 5_000).expect("stall timeout");
        let stall = t.stall.expect("stall report attached");
        assert_eq!(stall.cycle, 900);
        assert_eq!(stall.blocked.len(), 1);
    }

    #[test]
    fn profiler_rows_cover_executed_units_only() {
        let keys = keys(3);
        let cfg = RunnerConfig { max_units: Some(2), ..RunnerConfig::serial() };
        let report = run_units(1, &keys, &cfg, &ChaosOptions::default(), ok_exec).unwrap();
        let table = report.wall_clock_table();
        assert!(table.starts_with("  per-run wall clock\n"), "{table}");
        assert_eq!(table.lines().count(), 2 + 2, "skipped units carry no wall-clock row");
        let none = RunnerConfig { max_units: Some(0), ..RunnerConfig::serial() };
        let report = run_units(1, &keys, &none, &ChaosOptions::default(), ok_exec).unwrap();
        assert_eq!(report.wall_clock_table(), "", "no row, no block");
    }

    #[test]
    fn wall_clock_rows_render_sorted_by_key() {
        let keys: Vec<String> = ["campaign/b/Secded", "campaign/a/Secded"].map(String::from).into();
        let chaos = ChaosOptions { panic_units: Some("/a/".to_owned()), ..ChaosOptions::default() };
        let report = run_units(1, &keys, &RunnerConfig::serial(), &chaos, ok_exec).unwrap();
        let table = report.wall_clock_table();
        let a = table.find("campaign/a/Secded").expect("row a");
        let b = table.find("campaign/b/Secded").expect("row b");
        assert!(a < b, "rows must be sorted by key: {table}");
        assert!(table.contains("failed"), "{table}");
    }
}
