//! `noc-blackbox`: the flight recorder and its post-mortem bundles.
//!
//! A [`FlightRecorder`] holds the most recent observability records of a
//! run: rings of per-control-step [`TimelineSample`]s and RL
//! [`ConvergenceSample`]s, which the control loop pushes every step, and
//! what the run's probe copies in once, when it is finished or dropped —
//! the tail of the simulator's [`Event`] stream, the span table with the
//! open span path, and the slowest sampled packet journeys. It exists so
//! that when a run dies (stall watchdog, deadline timeout, panic, fatal
//! failure, chaos `kill -9`, a critical alert, or transaction books that do
//! not balance), the *recent past* that explains the death is still in
//! memory and can be dumped as a **post-mortem bundle**: a versioned JSONL
//! file rendered by `intellinoc postmortem` into a byte-deterministic
//! markdown report.
//!
//! Determinism discipline: every record the recorder holds is
//! cycle-domain data (functions of the simulation alone), so a bundle —
//! and therefore its rendered report — is byte-identical for a fixed seed
//! no matter which machine, worker count, or wall-clock the run died
//! under. Wall-clock values never enter a bundle.
//!
//! The disabled path is zero-cost in the simulator: the recorder lives in
//! an `Option`, and no event point takes its lock.

use crate::event::Event;
use crate::inspect::ConvergenceSample;
use crate::journey::PacketJourney;
use crate::json_str;
use crate::profiler::Profiler;
use crate::timeline::TimelineSample;
use crate::tracer::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Serialized bundle format version (bumped on incompatible changes).
pub const BLACKBOX_FORMAT_VERSION: u32 = 1;

/// Default ring capacity (timeline and convergence samples). The event
/// tail is [`EVENT_RING_FACTOR`] times larger, since events are emitted
/// orders of magnitude more often than control-step samples.
pub const DEFAULT_BLACKBOX_CAPACITY: usize = 64;

/// Event-tail length multiplier over the sample-ring capacity.
pub const EVENT_RING_FACTOR: usize = 16;

/// A shared handle to a recorder: the execution engine creates it outside
/// the unit's `catch_unwind` boundary so the ring survives a panic, while
/// the simulator feeds it from inside.
pub type SharedRecorder = Arc<Mutex<FlightRecorder>>;

/// Creates a [`SharedRecorder`] with the given sample-ring capacity
/// (`0` = [`DEFAULT_BLACKBOX_CAPACITY`]).
#[must_use]
pub fn shared_recorder(capacity: usize) -> SharedRecorder {
    Arc::new(Mutex::new(FlightRecorder::new(capacity)))
}

/// What killed the run (the bundle's `cause`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleCause {
    /// The stall watchdog fired: packets in flight, no progress for a
    /// full window.
    Stall,
    /// The per-unit simulated-cycle deadline elapsed with traffic in
    /// flight.
    Timeout,
    /// The unit panicked (caught at the runner's `catch_unwind`).
    Panic,
    /// The unit's executor reported a failure it cannot recover from.
    Fatal,
    /// A critical alert rule fired.
    Alert,
    /// A closed-loop run ended with its transaction books out of balance:
    /// on some node, issued ≠ completed + failed + shed + in flight.
    Conservation,
}

impl BundleCause {
    /// Stable label used in the bundle head line.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BundleCause::Stall => "stall",
            BundleCause::Timeout => "timeout",
            BundleCause::Panic => "panic",
            BundleCause::Fatal => "fatal",
            BundleCause::Alert => "alert",
            BundleCause::Conservation => "conservation",
        }
    }

    /// Parses a stable label back.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "stall" => BundleCause::Stall,
            "timeout" => BundleCause::Timeout,
            "panic" => BundleCause::Panic,
            "fatal" => BundleCause::Fatal,
            "alert" => BundleCause::Alert,
            "conservation" => BundleCause::Conservation,
            _ => return None,
        })
    }
}

/// The identity line of a bundle: what died, where, and why.
#[derive(Debug, Clone)]
pub struct BundleHead {
    /// What killed the run.
    pub cause: BundleCause,
    /// Stable run key (or serve job id) of the dead unit.
    pub key: String,
    /// The unit's derived seed.
    pub seed: u64,
    /// Last simulated cycle the recorder observed (0 when nothing was
    /// recorded).
    pub cycle: u64,
    /// Free-form cause detail: panic message, alert rule, last error.
    pub detail: String,
}

/// Ring admission/eviction accounting, per record kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderCounters {
    /// Timeline samples offered to the ring.
    pub timeline_recorded: u64,
    /// Timeline samples evicted to make room.
    pub timeline_dropped: u64,
    /// Events in the run's whole stream.
    pub events_recorded: u64,
    /// Events of the stream older than the recorder's tail.
    pub events_dropped: u64,
    /// Convergence samples offered to the ring.
    pub convergence_recorded: u64,
    /// Convergence samples evicted to make room.
    pub convergence_dropped: u64,
    /// Sampled journeys the run finished.
    pub journeys_recorded: u64,
    /// Finished journeys not kept (faster than every journey kept).
    pub journeys_dropped: u64,
}

impl RecorderCounters {
    /// Total records evicted across all rings.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.timeline_dropped
            + self.events_dropped
            + self.convergence_dropped
            + self.journeys_dropped
    }
}

/// The flight recorder: bounded copies of the most recent run records.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    timeline: VecDeque<TimelineSample>,
    events: Vec<Event>,
    convergence: VecDeque<ConvergenceSample>,
    /// The span profiler's cycle-domain table at hand-over.
    spans: Option<String>,
    /// Span paths open at hand-over, outermost first.
    open_spans: Vec<String>,
    /// The `capacity` slowest sampled journeys: `(latency, jsonl line)`,
    /// slowest first.
    journeys: Vec<(u64, String)>,
    counters: RecorderCounters,
}

impl FlightRecorder {
    /// A recorder whose timeline/convergence rings hold `capacity`
    /// samples (`0` = [`DEFAULT_BLACKBOX_CAPACITY`]) and whose event tail
    /// holds [`EVENT_RING_FACTOR`]× that.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = if capacity == 0 { DEFAULT_BLACKBOX_CAPACITY } else { capacity };
        FlightRecorder {
            capacity,
            timeline: VecDeque::with_capacity(capacity.min(1024)),
            events: Vec::new(),
            convergence: VecDeque::with_capacity(capacity.min(1024)),
            spans: None,
            open_spans: Vec::new(),
            journeys: Vec::new(),
            counters: RecorderCounters::default(),
        }
    }

    /// Sample-ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a timeline sample, evicting the oldest at capacity.
    pub fn push_timeline(&mut self, sample: TimelineSample) {
        self.counters.timeline_recorded += 1;
        if self.timeline.len() == self.capacity {
            self.timeline.pop_front();
            self.counters.timeline_dropped += 1;
        }
        self.timeline.push_back(sample);
    }

    /// Takes the event stream's tail from `ring`: its last `capacity ×`
    /// [`EVENT_RING_FACTOR`] events, whatever its filter shows, replacing
    /// any earlier tail. The counters are the ring's: the whole stream is
    /// recorded, and what the tail does not hold is dropped.
    pub fn copy_event_tail(&mut self, ring: &Tracer) {
        self.events.clear();
        self.events.extend(ring.tail(self.capacity * EVENT_RING_FACTOR));
        self.counters.events_recorded = ring.recorded();
        self.counters.events_dropped = ring.recorded() - self.events.len() as u64;
    }

    /// Appends an RL convergence sample, evicting the oldest at capacity.
    pub fn push_convergence(&mut self, sample: ConvergenceSample) {
        self.counters.convergence_recorded += 1;
        if self.convergence.len() == self.capacity {
            self.convergence.pop_front();
            self.counters.convergence_dropped += 1;
        }
        self.convergence.push_back(sample);
    }

    /// Takes the span table from `prof`: its cycle-domain table and the
    /// span path open now, outermost first.
    pub fn copy_spans(&mut self, prof: &Profiler) {
        self.spans = Some(prof.span_tree().tree_table());
        self.open_spans = prof.open_span_path().into_iter().map(str::to_owned).collect();
    }

    /// Keeps the `capacity` slowest of a run's finished `journeys`, slowest
    /// first; ties break on the record text, so the kept set does not
    /// depend on delivery order. Only journeys at or above the
    /// `capacity`-th latency are rendered.
    pub fn copy_slowest_journeys(&mut self, journeys: &[PacketJourney]) {
        let mut latencies: Vec<u64> = journeys.iter().map(|j| j.latency).collect();
        let floor = match latencies.len().checked_sub(self.capacity) {
            Some(k) if k > 0 => *latencies.select_nth_unstable(k).1,
            _ => 0,
        };
        self.journeys = journeys
            .iter()
            .filter(|j| j.latency >= floor)
            .map(|j| (j.latency, j.to_jsonl_line()))
            .collect();
        self.journeys.sort_unstable_by(|a, b| b.cmp(a));
        self.journeys.truncate(self.capacity);
        self.counters.journeys_recorded = journeys.len() as u64;
        self.counters.journeys_dropped = (journeys.len() - self.journeys.len()) as u64;
    }

    /// The retained slowest journeys, slowest first.
    #[must_use]
    pub fn journeys(&self) -> &[(u64, String)] {
        &self.journeys
    }

    /// Ring accounting.
    #[must_use]
    pub fn counters(&self) -> RecorderCounters {
        self.counters
    }

    /// Last cycle observed across the rings (0 when empty).
    #[must_use]
    pub fn last_cycle(&self) -> u64 {
        let t = self.timeline.back().map_or(0, |s| s.cycle);
        let e = self.events.last().map_or(0, Event::cycle);
        let c = self.convergence.back().map_or(0, |s| s.cycle);
        t.max(e).max(c)
    }

    /// Retained timeline samples, oldest first.
    #[must_use]
    pub fn timeline(&self) -> &VecDeque<TimelineSample> {
        &self.timeline
    }

    /// Retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Whether nothing was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.timeline_recorded == 0
            && self.counters.events_recorded == 0
            && self.counters.convergence_recorded == 0
            && self.counters.journeys_recorded == 0
            && self.spans.is_none()
    }

    /// Serializes the ring contents plus `head` into a versioned JSONL
    /// bundle. `extras` are additional pre-serialized payloads — e.g. a
    /// `("stall", <StallReport json>)` pair — appended as their own record
    /// lines. The output contains cycle-domain data only, so it is
    /// byte-deterministic per seed.
    #[must_use]
    pub fn bundle(&self, head: &BundleHead, extras: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "{{\"record\":\"head\",\"format_version\":{BLACKBOX_FORMAT_VERSION},\
             \"cause\":\"{}\",\"key\":{},\"seed\":{},\"cycle\":{},\"detail\":{}}}",
            head.cause.label(),
            json_str(&head.key),
            head.seed,
            head.cycle,
            json_str(&head.detail),
        );
        let c = &self.counters;
        let _ = writeln!(
            out,
            "{{\"record\":\"counters\",\"timeline_recorded\":{},\"timeline_dropped\":{},\
             \"events_recorded\":{},\"events_dropped\":{},\
             \"convergence_recorded\":{},\"convergence_dropped\":{},\
             \"journeys_recorded\":{},\"journeys_dropped\":{}}}",
            c.timeline_recorded,
            c.timeline_dropped,
            c.events_recorded,
            c.events_dropped,
            c.convergence_recorded,
            c.convergence_dropped,
            c.journeys_recorded,
            c.journeys_dropped,
        );
        for s in &self.timeline {
            let data = serde_json::to_string(s).expect("timeline samples serialize");
            let _ = writeln!(out, "{{\"record\":\"timeline\",\"data\":{data}}}");
        }
        for e in &self.events {
            out.push_str("{\"record\":\"event\",\"data\":");
            e.write_jsonl(&mut out);
            out.push_str("}\n");
        }
        for s in &self.convergence {
            let _ = writeln!(
                out,
                "{{\"record\":\"convergence\",\"data\":{{\"cycle\":{},\"decisions\":{},\
                 \"explorations\":{},\"updates\":{},\"mean_abs_td\":{},\
                 \"mean_table_entries\":{}}}}}",
                s.cycle,
                s.decisions,
                s.explorations,
                s.updates,
                s.mean_abs_td,
                s.mean_table_entries,
            );
        }
        if let Some(table) = &self.spans {
            let open: Vec<String> = self.open_spans.iter().map(|s| json_str(s)).collect();
            let _ = writeln!(
                out,
                "{{\"record\":\"spans\",\"open\":[{}],\"table\":{}}}",
                open.join(","),
                json_str(table),
            );
        }
        for (latency, line) in &self.journeys {
            let _ =
                writeln!(out, "{{\"record\":\"journey\",\"latency\":{latency},\"data\":{line}}}");
        }
        for (kind, payload) in extras {
            let _ = writeln!(out, "{{\"record\":{},\"data\":{payload}}}", json_str(kind));
        }
        out
    }
}

/// One decoded convergence record (mirror of
/// [`ConvergenceSample`], parsed back from a bundle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleConvergence {
    /// Cycle the control step was stamped at.
    pub cycle: u64,
    /// Decisions taken this step.
    pub decisions: u64,
    /// Exploratory decisions.
    pub explorations: u64,
    /// Agents that applied a TD update.
    pub updates: u64,
    /// Mean `|ΔQ|` over updating agents.
    pub mean_abs_td: f64,
    /// Mean Q-table entry count after the step.
    pub mean_table_entries: f64,
}

/// One decoded event-tail record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleEvent {
    /// Event kind label.
    pub kind: String,
    /// Cycle the event was stamped at.
    pub cycle: u64,
    /// Router the event concerns.
    pub router: u32,
}

/// A parsed post-mortem bundle.
#[derive(Debug, Clone)]
pub struct ParsedBundle {
    /// Serialized format version of the bundle file.
    pub format_version: u32,
    /// What killed the run (stable label; parseable by
    /// [`BundleCause::parse`] unless the bundle is newer than the tool).
    pub cause: String,
    /// Stable run key (or serve job id).
    pub key: String,
    /// The unit's derived seed.
    pub seed: u64,
    /// Last recorded cycle.
    pub cycle: u64,
    /// Free-form cause detail.
    pub detail: String,
    /// Ring accounting at dump time.
    pub counters: RecorderCounters,
    /// Retained timeline samples, oldest first.
    pub timeline: Vec<TimelineSample>,
    /// Retained event tail, oldest first.
    pub events: Vec<BundleEvent>,
    /// Retained convergence samples, oldest first.
    pub convergence: Vec<BundleConvergence>,
    /// Latest span-tree snapshot, if the run profiled.
    pub spans_table: Option<String>,
    /// Span paths open at the snapshot.
    pub open_spans: Vec<String>,
    /// Slowest retained packet journeys, slowest first: `(latency,
    /// journey JSONL line)`.
    pub journeys: Vec<(u64, String)>,
    /// Extra records: `(kind, raw JSON payload)` — e.g. the stall or
    /// timeout report.
    pub extras: Vec<(String, String)>,
}

/// Parses a JSONL bundle produced by [`FlightRecorder::bundle`].
///
/// # Errors
///
/// Returns an error naming the offending line for malformed JSON, a
/// missing/duplicate head line, or an unsupported format version.
pub fn parse_bundle(text: &str) -> Result<ParsedBundle, String> {
    let mut parsed: Option<ParsedBundle> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v: serde::Content = serde_json::from_str(line)
            .map_err(|e| format!("bundle line {lineno}: malformed JSON: {e}"))?;
        let record: String =
            serde::field(&v, "record").map_err(|e| format!("bundle line {lineno}: {e}"))?;
        if record == "head" {
            if parsed.is_some() {
                return Err(format!("bundle line {lineno}: duplicate head record"));
            }
            let format_version: u32 = serde::field(&v, "format_version")
                .map_err(|e| format!("bundle line {lineno}: {e}"))?;
            if format_version > BLACKBOX_FORMAT_VERSION {
                return Err(format!(
                    "bundle format version {format_version} (tool supports ≤ \
                     {BLACKBOX_FORMAT_VERSION}); upgrade the tool"
                ));
            }
            parsed = Some(ParsedBundle {
                format_version,
                cause: serde::field(&v, "cause").map_err(|e| format!("line {lineno}: {e}"))?,
                key: serde::field(&v, "key").map_err(|e| format!("line {lineno}: {e}"))?,
                seed: serde::field(&v, "seed").map_err(|e| format!("line {lineno}: {e}"))?,
                cycle: serde::field(&v, "cycle").map_err(|e| format!("line {lineno}: {e}"))?,
                detail: serde::field(&v, "detail").map_err(|e| format!("line {lineno}: {e}"))?,
                counters: RecorderCounters::default(),
                timeline: Vec::new(),
                events: Vec::new(),
                convergence: Vec::new(),
                spans_table: None,
                open_spans: Vec::new(),
                journeys: Vec::new(),
                extras: Vec::new(),
            });
            continue;
        }
        let b = parsed
            .as_mut()
            .ok_or_else(|| format!("bundle line {lineno}: `{record}` before the head record"))?;
        let err = |e: serde::Error| format!("bundle line {lineno}: {e}");
        match record.as_str() {
            "counters" => {
                // The journey counters arrived in a later tool revision than
                // the bundle format; parse them leniently so older bundles
                // (which simply lack the keys) still load.
                let opt = |k: &str| v.get(k).and_then(serde::Content::as_u64).unwrap_or(0);
                b.counters = RecorderCounters {
                    timeline_recorded: serde::field(&v, "timeline_recorded").map_err(err)?,
                    timeline_dropped: serde::field(&v, "timeline_dropped").map_err(err)?,
                    events_recorded: serde::field(&v, "events_recorded").map_err(err)?,
                    events_dropped: serde::field(&v, "events_dropped").map_err(err)?,
                    convergence_recorded: serde::field(&v, "convergence_recorded").map_err(err)?,
                    convergence_dropped: serde::field(&v, "convergence_dropped").map_err(err)?,
                    journeys_recorded: opt("journeys_recorded"),
                    journeys_dropped: opt("journeys_dropped"),
                };
            }
            "timeline" => b.timeline.push(serde::field(&v, "data").map_err(err)?),
            "event" => b.events.push(serde::field(&v, "data").map_err(err)?),
            "convergence" => b.convergence.push(serde::field(&v, "data").map_err(err)?),
            "spans" => {
                b.spans_table = Some(serde::field(&v, "table").map_err(err)?);
                b.open_spans = serde::field(&v, "open").map_err(err)?;
            }
            "journey" => {
                let latency: u64 = serde::field(&v, "latency").map_err(err)?;
                let data = v
                    .get("data")
                    .ok_or_else(|| format!("bundle line {lineno}: `journey` without data"))?;
                b.journeys.push((
                    latency,
                    serde_json::to_string(data).map_err(|e| format!("line {lineno}: {e}"))?,
                ));
            }
            other => {
                let data = v
                    .get("data")
                    .ok_or_else(|| format!("bundle line {lineno}: `{other}` without data"))?;
                b.extras.push((
                    other.to_owned(),
                    serde_json::to_string(data).map_err(|e| format!("line {lineno}: {e}"))?,
                ));
            }
        }
    }
    parsed.ok_or_else(|| "bundle has no head record".to_owned())
}

/// Number of timeline rows / event rows the rendered report shows.
const REPORT_TAIL: usize = 16;

/// Renders a parsed bundle as the markdown post-mortem report. A pure
/// function of the bundle bytes: rendering the same bundle twice is
/// byte-identical.
#[must_use]
pub fn render_report(b: &ParsedBundle) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "# Post-mortem: {} of `{}`", b.cause, b.key);
    out.push('\n');
    let _ = writeln!(out, "- cause: **{}**", b.cause);
    let _ = writeln!(out, "- key: `{}`", b.key);
    let _ = writeln!(out, "- seed: {}", b.seed);
    let _ = writeln!(out, "- last recorded cycle: {}", b.cycle);
    if !b.detail.is_empty() {
        let _ = writeln!(out, "- detail: {}", b.detail.replace('\n', " ⏎ "));
    }
    let _ = writeln!(out, "- bundle format: v{}", b.format_version);
    out.push('\n');

    out.push_str("## Recorder rings\n\n");
    out.push_str("| ring | recorded | retained | dropped |\n");
    out.push_str("|---|---:|---:|---:|\n");
    let c = &b.counters;
    let _ = writeln!(
        out,
        "| timeline | {} | {} | {} |",
        c.timeline_recorded,
        b.timeline.len(),
        c.timeline_dropped
    );
    let _ = writeln!(
        out,
        "| events | {} | {} | {} |",
        c.events_recorded,
        b.events.len(),
        c.events_dropped
    );
    let _ = writeln!(
        out,
        "| convergence | {} | {} | {} |",
        c.convergence_recorded,
        b.convergence.len(),
        c.convergence_dropped
    );
    let _ = writeln!(
        out,
        "| journeys | {} | {} | {} |",
        c.journeys_recorded,
        b.journeys.len(),
        c.journeys_dropped
    );
    out.push('\n');
    if c.dropped_total() == 0 {
        out.push_str("No ring evicted anything: the bundle holds every record offered.\n");
    } else {
        let _ = writeln!(
            out,
            "Rings evicted {} records before the dump (timeline {}, events {}, \
             convergence {}, journeys {}); the tables below show only what was retained.",
            c.dropped_total(),
            c.timeline_dropped,
            c.events_dropped,
            c.convergence_dropped,
            c.journeys_dropped,
        );
    }
    out.push('\n');

    if !b.timeline.is_empty() {
        let _ =
            writeln!(out, "## Timeline (last {} control steps)", REPORT_TAIL.min(b.timeline.len()));
        out.push('\n');
        out.push_str(
            "| cycle | avg_lat | p99_lat | inj | dlv | drop | hop_rtx | e2e_rtx | reroutes | \
             mean_temp_c |\n",
        );
        out.push_str("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
        let skip = b.timeline.len().saturating_sub(REPORT_TAIL);
        for s in b.timeline.iter().skip(skip) {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {} | {} | {} | {} | {} | {} | {:.2} |",
                s.cycle,
                s.avg_latency,
                s.p99_latency,
                s.packets_injected,
                s.packets_delivered,
                s.packets_dropped,
                s.hop_retx,
                s.e2e_retx,
                s.reroutes,
                s.mean_temp_c,
            );
        }
        out.push('\n');
        render_heat_deltas(&mut out, b);
    }

    if !b.events.is_empty() {
        let tail = REPORT_TAIL.min(b.events.len());
        let _ = writeln!(out, "## Event tail (last {tail} of {} retained)", b.events.len());
        out.push('\n');
        out.push_str("| cycle | router | kind |\n|---:|---:|---|\n");
        let skip = b.events.len() - tail;
        for e in b.events.iter().skip(skip) {
            let _ = writeln!(out, "| {} | {} | {} |", e.cycle, e.router, e.kind);
        }
        out.push('\n');
    }

    if !b.convergence.is_empty() {
        let tail = REPORT_TAIL.min(b.convergence.len());
        let _ = writeln!(out, "## RL convergence tail (last {tail})");
        out.push('\n');
        out.push_str("| cycle | decisions | explore | updates | mean_abs_td | table_entries |\n");
        out.push_str("|---:|---:|---:|---:|---:|---:|\n");
        let skip = b.convergence.len() - tail;
        for s in b.convergence.iter().skip(skip) {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.4} | {:.1} |",
                s.cycle,
                s.decisions,
                s.explorations,
                s.updates,
                s.mean_abs_td,
                s.mean_table_entries,
            );
        }
        out.push('\n');
    }

    if b.spans_table.is_some() || !b.open_spans.is_empty() {
        out.push_str("## Spans at death\n\n");
        if b.open_spans.is_empty() {
            out.push_str("No spans were open.\n\n");
        } else {
            let _ = writeln!(out, "Open span path: `{}`", b.open_spans.join(" → "));
            out.push('\n');
        }
        if let Some(table) = &b.spans_table {
            out.push_str("```text\n");
            out.push_str(table);
            if !table.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("```\n\n");
        }
    }

    if !b.journeys.is_empty() {
        let shown = REPORT_TAIL.min(b.journeys.len());
        let _ = writeln!(out, "## Slowest packet journeys ({shown} retained, slowest first)");
        out.push('\n');
        out.push_str("```jsonl\n");
        for (_, line) in b.journeys.iter().take(REPORT_TAIL) {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("```\n\n");
    }

    for (kind, payload) in &b.extras {
        let _ = writeln!(out, "## Attached report: {kind}");
        out.push('\n');
        out.push_str("```json\n");
        out.push_str(payload);
        out.push_str("\n```\n\n");
    }
    out
}

/// Appends the per-router heat-delta table (first vs last retained
/// timeline sample) when per-tile temperatures were recorded.
fn render_heat_deltas(out: &mut String, b: &ParsedBundle) {
    let (Some(first), Some(last)) = (b.timeline.first(), b.timeline.last()) else {
        return;
    };
    if first.tile_temps_c.is_empty() || first.tile_temps_c.len() != last.tile_temps_c.len() {
        return;
    }
    let mut deltas: Vec<(usize, f64, f64, f64)> = first
        .tile_temps_c
        .iter()
        .zip(&last.tile_temps_c)
        .enumerate()
        .map(|(i, (a, z))| (i, *a, *z, z - a))
        .collect();
    // Hottest-rising routers first; index breaks ties deterministically.
    deltas.sort_by(|x, y| {
        y.3.partial_cmp(&x.3).unwrap_or(std::cmp::Ordering::Equal).then(x.0.cmp(&y.0))
    });
    deltas.truncate(8);
    let _ = writeln!(
        out,
        "## Router heat deltas (cycle {} → {}, top {})",
        first.cycle,
        last.cycle,
        deltas.len()
    );
    out.push('\n');
    out.push_str("| router | start °C | end °C | Δ°C |\n|---:|---:|---:|---:|\n");
    for (i, a, z, d) in deltas {
        let _ = writeln!(out, "| {i} | {a:.2} | {z:.2} | {d:+.2} |");
    }
    out.push('\n');
}

/// A filesystem-safe deterministic bundle file name for a run key.
#[must_use]
pub fn bundle_file_name(key: &str) -> String {
    let safe: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect();
    format!("postmortem-{safe}.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, temp0: f64) -> TimelineSample {
        TimelineSample {
            cycle,
            avg_latency: 12.5,
            p99_latency: 40.0,
            dynamic_power_mw: 1.0,
            static_power_mw: 0.5,
            mean_temp_c: temp0,
            max_temp_c: temp0 + 5.0,
            tile_temps_c: vec![temp0, temp0 + 5.0, temp0 - 1.0],
            mean_aging_factor: 1.0,
            mode_histogram: [1, 0, 0, 0, 0],
            hop_retx: 2,
            e2e_retx: 1,
            packets_injected: 10,
            packets_delivered: 9,
            packets_dropped: 0,
            reroutes: 0,
            injected_bits: 0,
            trace_drops: 0,
        }
    }

    fn injected(cycle: u64) -> Event {
        Event::PacketInjected { cycle, router: 3, packet: cycle, dest: 9 }
    }

    /// A recorder of `capacity` holding the one event `injected(1999)`.
    fn one_event(capacity: usize) -> FlightRecorder {
        let mut r = FlightRecorder::new(capacity);
        let mut ring = Tracer::new(1, crate::TraceFilter::all());
        ring.record(injected(1999));
        r.copy_event_tail(&ring);
        r
    }

    fn head(cause: BundleCause) -> BundleHead {
        BundleHead {
            cause,
            key: "camp/d0/SECDED".to_owned(),
            seed: 42,
            cycle: 9000,
            detail: "deadline 9000 elapsed".to_owned(),
        }
    }

    #[test]
    fn rings_evict_oldest_and_account_drops() {
        let mut r = FlightRecorder::new(2);
        for c in 0..5 {
            r.push_timeline(sample(c, 50.0));
        }
        assert_eq!(r.timeline().len(), 2);
        assert_eq!(r.timeline().front().unwrap().cycle, 3);
        let c = r.counters();
        assert_eq!(c.timeline_recorded, 5);
        assert_eq!(c.timeline_dropped, 3);
        assert_eq!(c.dropped_total(), 3);
        // The event tail is EVENT_RING_FACTOR× larger, whatever the
        // stream's filter shows.
        let mut ring = Tracer::new(1 << 8, crate::TraceFilter::parse("kind=mode", 64).unwrap());
        for i in 0..(2 * EVENT_RING_FACTOR + 3) as u64 {
            ring.record(injected(i));
        }
        r.copy_event_tail(&ring);
        assert_eq!(r.events().len(), 2 * EVENT_RING_FACTOR);
        assert_eq!(r.events()[0], injected(3));
        let c = r.counters();
        assert_eq!((c.events_recorded, c.events_dropped), (2 * EVENT_RING_FACTOR as u64 + 3, 3));
    }

    /// The kept journeys are the `capacity` slowest by `(latency, text)`,
    /// whatever order they finished in, and the counters say how many were
    /// left out.
    #[test]
    fn slowest_journeys_are_the_top_latency_and_text() {
        const CAP: usize = 3;
        // Ties at the floor (30) need their text to break.
        let latencies = [30u64, 10, 20, 40, 5, 20, 40, 30, 30, 7, 50, 30, 1];
        let journeys: Vec<PacketJourney> = latencies
            .iter()
            .enumerate()
            .map(|(i, &latency)| PacketJourney {
                packet: (i as u64 * 7) % 13,
                src: 0,
                dest: 1,
                injected_at: 0,
                delivered_at: latency,
                latency,
                txn: None,
                spans: Vec::new(),
            })
            .collect();
        let mut every: Vec<(u64, String)> =
            journeys.iter().map(|j| (j.latency, j.to_jsonl_line())).collect();
        every.sort_by(|a, b| b.cmp(a));
        every.truncate(CAP);

        let mut r = FlightRecorder::new(CAP);
        r.copy_slowest_journeys(&journeys);
        assert_eq!(r.journeys(), every.as_slice());
        assert_eq!(r.journeys()[0].0, 50);
        let c = r.counters();
        assert_eq!((c.journeys_recorded, c.journeys_dropped), (13, 10));
        let mut reversed = journeys.clone();
        reversed.reverse();
        r.copy_slowest_journeys(&reversed);
        assert_eq!(r.journeys(), every.as_slice(), "delivery order does not matter");
        r.copy_slowest_journeys(&journeys[..2]);
        assert_eq!(r.journeys().len(), 2, "fewer than `capacity` are all kept");
        assert_eq!(r.counters().journeys_dropped, 0);
    }

    #[test]
    fn default_capacity_applies_on_zero() {
        let r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), DEFAULT_BLACKBOX_CAPACITY);
        assert!(r.is_empty());
    }

    #[test]
    fn bundle_roundtrips_through_parse() {
        let mut r = one_event(4);
        r.push_timeline(sample(1000, 50.0));
        r.push_timeline(sample(2000, 58.0));
        r.push_convergence(ConvergenceSample {
            cycle: 2000,
            decisions: 64,
            explorations: 3,
            updates: 61,
            mean_abs_td: 0.25,
            mean_table_entries: 12.0,
        });
        let mut prof = Profiler::new();
        prof.span_enter("step_cycle");
        prof.span_enter("link.traverse");
        r.copy_spans(&prof);
        let text =
            r.bundle(&head(BundleCause::Timeout), &[("stall", "{\"cycle\":2000}".to_owned())]);
        let b = parse_bundle(&text).expect("bundle parses");
        assert_eq!(b.cause, "timeout");
        assert_eq!(b.key, "camp/d0/SECDED");
        assert_eq!(b.seed, 42);
        assert_eq!(b.timeline.len(), 2);
        assert_eq!(b.timeline[1].cycle, 2000);
        assert_eq!(b.timeline[1].tile_temps_c, vec![58.0, 63.0, 57.0]);
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.events[0].kind, "PacketInjected");
        assert_eq!(b.events[0].router, 3);
        assert_eq!(b.convergence.len(), 1);
        assert_eq!(b.convergence[0].updates, 61);
        assert_eq!(b.open_spans, vec!["step_cycle", "link.traverse"]);
        assert_eq!(b.spans_table, Some(prof.span_tree().tree_table()));
        assert_eq!(b.extras, vec![("stall".to_owned(), "{\"cycle\":2000}".to_owned())]);
    }

    #[test]
    fn bundle_is_deterministic_and_report_renders_stably() {
        let mut r = one_event(4);
        r.push_timeline(sample(1000, 50.0));
        r.push_timeline(sample(2000, 58.0));
        let h = head(BundleCause::Stall);
        let a = r.bundle(&h, &[]);
        let b = r.bundle(&h, &[]);
        assert_eq!(a, b, "bundle serialization must be deterministic");
        let p = parse_bundle(&a).unwrap();
        let r1 = render_report(&p);
        let r2 = render_report(&parse_bundle(&b).unwrap());
        assert_eq!(r1, r2, "report rendering must be deterministic");
        assert!(r1.contains("# Post-mortem: stall"), "{r1}");
        assert!(r1.contains("## Router heat deltas"), "{r1}");
        assert!(r1.contains("PacketInjected"), "{r1}");
    }

    #[test]
    fn parse_rejects_malformed_bundles() {
        assert!(parse_bundle("").unwrap_err().contains("no head record"));
        assert!(parse_bundle("{\"record\":\"timeline\",\"data\":{}}")
            .unwrap_err()
            .contains("before the head"));
        assert!(parse_bundle("not json").unwrap_err().contains("line 1"));
        let mut r = FlightRecorder::new(2);
        r.push_timeline(sample(1, 50.0));
        let text = r.bundle(&head(BundleCause::Panic), &[]);
        let doubled = format!("{text}{text}");
        assert!(parse_bundle(&doubled).unwrap_err().contains("duplicate head"));
        let future = text.replace("\"format_version\":1", "\"format_version\":999");
        assert!(parse_bundle(&future).unwrap_err().contains("format version 999"));
    }

    #[test]
    fn cause_labels_roundtrip() {
        for cause in [
            BundleCause::Stall,
            BundleCause::Timeout,
            BundleCause::Panic,
            BundleCause::Fatal,
            BundleCause::Alert,
            BundleCause::Conservation,
        ] {
            assert_eq!(BundleCause::parse(cause.label()), Some(cause));
        }
        assert_eq!(BundleCause::parse("nope"), None);
    }

    #[test]
    fn bundle_file_names_are_sanitized() {
        assert_eq!(bundle_file_name("camp/d0/SECDED"), "postmortem-camp_d0_SECDED.jsonl");
        assert_eq!(bundle_file_name("j-000001"), "postmortem-j-000001.jsonl");
    }
}
