//! `noc-telemetry`: the observability layer of the IntelliNoC reproduction.
//!
//! Three independent facilities, all runtime-toggleable and all free when
//! disabled (the simulator holds them in `Option`s and the disabled path is
//! a single branch with zero allocation):
//!
//! 1. [`Tracer`] — a structured event trace. Simulator subsystems emit typed
//!    [`Event`]s (packet injection, hop traversal, retransmissions, ECC
//!    corrections, RL mode switches, power gating, Q-learning updates) into a
//!    bounded ring buffer, optionally filtered per router and per event kind,
//!    and drained to JSON Lines.
//! 2. [`RunTimeline`] — a metrics time-series sampled once per control time
//!    step (latency, power, temperature, aging, mode mix, retransmission
//!    counts), returned to the API caller and fed to the flight recorder.
//! 3. [`Profiler`] (`noc-prof`) — a nestable span stack aggregated into a
//!    [`SpanTree`] that records wall-clock time *and* deterministic
//!    cycle-domain counters (calls, flits handled, allocations), exported
//!    as a deterministic tree table and collapsed-stack flamegraph text
//!    (inferno/speedscope-loadable).
//!
//! On top of the event stream sits an *analysis* layer (the `inspect`
//! module): per-packet [`LatencyBreakdown`]s, spatial [`HeatGrid`]s, and RL
//! [`DecisionLog`]s, all plain data with byte-deterministic renderers.
//!
//! PR 5 adds the *metrics* layer: a labeled [`MetricsRegistry`] (counters,
//! gauges, fixed-bucket histograms) rendered to Prometheus text exposition
//! ([`render_exposition`]) and published into a [`MetricsHub`], which
//! `intellinoc serve`'s `GET /metrics` reads over the std-only
//! [`HttpServer`] — serving only ever reads published snapshots, so it can
//! never perturb simulation state.
//!
//! Everything here describes the simulated mesh or a run of it. The
//! execution engine's runner log (`runner.jsonl`) is not a telemetry
//! stream: the engine in `intellinoc` renders it from its unit records.

#![forbid(unsafe_code)]

mod alerts;
mod blackbox;
mod event;
mod exposition;
mod inspect;
mod journey;
mod metrics;
mod prof;
#[cfg(test)]
mod prof_reference;
mod profiler;
mod serve;
mod timeline;
mod tracer;

pub use alerts::{
    export_alert_metrics, parse_rules, AlertCmp, AlertEdge, AlertEngine, AlertEvent, AlertRule,
};
pub use blackbox::{
    bundle_file_name, parse_bundle, render_report, shared_recorder, BundleCause, BundleConvergence,
    BundleEvent, BundleHead, FlightRecorder, ParsedBundle, RecorderCounters, SharedRecorder,
    BLACKBOX_FORMAT_VERSION, DEFAULT_BLACKBOX_CAPACITY, EVENT_RING_FACTOR,
};
pub use event::{Event, EventKind, GateEdge, RetxScope};
pub use exposition::{
    escape_label_value, format_value, parse_exposition, registry_samples, render_exposition,
    unescape_label_value, Sample,
};
pub use inspect::{
    link_stats_csv, AttributionArtifacts, ConvergenceSample, DecisionLog, DecisionRecord, HeatGrid,
    LatencyBreakdown, LatencyComponents, LinkStat, PairBreakdown,
};
pub use journey::{
    journey_file_name, journey_sampled, percentile, HopSpan, JourneyCause, JourneyLoc, JourneyLog,
    PacketJourney, TxnJourney, TxnLeg, TxnLegKind, TxnOutcome, JOURNEY_CAUSES,
    JOURNEY_FORMAT_VERSION,
};
pub use metrics::{
    is_valid_label_name, is_valid_metric_name, LabelSet, MetricFamily, MetricKind, MetricsRegistry,
    SeriesValue,
};
pub use prof::{SpanStats, SpanTree, MAX_SPAN_DEPTH};
pub use profiler::{LeafSpan, Profiler};
pub use serve::{
    accept_backoff_ms, HttpHandler, HttpRequest, HttpResponse, HttpServer, MetricsHub,
    ACCEPT_BACKOFF_BASE_MS, ACCEPT_BACKOFF_CAP_MS,
};
pub use timeline::{RunTimeline, TimelineSample};
pub use tracer::{TraceFilter, Tracer, DEFAULT_TRACE_CAPACITY};

/// Minimal JSON string escaping (quotes, backslashes, control chars): `s`
/// as a quoted JSON string, for the hand-built JSONL lines and error bodies
/// across the workspace.
#[must_use]
pub fn json_str(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
