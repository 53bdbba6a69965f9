//! # noc-sim
//!
//! Cycle-accurate 2D-mesh NoC simulator substrate for the IntelliNoC
//! reproduction (Wang et al., ISCA 2019) — the Booksim2 substitute.
//!
//! The simulator provides the *mechanisms* of the paper's architecture —
//! VC wormhole routers, on-link channel buffers (MFAC storage), power
//! gating with a BST-guided bypass switch, per-hop/end-to-end ECC with
//! ACK/NACK re-transmission, fault injection, thermal and aging feedback —
//! while the *policies* (the five operation modes, the RL controller, and
//! the comparison designs) live in the `intellinoc` crate.
//!
//! # Examples
//!
//! ```
//! use noc_sim::{Network, SimConfig};
//! use noc_traffic::WorkloadSpec;
//!
//! let mut cfg = SimConfig::default();
//! cfg.max_cycles = 100_000;
//! let mut net = Network::new(cfg, WorkloadSpec::uniform(0.01, 5), 42);
//! assert!(net.run_cycles(100_000), "the workload drains");
//! assert_eq!(net.report().stats.packets_delivered, 64 * 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod bitset;
mod channel;
mod config;
mod flit;
mod health;
mod journey;
mod latency;
mod metrics_export;
mod network;
mod ni;
mod probe;
mod router;
mod stats;
mod topology;

pub use config::{RouterDirective, SimConfig};
pub use flit::{Cycle, FLITS_PER_PACKET};
pub use health::HealthRouter;
pub use latency::LatencyHistogram;
pub use metrics_export::{declare_network_metrics, export_network_metrics};
pub use network::Network;
pub use probe::{ProbeArtifacts, ProbeConfig};
pub use stats::{NetworkStats, RouterObservation, RunReport, StallReport, TxnSummary};
pub use topology::{Mesh, Port};

// Hard-fault scenario types, re-exported for configuration convenience.
pub use noc_fault::{HardFault, HardFaultKind, HardFaultScenario, HardFaultTarget};

// Telemetry surface, re-exported so simulator users can install tracers and
// profilers without depending on `noc-telemetry` directly.
pub use noc_telemetry::{
    bundle_file_name, export_alert_metrics, journey_file_name, journey_sampled, json_str,
    link_stats_csv, parse_bundle, parse_exposition, parse_rules, percentile, render_exposition,
    render_report, runner_events_jsonl, shared_recorder, AlertEdge, AlertEngine, AlertEvent,
    AlertRule, AttributionArtifacts, BundleCause, BundleHead, ConvergenceSample, DecisionLog,
    DecisionRecord, Event, EventKind, FlightRecorder, GateEdge, HttpRequest, HttpResponse,
    HttpServer, JourneyCause, JourneyLog, LatencyComponents, MetricsHub, MetricsRegistry, Profiler,
    RunTimeline, RunnerEvent, Sample, SharedRecorder, SpanTree, TimelineSample, TraceFilter,
    Tracer, DEFAULT_BLACKBOX_CAPACITY, DEFAULT_TRACE_CAPACITY,
};
