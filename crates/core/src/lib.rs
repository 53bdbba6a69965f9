//! # intellinoc
//!
//! Reproduction of **IntelliNoC: A Holistic Design Framework for
//! Energy-Efficient and Reliable On-Chip Communication for Manycores**
//! (Ke Wang, Ahmed Louri, Avinash Karanth, Razvan Bunescu — ISCA 2019).
//!
//! IntelliNoC combines three architectural techniques with a learned control
//! policy on an 8×8 mesh NoC:
//!
//! 1. **MFACs** — multi-function adaptive channel buffers (repeaters, link
//!    storage, re-transmission buffers, relaxed-timing buffers),
//! 2. **adaptive ECC** — per-router CRC / SECDED / DECTED with ACK/NACK
//!    re-transmission,
//! 3. **stress-relaxing bypass** — proactive power gating with BST-guided
//!    channel-to-channel forwarding,
//!
//! all coordinated by per-router tabular **Q-learning agents** choosing one
//! of five [`OperationMode`]s per 1000-cycle time step, with the holistic
//! reward `r = −log(latency) − log(power) − log(aging)`.
//!
//! This crate is the *policy* layer: operation modes, the RL/heuristic
//! controllers, the five comparison [`Design`]s (SECDED baseline, EB, CP,
//! CPD, IntelliNoC), the experiment façade and its grids, and the paper's
//! evaluation ([`figures`]). The cycle-accurate *mechanisms* live in
//! [`noc_sim`] and the other substrate crates.
//!
//! # Quickstart
//!
//! ```
//! use intellinoc::{run_experiment, Design, ExperimentConfig};
//! use noc_traffic::ParsecBenchmark;
//!
//! let workload = ParsecBenchmark::Canneal.workload(10);
//! let outcome = run_experiment(ExperimentConfig::new(Design::IntelliNoc, workload));
//! assert!(outcome.report.stats.packets_delivered > 0);
//! println!("avg latency: {:.1} cycles", outcome.report.avg_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod campaign;
mod controller;
mod designs;
mod experiment;
mod expert;
pub mod figures;
mod inspect;
mod metrics;
mod modes;
mod runner;
mod serve;
mod sweeps;

pub use bench::{
    check_ppn, check_rate, compare_bench, record_bench, BenchBaseline, BenchCell, BenchComparison,
    BenchSpec, BenchWorkload, CompareRow, GateOptions, GateVerdict, MetricStats,
    BENCH_FORMAT_VERSION, GATED_METRICS, REL_EPSILON,
};
pub use campaign::{
    campaign_scenarios, check_fault_counts, run_campaign_runner, CampaignConfig, CampaignRunReport,
};
pub use controller::{cpd_decide, intellinoc_rl_config, ControlPolicy, RewardKind, RlControl};
pub use designs::Design;
pub use experiment::{
    pretrain_grid, pretrain_intellinoc, pretraining_key, run_experiment,
    run_experiment_instrumented, run_grid, ExperimentConfig, ExperimentOutcome, MetricsOptions,
    Pretraining, TelemetryArtifacts, TelemetryOptions, UnitSinks, DEFAULT_TIME_STEP,
};
pub use expert::{expert_decide, ExpertThresholds};
pub use inspect::render_inspect_report;
pub use metrics::{compare, geomean, normalize, ComparisonRow, NormalizedMetrics};
pub use modes::OperationMode;
pub use runner::{
    classify_timeout, derive_seed, dump_bundle, panic_message, run_units, ChaosOptions, RunStatus,
    RunnerConfig, RunnerReport, StatusCounts, TimeoutReport, UnitCtx, UnitRecord, UnitVerdict,
    CHAOS_DEADLINE_CYCLES,
};
pub use serve::{
    http_request, http_request_full, reference_report_csv, serve_report_csv, token_ok, ChaosKill,
    ChaosPoint, Daemon, JobSpec, JobState, JobStatus, JobsSummary, RecoverySummary, ServeConfig,
    SubmitRequest, SubmitResponse, DEFAULT_CHUNK_UNITS, MAX_JOB_UNITS,
};
pub use sweeps::load_sweep_cells;
