//! The experiment façade: build a design, drive it with a workload under
//! its control policy, and produce a comparable outcome.
//!
//! This is the entry point the examples, integration tests, and the figure
//! harness all use. There is one way to run an experiment —
//! [`run_experiment_instrumented`], the one control loop, with
//! [`run_experiment`] (its outcome only) as a shorthand — and one way to run
//! a grid of them:
//! [`run_grid`] over a list of `(run key, ExperimentConfig)` cells, the one
//! caller of [`UnitSinks::run_unit`]. `campaign`, `sweep`, `bench`, `serve`
//! and the `figures` studies differ only in how they build their cells and
//! how they render the [`ExperimentOutcome`]s that come back. Pre-training
//! is grid work too: [`pretrain_grid`] runs a list of recipes, one unit
//! each, on the same `noc-runner` engine. These two are its only callers.

use crate::controller::{intellinoc_rl_config, ControlPolicy, RewardKind, RlControl};
use crate::designs::Design;
use crate::expert::ExpertThresholds;
use crate::runner::{
    classify_timeout, derive_seed, run_seeded_units, ChaosOptions, RunnerConfig, RunnerReport,
    UnitCtx, UnitVerdict,
};
use noc_rl::{QLearningConfig, QTable};
use noc_sim::{
    declare_network_metrics, export_alert_metrics, export_network_metrics, render_exposition,
    AlertEngine, AlertEvent, AlertRule, AttributionArtifacts, DecisionLog, HardFaultScenario,
    JourneyLog, MetricsHub, MetricsRegistry, Network, ProbeConfig, Profiler, RouterObservation,
    RunReport, RunTimeline, SharedRecorder, SimConfig, TimelineSample, TraceFilter, Tracer,
    DEFAULT_TRACE_CAPACITY,
};
use noc_traffic::{ParsecBenchmark, ReqReplySpec, WorkloadSpec};
use rand::{rngs::SmallRng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The paper's default RL control time step in cycles (§6.3).
pub const DEFAULT_TIME_STEP: u64 = 1_000;

/// Configuration of one experiment run.
///
/// Passive configuration bag; fields are public by design.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Design under test.
    pub design: Design,
    /// Workload to drive it with.
    pub workload: WorkloadSpec,
    /// Control time step in cycles.
    pub time_step: u64,
    /// RL hyperparameters (ignored by non-RL designs).
    pub rl: QLearningConfig,
    /// Reward shaping (ablation D5).
    pub reward: RewardKind,
    /// Base RNG seed (fault injection, traffic, agents).
    pub seed: u64,
    /// Simulated-cycle safety cap.
    pub max_cycles: u64,
    /// Fixed per-bit error rate override (Fig. 17b sweep).
    pub error_rate_override: Option<f64>,
    /// Pre-trained Q-tables to start from (paper §6.3).
    pub pretrained: Option<Vec<QTable>>,
    /// A threshold rule to run instead of the design's own policy (D4b).
    pub expert: Option<ExpertThresholds>,
    /// Q-table soft errors (paper §6 future work): expected bit flips per
    /// stored entry per control step ([`RlControl::inject_soft_errors`]).
    pub qtable_flips: f64,
    /// Overrides applied to the design's simulator config (ablations).
    pub tweak: Option<fn(&mut SimConfig)>,
    /// Scheduled hard faults (dead links/routers, flapping, wear-out).
    pub hard_faults: HardFaultScenario,
    /// Route around hard faults (up*/down* detours) instead of plain XY.
    pub fault_aware_routing: bool,
    /// Observability switches (all off by default).
    pub telemetry: TelemetryOptions,
}

/// Observability switches for one experiment run. Everything defaults to
/// off; the disabled paths cost one branch per emission site.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOptions {
    /// Record a structured event trace.
    pub trace: bool,
    /// Admission filter applied when tracing (the ring holds the newest
    /// [`DEFAULT_TRACE_CAPACITY`] events).
    pub trace_filter: TraceFilter,
    /// Sample a per-control-step metrics timeline.
    pub timeline: bool,
    /// Collect the span profile.
    pub profile: bool,
    /// Attribute per-packet latency to components and accumulate spatial
    /// (per-link / per-router) heatmaps.
    pub attribution: bool,
    /// Record per-decision RL introspection (IntelliNoC only).
    pub decisions: bool,
    /// Live metrics exposition (registry sampled each control step).
    pub metrics: MetricsOptions,
    /// Flight recorder (`noc-blackbox`): shared bounded rings of recent
    /// timeline and RL convergence samples, plus the event tail, span table
    /// and slowest journeys the probe copies in when the run ends. The
    /// handle is shared with the harness so a post-mortem bundle can be
    /// dumped even when the run dies (panic, stall, chaos kill). Recording
    /// never changes cycle-domain behavior.
    pub blackbox: Option<SharedRecorder>,
    /// Alert rules evaluated against the metrics registry each metrics
    /// interval (forces a registry on even without a hub).
    pub alert_rules: Vec<AlertRule>,
    /// Journey tracing sampling period: every `n`-th packet (by seeded
    /// hash, so the sample is deterministic per seed and independent of
    /// execution interleaving) gets a hop-level journey. `0` disables
    /// tracing; `1` traces every packet.
    pub journeys_every: u64,
}

impl TelemetryOptions {
    /// Whether any facility is enabled.
    pub fn any(&self) -> bool {
        self.trace
            || self.timeline
            || self.profile
            || self.attribution
            || self.decisions
            || self.metrics.hub.is_some()
            || self.blackbox.is_some()
            || !self.alert_rules.is_empty()
            || self.journeys_every > 0
    }
}

/// Live metrics exposition settings for one run.
///
/// The registry is sampled at the end of every control step (and once more
/// at run end) and rendered to Prometheus text exposition. Snapshots are
/// *published* into a [`MetricsHub`] strictly outside simulation state, so
/// enabling exposition never changes simulated behavior.
#[derive(Debug, Clone, Default)]
pub struct MetricsOptions {
    /// Publish snapshots into this hub (`serve`'s `GET /metrics`, tests).
    pub hub: Option<Arc<MetricsHub>>,
}

/// The telemetry artifacts of one run; each field is present iff the
/// corresponding [`TelemetryOptions`] switch was on.
#[derive(Debug, Default)]
pub struct TelemetryArtifacts {
    /// The event trace (ring contents + admission counters).
    pub tracer: Option<Tracer>,
    /// Per-control-step metrics time-series.
    pub timeline: Option<RunTimeline>,
    /// Span profile.
    pub profiler: Option<Profiler>,
    /// Latency attribution and spatial heatmaps.
    pub attribution: Option<AttributionArtifacts>,
    /// RL per-decision records and convergence samples.
    pub decisions: Option<DecisionLog>,
    /// Alert state transitions, in evaluation order (alert rules were on).
    pub alerts: Vec<AlertEvent>,
    /// Sampled per-packet journeys (journey tracing was on).
    pub journeys: Option<JourneyLog>,
}

impl ExperimentConfig {
    /// An experiment with the paper's defaults.
    pub fn new(design: Design, workload: WorkloadSpec) -> Self {
        ExperimentConfig {
            design,
            workload,
            time_step: DEFAULT_TIME_STEP,
            rl: intellinoc_rl_config(),
            reward: RewardKind::LogSpace,
            seed: 1,
            max_cycles: 2_000_000,
            error_rate_override: None,
            pretrained: None,
            expert: None,
            qtable_flips: 0.0,
            tweak: None,
            hard_faults: HardFaultScenario::none(),
            fault_aware_routing: false,
            telemetry: TelemetryOptions::default(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the control time step.
    pub fn with_time_step(mut self, time_step: u64) -> Self {
        self.time_step = time_step;
        self
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// Design under test.
    pub design: Design,
    /// Workload name.
    pub workload: String,
    /// The simulator's final report.
    pub report: RunReport,
    /// Router-steps spent in each operation mode (Fig. 14; all zero under a
    /// policy that does not pick modes).
    pub mode_histogram: [u64; 5],
    /// Mean Q-table entries per router at the end (IntelliNoC only).
    pub mean_qtable_entries: f64,
    /// Whether the workload ran to its end (`Network::is_done()` when the
    /// control loop exited): `false` for a run the cycle budget or the stall
    /// watchdog cut off, even at an instant with no packet in flight.
    pub finished: bool,
}

impl ExperimentOutcome {
    /// Fraction of router-steps spent in each operation mode.
    pub fn mode_fractions(&self) -> [f64; 5] {
        // All zero for an empty histogram: every bin is 0 of at least 1.
        let total = self.mode_histogram.iter().sum::<u64>().max(1) as f64;
        self.mode_histogram.map(|h| h as f64 / total)
    }
}

/// Runs one experiment to completion.
pub fn run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome {
    run_experiment_instrumented(cfg).0
}

/// The fleet-level sinks the units of a grid (`campaign`, `sweep`, `bench`,
/// `serve`) feed besides returning their outcome. Neither sink perturbs
/// cycle-domain state, so a grid's report is byte-identical with or without
/// them (pinned by integration tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitSinks<'a> {
    /// Fleet profiler: every unit runs with span profiling on and merges
    /// its profiler into this one at run end.
    pub prof: Option<&'a Mutex<Profiler>>,
    /// Journey tracing as `(dir, every)`: every unit samples one in `every`
    /// packets and writes `journeys-<sanitized key>.jsonl` under `dir`.
    /// Sampling is keyed by the unit's derived seed, so the files are
    /// byte-identical across serial, parallel, and resumed runs.
    pub journeys: Option<(&'a Path, u64)>,
}

impl UnitSinks<'_> {
    /// Runs the unit `key` as `cfg` describes, feeding the sinks.
    pub fn run(&self, mut cfg: ExperimentConfig, key: &str) -> ExperimentOutcome {
        cfg.telemetry.profile |= self.prof.is_some();
        if let Some((_, every)) = self.journeys {
            cfg.telemetry.journeys_every = every;
        }
        let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
        if let (Some(sink), Some(prof)) = (self.prof, artifacts.profiler) {
            sink.lock().expect("profiler sink lock").merge(&prof);
        }
        if let (Some((dir, _)), Some(log)) = (self.journeys, artifacts.journeys) {
            let path = dir.join(noc_sim::journey_file_name(key));
            if let Err(e) = std::fs::write(&path, log.to_jsonl()) {
                eprintln!("journeys: cannot write {}: {e}", path.display());
            }
        }
        outcome
    }

    /// Runs `cfg` as the grid unit `ctx` under the runner's contract — the
    /// one place it is written: the engine's deadline clamped onto the
    /// cycle budget `cfg` arrives with, the engine's flight recorder
    /// installed (so a dying unit leaves a post-mortem bundle; recording
    /// never changes cycle-domain behavior), the sinks fed, and a run the
    /// stall watchdog aborted or the clamped budget cut off before the
    /// workload finished classified as a timeout carrying the partial
    /// outcome. `cfg` arrives with its seed and its own `max_cycles` set.
    pub fn run_unit(&self, cfg: ExperimentConfig, ctx: &UnitCtx) -> UnitVerdict<ExperimentOutcome> {
        let max_cycles = cfg.max_cycles.min(ctx.deadline_cycles.unwrap_or(u64::MAX));
        let mut cfg = ExperimentConfig { max_cycles, ..cfg };
        cfg.telemetry.blackbox = ctx.recorder.clone();
        let budget = cfg.max_cycles;
        let outcome = self.run(cfg, ctx.key);
        match classify_timeout(&outcome.report, outcome.finished, budget) {
            Some(report) => UnitVerdict::TimedOut { partial: Some(outcome), report },
            None => UnitVerdict::Ok(outcome),
        }
    }
}

/// The synthetic workload of a rate-driven grid cell: open-loop uniform
/// injection, or the closed-loop request–reply protocol when `reqreply` is
/// given.
pub(crate) fn rate_workload(rate: f64, ppn: u64, reqreply: Option<&ReqReplySpec>) -> WorkloadSpec {
    match reqreply {
        Some(rr) => WorkloadSpec::reqreply(rate, ppn, rr.clone()),
        None => WorkloadSpec::uniform(rate, ppn),
    }
}

/// Runs a grid: `cells` are `(stable run key, fully built experiment)`
/// pairs, seed included — the runner grids set `derive_seed(master, key)`
/// while building their cells, the figure studies the seeds they pin — and
/// every cell is one unit of the `noc-runner` engine, executed per `rcfg`
/// (workers, deadline, journal/resume) with `chaos` failure injection
/// under the seed it arrived with, feeding `sinks`. Records come back in
/// cell order with the whole [`ExperimentOutcome`] as payload (partial on a
/// timed-out unit), so a renderer reads metrics off `records[i].payload`
/// and the cell's identity off `cells[i]`. Serial, parallel and resumed
/// executions of the same cells produce byte-identical reports, whatever
/// the sinks.
///
/// # Errors
///
/// Engine-level errors (duplicate keys, journal mismatch or I/O); unit-level
/// failures are contained in the report instead.
pub fn run_grid(
    cells: &[(String, ExperimentConfig)],
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
    sinks: UnitSinks<'_>,
) -> Result<RunnerReport<ExperimentOutcome>, String> {
    run_grid_hooked(cells, rcfg, chaos, sinks, || ())
}

/// [`run_grid`] with `before_unit` called at the start of every unit
/// (serve's mid-unit chaos kill point).
pub(crate) fn run_grid_hooked(
    cells: &[(String, ExperimentConfig)],
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
    sinks: UnitSinks<'_>,
    before_unit: impl Fn() + Sync,
) -> Result<RunnerReport<ExperimentOutcome>, String> {
    let keys: Vec<String> = cells.iter().map(|(key, _)| key.clone()).collect();
    let by_key: HashMap<&str, &ExperimentConfig> =
        cells.iter().map(|(key, cfg)| (key.as_str(), cfg)).collect();
    // The journal header pins the grid by its keys and this fold of every
    // cell's seed, so resuming under another master seed is refused.
    let grid_seed = cells.iter().fold(0, |h, (key, cfg)| derive_seed(h ^ cfg.seed, key));
    run_seeded_units(
        grid_seed,
        &keys,
        |key| by_key[key].seed,
        rcfg,
        chaos,
        |ctx: &UnitCtx| {
            before_unit();
            sinks.run_unit(by_key[ctx.key].clone(), ctx)
        },
    )
}

/// A pre-training recipe, `(rl, packets per node, time step, seed,
/// episodes)`: all [`pretrain_intellinoc`] reads but the reward, which
/// [`pretrain_grid`] fixes at Eq. 1's ([`RewardKind::LogSpace`]).
pub type Pretraining = (QLearningConfig, u64, u64, u64, u32);

/// The run key of `recipe`'s unit in [`pretrain_grid`], e.g.
/// `pretrain/ts1000/ppn200/s2019/e24/g0.9/eps0.05`: every part of a recipe
/// the evaluation varies.
pub fn pretraining_key(&(rl, ppn, time_step, seed, episodes): &Pretraining) -> String {
    format!("pretrain/ts{time_step}/ppn{ppn}/s{seed}/e{episodes}/g{}/eps{}", rl.gamma, rl.epsilon)
}

/// Pre-trains each of `recipes` as one grid on the `noc-runner` engine,
/// per `rcfg` and `chaos` as [`run_grid`] does: one unit per recipe, keyed
/// by [`pretraining_key`], under the recipe's seed, calling
/// [`pretrain_intellinoc`] with Eq. 1's reward, its payload the trained
/// tables. A recipe's episodes stay sequential inside its unit (each starts
/// from the last one's tables); the recipes spread over the workers. A unit
/// runs every episode to the end: it takes no cycle deadline, so a chaos
/// timeout mark does not cut it short, while a panic fails it by key.
///
/// # Errors
///
/// Engine-level errors, as [`run_grid`]'s — among them two recipes with
/// one key.
pub fn pretrain_grid(
    recipes: &[Pretraining],
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
) -> Result<RunnerReport<Vec<QTable>>, String> {
    let keys: Vec<String> = recipes.iter().map(pretraining_key).collect();
    let by_key: HashMap<&str, &Pretraining> =
        keys.iter().map(String::as_str).zip(recipes).collect();
    let grid_seed = keys.iter().zip(recipes).fold(0, |h, (key, r)| derive_seed(h ^ r.3, key));
    run_seeded_units(
        grid_seed,
        &keys,
        |key| by_key[key].3,
        rcfg,
        chaos,
        |ctx: &UnitCtx| {
            let &(rl, ppn, ts, seed, episodes) = by_key[ctx.key];
            let tables = pretrain_intellinoc(rl, RewardKind::LogSpace, ppn, ts, seed, episodes);
            UnitVerdict::Ok(tables)
        },
    )
}

/// Per-step baseline for delta-valued timeline series.
#[derive(Debug, Default, Clone, Copy)]
struct StepBase {
    injected: u64,
    delivered: u64,
    dropped: u64,
    reroutes: u64,
    injected_bits: u64,
    hop_retx: u64,
    e2e_retx: u64,
    trace_drops: u64,
    modes: [u64; 5],
}

/// Builds one timeline sample from the live network state and advances the
/// delta baseline.
fn sample_timeline(
    net: &Network,
    obs: &[RouterObservation],
    policy: &ControlPolicy,
    prev: &mut StepBase,
) -> TimelineSample {
    let report = net.report();
    let s = &report.stats;
    let modes = policy.mode_histogram();
    let mut mode_delta = [0u64; 5];
    for (d, (&now, &before)) in mode_delta.iter_mut().zip(modes.iter().zip(&prev.modes)) {
        *d = now - before;
    }
    let trace_drops = net.tracer().map(Tracer::evicted).unwrap_or(0);
    let sample = TimelineSample {
        cycle: net.now(),
        avg_latency: s.avg_latency(),
        p99_latency: s.latency_percentile(0.99),
        dynamic_power_mw: report.power.dynamic_mw,
        static_power_mw: report.power.static_mw,
        mean_temp_c: report.mean_temp_c,
        max_temp_c: report.max_temp_c,
        tile_temps_c: obs.iter().map(|o| o.temperature_c).collect(),
        mean_aging_factor: report.mean_aging_factor,
        mode_histogram: mode_delta,
        hop_retx: s.hop_retx_events - prev.hop_retx,
        e2e_retx: s.e2e_retx_packets - prev.e2e_retx,
        packets_injected: s.packets_injected - prev.injected,
        packets_delivered: s.packets_delivered - prev.delivered,
        packets_dropped: s.packets_dropped - prev.dropped,
        reroutes: s.reroutes - prev.reroutes,
        injected_bits: report.injected_bit_flips - prev.injected_bits,
        trace_drops: trace_drops - prev.trace_drops,
    };
    *prev = StepBase {
        injected: s.packets_injected,
        delivered: s.packets_delivered,
        dropped: s.packets_dropped,
        reroutes: s.reroutes,
        injected_bits: report.injected_bit_flips,
        hop_retx: s.hop_retx_events,
        e2e_retx: s.e2e_retx_packets,
        trace_drops,
        modes,
    };
    sample
}

/// Feeds the flight recorder one control step: the step's timeline sample
/// and the latest RL convergence sample (when decision logging is on). The
/// probe hands over the rest when it is taken or dropped.
fn feed_recorder(bb: &SharedRecorder, policy: &ControlPolicy, sample: &TimelineSample) {
    let Ok(mut r) = bb.lock() else { return };
    r.push_timeline(sample.clone());
    if let ControlPolicy::Rl(rl) = policy {
        if let Some(c) = rl.decision_log().and_then(|log| log.convergence.last()) {
            r.push_convergence(*c);
        }
    }
}

/// The control loop (paper §5), the only place a policy drives a
/// [`Network`]: every `cfg.time_step` cycles each router is observed, the
/// policy's decision energy is charged, `cfg.qtable_flips` soft errors hit
/// its tables, the policy decides, and its directives are applied — until
/// the workload finishes, the cycle budget runs out or the stall watchdog
/// fires. The policy is `cfg.expert`'s rule if one is given, else the
/// design's own ([`RlControl`] from `cfg.rl` / `cfg.pretrained` for
/// IntelliNoC, CPD's heuristic, none otherwise). Returns the outcome, the
/// policy, and the telemetry artifacts `cfg.telemetry` asked for.
pub fn run_experiment_instrumented(
    cfg: ExperimentConfig,
) -> (ExperimentOutcome, ControlPolicy, TelemetryArtifacts) {
    // `run_cycles(0)` never advances the network, so the loop would spin.
    assert!(cfg.time_step > 0, "time_step must be at least 1 cycle, got 0");
    let mut sim_cfg = cfg.design.sim_config();
    sim_cfg.seed = cfg.seed;
    sim_cfg.max_cycles = cfg.max_cycles;
    if let Some(tweak) = cfg.tweak {
        tweak(&mut sim_cfg);
    }
    // Hard-fault settings come after `tweak` so scenario sweeps can't be
    // silently overridden by an ablation hook.
    if !cfg.hard_faults.is_empty() {
        sim_cfg.hard_faults = cfg.hard_faults.clone();
    }
    if cfg.fault_aware_routing {
        sim_cfg.fault_aware_routing = true;
    }
    let routers = sim_cfg.nodes();
    let workload_name = cfg.workload.name.clone();
    let mut net = Network::new(sim_cfg, cfg.workload, cfg.seed.wrapping_mul(31).wrapping_add(7));
    net.set_error_rate_override(cfg.error_rate_override);
    let telemetry = &cfg.telemetry;
    let blackbox = telemetry.blackbox.clone();
    net.install_probe(ProbeConfig {
        tracer: telemetry
            .trace
            .then(|| Tracer::new(DEFAULT_TRACE_CAPACITY, telemetry.trace_filter.clone())),
        profiler: telemetry.profile.then(Profiler::new),
        attribution: telemetry.attribution,
        blackbox: blackbox.clone(),
        journeys: (telemetry.journeys_every > 0).then_some((cfg.seed, telemetry.journeys_every)),
    });
    let profile = cfg.telemetry.profile;
    let mut timeline = if cfg.telemetry.timeline { Some(RunTimeline::new()) } else { None };
    let mut base = StepBase::default();
    let mut alert_engine = if cfg.telemetry.alert_rules.is_empty() {
        None
    } else {
        Some(AlertEngine::new(cfg.telemetry.alert_rules.clone()))
    };
    let mut alert_events: Vec<AlertEvent> = Vec::new();
    let hub = cfg.telemetry.metrics.hub.clone();
    // Alert rules need registry snapshots even without a hub.
    let mut metrics_reg = if hub.is_some() || alert_engine.is_some() {
        let mut reg = MetricsRegistry::new();
        declare_network_metrics(&mut reg).expect("static metric declarations are valid");
        Some(reg)
    } else {
        None
    };
    let metric_labels: [(&str, &str); 2] =
        [("design", cfg.design.label()), ("workload", &workload_name)];
    // One registry snapshot: export the network state, evaluate the alert
    // rules on it (their `noc_alert_*` families are cycle-domain and join
    // it), publish.
    let mut snapshot_metrics = |net: &Network| {
        let Some(reg) = metrics_reg.as_mut() else { return };
        export_network_metrics(reg, net, &metric_labels).expect("static metric names are valid");
        if let Some(engine) = alert_engine.as_mut() {
            alert_events.extend(engine.evaluate(reg, net.now()));
            export_alert_metrics(reg, engine).expect("static alert names are valid");
        }
        if let Some(hub) = &hub {
            hub.publish(render_exposition(reg));
        }
    };

    let mut policy = match (cfg.expert, cfg.design) {
        (Some(thresholds), _) => ControlPolicy::Expert(thresholds, [0; 5]),
        (None, Design::IntelliNoc) => {
            let mut rl = RlControl::new(routers, cfg.rl, cfg.seed, cfg.reward);
            if let Some(tables) = cfg.pretrained {
                rl.load_tables(tables);
            }
            if cfg.telemetry.decisions {
                rl.enable_decision_log();
            }
            ControlPolicy::Rl(Box::new(rl))
        }
        (None, Design::Cpd) => ControlPolicy::CpdHeuristic(vec![0; routers]),
        _ => ControlPolicy::Static,
    };
    // One soft-error stream per run that has any, at `qtable_faults`' seed.
    let mut flip_rng = (cfg.qtable_flips > 0.0).then(|| SmallRng::seed_from_u64(99));

    loop {
        if net.run_cycles(cfg.time_step) {
            break;
        }
        let obs = net.observations();
        let decisions = policy.decisions_per_step(routers);
        if decisions > 0 {
            net.charge_rl_decisions(decisions);
        }
        if let (ControlPolicy::Rl(rl), Some(rng)) = (&mut policy, flip_rng.as_mut()) {
            rl.inject_soft_errors(cfg.qtable_flips, rng);
        }
        let t0 = if profile { Some(Instant::now()) } else { None };
        let directives = policy.decide_traced(&obs, net.now(), net.tracer_mut());
        if let (Some(t0), Some(prof)) = (t0, net.profiler_mut()) {
            prof.span_leaf("rl.decide", t0.elapsed(), 0, 0);
        }
        if let Some(directives) = directives {
            net.apply_directives(&directives);
        }
        // One sample per step, shared by its two consumers.
        if timeline.is_some() || blackbox.is_some() {
            let sample = sample_timeline(&net, &obs, &policy, &mut base);
            if let Some(bb) = &blackbox {
                feed_recorder(bb, &policy, &sample);
            }
            if let Some(tl) = timeline.as_mut() {
                tl.push(sample);
            }
        }
        snapshot_metrics(&net);
    }
    let finished = net.is_done();
    // The final (possibly partial) step.
    if timeline.is_some() || blackbox.is_some() {
        let obs = net.observations();
        let sample = sample_timeline(&net, &obs, &policy, &mut base);
        if let Some(bb) = &blackbox {
            feed_recorder(bb, &policy, &sample);
        }
        if let Some(tl) = timeline.as_mut() {
            tl.push(sample);
        }
    }
    // Close the exposition with the final network state.
    snapshot_metrics(&net);

    let report = net.report();
    let mean_qtable_entries = match &policy {
        ControlPolicy::Rl(rl) => rl.mean_table_entries(),
        _ => 0.0,
    };
    let decisions = match &mut policy {
        ControlPolicy::Rl(rl) => rl.take_decision_log(),
        _ => None,
    };
    // Taking the probe hands the recorder the span table and the open span
    // path, so the spans a stalled or cut-off loop left open close after.
    let mut probe = net.take_probe();
    if let Some(prof) = probe.profiler.as_mut() {
        prof.close_open_spans();
    }
    let artifacts = TelemetryArtifacts {
        tracer: probe.tracer,
        timeline,
        profiler: probe.profiler,
        attribution: probe.attribution,
        decisions,
        alerts: alert_events,
        journeys: probe.journeys,
    };
    (
        ExperimentOutcome {
            design: cfg.design,
            workload: workload_name,
            report,
            mode_histogram: policy.mode_histogram(),
            mean_qtable_entries,
            finished,
        },
        policy,
        artifacts,
    )
}

/// Pre-trains IntelliNoC's per-router policies on `blackscholes`
/// (paper §6.3) for `episodes` full executions, carrying the Q-tables
/// across episodes, and returns them to seed test runs with.
///
/// The paper's test phase is a full multi-million-cycle application
/// execution, so its agents keep adapting online; our test windows are far
/// shorter, which makes pre-training carry almost all of the learning. To
/// compensate, the episodes form a curriculum over the *same* benchmark:
/// blackscholes at several injection-rate scalings and transient-error
/// levels, so high-utilization and high-error states are in-distribution
/// when the test benchmarks reach them (documented in DESIGN.md §4).
pub fn pretrain_intellinoc(
    rl: QLearningConfig,
    reward: RewardKind,
    packets_per_node: u64,
    time_step: u64,
    seed: u64,
    episodes: u32,
) -> Vec<QTable> {
    // (injection-rate multiplier, forced per-bit error rate)
    const CURRICULUM: [(f64, Option<f64>); 8] = [
        (1.0, None),
        (3.0, None),
        (6.0, None),
        (8.0, None),
        (1.0, Some(1e-4)),
        (4.0, Some(5e-5)),
        (6.0, Some(2e-4)),
        (8.0, Some(1e-4)),
    ];
    let mut tables: Option<Vec<QTable>> = None;
    for ep in 0..episodes.max(1) {
        let (rate_mult, err) = CURRICULUM[ep as usize % CURRICULUM.len()];
        let workload =
            ParsecBenchmark::Blackscholes.workload(packets_per_node).scaled_rate(rate_mult);
        let cfg = ExperimentConfig {
            time_step,
            rl,
            reward,
            pretrained: tables.take(),
            error_rate_override: err,
            ..ExperimentConfig::new(Design::IntelliNoc, workload)
        }
        .with_seed(seed.wrapping_add(ep as u64));
        let (_, policy, _) = run_experiment_instrumented(cfg);
        tables = Some(match policy {
            ControlPolicy::Rl(rl) => rl.tables(),
            _ => unreachable!("IntelliNoC always uses the RL policy"),
        });
    }
    tables.expect("at least one episode ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(design: Design, rate: f64, ppn: u64) -> ExperimentConfig {
        ExperimentConfig::new(design, WorkloadSpec::uniform(rate, ppn)).with_seed(11)
    }

    #[test]
    fn every_design_completes_a_small_workload() {
        for design in Design::ALL {
            let out = run_experiment(small(design, 0.02, 8));
            assert_eq!(out.report.stats.packets_delivered, 64 * 8, "{design} dropped packets");
            assert!(out.report.power.total_mw() > 0.0, "{design}");
            assert!(out.report.exec_cycles > 0, "{design}");
        }
    }

    #[test]
    fn intellinoc_records_modes_and_qtables() {
        let mut cfg = small(Design::IntelliNoc, 0.03, 30);
        cfg.time_step = 500;
        let out = run_experiment(cfg);
        assert!(out.mode_histogram.iter().sum::<u64>() > 0);
        assert!(out.mean_qtable_entries > 0.0);
        let fr = out.mode_fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_rl_designs_have_empty_mode_histogram() {
        let out = run_experiment(small(Design::Cp, 0.02, 5));
        assert_eq!(out.mode_histogram, [0; 5]);
        assert_eq!(out.mean_qtable_entries, 0.0);
    }

    /// Control steps a run took: every step, each of the 64 routers
    /// spends one router-step in some mode.
    fn control_steps(out: &ExperimentOutcome) -> u64 {
        let router_steps: u64 = out.mode_histogram.iter().sum();
        assert_eq!(router_steps % 64, 0, "one decision per router per step");
        router_steps / 64
    }

    /// An `expert` cell replaces the design's agents: the rule picks a mode
    /// for every router at every control step, the outcome carries its
    /// histogram, and a rule pays no Q-table energy.
    #[test]
    fn an_expert_cell_drives_the_loop_with_the_rule() {
        let mut cfg = small(Design::IntelliNoc, 0.03, 30).with_time_step(200);
        cfg.expert = Some(crate::ExpertThresholds::default());
        let (out, policy, _) = run_experiment_instrumented(cfg);
        let steps = control_steps(&out);
        assert!(out.finished && steps > 2, "{steps} control steps");
        assert_eq!(steps, (out.report.stats.cycles - 1) / 200);
        assert_eq!(out.mode_histogram, policy.mode_histogram());
        assert!(matches!(policy, ControlPolicy::Expert(..)));
        assert_eq!((policy.decisions_per_step(64), out.mean_qtable_entries), (0, 0.0));
    }

    #[test]
    fn the_instrumented_run_is_the_loop_under_the_designs_own_policy() {
        let json = |o: &ExperimentOutcome| serde_json::to_string(o).unwrap();
        for design in [Design::Cpd, Design::IntelliNoc] {
            let cfg = small(design, 0.03, 12).with_time_step(200);
            let (out, policy, _) = run_experiment_instrumented(cfg.clone());
            assert_eq!(json(&out), json(&run_experiment(cfg)), "{design}");
            assert_eq!(policy.decisions_per_step(64), if design.uses_rl() { 64 } else { 0 });
        }
    }

    /// A recorded trace is a workload like any other: IntelliNoC replays it
    /// under its own agents, which decide for every router each control step.
    #[test]
    fn intellinoc_replays_a_trace_under_its_agents() {
        let records = noc_traffic::capture_trace(WorkloadSpec::uniform(0.02, 10), 8, 8, 5, 100_000);
        let packets = records.len() as u64;
        let spec = WorkloadSpec::replay("recorded", records, 64).expect("records fit the mesh");
        let cfg = ExperimentConfig::new(Design::IntelliNoc, spec).with_seed(11).with_time_step(100);
        let out = run_experiment(cfg);
        let steps = control_steps(&out);
        assert!(out.finished && steps >= 3, "{steps} control steps");
        assert_eq!(out.report.stats.packets_delivered, packets);
        assert_eq!(steps, (out.report.stats.cycles - 1) / 100);
    }

    #[test]
    fn pretraining_produces_populated_tables() {
        let tables =
            pretrain_intellinoc(intellinoc_rl_config(), RewardKind::LogSpace, 20, 500, 3, 3);
        assert_eq!(tables.len(), 64);
        let filled = tables.iter().filter(|t| !t.is_empty()).count();
        assert!(filled > 32, "only {filled} tables learned anything");
        // Paper §7.4: visited-state count stays small (< 350 cap).
        assert!(tables.iter().all(|t| t.len() <= 350));
    }

    #[test]
    fn pretrained_run_executes() {
        let tables =
            pretrain_intellinoc(intellinoc_rl_config(), RewardKind::LogSpace, 10, 500, 3, 2);
        let mut cfg = small(Design::IntelliNoc, 0.02, 10);
        cfg.pretrained = Some(tables);
        let out = run_experiment(cfg);
        assert_eq!(out.report.stats.packets_delivered, 640);
    }

    /// A zero time step would never advance the control loop: the run
    /// refuses it, so a grid unit fails by its key instead of spinning.
    #[test]
    fn a_zero_time_step_fails_its_unit_by_key() {
        let cells = [("zero-step".to_owned(), small(Design::Secded, 0.02, 2).with_time_step(0))];
        let report = run_grid(
            &cells,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            UnitSinks::default(),
        )
        .expect("engine");
        let err = report.clean_payloads().expect_err("a zero step cannot run");
        assert!(err.contains("unit zero-step failed: "), "{err}");
        assert!(err.contains("time_step must be at least 1 cycle"), "{err}");
    }

    /// A recipe grid trains what a direct `pretrain_intellinoc` call does, at
    /// any worker count, and its tables survive a JSON round trip exactly.
    #[test]
    fn pretrain_grid_matches_direct_training_at_any_job_count() {
        let rl = intellinoc_rl_config();
        let recipes: [Pretraining; 2] =
            [(rl, 4, 200, 3, 2), (QLearningConfig { gamma: 0.5, ..rl }, 4, 500, 5, 3)];
        let json = |tables: &[QTable]| serde_json::to_string(tables).unwrap();
        let direct: Vec<String> = recipes
            .iter()
            .map(|&(rl, ppn, ts, seed, eps)| {
                json(&pretrain_intellinoc(rl, RewardKind::LogSpace, ppn, ts, seed, eps))
            })
            .collect();
        for jobs in [1, 2] {
            let rcfg = RunnerConfig::serial().with_jobs(jobs);
            let report = pretrain_grid(&recipes, &rcfg, &ChaosOptions::default()).unwrap();
            let keys: Vec<&str> = report.records.iter().map(|r| r.key.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "pretrain/ts200/ppn4/s3/e2/g0.9/eps0.05",
                    "pretrain/ts500/ppn4/s5/e3/g0.5/eps0.05"
                ]
            );
            let grid: Vec<String> =
                report.clean_payloads().unwrap().into_iter().map(|t| json(t)).collect();
            assert_eq!(grid, direct, "jobs = {jobs}");
        }
        for encoded in &direct {
            let decoded: Vec<QTable> = serde_json::from_str(encoded).unwrap();
            assert!(decoded.iter().any(|t| !t.is_empty()), "trained tables hold entries");
            assert_eq!(&json(&decoded), encoded, "encode -> decode -> encode");
        }
    }

    #[test]
    fn error_override_drives_retransmissions() {
        let mut cfg = small(Design::Secded, 0.02, 10);
        cfg.error_rate_override = Some(1e-4);
        let out = run_experiment(cfg);
        assert!(out.report.stats.faulty_traversals > 0);
    }

    /// The contract every grid kind shares: the engine's deadline is
    /// clamped onto the unit's own budget, an exhausted budget is a timeout
    /// carrying the partial outcome, and the engine's recorder is fed.
    #[test]
    fn run_unit_clamps_classifies_and_feeds_the_recorder() {
        let recorder = noc_sim::shared_recorder(0);
        let ctx = UnitCtx {
            key: "unit/a",
            seed: 0,
            deadline_cycles: Some(300),
            recorder: Some(recorder.clone()),
        };
        let sinks = UnitSinks::default();
        let cfg = small(Design::Secded, 0.05, 50);
        assert!(cfg.max_cycles > 300);
        match sinks.run_unit(cfg.clone(), &ctx) {
            UnitVerdict::TimedOut { partial: Some(o), report } => {
                let cycles = o.report.stats.cycles;
                assert_eq!((cycles, report.deadline_cycles, report.cycles_run), (300, 300, 300));
                assert!(report.in_flight > 0 && report.stall.is_none() && !o.finished);
            }
            other => panic!("expected a budget timeout, got {other:?}"),
        }
        assert_eq!(recorder.lock().expect("recorder lock").last_cycle(), 300);
        // The unit's own, tighter budget wins over a looser deadline.
        let own = ExperimentConfig { max_cycles: 200, ..cfg.clone() };
        match sinks.run_unit(own, &ctx) {
            UnitVerdict::TimedOut { report, .. } => assert_eq!(report.deadline_cycles, 200),
            other => panic!("expected a budget timeout, got {other:?}"),
        }
        // With no deadline the same unit completes.
        let free = UnitCtx { deadline_cycles: None, recorder: None, ..ctx };
        assert!(matches!(sinks.run_unit(cfg, &free), UnitVerdict::Ok(o) if o.finished));
    }

    /// A budget that expires before the first packet is injected leaves
    /// nothing in flight — the run is still unfinished, not clean.
    #[test]
    fn a_unit_cut_off_between_packets_is_timed_out() {
        let ctx = UnitCtx { key: "unit/b", seed: 0, deadline_cycles: None, recorder: None };
        let cfg = ExperimentConfig { max_cycles: 1, ..small(Design::Secded, 0.02, 8) };
        match UnitSinks::default().run_unit(cfg, &ctx) {
            UnitVerdict::TimedOut { partial: Some(o), report } => {
                assert!(!o.finished);
                assert_eq!(
                    (report.in_flight, report.cycles_run, report.deadline_cycles),
                    (0, 1, 1)
                );
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    /// Two cells of one grid, as `(key, seed)` pairs on the same tiny
    /// experiment.
    fn seeded_cells(cells: [(&str, u64); 2]) -> Vec<(String, ExperimentConfig)> {
        cells
            .map(|(key, seed)| (key.to_owned(), small(Design::Secded, 0.02, 4).with_seed(seed)))
            .into()
    }

    fn grid(
        cells: &[(String, ExperimentConfig)],
        rcfg: &RunnerConfig,
    ) -> Result<RunnerReport<ExperimentOutcome>, String> {
        run_grid(cells, rcfg, &ChaosOptions::default(), UnitSinks::default())
    }

    #[test]
    fn grid_cells_run_under_the_seed_they_arrive_with() {
        let digest = |o: &ExperimentOutcome| serde_json::to_string(&o.report).unwrap();
        let serial = RunnerConfig::serial();
        let same = grid(&seeded_cells([("g/a", 5), ("g/b", 5)]), &serial).unwrap();
        let [a, b] = &same.ok_payloads().collect::<Vec<_>>()[..] else { panic!("two cells") };
        assert_eq!(digest(a), digest(b), "the key must not reach the simulation");
        assert_eq!(digest(a), digest(&run_experiment(small(Design::Secded, 0.02, 4).with_seed(5))));
        let other = grid(&seeded_cells([("g/a", 5), ("g/b", 6)]), &serial).unwrap();
        let [a, b] = &other.ok_payloads().collect::<Vec<_>>()[..] else { panic!("two cells") };
        assert_ne!(digest(a), digest(b), "a cell's own seed must reach the simulation");
    }

    #[test]
    fn grid_rejects_duplicate_keys() {
        let err = grid(&seeded_cells([("g/a", 5), ("g/a", 6)]), &RunnerConfig::serial());
        assert!(err.unwrap_err().contains("duplicate run key: g/a"));
    }

    #[test]
    fn grid_serial_parallel_and_resumed_reports_are_equal() {
        let cells = crate::load_sweep_cells(Design::Eb, &[0.01, 0.02, 0.03], 4, 11, None);
        let json = |r: &RunnerReport<ExperimentOutcome>| serde_json::to_string(r).unwrap();
        let serial = grid(&cells, &RunnerConfig::serial()).unwrap();
        assert!(serial.is_clean());
        let parallel = grid(&cells, &RunnerConfig::serial().with_jobs(2)).unwrap();
        assert_eq!(json(&serial), json(&parallel));

        let dir = std::env::temp_dir().join(format!("intellinoc-grid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("grid.jsonl");
        let journaled = RunnerConfig { journal: Some(journal.clone()), ..RunnerConfig::serial() };
        let capped = grid(&cells, &RunnerConfig { max_units: Some(1), ..journaled.clone() });
        assert_eq!(capped.unwrap().counts().skipped, 2);
        let resume = RunnerConfig { resume: true, ..journaled.clone() };
        let resumed = grid(&cells, &resume).unwrap();
        assert_eq!(json(&serial), json(&resumed));
        assert_eq!(resumed.records.iter().filter(|r| r.from_journal).count(), 1);

        // The header pins the cells' seeds: another master seed is refused.
        let reseeded = crate::load_sweep_cells(Design::Eb, &[0.01, 0.02, 0.03], 4, 12, None);
        assert!(grid(&reseeded, &resume).unwrap_err().contains("different grid"));

        // A journal of the per-kind-row era (format version 1) is refused by
        // its header, before any of its records is parsed.
        let v2 = std::fs::read_to_string(&journal).unwrap();
        assert!(v2.contains("\"version\":2,"), "{v2}");
        std::fs::write(&journal, v2.replacen("\"version\":2,", "\"version\":1,", 1)).unwrap();
        let err = grid(&cells, &resume).unwrap_err();
        assert!(err.contains("format version 1") && err.contains("version 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_design_completes_a_closed_loop_workload() {
        for design in Design::ALL {
            let spec = WorkloadSpec::reqreply(0.03, 4, noc_traffic::ReqReplySpec::default());
            let cfg = ExperimentConfig::new(design, spec).with_seed(11);
            let out = run_experiment(cfg);
            let txn = out.report.txn.as_ref().expect("closed-loop summary");
            assert_eq!(txn.issued, 64 * 4, "{design}");
            assert_eq!(txn.completed + txn.failed + txn.shed, txn.issued, "{design}");
            assert_eq!(txn.violations, 0, "{design} broke conservation");
            assert!(txn.orphans.is_empty(), "{design}");
        }
    }

    /// The conservation books are the report's `txn`: a closed-loop run with
    /// no telemetry asked for evaluates no alert rule. With no hub either,
    /// nothing reads a registry, so none is built.
    #[test]
    fn a_closed_loop_run_with_default_telemetry_builds_no_registry() {
        let spec = WorkloadSpec::reqreply(0.03, 2, noc_traffic::ReqReplySpec::default());
        let cfg = ExperimentConfig::new(Design::Secded, spec).with_seed(7);
        let (out, _, art) = run_experiment_instrumented(cfg);
        assert!(out.report.txn.is_some());
        assert!(art.alerts.is_empty());
    }

    #[test]
    fn chaos_orphan_breaks_the_books_and_is_named() {
        let rr = noc_traffic::ReqReplySpec {
            chaos_orphan: Some(3),
            ..noc_traffic::ReqReplySpec::default()
        };
        let cfg =
            ExperimentConfig::new(Design::Secded, WorkloadSpec::reqreply(0.03, 2, rr)).with_seed(7);
        let txn = run_experiment(cfg).report.txn.expect("closed-loop summary");
        assert_eq!(txn.violations, 1);
        assert_eq!(txn.orphans, vec![3], "the orphaned transaction is named");
    }
}
