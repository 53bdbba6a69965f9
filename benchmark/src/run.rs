//! One workload, one process: set-up, the timed pass, the traced pass, the
//! correctness gate and the metrics.
//!
//! Simulated traffic is generated inside the simulator from the seed, so on
//! the host side a workload is a batch job: its units run one after another
//! on one thread, with no host-side arrival schedule. Networks start empty
//! and cold, and simulated statistics count from cycle 0.

use crate::alloc;
use crate::calib::{normalise, Calib};
use crate::json::{obj, string};
use crate::schema::{END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::workloads::{pretrain, Unit, Workload};
use intellinoc::{
    compare, geomean, run_experiment, run_experiment_instrumented, run_units, ChaosOptions, Design,
    ExperimentOutcome, NormalizedMetrics, RunStatus, RunnerConfig, UnitCtx, UnitVerdict,
};
use noc_sim::{SpanTree, FLITS_PER_PACKET};
use serde::Content;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up is run this many times and the median reported.
pub const SETUP_REPEATS: usize = 3;
/// The timed pass runs at least this many repeats, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 3;

/// What `run --workload` was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generator.
    pub seed: u64,
    /// How long the measured passes run, seconds.
    pub seconds: f64,
    /// Traced pass and per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Where the journal, the detail file and the span log go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: a median over repeats for host measurements, exact for
    /// simulated ones.
    pub value: f64,
    /// How the repeats behind `value` spread: the recorded noise floor.
    pub floor: Floor,
}

/// Lowest, first-quartile, third-quartile and highest repeat of a metric.
/// All four equal the value for simulated metrics, which repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    /// Lowest repeat.
    pub min: f64,
    /// First quartile of the repeats.
    pub q1: f64,
    /// Third quartile of the repeats.
    pub q3: f64,
    /// Highest repeat.
    pub max: f64,
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Every gate held.
    pub correct: bool,
    /// Units run in the measured passes.
    pub attempted: u64,
    /// Units that panicked, stalled, hit `max_cycles` or broke conservation.
    pub failed: u64,
    /// What the gate found, one line per breach, each naming its unit key.
    pub breaches: Vec<String>,
    /// FNV-1a over the canonical JSON of every unit's `RunReport`.
    pub sim_digest: String,
    /// End-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
    pub metrics: Vec<Metric>,
    /// Timed repeats run.
    pub repeats: usize,
    /// The span with the most self time in the traced pass.
    pub top_self_span: Option<String>,
    /// Informational host numbers that are not contract metrics: the raw
    /// (un-normalised) speed and the calibration kernel's median time.
    pub info: Vec<(&'static str, f64)>,
}

/// One execution of one unit.
struct UnitRun {
    start_ns: u64,
    end_ns: u64,
    outcome: Result<ExperimentOutcome, String>,
    tree: Option<SpanTree>,
}

impl UnitRun {
    fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One run of the calibration kernel, on the span log's clock.
struct Mark {
    start_ns: u64,
    end_ns: u64,
    secs: f64,
}

/// Runs the calibration kernel before every `every`-th unit of a pass and
/// once after it, so the pass falls into segments each bracketed by two
/// runs of the kernel. Slow phases of the box last a few seconds; a
/// segment is a fraction of one.
struct Pacer<'a> {
    calib: &'a mut Calib,
    every: usize,
    marks: Vec<Mark>,
}

impl Pacer<'_> {
    fn mark(&mut self, log: &SpanLog) {
        let start_ns = log.now_ns();
        let secs = self.calib.run();
        self.marks.push(Mark { start_ns, end_ns: log.now_ns(), secs });
    }

    fn before_unit(&mut self, i: usize, log: &SpanLog) {
        if i.is_multiple_of(self.every) {
            self.mark(log);
        }
    }
}

/// A stretch of a pass between two runs of the calibration kernel.
struct Segment {
    /// Raw wall time, runner and journal included, the kernel's own excluded.
    wall_s: f64,
    /// The same, normalised by the two runs of the kernel around it.
    norm_s: f64,
    /// Mean of those two runs: how quiet the box was around the segment.
    calib_s: f64,
}

/// One measured pass over the unit list.
struct Repeat {
    runs: Vec<UnitRun>,
    /// The segments of the pass, in order.
    segments: Vec<Segment>,
    /// Mean time of the kernel over the pass.
    calib_s: f64,
    /// Allocations and bytes counted during the pass, if it counted.
    allocs: (u64, u64),
}

impl Repeat {
    fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    fn wall_norm_s(&self) -> f64 {
        self.segments.iter().map(|s| s.norm_s).sum()
    }
}

fn run_unit(unit: &Unit, observed: bool, traced: bool, log_origin: &SpanLog) -> UnitRun {
    let mut cfg = unit.config(observed);
    cfg.telemetry.profile |= traced;
    let instrumented = cfg.telemetry.any();
    let start_ns = log_origin.now_ns();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if instrumented {
            let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
            (outcome, artifacts.profiler.map(|p| p.span_tree().clone()))
        } else {
            (run_experiment(cfg), None)
        }
    }));
    let end_ns = log_origin.now_ns();
    match result {
        Ok((outcome, tree)) => UnitRun { start_ns, end_ns, outcome: Ok(outcome), tree },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "panic".to_owned());
            UnitRun { start_ns, end_ns, outcome: Err(format!("panicked: {msg}")), tree: None }
        }
    }
}

/// Runs the unit list once, each unit under `catch_unwind`. `runner` routes
/// the units through `intellinoc::run_units` (`jobs = 1`), with the journal
/// on when it holds a path. `pacer` runs the calibration kernel between
/// segments.
fn run_pass(
    w: &Workload,
    seed: u64,
    units: &[Unit],
    traced: bool,
    log: &mut SpanLog,
    runner: Option<Option<&Path>>,
    pacer: Option<&mut Pacer>,
) -> Result<Vec<UnitRun>, String> {
    // The runner's executor is `Fn + Sync`, so what a unit changes sits
    // behind a lock; nothing can panic while it is held.
    let state = Mutex::new((pacer, Vec::with_capacity(units.len())));
    let log_ref = &*log;
    let step = |i: usize| -> Result<ExperimentOutcome, String> {
        if let Some(pacer) = state.lock().expect("not poisoned").0.as_mut() {
            pacer.before_unit(i, log_ref);
        }
        let mut run = run_unit(&units[i], w.observed, traced, log_ref);
        let outcome = std::mem::replace(&mut run.outcome, Err(String::new()));
        state.lock().expect("not poisoned").1.push(run);
        outcome
    };
    let outcomes: Vec<Result<ExperimentOutcome, String>> = match runner {
        None => (0..units.len()).map(step).collect(),
        Some(journal) => {
            let keys: Vec<String> = units.iter().map(|u| u.key.clone()).collect();
            let index: BTreeMap<&str, usize> =
                units.iter().enumerate().map(|(i, u)| (u.key.as_str(), i)).collect();
            let rcfg =
                RunnerConfig { journal: journal.map(Path::to_path_buf), ..RunnerConfig::serial() };
            // The payload travels through the runner (and its journal).
            let exec = |ctx: &UnitCtx| match step(index[ctx.key]) {
                Ok(outcome) => UnitVerdict::Ok(outcome),
                Err(e) => UnitVerdict::Fatal(e),
            };
            run_units::<ExperimentOutcome, _>(seed, &keys, &rcfg, &ChaosOptions::default(), exec)?
                .records
                .into_iter()
                .map(|record| match (record.status, record.payload) {
                    (RunStatus::Ok, Some(outcome)) => Ok(outcome),
                    (status, _) => Err(format!(
                        "{}: {}",
                        status.label(),
                        record.error.unwrap_or_else(|| "no payload".to_owned())
                    )),
                })
                .collect()
        }
    };
    let (pacer, mut runs) = state.into_inner().expect("not poisoned");
    if let Some(pacer) = pacer {
        pacer.mark(log);
    }
    if runs.len() != units.len() {
        return Err(format!("{}: {} of {} units ran", w.name, runs.len(), units.len()));
    }
    let (name, parent) =
        (if traced { "run_experiment_instrumented" } else { "run_experiment" }, log.current());
    for ((unit, run), outcome) in units.iter().zip(&mut runs).zip(outcomes) {
        run.outcome = outcome;
        log.record(name, &unit.key, parent, run.start_ns, run.end_ns);
    }
    Ok(runs)
}

/// One measured pass, cut into segments by the calibration kernel.
/// `count_allocs` switches the counting allocator on for the pass.
#[allow(clippy::too_many_arguments)] // two call sites; a struct would only rename the arguments
fn measured_pass(
    w: &Workload,
    seed: u64,
    units: &[Unit],
    traced: bool,
    count_allocs: bool,
    journal: &Path,
    log: &mut SpanLog,
    calib: &mut Calib,
) -> Result<Repeat, String> {
    let repeat = log.enter(if traced { "traced_repeat" } else { "timed_repeat" }, "");
    let mut pacer = Pacer { calib, every: w.pace, marks: Vec::new() };
    let before = alloc::counted();
    alloc::set_counting(count_allocs);
    let runs = run_pass(
        w,
        seed,
        units,
        traced,
        log,
        w.via_runner.then_some(Some(journal)),
        Some(&mut pacer),
    );
    alloc::set_counting(false);
    let after = alloc::counted();
    log.exit();
    let marks = pacer.marks;
    for m in &marks {
        log.record("calib", "", Some(repeat), m.start_ns, m.end_ns);
    }
    let segments = marks
        .windows(2)
        .map(|pair| {
            let wall_s = (pair[1].start_ns - pair[0].end_ns) as f64 / 1e9;
            Segment {
                wall_s,
                norm_s: normalise(wall_s, pair[0].secs, pair[1].secs),
                calib_s: (pair[0].secs + pair[1].secs) / 2.0,
            }
        })
        .collect();
    Ok(Repeat {
        runs: runs?,
        segments,
        calib_s: marks.iter().map(|m| m.secs).sum::<f64>() / marks.len() as f64,
        allocs: (after.0 - before.0, after.1 - before.1),
    })
}

/// Of the repeats of a segment, this many with the quietest box around them
/// are used.
const QUIET_REPEATS: usize = 3;

/// The normalised time of one pass, steadied over repeats: for each
/// segment, the median over the repeats during which the box was quietest
/// (the kernel ran fastest), summed over the segments. Contention only ever
/// slows the box down, and the kernel tracks the simulator best when both
/// run near full speed; on recorded series this spread by 2.5 % where the
/// median over all repeats spread by 4.2 %, and by 0.8 % with ten repeats.
fn steady_norm_s(repeats: &[Repeat]) -> f64 {
    (0..repeats[0].segments.len())
        .map(|j| {
            let mut of_segment: Vec<&Segment> = repeats.iter().map(|r| &r.segments[j]).collect();
            of_segment.sort_by(|a, b| a.calib_s.total_cmp(&b.calib_s));
            of_segment.truncate(QUIET_REPEATS);
            median(&of_segment.iter().map(|s| s.norm_s).collect::<Vec<_>>())
        })
        .sum()
}

/// The `q`-quantile of `values`, by linear interpolation between the two
/// nearest ranks. `values` holds at least one number.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn floor_of(values: &[f64]) -> Floor {
    Floor {
        min: quantile(values, 0.0),
        q1: quantile(values, 0.25),
        q3: quantile(values, 0.75),
        max: quantile(values, 1.0),
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Offset basis of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a pass: FNV-1a over the canonical JSON of every unit's
/// `RunReport`, in unit order. A failed unit contributes its error text.
fn digest(runs: &[UnitRun]) -> String {
    let mut hash = FNV_OFFSET;
    for run in runs {
        let text = match &run.outcome {
            Ok(o) => serde_json::to_string(&o.report).expect("serialising a report cannot fail"),
            Err(e) => e.clone(),
        };
        hash = fnv1a(text.as_bytes(), hash);
        hash = fnv1a(b"\n", hash);
    }
    format!("{hash:016x}")
}

/// Nodes of the mesh a unit simulates.
fn nodes(unit: &Unit) -> u64 {
    let mut sim = unit.cfg.design.sim_config();
    if let Some(tweak) = unit.cfg.tweak {
        tweak(&mut sim);
    }
    sim.nodes() as u64
}

/// The gate on one unit's outcome. Returns what it breaches.
fn check_unit(unit: &Unit, run: &UnitRun) -> Vec<String> {
    let key = &unit.key;
    let report = match &run.outcome {
        Ok(o) => &o.report,
        Err(e) => return vec![format!("{key}: {e}")],
    };
    let mut out = Vec::new();
    if let Some(stall) = &report.stall {
        out.push(format!(
            "{key}: stalled at cycle {} with {} in flight",
            stall.cycle, stall.in_flight
        ));
    }
    if report.stats.cycles >= unit.cfg.max_cycles {
        out.push(format!("{key}: hit max_cycles ({})", unit.cfg.max_cycles));
    }
    let s = &report.stats;
    match &report.txn {
        None => {
            if s.packets_injected != s.packets_delivered + s.packets_dropped {
                out.push(format!(
                    "{key}: injected {} != delivered {} + dropped {}",
                    s.packets_injected, s.packets_delivered, s.packets_dropped
                ));
            }
        }
        Some(t) => {
            if t.violations != 0 || !t.orphans.is_empty() {
                out.push(format!(
                    "{key}: {} conservation violations, orphans {:?}",
                    t.violations, t.orphans
                ));
            }
            if t.issued != t.completed + t.failed + t.shed + t.in_flight || t.in_flight != 0 {
                out.push(format!(
                    "{key}: issued {} != completed {} + failed {} + shed {} (in flight {})",
                    t.issued, t.completed, t.failed, t.shed, t.in_flight
                ));
            }
        }
    }
    out
}

/// Simulated-domain sums over one pass.
struct SimTotals {
    cycles: u64,
    router_cycles: u64,
    offered: u64,
    delivered: u64,
    faulty_traversals: u64,
}

fn sim_totals(w: &Workload, units: &[Unit], runs: &[UnitRun]) -> SimTotals {
    let mut t =
        SimTotals { cycles: 0, router_cycles: 0, offered: 0, delivered: 0, faulty_traversals: 0 };
    for (unit, run) in units.iter().zip(runs) {
        let n = nodes(unit);
        // Operations are packets offered (open loop) or transactions
        // offered (closed loop); a failed unit delivers none of its own.
        t.offered += unit.cfg.workload.packets_per_node * n;
        let Ok(o) = &run.outcome else { continue };
        t.cycles += o.report.stats.cycles;
        t.router_cycles += o.report.stats.cycles * n;
        t.faulty_traversals += o.report.faulty_flit_traversals;
        t.delivered += match (&o.report.txn, w.closed_loop) {
            (Some(txn), true) => txn.completed,
            _ => o.report.stats.packets_delivered,
        };
    }
    t
}

/// The cycle-domain result metrics, from one pass's outcomes.
fn sim_metrics(runs: &[UnitRun]) -> BTreeMap<&'static str, f64> {
    let outcomes: Vec<&ExperimentOutcome> =
        runs.iter().filter_map(|r| r.outcome.as_ref().ok()).collect();
    let latency_sum: u64 = outcomes.iter().map(|o| o.report.stats.latency_sum).sum();
    let delivered: u64 = outcomes.iter().map(|o| o.report.stats.packets_delivered).sum();
    let energy: f64 = outcomes.iter().map(|o| o.report.power.total_energy_pj()).sum();
    let mttf_logs: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.report.mttf_hours)
        .filter(|&h| h > 0.0)
        .map(f64::ln)
        .collect();

    // The paper's convention (and `intellinoc::compare`'s): each design
    // normalised to SECDED on the same traffic, geometric mean over traffic.
    let rows: Vec<_> = runs
        .chunks(Design::ALL.len())
        .filter_map(|chunk| {
            let row: Vec<ExperimentOutcome> =
                chunk.iter().filter_map(|r| r.outcome.as_ref().ok().cloned()).collect();
            (row.len() == Design::ALL.len()).then(|| compare(&row))
        })
        .collect();
    let rel = |f: fn(&NormalizedMetrics) -> f64| geomean(&rows, Design::IntelliNoc, f);

    BTreeMap::from([
        ("sim_latency_cycles", latency_sum as f64 / delivered as f64),
        ("sim_energy_pj_per_flit", energy / (delivered * u64::from(FLITS_PER_PACKET)) as f64),
        ("fault.mttf_hours", (mttf_logs.iter().sum::<f64>() / mttf_logs.len() as f64).exp()),
        ("intellinoc_rel_latency", rel(|m| m.latency)),
        ("intellinoc_rel_energy_eff", rel(|m| m.energy_efficiency)),
        ("fault.intellinoc_rel_mttf", rel(|m| m.mttf)),
    ])
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Per-name sums over a span tree: a span name can sit under several
/// parents (`eject` under three), and the layer is the name.
#[derive(Debug, Default, Clone, Copy)]
struct LayerSums {
    calls: u64,
    flits: u64,
    allocs: u64,
    self_ns: u128,
}

fn layer_sums(tree: &SpanTree) -> BTreeMap<&'static str, LayerSums> {
    let mut out: BTreeMap<&'static str, LayerSums> = BTreeMap::new();
    for (path, stats) in tree.iter() {
        let sums = out.entry(path[path.len() - 1]).or_default();
        sums.calls += stats.calls;
        sums.flits += stats.flits;
        sums.allocs += stats.allocs;
        sums.self_ns += tree.self_nanos(path);
    }
    out
}

fn merged_tree(runs: &[UnitRun]) -> SpanTree {
    let mut tree = SpanTree::default();
    for t in runs.iter().filter_map(|r| r.tree.as_ref()) {
        tree.merge(t);
    }
    tree
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one (timed repeat, traced repeat) pair, in
/// `PER_LAYER` order.
fn layer_metrics(
    w: &Workload,
    units: &[Unit],
    timed: &Repeat,
    traced: &Repeat,
    journal_us_per_unit: f64,
) -> Vec<f64> {
    let layers = layer_sums(&merged_tree(&traced.runs));
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let secs = |ns: u128| ns as f64 / 1e9;
    let totals = sim_totals(w, units, &timed.runs);
    let sim = sim_metrics(&timed.runs);
    let traced_unit_wall: f64 = traced.runs.iter().map(UnitRun::wall_s).sum();
    let timed_unit_wall: f64 = timed.runs.iter().map(UnitRun::wall_s).sum();
    let all_self: u128 = layers.values().map(|l| l.self_ns).sum();
    let kcycles = totals.cycles as f64 / 1e3;
    let design_wall = |d: Design| -> f64 {
        units
            .iter()
            .zip(&timed.runs)
            .filter(|(u, _)| u.cfg.design == d)
            .map(|(_, r)| r.wall_s())
            .sum()
    };
    let (vc_sa, link, route, inject) =
        (get("alloc.vc_sa"), get("link.traverse"), get("route.compute"), get("fault.inject"));
    let runner_overhead_us = if w.via_runner {
        (timed.wall_s() - timed_unit_wall) * 1e6 / units.len() as f64
    } else {
        0.0
    };

    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("sim.step_cycle.calls", get("step_cycle").calls as f64),
        ("sim.step_cycle.self_s", secs(get("step_cycle").self_ns)),
        ("sim.alloc_vc_sa.calls", vc_sa.calls as f64),
        ("sim.alloc_vc_sa.flits", vc_sa.flits as f64),
        ("sim.alloc_vc_sa.self_s", secs(vc_sa.self_ns)),
        ("sim.alloc_vc_sa.useful_ratio", ratio(vc_sa.flits as f64, vc_sa.calls as f64)),
        ("sim.router_bypass.calls", get("router.bypass").calls as f64),
        ("sim.router_bypass.self_s", secs(get("router.bypass").self_ns)),
        ("sim.power_gating.self_s", secs(get("power.gating").self_ns)),
        ("sim.workload_inject.self_s", secs(get("workload.inject").self_ns)),
        ("sim.fault_hard.self_s", secs(get("fault.hard").self_ns)),
        ("sim.epoch_update.self_s", secs(get("epoch.update").self_ns)),
        ("sim.link_traverse.flits", link.flits as f64),
        ("sim.link_traverse.allocs", link.allocs as f64),
        ("sim.link_traverse.self_s", secs(link.self_ns)),
        ("sim.route_compute.calls", route.calls as f64),
        ("sim.route_compute.self_s", secs(route.self_ns)),
        ("sim.route_compute.calls_per_flit_hop", ratio(route.calls as f64, link.flits as f64)),
        ("sim.fault_inject.calls", inject.calls as f64),
        ("sim.fault_inject.self_s", secs(inject.self_ns)),
        ("sim.fault_inject.hit_ratio", ratio(totals.faulty_traversals as f64, inject.calls as f64)),
        ("sim.eject.calls", get("eject").calls as f64),
        ("sim.eject.self_s", secs(get("eject").self_ns)),
        ("host.allocs_per_kcycle", ratio(timed.allocs.0 as f64, kcycles)),
        ("host.alloc_bytes_per_kcycle", ratio(timed.allocs.1 as f64, kcycles)),
        ("sim.ecc_encode.calls", get("ecc.encode").calls as f64),
        ("sim.ecc_decode.calls", get("ecc.decode").calls as f64),
        ("sim.ecc.self_s", secs(get("ecc.encode").self_ns + get("ecc.decode").self_ns)),
        ("fault.mttf_hours", sim["fault.mttf_hours"]),
        ("fault.intellinoc_rel_mttf", sim["fault.intellinoc_rel_mttf"]),
        ("core.rl_decide.calls", get("rl.decide").calls as f64),
        ("core.rl_decide.self_s", secs(get("rl.decide").self_ns)),
        ("core.designs.secded.wall_s", design_wall(Design::Secded)),
        ("core.designs.eb.wall_s", design_wall(Design::Eb)),
        ("core.designs.cp.wall_s", design_wall(Design::Cp)),
        ("core.designs.cpd.wall_s", design_wall(Design::Cpd)),
        ("core.designs.intellinoc.wall_s", design_wall(Design::IntelliNoc)),
        ("core.runner.overhead_us_per_unit", runner_overhead_us),
        ("core.runner.journal_us_per_unit", journal_us_per_unit),
        ("host.wall_s", timed.wall_s()),
        // The caller takes the lowest and the highest of these over the repeats.
        ("host.wall_min_s", timed.wall_s()),
        ("host.wall_max_s", timed.wall_s()),
        ("host.calib_s", timed.calib_s),
        ("host.ns_per_router_cycle", ratio(timed.wall_norm_s() * 1e9, totals.router_cycles as f64)),
        ("host.flit_hops_per_s", ratio(link.flits as f64, timed.wall_norm_s())),
        ("host.untraced_share", 1.0 - ratio(secs(all_self), traced_unit_wall)),
        ("trace.overhead_ratio", ratio(traced.wall_s(), timed.wall_s())),
    ]);
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            *values.get(name).unwrap_or_else(|| panic!("per-layer metric {name} has no formula"))
        })
        .collect()
}

/// What the journal costs per unit: the runner over the same keys with the
/// outcomes already computed, journal on minus journal off, best of five.
fn journal_cost_us(
    seed: u64,
    units: &[Unit],
    runs: &[UnitRun],
    journal: &Path,
) -> Result<f64, String> {
    let keys: Vec<String> = units.iter().map(|u| u.key.clone()).collect();
    let payloads: BTreeMap<&str, &ExperimentOutcome> = units
        .iter()
        .zip(runs)
        .filter_map(|(u, r)| r.outcome.as_ref().ok().map(|o| (u.key.as_str(), o)))
        .collect();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (slot, with_journal) in [false, true].into_iter().enumerate() {
            let rcfg = RunnerConfig {
                journal: with_journal.then(|| journal.to_path_buf()),
                ..RunnerConfig::serial()
            };
            let start = Instant::now();
            run_units::<ExperimentOutcome, _>(
                seed,
                &keys,
                &rcfg,
                &ChaosOptions::default(),
                |ctx| match payloads.get(ctx.key) {
                    Some(o) => UnitVerdict::Ok((*o).clone()),
                    None => UnitVerdict::Fatal("unit failed in the timed pass".to_owned()),
                },
            )?;
            best[slot] = best[slot].min(start.elapsed().as_secs_f64());
        }
    }
    Ok((best[1] - best[0]).max(0.0) * 1e6 / units.len() as f64)
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Host-level failures only (the output directory, the journal, `/proc`);
/// a unit that fails is a breach in the result, not an error.
pub fn run_workload(opts: &Options) -> Result<RunResult, String> {
    let w = &opts.workload;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let journal = opts.out_dir.join(format!("journal-{}.jsonl", w.name));
    let mut log = SpanLog::new();
    let mut calib = Calib::new();
    log.enter("workload", w.name);

    // Set-up: generate the inputs (and the fault scenario inside them),
    // pre-train where the workload says so, and run every unit for a fixed
    // number of cycles so lazy initialisation is out of the timed pass.
    let mut setup_norm = Vec::with_capacity(SETUP_REPEATS);
    let mut units = Vec::new();
    let mut calib_s = calib.run();
    for _ in 0..SETUP_REPEATS {
        log.enter("setup", "");
        log.enter("setup.inputs", "");
        units = w.units(opts.seed);
        let warmup = w.warmup_units(opts.seed);
        log.exit();
        if w.via_runner {
            log.enter("setup.pretrain", "");
            pretrain(&mut units, opts.seed);
            log.exit();
        }
        log.enter("setup.warmup", "");
        run_pass(w, opts.seed, &warmup, false, &mut log, None, None)?;
        log.exit();
        let wall = log.exit();
        let after = calib.run();
        setup_norm.push(normalise(wall, calib_s, after));
        calib_s = after;
    }

    // Measured passes: timed repeats (all telemetry off, except on the
    // observed workload) and, with --trace 1, a traced repeat after each.
    log.enter("measure", "");
    let started = Instant::now();
    let mut timed: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    loop {
        let round = Instant::now();
        // Allocations are counted in the telemetry-off repeat of a traced
        // run: the profiler allocates on every span it closes, so a count
        // taken under it would be the profiler's, and the end-to-end run
        // (--trace 0) never counts.
        timed.push(measured_pass(
            w, opts.seed, &units, false, opts.trace, &journal, &mut log, &mut calib,
        )?);
        if opts.trace {
            traced.push(measured_pass(
                w, opts.seed, &units, true, false, &journal, &mut log, &mut calib,
            )?);
        }
        let min_rounds = if opts.trace { 1 } else { MIN_REPEATS };
        // Stop at the round boundary nearest to `--seconds`.
        let next_end = started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() / 2.0;
        if timed.len() >= min_rounds && next_end >= opts.seconds {
            break;
        }
    }
    log.exit();
    let peak_rss = peak_rss_mb()?;

    // The gate: every unit of every pass, and one digest for all passes.
    let mut breaches = Vec::new();
    let sim_digest = digest(&timed[0].runs);
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for (kind, rep) in
        timed.iter().map(|r| ("timed", r)).chain(traced.iter().map(|r| ("traced", r)))
    {
        for (unit, run) in units.iter().zip(&rep.runs) {
            attempted += 1;
            let found = check_unit(unit, run);
            failed += u64::from(!found.is_empty());
            breaches.extend(found);
        }
        let d = digest(&rep.runs);
        if d != sim_digest {
            breaches.push(format!(
                "{}: sim_digest of a {kind} repeat is {d}, the first repeat's is {sim_digest}",
                w.name
            ));
        }
    }
    breaches.sort();
    breaches.dedup();

    let totals = sim_totals(w, &units, &timed[0].runs);
    let mut top_self_span = None;
    let metrics = if opts.trace {
        let journal_us = if w.via_runner {
            journal_cost_us(opts.seed, &units, &timed[0].runs, &journal)?
        } else {
            0.0
        };
        let per_pair: Vec<Vec<f64>> = timed
            .iter()
            .zip(&traced)
            .map(|(t, tr)| layer_metrics(w, &units, t, tr, journal_us))
            .collect();
        let tree = merged_tree(&traced[0].runs);
        top_self_span = tree.top_self(1).first().map(|(path, _, _)| path.clone());
        PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| {
                let column: Vec<f64> = per_pair.iter().map(|row| row[i]).collect();
                let floor = floor_of(&column);
                let value = match name {
                    "host.wall_min_s" => floor.min,
                    "host.wall_max_s" => floor.max,
                    _ => median(&column),
                };
                Metric { name, unit, value, floor }
            })
            .collect()
    } else {
        let sim = sim_metrics(&timed[0].runs);
        let speeds: Vec<f64> =
            timed.iter().map(|r| totals.cycles as f64 / r.wall_norm_s()).collect();
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let exact = |v: f64| (v, floor_of(&[v]));
                let (value, floor) = match name {
                    "setup_s" => (median(&setup_norm), floor_of(&setup_norm)),
                    "sim_cycles_per_s" => {
                        (totals.cycles as f64 / steady_norm_s(&timed), floor_of(&speeds))
                    }
                    "peak_rss_mb" => exact(peak_rss),
                    "delivered_share" => {
                        exact(ratio(totals.delivered as f64, totals.offered as f64))
                    }
                    name => exact(
                        *sim.get(name)
                            .unwrap_or_else(|| panic!("end-to-end metric {name} has no formula")),
                    ),
                };
                Metric { name, unit, value, floor }
            })
            .collect()
    };
    log.exit();

    if opts.trace {
        write_trace(
            &opts.out_dir.join(format!("trace-{}.json", w.name)),
            w,
            &units,
            &traced[0],
            &log,
        )?;
    }
    let _ = std::fs::remove_file(&journal);
    Ok(RunResult {
        workload: w.name,
        correct: breaches.is_empty(),
        attempted,
        failed,
        breaches,
        sim_digest,
        metrics,
        repeats: timed.len(),
        top_self_span,
        info: vec![
            ("sim_cycles", totals.cycles as f64),
            ("wall_norm_s", steady_norm_s(&timed)),
            (
                "raw_cycles_per_s",
                totals.cycles as f64
                    / median(&timed.iter().map(Repeat::wall_s).collect::<Vec<_>>()),
            ),
            ("calib_s", median(&timed.iter().map(|r| r.calib_s).collect::<Vec<_>>())),
        ],
    })
}

/// Writes the span log and, per traced unit, the program's own span tree
/// (counts, total and self time per path) under the unit's key.
fn write_trace(
    path: &Path,
    w: &Workload,
    units: &[Unit],
    traced: &Repeat,
    log: &SpanLog,
) -> Result<(), String> {
    let trees = units.iter().zip(&traced.runs).filter_map(|(unit, run)| {
        let tree = run.tree.as_ref()?;
        let nodes = tree
            .iter()
            .map(|(p, s)| {
                obj([
                    ("path", string(p.join(";"))),
                    ("calls", Content::U64(s.calls)),
                    ("flits", Content::U64(s.flits)),
                    ("allocs", Content::U64(s.allocs)),
                    ("total_ns", Content::U64(u64::try_from(s.nanos).unwrap_or(u64::MAX))),
                    (
                        "self_ns",
                        Content::U64(u64::try_from(tree.self_nanos(p)).unwrap_or(u64::MAX)),
                    ),
                ])
            })
            .collect();
        Some((unit.key.clone(), Content::Seq(nodes)))
    });
    let doc =
        obj([("workload", string(w.name)), ("spans", log.to_json()), ("unit_trees", obj(trees))]);
    crate::json::write_file(path, &doc)
}

impl RunResult {
    /// The last line of standard output the contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name, obj([("value", Content::F64(m.value)), ("unit", string(m.unit))])));
        let doc = obj([
            ("correct", Content::Bool(self.correct)),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failed)),
            ("metrics", obj(metrics)),
        ]);
        serde_json::to_string(&doc).expect("serialising a content tree cannot fail")
    }

    /// Everything measured, for the result files `compare` reads.
    pub fn detail(&self) -> Content {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                obj([
                    ("value", Content::F64(m.value)),
                    ("unit", string(m.unit)),
                    ("min", Content::F64(m.floor.min)),
                    ("q1", Content::F64(m.floor.q1)),
                    ("q3", Content::F64(m.floor.q3)),
                    ("max", Content::F64(m.floor.max)),
                ]),
            )
        });
        obj([
            ("workload", string(self.workload)),
            ("correct", Content::Bool(self.correct)),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failed)),
            ("breaches", Content::Seq(self.breaches.iter().map(|b| string(&**b)).collect())),
            ("sim_digest", string(&*self.sim_digest)),
            ("repeats", Content::U64(self.repeats as u64)),
            ("top_self_span", self.top_self_span.as_ref().map_or(Content::Null, |s| string(&**s))),
            ("info", obj(self.info.iter().map(|&(k, v)| (k, Content::F64(v))))),
            ("metrics", obj(metrics)),
        ])
    }

    /// Every metric by name and unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{}: {} repeats, {} units attempted, {} failed, sim_digest {}\n",
            self.workload, self.repeats, self.attempted, self.failed, self.sim_digest
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<40} {:>16.6} {:<10} (min {:.6}, max {:.6})\n",
                m.name, m.value, m.unit, m.floor.min, m.floor.max
            ));
        }
        for b in &self.breaches {
            out.push_str(&format!("  BREACH {b}\n"));
        }
        out
    }
}

/// Runs `units` once, untraced or traced, and returns the digest of the
/// pass: what the determinism gate compares.
///
/// # Errors
///
/// A host-level failure of the runner.
pub fn pass_digest(
    w: &Workload,
    seed: u64,
    units: &[Unit],
    traced: bool,
) -> Result<String, String> {
    let mut log = SpanLog::new();
    let runner = w.via_runner.then_some(None);
    Ok(digest(&run_pass(w, seed, units, traced, &mut log, runner, None)?))
}
