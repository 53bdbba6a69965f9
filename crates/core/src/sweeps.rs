//! Reusable parameter sweeps behind the sensitivity figures (Figs. 17–18)
//! and the scaling study. Each sweep returns plain data so callers (figure
//! binaries, tests, the CLI) can print or assert on it. [`run_load_sweep`]
//! is the one runner-engine entry point; open- or closed-loop traffic and
//! the fleet sinks ([`UnitSinks`]) are its arguments.

use crate::controller::{intellinoc_rl_config, RewardKind};
use crate::designs::Design;
use crate::experiment::{pretrain_intellinoc, run_experiment, ExperimentConfig, UnitSinks};
use crate::runner::{
    classify_timeout, run_units, ChaosOptions, RunnerConfig, RunnerReport, UnitCtx, UnitVerdict,
};
use noc_rl::QLearningConfig;
use noc_traffic::{ParsecBenchmark, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// One point of a sensitivity sweep: IntelliNoC relative to the baseline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub x: f64,
    /// Execution-time ratio (IntelliNoC / baseline; lower is better).
    pub exec_ratio: f64,
    /// Latency ratio (lower is better).
    pub latency_ratio: f64,
    /// Total-energy ratio (lower is better).
    pub energy_ratio: f64,
    /// IntelliNoC's absolute re-transmitted flits at this point.
    pub retx_flits: u64,
}

fn point(
    x: f64,
    bench: ParsecBenchmark,
    ppn: u64,
    seed: u64,
    mut configure: impl FnMut(&mut ExperimentConfig),
) -> SweepPoint {
    let mut base_cfg = ExperimentConfig::new(Design::Secded, bench.workload(ppn)).with_seed(seed);
    configure(&mut base_cfg);
    let base = run_experiment(base_cfg);
    let mut cfg = ExperimentConfig::new(Design::IntelliNoc, bench.workload(ppn)).with_seed(seed);
    configure(&mut cfg);
    let o = run_experiment(cfg);
    SweepPoint {
        x,
        exec_ratio: o.report.exec_cycles as f64 / base.report.exec_cycles as f64,
        latency_ratio: o.report.avg_latency() / base.report.avg_latency().max(1e-9),
        energy_ratio: o.report.power.total_energy_pj() / base.report.power.total_energy_pj(),
        retx_flits: o.report.stats.retransmitted_flits,
    }
}

/// Fig. 17a: sweep the RL control time step (cycles).
pub fn time_step_sweep(
    steps: &[u64],
    bench: ParsecBenchmark,
    ppn: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    steps
        .iter()
        .map(|&step| {
            point(step as f64, bench, ppn, seed, |cfg| {
                cfg.time_step = step;
            })
        })
        .collect()
}

/// Fig. 17b: sweep a forced per-bit transient-error rate.
pub fn error_rate_sweep(
    rates: &[f64],
    bench: ParsecBenchmark,
    ppn: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    rates
        .iter()
        .map(|&rate| {
            point(rate, bench, ppn, seed, |cfg| {
                cfg.error_rate_override = Some(rate);
            })
        })
        .collect()
}

/// One point of an RL hyperparameter sweep (Fig. 18): EDP and
/// re-transmission rate vs baseline on blackscholes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HyperPoint {
    /// The swept hyperparameter value.
    pub x: f64,
    /// Energy–delay product ratio vs baseline (lower is better).
    pub edp_ratio: f64,
    /// Re-transmitted flits relative to baseline (floor 1).
    pub retx_ratio: f64,
}

fn hyper_point(x: f64, rl: QLearningConfig, ppn: u64, seed: u64, episodes: u32) -> HyperPoint {
    let bench = ParsecBenchmark::Blackscholes;
    let baseline =
        run_experiment(ExperimentConfig::new(Design::Secded, bench.workload(ppn)).with_seed(seed));
    let tables = pretrain_intellinoc(rl, RewardKind::LogSpace, ppn, 1_000, seed, episodes);
    let mut cfg = ExperimentConfig::new(Design::IntelliNoc, bench.workload(ppn)).with_seed(seed);
    cfg.rl = rl;
    cfg.pretrained = Some(tables);
    let o = run_experiment(cfg);
    HyperPoint {
        x,
        edp_ratio: o.report.edp() / baseline.report.edp(),
        retx_ratio: o.report.stats.retransmitted_flits as f64
            / baseline.report.stats.retransmitted_flits.max(1) as f64,
    }
}

/// Fig. 18a: sweep the discount rate γ.
pub fn gamma_sweep(gammas: &[f32], ppn: u64, seed: u64, episodes: u32) -> Vec<HyperPoint> {
    gammas
        .iter()
        .map(|&gamma| {
            hyper_point(
                gamma as f64,
                QLearningConfig { gamma, ..intellinoc_rl_config() },
                ppn,
                seed,
                episodes,
            )
        })
        .collect()
}

/// Fig. 18b: sweep the exploration probability ε.
pub fn epsilon_sweep(epsilons: &[f64], ppn: u64, seed: u64, episodes: u32) -> Vec<HyperPoint> {
    epsilons
        .iter()
        .map(|&epsilon| {
            hyper_point(
                epsilon,
                QLearningConfig { epsilon, ..intellinoc_rl_config() },
                ppn,
                seed,
                episodes,
            )
        })
        .collect()
}

/// One point of a latency-vs-load sweep (the `intellinoc sweep` CLI), as
/// produced per unit by the `noc-runner` execution engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Injection rate (packets/node/cycle).
    pub rate: f64,
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Mean end-to-end latency (cycles).
    pub avg_latency: f64,
    /// 99th-percentile latency (cycles).
    pub p99_latency: f64,
    /// delivered / injected.
    pub delivery_rate: f64,
    /// Total average power (mW).
    pub power_mw: f64,
}

/// The sweep's canonical run keys: `sweep/<design>/r<rate>` per point.
pub fn load_sweep_keys(design: Design, rates: &[f64]) -> Vec<String> {
    rates.iter().map(|r| format!("sweep/{}/r{r}", design.label())).collect()
}

/// Runs a latency-vs-load sweep through the `noc-runner` engine: one
/// experiment unit per injection rate (closed-loop when `reqreply` is
/// given), each seeded from `(master_seed, run key)`, executed per `rcfg`
/// (workers, deadline, retry, journal/resume) with `chaos` failure
/// injection for robustness testing; every point feeds `sinks`, which never
/// move the report.
///
/// # Errors
///
/// Propagates engine-level errors (duplicate rates produce duplicate keys;
/// journal mismatch or I/O); unit-level failures are contained per point.
#[allow(clippy::too_many_arguments)]
pub fn run_load_sweep(
    design: Design,
    rates: &[f64],
    ppn: u64,
    master_seed: u64,
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
    reqreply: Option<&noc_traffic::ReqReplySpec>,
    sinks: UnitSinks<'_>,
) -> Result<RunnerReport<LoadPoint>, String> {
    let keys = load_sweep_keys(design, rates);
    run_units(master_seed, &keys, rcfg, chaos, |ctx: &UnitCtx| {
        let idx = keys.iter().position(|k| k == ctx.key).expect("key from supplied list");
        let rate = rates[idx];
        let workload = match reqreply {
            Some(rr) => WorkloadSpec::reqreply(rate, ppn, rr.clone()),
            None => WorkloadSpec::uniform(rate, ppn),
        };
        let mut cfg = ExperimentConfig::new(design, workload)
            .with_seed(ctx.seed)
            .with_deadline(ctx.deadline_cycles);
        cfg.telemetry.blackbox = ctx.recorder.clone();
        let budget = cfg.max_cycles;
        let o = sinks.run(cfg, ctx.key);
        let r = &o.report;
        let point = LoadPoint {
            rate,
            exec_cycles: r.exec_cycles,
            avg_latency: r.avg_latency(),
            p99_latency: r.stats.latency_percentile(0.99),
            delivery_rate: r.stats.delivery_ratio(),
            power_mw: r.power.total_mw(),
        };
        match classify_timeout(r, budget) {
            Some(report) => UnitVerdict::TimedOut { partial: Some(point), report },
            None => UnitVerdict::Ok(point),
        }
    })
}

/// One point of the mesh-scaling study (not a paper figure; 8×8 is the
/// paper's only configuration, but a framework a downstream user adopts
/// must work beyond it).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Mesh side length.
    pub side: usize,
    /// Average latency (cycles) of the design at this size.
    pub latency: f64,
    /// Total power (mW).
    pub power_mw: f64,
    /// Packets delivered.
    pub delivered: u64,
}

/// Runs one design at several square mesh sizes under uniform traffic.
pub fn mesh_scaling(design: Design, sides: &[usize], rate: f64, ppn: u64) -> Vec<ScalePoint> {
    sides
        .iter()
        .map(|&side| {
            let mut sim_cfg = design.sim_config();
            sim_cfg.width = side;
            sim_cfg.height = side;
            sim_cfg.seed = 13;
            // Drive the simulator directly so we control the mesh size.
            let mut net = noc_sim::Network::new(sim_cfg, WorkloadSpec::uniform(rate, ppn), 13);
            let report = net.run_to_completion(crate::experiment::DEFAULT_TIME_STEP, |_, _| None);
            ScalePoint {
                side,
                latency: report.avg_latency(),
                power_mw: report.power.total_mw(),
                delivered: report.stats.packets_delivered,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_sweep_is_monotone_in_fault_activity() {
        let pts = error_rate_sweep(&[1e-8, 1e-4], ParsecBenchmark::Swaptions, 20, 4);
        assert_eq!(pts.len(), 2);
        assert!(pts[1].retx_flits >= pts[0].retx_flits);
        for p in &pts {
            assert!(p.exec_ratio.is_finite() && p.exec_ratio > 0.0);
            assert!(p.energy_ratio.is_finite() && p.energy_ratio > 0.0);
        }
    }

    #[test]
    fn mesh_scaling_covers_sizes_and_conserves_packets() {
        let pts = mesh_scaling(Design::Secded, &[4, 8], 0.02, 10);
        assert_eq!(pts[0].side, 4);
        assert_eq!(pts[0].delivered, 16 * 10);
        assert_eq!(pts[1].delivered, 64 * 10);
        // Bigger mesh, longer average paths.
        assert!(pts[1].latency > pts[0].latency);
    }

    #[test]
    fn time_step_sweep_produces_points() {
        let pts = time_step_sweep(&[500, 2_000], ParsecBenchmark::Swaptions, 15, 5);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].x, 500.0);
        assert!(pts.iter().all(|p| p.latency_ratio > 0.0));
    }

    #[test]
    fn load_sweep_is_parallel_serial_identical() {
        let rates = [0.01, 0.02];
        let serial = run_load_sweep(
            Design::Secded,
            &rates,
            4,
            7,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            None,
            UnitSinks::default(),
        )
        .unwrap();
        let parallel = run_load_sweep(
            Design::Secded,
            &rates,
            4,
            7,
            &RunnerConfig::serial().with_jobs(2),
            &ChaosOptions::default(),
            None,
            UnitSinks::default(),
        )
        .unwrap();
        assert!(serial.is_clean());
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        let points: Vec<&LoadPoint> = serial.ok_payloads().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].rate, 0.01);
        assert!(points.iter().all(|p| p.delivery_rate > 0.999 && p.power_mw > 0.0));
    }

    #[test]
    fn duplicate_sweep_rates_are_rejected() {
        let err = run_load_sweep(
            Design::Secded,
            &[0.01, 0.01],
            3,
            1,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            None,
            UnitSinks::default(),
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
