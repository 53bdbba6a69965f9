//! The studies behind [`crate::FIGURES`]: each declares the cells it reads
//! and writes its table(s) from their records, in the order it declared
//! them; none runs anything. Seeds are the ones each study pins. A run that
//! did not finish is an error naming its unit, or (`ablations`,
//! `resilience`) a status row — never numbers.

use crate::Pretraining;
use crate::{design_columns, ok_outcomes, unit_error, Campaign, CampaignResults, Cell, Record};
use intellinoc::RewardKind::{Linear, LogSpace};
use intellinoc::{
    campaign_scenarios, intellinoc_rl_config, CampaignConfig, CampaignRunReport, Design,
    ExperimentConfig, ExpertThresholds, NormalizedMetrics, RewardKind, RunnerReport,
};
use noc_ecc::EccScheme;
use noc_power::{AreaBreakdown, AreaModel};
use noc_rl::QLearningConfig;
use noc_sim::{RunReport, SimConfig};
use noc_traffic::{ParsecBenchmark, WorkloadSpec};
use std::io::{self, Write};

/// An [`ExperimentConfig::tweak`].
type Tweak = fn(&mut SimConfig);

/// Figs. 9–13 and 16: one normalized metric per (benchmark, design), then
/// the paper's numbers for comparison.
pub(crate) fn metric_figure(
    records: &[&Record],
    w: &mut dyn Write,
    title: &str,
    better: &str,
    metric: fn(&NormalizedMetrics) -> f64,
    paper: &str,
) -> io::Result<()> {
    paper_campaign(records)?.print_figure(w, title, better, metric)?;
    writeln!(w, "\n{paper}")
}

/// The paper campaign's results, from its cells' records.
fn paper_campaign(records: &[&Record]) -> io::Result<CampaignResults> {
    CampaignResults::new(&ParsecBenchmark::TEST_SET, records)
}

/// Fig. 14 — IntelliNoC operation-mode breakdown per benchmark (fraction of
/// router-steps spent in each of the five modes).
pub(crate) fn fig14(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let results = paper_campaign(records)?;
    writeln!(w, "\n=== Fig. 14: IntelliNoC operation-mode breakdown ===")?;
    writeln!(
        w,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "mode0", "mode1", "mode2", "mode3", "mode4"
    )?;
    let mut avg = [0.0f64; 5];
    let mut n = 0.0;
    for (bench, outcomes) in &results.raw {
        let Some(o) = outcomes.iter().find(|o| o.design == Design::IntelliNoc) else {
            continue;
        };
        let fr = o.mode_fractions();
        write!(w, "{:<10}", bench.label())?;
        for (a, f) in avg.iter_mut().zip(&fr) {
            write!(w, " {f:>8.3}")?;
            *a += f;
        }
        writeln!(w)?;
        n += 1.0;
    }
    write!(w, "{:<10}", "average")?;
    for a in avg {
        write!(w, " {:>8.3}", a / n)?;
    }
    writeln!(w)?;
    writeln!(w, "\npaper averages: mode0 ~0.20, mode1 ~0.55, modes 2-4 ~0.25 together")
}

/// Fig. 15 — re-transmitted flits, normalized, plus the absolute counts: at
/// this reproduction's calibrated error rates the baseline's absolute count
/// is small (see EXPERIMENTS.md).
pub(crate) fn fig15(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let results = paper_campaign(records)?;
    results.print_figure(
        w,
        "Fig. 15: re-transmitted flits vs SECDED baseline",
        "lower is better",
        |m| m.retransmissions,
    )?;
    writeln!(w, "\nabsolute re-transmitted flits:")?;
    design_columns(w, &format!("{:<10}", "workload"))?;
    for (bench, outcomes) in &results.raw {
        write!(w, "{:<10}", bench.label())?;
        for o in outcomes {
            write!(w, "{:>12}", o.report.stats.retransmitted_flits)?;
        }
        writeln!(w)?;
    }
    writeln!(w, "\npaper: baseline highest; IntelliNoC lowest at ~0.55x baseline")
}

/// Geometric means, over `(IntelliNoC, baseline)` report pairs, of the
/// execution-time, latency and total-energy ratios (Figs. 17a/17b).
fn ratio_geomeans(pairs: &[(&RunReport, &RunReport)]) -> [f64; 3] {
    let mut ln_sums = [0.0f64; 3];
    for (r, b) in pairs {
        ln_sums[0] += (r.exec_cycles as f64 / b.exec_cycles as f64).ln();
        ln_sums[1] += (r.avg_latency() / b.avg_latency()).ln();
        ln_sums[2] += (r.power.total_energy_pj() / b.power.total_energy_pj()).ln();
    }
    ln_sums.map(|s| (s / pairs.len() as f64).exp())
}

/// Fig. 17a's benchmarks and swept RL time steps.
const FIG17A_BENCHES: [ParsecBenchmark; 4] = [
    ParsecBenchmark::Canneal,
    ParsecBenchmark::Fluidanimate,
    ParsecBenchmark::Swaptions,
    ParsecBenchmark::X264,
];
const FIG17A_STEPS: [u64; 4] = [200, 500, 1_000, 10_000];

/// Fig. 17a's runs: SECDED on its benchmarks — the baseline does not depend
/// on the time step — then IntelliNoC at each swept step, pre-trained at it.
pub(crate) fn fig17a_cells(c: &Campaign) -> Vec<Cell> {
    let mut cells = c.cells(&[Design::Secded], &FIG17A_BENCHES);
    for time_step in FIG17A_STEPS {
        cells.extend(Campaign { time_step, ..*c }.cells(&[Design::IntelliNoc], &FIG17A_BENCHES));
    }
    cells
}

/// Fig. 17a — impact of the RL control time step on IntelliNoC's
/// system-level metrics, normalized to the SECDED baseline.
pub(crate) fn fig17a(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let outcomes = ok_outcomes(records)?;
    let (baselines, runs) = outcomes.split_at(FIG17A_BENCHES.len());
    writeln!(w, "=== Fig. 17a: impact of RL time step (IntelliNoC vs baseline) ===")?;
    writeln!(w, "{:>10} {:>12} {:>12} {:>12}", "time_step", "exec_time", "e2e_latency", "energy")?;
    for (time_step, runs) in FIG17A_STEPS.iter().zip(runs.chunks(FIG17A_BENCHES.len())) {
        let pairs: Vec<_> =
            runs.iter().zip(baselines).map(|(o, b)| (&o.report, &b.report)).collect();
        let [exec, lat, energy] = ratio_geomeans(&pairs);
        writeln!(w, "{time_step:>10} {exec:>12.3} {lat:>12.3} {energy:>12.3}")?;
    }
    writeln!(w, "\npaper: 0.2k and 10k cycle steps are sub-optimal; ~1k is best")
}

/// Fig. 17b's benchmarks and forced per-bit error rates.
const FIG17B_BENCHES: [ParsecBenchmark; 3] =
    [ParsecBenchmark::Canneal, ParsecBenchmark::Fluidanimate, ParsecBenchmark::Swaptions];
const FIG17B_RATES: [f64; 5] = [1e-10, 1e-8, 1e-6, 1e-5, 1e-4];

/// Fig. 17b's runs: at each forced rate, IntelliNoC and then SECDED on its
/// benchmarks, each key suffixed `/ber<rate>`.
pub(crate) fn fig17b_cells(c: &Campaign) -> Vec<Cell> {
    let at_rate = |rate: f64| {
        let cells = c.cells(&[Design::IntelliNoc, Design::Secded], &FIG17B_BENCHES);
        cells.into_iter().map(move |(key, cfg, recipe)| {
            let cfg = ExperimentConfig { error_rate_override: Some(rate), ..cfg };
            (format!("{key}/ber{rate:e}"), cfg, recipe)
        })
    };
    FIG17B_RATES.into_iter().flat_map(at_rate).collect()
}

/// Fig. 17b — impact of the transient bit-error rate on IntelliNoC's
/// metrics vs the SECDED baseline. The paper sweeps average rates
/// 1e-10..1e-7 per bit; this reproduction's calibrated operating point sits
/// higher, so the sweep extends to 1e-4 (see EXPERIMENTS.md).
pub(crate) fn fig17b(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let outcomes = ok_outcomes(records)?;
    writeln!(w, "=== Fig. 17b: impact of forced bit-error rate (IntelliNoC vs baseline) ===")?;
    writeln!(
        w,
        "{:>10} {:>12} {:>12} {:>12} {:>14}",
        "bit_rate", "exec_time", "e2e_latency", "energy", "retx(intelli)"
    )?;
    for (rate, runs) in FIG17B_RATES.iter().zip(outcomes.chunks(2 * FIG17B_BENCHES.len())) {
        // Design-major: the IntelliNoC runs, then SECDED's on the same benchmarks.
        let (intellinoc, baselines) = runs.split_at(FIG17B_BENCHES.len());
        let pairs: Vec<_> =
            intellinoc.iter().zip(baselines).map(|(r, b)| (&r.report, &b.report)).collect();
        let [exec, lat, energy] = ratio_geomeans(&pairs);
        let retx: u64 = pairs.iter().map(|(r, _)| r.stats.retransmitted_flits).sum();
        writeln!(w, "{rate:>10.0e} {exec:>12.3} {lat:>12.3} {energy:>12.3} {retx:>14}")?;
    }
    writeln!(w, "\npaper: the proposed design achieves better relative performance")?;
    writeln!(w, "as the error rate increases")
}

/// Fig. 18a's swept value: the discount rate γ.
pub(crate) fn fig18a_gamma(rl: &mut QLearningConfig, gamma: f64) {
    rl.gamma = gamma as f32;
}

/// Fig. 18b's swept value: the exploration probability ε.
pub(crate) fn fig18b_epsilon(rl: &mut QLearningConfig, epsilon: f64) {
    rl.epsilon = epsilon;
}

/// Fig. 18a's swept discount rates γ.
pub(crate) const GAMMAS: [f64; 6] = [0.0, 0.1, 0.2, 0.5, 0.9, 1.0];

/// Fig. 18b's swept exploration probabilities ε.
pub(crate) const EPSILONS: [f64; 7] = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0];

/// The pre-training of a Figs. 18a/18b row: the paper's RL config with
/// `value` `set`, 12 episodes at the rows' own packet budget (200) and
/// seed (7).
pub(crate) fn hyper_recipe(set: fn(&mut QLearningConfig, f64), value: f64) -> Pretraining {
    let mut rl = intellinoc_rl_config();
    set(&mut rl, value);
    (rl, 200, 1_000, 7, 12)
}

/// A Figs. 18a/18b sweep's runs: the SECDED baseline, then one pre-trained
/// IntelliNoC cell per swept value, keyed by the RL config it learns with —
/// so the two sweeps share the baseline and the paper's config (γ = 0.9 is
/// ε = 0.05).
pub(crate) fn hyper_cells(set: fn(&mut QLearningConfig, f64), values: &[f64]) -> Vec<Cell> {
    let cell = |design, (rl, ppn, _, seed, _): Pretraining| {
        let workload = ParsecBenchmark::Blackscholes.workload(ppn);
        ExperimentConfig { rl, ..ExperimentConfig::new(design, workload).with_seed(seed) }
    };
    // SECDED reads no RL config; the recipe gives it the rows' budget and seed.
    let baseline = cell(Design::Secded, hyper_recipe(|_, _| (), 0.0));
    let mut cells = vec![("fig18/SECDED".to_owned(), baseline, None)];
    for &value in values {
        let recipe = hyper_recipe(set, value);
        let key = format!("fig18/IntelliNoC/g{}/eps{}", recipe.0.gamma, recipe.0.epsilon);
        cells.push((key, cell(Design::IntelliNoc, recipe), Some(recipe)));
    }
    cells
}

/// Figs. 18a/18b — impact of one RL hyperparameter on IntelliNoC's
/// energy–delay product and re-transmission rate, tuned on blackscholes as
/// in the paper. `column` is the swept value's `(heading, width,
/// precision)`; the records are [`hyper_cells`]'.
pub(crate) fn hyper_sweep(
    records: &[&Record],
    w: &mut dyn Write,
    title: &str,
    (column, width, precision): (&str, usize, usize),
    values: &[f64],
    paper: &str,
) -> io::Result<()> {
    let outcomes = ok_outcomes(records)?;
    let (baseline, runs) = outcomes.split_first().expect("the baseline cell comes first");
    let base_edp = baseline.report.edp();
    let base_retx = baseline.report.stats.retransmitted_flits.max(1) as f64;
    writeln!(w, "=== {title} (blackscholes) ===")?;
    writeln!(w, "{column:>width$} {:>14} {:>16}", "EDP(norm)", "retx_rate(norm)")?;
    for (value, o) in values.iter().zip(runs) {
        let r = &o.report;
        writeln!(
            w,
            "{value:>width$.precision$} {:>14.3} {:>16.3}",
            r.edp() / base_edp,
            r.stats.retransmitted_flits as f64 / base_retx
        )?;
    }
    writeln!(w, "\n{paper}")
}

/// Table 2 — per-router area comparison across designs (µm² at 32 nm).
pub(crate) fn table2(_: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let model = AreaModel::default();
    writeln!(w, "=== Table 2: router area comparison (um^2, 32 nm) ===")?;
    writeln!(
        w,
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "component", "Baseline", "EB", "CP", "CPD", "IntelliNoC"
    )?;
    let breakdowns = Design::ALL.map(|d| model.router_area(&d.area_spec()));
    let mut row = |name: &str, component: fn(&AreaBreakdown) -> f64| -> io::Result<()> {
        write!(w, "{name:<16}")?;
        for b in &breakdowns {
            write!(w, " {:>10.1}", component(b))?;
        }
        writeln!(w)
    };
    row("router buffers", |b| b.buffers)?;
    row("crossbar", |b| b.crossbar)?;
    row("channel", |b| b.channel)?;
    row("ECC", |b| b.ecc)?;
    row("control", |b| b.control)?;
    row("Q-table", |b| b.qtable)?;
    row("total", AreaBreakdown::total)?;
    let base = breakdowns[0].total();
    write!(w, "{:<16}", "% change")?;
    for b in &breakdowns {
        write!(w, " {:>9.1}%", 100.0 * (b.total() / base - 1.0))?;
    }
    writeln!(w)?;
    writeln!(w, "\npaper: EB -32.7%, CP -29.9%, IntelliNoC -25.4% (CPD not reported)")
}

const D1: &str = "\n-- D1: MFAC channel depth --\n";
const D2: &str = "\n-- D2: disable bypass-while-gated (plain power gating) --\n";
const D3: &str = "\n-- D3: static ECC instead of adaptive (policy still gates) --\n";
const D5: &str = "\n-- D5: linear-space reward instead of Eq. 1 --\n";

/// The ablation rows: (heading above the row, row tag, simulator tweak,
/// reward).
const ABLATIONS: [(&str, &str, Option<Tweak>, RewardKind); 8] = [
    ("", "full IntelliNoC", None, LogSpace),
    (D1, "channel depth 4", Some(|c| c.channel_capacity = 4), LogSpace),
    ("", "channel depth 2", Some(|c| c.channel_capacity = 2), LogSpace),
    (D2, "no bypass", Some(|c| c.bypass_enabled = false), LogSpace),
    (D3, "always SECDED", Some(|c| c.default_scheme = EccScheme::Secded), LogSpace),
    ("", "always DECTED", Some(|c| c.default_scheme = EccScheme::Dected), LogSpace),
    ("", "always TECQED (t=3)", Some(|c| c.default_scheme = EccScheme::Tecqed), LogSpace),
    (D5, "linear reward", None, Linear),
];

/// The ablations' packets per node.
const ABLATION_PPN: u64 = 150;

/// The ablations' runs: IntelliNoC on canneal at seed 5, one cell per row.
pub(crate) fn ablation_cells() -> Vec<Cell> {
    let cell = |&(_, tag, tweak, reward): &(&str, &str, Option<Tweak>, RewardKind)| {
        let workload = ParsecBenchmark::Canneal.workload(ABLATION_PPN);
        let cfg = ExperimentConfig::new(Design::IntelliNoc, workload).with_seed(5);
        (format!("ablations/{tag}"), ExperimentConfig { tweak, reward, ..cfg }, None)
    };
    ABLATIONS.iter().map(cell).collect()
}

/// Ablations of the design decisions called out in DESIGN.md §6: D1 MFAC
/// channel depth, D2 bypass-while-gated vs plain power gating, D3 adaptive
/// vs static ECC, D5 log-space (Eq. 1) vs linear reward. (D4, RL vs
/// heuristic, is the CPD column of the main figures.) A variant that does
/// not finish is a result here — its row says where it stopped — not an
/// error.
pub(crate) fn ablations(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let packets = Design::IntelliNoc.sim_config().nodes() as u64 * ABLATION_PPN;
    writeln!(w, "=== Ablations (IntelliNoC on canneal; see DESIGN.md Section 6) ===")?;
    for ((heading, tag, ..), rec) in ABLATIONS.iter().zip(records) {
        write!(w, "{heading}")?;
        let Some(o) = &rec.payload else { return Err(unit_error(rec)) };
        let r = &o.report;
        match &rec.timeout {
            None => writeln!(
                w,
                "{:<26} exec={:>7} lat={:>7.1} power={:>7.1}mW eff={:>8.4} retx={:>6} mttf={:>9.2e}",
                tag,
                r.exec_cycles,
                r.avg_latency(),
                r.power.total_mw(),
                r.energy_efficiency() * 1e6,
                r.stats.retransmitted_flits,
                r.mttf_hours.unwrap_or(f64::NAN),
            )?,
            Some(t) => writeln!(
                w,
                "{tag:<26} {} at cycle {}: {} of {packets} packets delivered, {} in flight",
                if t.stall.is_some() { "stalled" } else { "out of budget" },
                t.cycles_run,
                r.stats.packets_delivered,
                t.in_flight,
            )?,
        }
    }
    writeln!(w, "\nNote: D3 rows fix the *initial* scheme; the RL policy may still")?;
    writeln!(w, "change it. The comparison isolates the starting configuration and")?;
    writeln!(w, "short-run adaptation; D4 (RL vs heuristic) is CPD in Figs. 9-16.")
}

/// The expert-vs-RL benchmarks, and its policies by row name: the learned
/// one, then the rule.
const EXPERT_VS_RL_BENCHES: [ParsecBenchmark; 3] =
    [ParsecBenchmark::Swaptions, ParsecBenchmark::Canneal, ParsecBenchmark::X264];
const POLICIES: [&str; 2] = ["RL", "expert"];

/// The expert-vs-RL runs: IntelliNoC at seed 21, each benchmark under each
/// policy.
pub(crate) fn expert_vs_rl_cells() -> Vec<Cell> {
    let cells = |bench: &ParsecBenchmark| {
        POLICIES.map(|name| {
            let expert = (name == "expert").then(ExpertThresholds::default);
            let cfg = ExperimentConfig::new(Design::IntelliNoc, bench.workload(200));
            let cfg = ExperimentConfig { expert, ..cfg.with_seed(21) };
            (format!("expert_vs_rl/{}/{name}", bench.label()), cfg, None)
        })
    };
    EXPERT_VS_RL_BENCHES.iter().flat_map(cells).collect()
}

/// Ablation D4b: the learned policy vs a hand-written expert threshold rule
/// over the same observations — the paper's claim that "manually designing
/// the rules ... often result[s] in sub-optimal solutions". Both rows of a
/// benchmark are the same experiment through the same control loop; only
/// the policy (the cell's `expert`) differs.
pub(crate) fn expert_vs_rl(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let outcomes = ok_outcomes(records)?;
    writeln!(w, "=== expert threshold rule vs Q-learning (IntelliNoC hardware) ===")?;
    writeln!(
        w,
        "{:<14} {:<8} {:>9} {:>9} {:>10} {:>10} {:>7}",
        "benchmark", "policy", "exec_cyc", "latency", "power_mW", "eff(1/uJ)", "retx"
    )?;
    for (bench, runs) in EXPERT_VS_RL_BENCHES.iter().zip(outcomes.chunks(POLICIES.len())) {
        for (name, o) in POLICIES.iter().zip(runs) {
            let r = &o.report;
            writeln!(
                w,
                "{:<14} {:<8} {:>9} {:>9.1} {:>10.1} {:>10.4} {:>7}",
                bench.label(),
                name,
                r.exec_cycles,
                r.avg_latency(),
                r.power.total_mw(),
                r.energy_efficiency() * 1e6,
                r.stats.retransmitted_flits,
            )?;
            let [m0, m1, m2, m3, m4] = o.mode_fractions();
            writeln!(w, "               modes: {m0:.2}/{m1:.2}/{m2:.2}/{m3:.2}/{m4:.2}")?;
        }
    }
    writeln!(w, "\nThe expert rule is tuned for this very simulator and still has to")?;
    writeln!(w, "pick one threshold set for all benchmarks; the RL policy adapts per")?;
    writeln!(w, "router and per workload (the paper's motivation, Section 1).")
}

/// The Q-table fault study's seed, and its expected bit flips per stored
/// entry per step.
const QTABLE_SEED: u64 = 31;
const QTABLE_FLIPS: [f64; 5] = [0.0, 0.1, 0.5, 2.0, 8.0];

/// The Q-table fault study's runs: IntelliNoC on canneal at its seed, one
/// cell per flip rate, each from tables pre-trained for 12 episodes at the
/// study's own packet budget (150) and seed.
pub(crate) fn qtable_faults_cells() -> Vec<Cell> {
    let recipe = (intellinoc_rl_config(), 150, 1_000, QTABLE_SEED, 12);
    let cell = |&qtable_flips: &f64| {
        let workload = ParsecBenchmark::Canneal.workload(150);
        let cfg = ExperimentConfig::new(Design::IntelliNoc, workload).with_seed(QTABLE_SEED);
        let cfg = ExperimentConfig { qtable_flips, ..cfg };
        (format!("qtable_faults/{qtable_flips}"), cfg, Some(recipe))
    };
    QTABLE_FLIPS.iter().map(cell).collect()
}

/// Future-work experiment (paper §6): soft errors in the per-router
/// state–action tables. Sweeps the expected bit flips per stored Q-table
/// entry per time step (the cells' `qtable_flips`) and measures how
/// gracefully the learned policy degrades. `mode_swaps` is the router-steps
/// spent outside the run's most common mode (the mode histogram's sum minus
/// its largest bin), not a count of mode switches.
pub(crate) fn qtable_faults(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let outcomes = ok_outcomes(records)?;
    writeln!(w, "=== Q-table soft-error resilience (paper Section 6 future work) ===")?;
    writeln!(w, "`hit_rate` = expected bit flips per stored table entry per time step\n")?;
    writeln!(
        w,
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "hit_rate", "exec_cyc", "latency", "power_mW", "retx", "mode_swaps"
    )?;
    for (flips, o) in QTABLE_FLIPS.iter().zip(outcomes) {
        let (r, hist) = (&o.report, o.mode_histogram);
        let off_mode = hist.iter().sum::<u64>() - hist.iter().max().copied().unwrap_or(0);
        writeln!(
            w,
            "{:>10.2} {:>10} {:>10.1} {:>10.1} {:>10} {:>10}",
            flips,
            r.exec_cycles,
            r.avg_latency(),
            r.power.total_mw(),
            r.stats.retransmitted_flits,
            off_mode
        )?;
    }
    writeln!(w, "\nThe TD update continuously rewrites corrupted entries, so the policy")?;
    writeln!(w, "should degrade gracefully rather than fail-stop (the property the")?;
    writeln!(w, "paper defers to future work).")
}

/// The mesh sides of the scaling study, each with the `tweak` that sets it —
/// so every cell sizes its agent bank from its own mesh.
const SCALING_SIDES: [(usize, Tweak); 3] = [
    (4, |c| (c.width, c.height) = (4, 4)),
    (8, |c| (c.width, c.height) = (8, 8)),
    (16, |c| (c.width, c.height) = (16, 16)),
];

/// The mesh-scaling grid: SECDED, then IntelliNoC, at each of
/// [`SCALING_SIDES`] under uniform traffic.
pub(crate) fn scaling_cells() -> Vec<Cell> {
    [Design::Secded, Design::IntelliNoc]
        .into_iter()
        .flat_map(|design| {
            SCALING_SIDES.map(|(side, tweak)| {
                let workload = WorkloadSpec::uniform(0.02, 40);
                let mut cfg = ExperimentConfig::new(design, workload).with_seed(13);
                cfg.tweak = Some(tweak);
                (format!("scaling/{side}x{side}/{}", design.label()), cfg, None)
            })
        })
        .collect()
}

/// Mesh-size scaling study (beyond the paper's single 8×8 point): latency
/// and power for the baseline and IntelliNoC at 4×4, 8×8, and 16×16 under
/// uniform traffic.
pub(crate) fn scaling(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "=== mesh scaling, uniform traffic @ 0.02 packets/node/cycle ===")?;
    writeln!(
        w,
        "{:>6} {:<11} {:>10} {:>12} {:>10}",
        "mesh", "design", "latency", "power_mW", "delivered"
    )?;
    for ((side, _), o) in SCALING_SIDES.iter().cycle().zip(ok_outcomes(records)?) {
        writeln!(
            w,
            "{side:>3}x{side:<2} {:<11} {:>10.1} {:>12.1} {:>10}",
            o.design.label(),
            o.report.avg_latency(),
            o.report.power.total_mw(),
            o.report.stats.packets_delivered
        )?;
    }
    writeln!(w, "\nLatency grows with the average hop count (~2/3 of the mesh side);")?;
    writeln!(w, "power grows with the router count.")
}

/// The load sweep's offered loads (packets/node/cycle).
const LOAD_RATES: [f64; 8] = [0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12];

/// The load sweep's runs: every design at each rate, rate-major, every cell
/// at seed 42.
pub(crate) fn load_sweep_cells() -> Vec<Cell> {
    let at_rate = |rate: f64| {
        Design::ALL.map(|design| {
            let workload = WorkloadSpec::uniform(rate, 60);
            let cfg = ExperimentConfig::new(design, workload).with_seed(42);
            (format!("load/r{rate}/{}", design.label()), cfg, None)
        })
    };
    LOAD_RATES.into_iter().flat_map(at_rate).collect()
}

/// Load sweep: classic NoC latency-vs-offered-load curves for all five
/// designs on uniform random traffic (not a paper figure, but the standard
/// way to see where each design saturates and why the paper's benchmarks
/// separate them). One 8 rates × 5 designs table per metric.
pub(crate) fn load_sweep(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let outcomes = ok_outcomes(records)?;
    let mut table = |heading: &str, precision: usize, metric: fn(&RunReport) -> f64| {
        writeln!(w, "{heading}")?;
        design_columns(w, &format!("{:>8}", "rate"))?;
        for (rate, row) in LOAD_RATES.iter().zip(outcomes.chunks(Design::ALL.len())) {
            write!(w, "{rate:>8.3}")?;
            for o in row {
                write!(w, "{:>12.precision$}", metric(&o.report))?;
            }
            writeln!(w)?;
        }
        io::Result::Ok(())
    };
    table("average end-to-end latency (cycles) vs offered load (packets/node/cycle)", 1, |r| {
        r.avg_latency()
    })?;
    table("\np99 latency (cycles):", 0, |r| r.stats.latency_percentile(0.99))
}

/// The resilience study's two campaigns, each with its key prefix and the
/// title of its table: the hard-fault campaign with fault-aware rerouting,
/// then a cheaper one without.
fn resilience_campaigns() -> [(&'static str, &'static str, CampaignConfig); 2] {
    let on = CampaignConfig { ppn: 20, ..CampaignConfig::default() };
    let off = CampaignConfig {
        fault_aware_routing: false,
        // XY traffic wedges against dead links; keep the cells cheap.
        dead_links: vec![0, 1, 2],
        router_fail_at: None,
        flapping: 0,
        ..on.clone()
    };
    [
        ("resilience/on", "fault-aware rerouting ON (up*/down* detours):", on),
        ("resilience/off", "fault-aware rerouting OFF (XY + drop/watchdog escalation):", off),
    ]
}

/// Both campaigns' runs. A cell's seed derives from its `campaign/…` key,
/// as `intellinoc campaign`'s does, before the key takes its prefix.
pub(crate) fn resilience_cells() -> Vec<Cell> {
    let cells = |(prefix, _, cfg): (&'static str, &str, CampaignConfig)| {
        cfg.cells().into_iter().map(move |(key, cfg)| (format!("{prefix}/{key}"), cfg, None))
    };
    resilience_campaigns().into_iter().flat_map(cells).collect()
}

/// Resilience study: the deterministic hard-fault campaign across all five
/// designs — growing dead-link counts, a mid-run router failure, and
/// intermittently flapping links — with and without fault-aware rerouting.
/// A cell the watchdog aborts is a result here (its `status` column), not
/// an error.
pub(crate) fn resilience(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let mut records = records.iter().map(|&r| r.clone());
    let [on, off] = resilience_campaigns().map(|(_, title, config)| {
        let units = campaign_scenarios(&config).len() * Design::ALL.len();
        let runner = RunnerReport { records: records.by_ref().take(units).collect() };
        (title, CampaignRunReport { config, runner })
    });
    for (title, report) in [&on, &off] {
        writeln!(w, "{title}\n{}", report.table())?;
    }
    writeln!(w, "minimum delivery rate with rerouting: {:.4}", on.1.min_delivery_rate())
}

/// Calibration probe: raw (un-normalized) campaign metrics for every design
/// on four benchmarks, for checking that the result *shape* matches the
/// paper before reading the normalized figures.
pub(crate) fn probe(records: &[&Record], w: &mut dyn Write) -> io::Result<()> {
    let results = paper_campaign(records)?;
    for bench in [
        ParsecBenchmark::Swaptions,
        ParsecBenchmark::Canneal,
        ParsecBenchmark::Fluidanimate,
        ParsecBenchmark::X264,
    ] {
        let Some((_, outcomes)) = results.raw.iter().find(|(b, _)| *b == bench) else {
            continue;
        };
        writeln!(w, "\n### {bench} ###")?;
        writeln!(
            w,
            "{:<11} {:>9} {:>8} {:>9} {:>9} {:>10} {:>7} {:>8} {:>8} {:>9} {:>7}",
            "design",
            "exec_cyc",
            "lat",
            "stat_mW",
            "dyn_mW",
            "eff(1/uJ)",
            "retx",
            "mttf_h",
            "temp",
            "gated%",
            "corrupt"
        )?;
        for o in outcomes {
            let r = &o.report;
            writeln!(
                w,
                "{:<11} {:>9} {:>8.1} {:>9.1} {:>9.1} {:>10.3} {:>7} {:>8.2e} {:>8.1} {:>9.1} {:>7}",
                o.design.label(),
                r.exec_cycles,
                r.avg_latency(),
                r.power.static_mw,
                r.power.dynamic_mw,
                r.energy_efficiency() * 1e6,
                r.stats.retransmitted_flits,
                r.mttf_hours.unwrap_or(f64::NAN),
                r.mean_temp_c,
                100.0 * r.stats.gated_router_cycles as f64 / (64.0 * r.stats.cycles.max(1) as f64),
                r.stats.corrupted_packets,
            )?;
            if o.design == Design::IntelliNoc {
                let fr = o.mode_fractions();
                writeln!(
                    w,
                    "            modes: relax {:.2} crc {:.2} secded {:.2} dected {:.2} relaxedtx {:.2}  qtab {:.0}",
                    fr[0], fr[1], fr[2], fr[3], fr[4], o.mean_qtable_entries
                )?;
            }
        }
    }
    Ok(())
}

/// The `=== headline comparison vs paper ===` block that closes
/// `figures all`: the campaign's geometric means beside the paper's.
///
/// # Errors
///
/// The writer's I/O error.
pub fn print_headline(results: &CampaignResults, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "\n=== headline comparison vs paper ===")?;
    writeln!(
        w,
        "energy-efficiency: IntelliNoC {:.2}x (paper 1.67x), CPD {:.2}x (paper 1.36x)",
        results.average(Design::IntelliNoc, |m| m.energy_efficiency),
        results.average(Design::Cpd, |m| m.energy_efficiency)
    )?;
    writeln!(
        w,
        "MTTF:              IntelliNoC {:.2}x (paper 1.77x)",
        results.average(Design::IntelliNoc, |m| m.mttf)
    )?;
    writeln!(
        w,
        "latency:           IntelliNoC {:.2}x (paper 0.68x), EB {:.2}x (paper 0.83x)",
        results.average(Design::IntelliNoc, |m| m.latency),
        results.average(Design::Eb, |m| m.latency)
    )?;
    writeln!(
        w,
        "speed-up:          IntelliNoC {:.2}x (paper 1.16x), CP {:.2}x (paper 0.97x)",
        results.average(Design::IntelliNoc, |m| m.speedup),
        results.average(Design::Cp, |m| m.speedup)
    )
}
