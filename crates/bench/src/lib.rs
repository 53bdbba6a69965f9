//! # intellinoc-bench
//!
//! The paper's evaluation (§7) as one table. [`FIGURES`] lists every
//! experiment — Figs. 9–18, Table 2 and the extension studies — by the name
//! DESIGN.md §3 and EXPERIMENTS.md use, each with the function that renders
//! it; the one binary, `figures`, looks names up here
//! (`figures --list`, `figures <name>…`, `figures all`).
//!
//! Studies that are a plain grid of independent runs are cell lists for
//! [`intellinoc::run_grid`] — the 5 designs × 10 benchmarks campaign behind
//! Figs. 9–16 and the probe, the test runs of Figs. 17a/17b, the ablations,
//! the mesh-scaling study, the load sweep, and (through
//! `run_campaign_runner`) the resilience grid — so `--jobs N` parallelizes
//! them without moving a byte of output; the few runs that need a policy or
//! hook of their own go through [`intellinoc::run_experiment_with`], held
//! to the same standard. An
//! [`Evaluation`] carries the campaign parameters and worker count across
//! the figures of one invocation and runs the campaign, and each distinct
//! pre-training, at most once, in memory. Every cell carries the seed its
//! study pins (2019 for the campaign): Figs. 9–16 normalize each benchmark
//! to SECDED on the *same* traffic, so these cells deliberately do not use
//! key-derived seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod studies;

pub use csv::{write_campaign_csv, write_raw_csv, METRIC_COLUMNS};
pub use studies::print_headline;

use intellinoc::{
    classify_timeout, compare, pretrain_intellinoc, run_experiment_with, run_grid, ChaosOptions,
    ComparisonRow, ControlPolicy, Design, ExperimentConfig, ExperimentOutcome, NormalizedMetrics,
    RewardKind, RunStatus, RunnerConfig, UnitSinks,
};
use noc_rl::{QLearningConfig, QTable};
use noc_traffic::ParsecBenchmark;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default packets-per-node budget for figure campaigns. Keeps full-campaign
/// wall-clock tractable while exercising thousands of packets per run.
pub const CAMPAIGN_PACKETS_PER_NODE: u64 = 300;

/// Default packets-per-node budget for RL pre-training on blackscholes.
pub const PRETRAIN_PACKETS_PER_NODE: u64 = 200;

/// Pre-training episodes (full blackscholes executions).
pub const PRETRAIN_EPISODES: u32 = 24;

/// Campaign-wide parameters.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Packets per node per run.
    pub packets_per_node: u64,
    /// Control time step (cycles).
    pub time_step: u64,
    /// Base seed.
    pub seed: u64,
    /// RL hyperparameters.
    pub rl: QLearningConfig,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            packets_per_node: CAMPAIGN_PACKETS_PER_NODE,
            time_step: intellinoc::DEFAULT_TIME_STEP,
            seed: 2019,
            rl: intellinoc::intellinoc_rl_config(),
        }
    }
}

impl Campaign {
    /// The experiment of one design on one benchmark under this campaign's
    /// seed, time step and RL hyperparameters.
    pub fn config(
        &self,
        design: Design,
        bench: ParsecBenchmark,
        pretrained: Option<&[QTable]>,
    ) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(design, bench.workload(self.packets_per_node))
            .with_seed(self.seed)
            .with_time_step(self.time_step);
        cfg.rl = self.rl;
        if design.uses_rl() {
            cfg.pretrained = pretrained.map(<[QTable]>::to_vec);
        }
        cfg
    }

    /// The grid of `designs` on each of `benches`, benchmark-major, keyed
    /// `<study>/<bench>/<design>`.
    pub(crate) fn cells(
        &self,
        study: &str,
        benches: &[ParsecBenchmark],
        designs: &[Design],
        pretrained: Option<&[QTable]>,
    ) -> Vec<(String, ExperimentConfig)> {
        benches
            .iter()
            .flat_map(|&bench| {
                designs.iter().map(move |&design| {
                    let key = format!("{study}/{}/{}", bench.label(), design.label());
                    (key, self.config(design, bench, pretrained))
                })
            })
            .collect()
    }

    /// Runs all five designs on each of `benches` as one grid (keys
    /// `fig/<bench>/<design>`) and normalizes each benchmark to its SECDED
    /// run.
    ///
    /// # Errors
    ///
    /// Engine errors, and the first unit that did not finish `ok` — timed
    /// out, stalled or panicked — named by its key.
    pub fn run(
        &self,
        benches: &[ParsecBenchmark],
        pretrained: Option<&[QTable]>,
        rcfg: &RunnerConfig,
    ) -> Result<CampaignResults, String> {
        let cells = self.cells("fig", benches, &Design::ALL, pretrained);
        let mut outcomes = run_clean_grid(&cells, rcfg)?.into_iter();
        let mut results = CampaignResults { rows: Vec::new(), raw: Vec::new() };
        for &bench in benches {
            let per_design: Vec<ExperimentOutcome> =
                outcomes.by_ref().take(Design::ALL.len()).collect();
            results.rows.push(compare(&per_design));
            results.raw.push((bench, per_design));
        }
        Ok(results)
    }
}

/// Runs `cells` as one [`run_grid`] grid under `rcfg` and returns the
/// outcomes in cell order: a figure needs every cell.
///
/// # Errors
///
/// Engine errors (duplicate keys), and the first unit that did not finish
/// `ok` — timed out, stalled or panicked — named by its key.
pub(crate) fn run_clean_grid(
    cells: &[(String, ExperimentConfig)],
    rcfg: &RunnerConfig,
) -> Result<Vec<ExperimentOutcome>, String> {
    let report = run_grid(cells, rcfg, &ChaosOptions::default(), UnitSinks::default())?;
    report
        .records
        .into_iter()
        .map(|rec| match (rec.status, rec.payload) {
            (RunStatus::Ok, Some(outcome)) => Ok(outcome),
            (status, _) => Err(unit_error(&rec.key, status, rec.error.as_deref())),
        })
        .collect()
}

/// What a figure reports for a unit that gave it no usable outcome.
pub(crate) fn unit_error(key: &str, status: RunStatus, error: Option<&str>) -> String {
    format!("unit {key} {}: {}", status.label(), error.unwrap_or("out of cycle budget or stalled"))
}

/// One [`run_experiment_with`] run outside a grid — a study's own policy or
/// `before_decide` hook — held to what [`run_clean_grid`] holds its units to.
///
/// # Errors
///
/// The run, named by `key`, did not finish (out of cycle budget or stalled)
/// or panicked.
pub(crate) fn run_checked(
    key: &str,
    cfg: ExperimentConfig,
    policy: Option<ControlPolicy>,
    before_decide: impl FnMut(&mut ControlPolicy),
) -> Result<ExperimentOutcome, String> {
    let budget = cfg.max_cycles;
    let run = AssertUnwindSafe(|| run_experiment_with(cfg, policy, before_decide).0);
    let outcome = catch_unwind(run).map_err(|payload| {
        let message = payload.downcast_ref::<String>().map(String::as_str);
        let message = message.or_else(|| payload.downcast_ref::<&str>().copied());
        unit_error(key, RunStatus::Failed, Some(message.unwrap_or("panic with non-string payload")))
    })?;
    match classify_timeout(&outcome.report, outcome.finished, budget) {
        None => Ok(outcome),
        Some(_) => Err(unit_error(key, RunStatus::TimedOut, None)),
    }
}

/// Results of a campaign.
#[derive(Debug)]
pub struct CampaignResults {
    /// Normalized comparison per benchmark.
    pub rows: Vec<ComparisonRow>,
    /// Raw outcomes per benchmark.
    pub raw: Vec<(ParsecBenchmark, Vec<ExperimentOutcome>)>,
}

/// Writes `lead`, then one right-aligned column heading per design.
fn design_columns(w: &mut dyn Write, lead: &str) -> io::Result<()> {
    write!(w, "{lead}")?;
    for d in Design::ALL {
        write!(w, "{:>12}", d.label())?;
    }
    writeln!(w)
}

impl CampaignResults {
    /// Writes a figure table: one row per benchmark, one column per design,
    /// using `metric` to extract the plotted value, plus the average row.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn print_figure(
        &self,
        w: &mut dyn Write,
        title: &str,
        better: &str,
        metric: fn(&NormalizedMetrics) -> f64,
    ) -> io::Result<()> {
        writeln!(w, "\n=== {title} ({better}) ===")?;
        design_columns(w, &format!("{:<10}", "workload"))?;
        for row in &self.rows {
            write!(w, "{:<10}", row.workload)?;
            for (_, m) in &row.designs {
                write!(w, "{:>12.3}", metric(m))?;
            }
            writeln!(w)?;
        }
        write!(w, "{:<10}", "average")?;
        for d in Design::ALL {
            write!(w, "{:>12.3}", self.average(d, metric))?;
        }
        writeln!(w)
    }

    /// Geometric-mean value of a metric for one design across benchmarks.
    pub fn average(&self, design: Design, metric: fn(&NormalizedMetrics) -> f64) -> f64 {
        intellinoc::geomean(&self.rows, design, metric)
    }
}

/// What the figures of one `figures` invocation share: the campaign
/// parameters, the worker count for the grid studies, and the campaign
/// results — computed on first use, kept in memory, never on disk.
#[derive(Debug)]
pub struct Evaluation {
    /// Campaign parameters ([`Campaign::default`] is the paper's job).
    pub campaign: Campaign,
    /// Worker threads for the grid studies (results identical at any count).
    pub jobs: usize,
    results: Option<CampaignResults>,
    /// Pre-trained tables by the `(rl, time_step, seed)` that produced them.
    pretrained: Vec<((QLearningConfig, u64, u64), Vec<QTable>)>,
}

impl Evaluation {
    /// An evaluation that has run nothing yet.
    pub fn new(campaign: Campaign, jobs: usize) -> Self {
        Evaluation { campaign, jobs, results: None, pretrained: Vec::new() }
    }

    /// The IntelliNoC policy pre-trained on blackscholes (paper §6.3) for
    /// `campaign`, computed once per distinct `(rl, time_step, seed)` — all
    /// that pre-training reads of a campaign.
    pub fn pretrained(&mut self, campaign: &Campaign) -> Vec<QTable> {
        let key @ (rl, time_step, seed) = (campaign.rl, campaign.time_step, campaign.seed);
        if let Some((_, tables)) = self.pretrained.iter().find(|(k, _)| *k == key) {
            return tables.clone();
        }
        let (ppn, episodes) = (PRETRAIN_PACKETS_PER_NODE, PRETRAIN_EPISODES);
        let tables = pretrain_intellinoc(rl, RewardKind::LogSpace, ppn, time_step, seed, episodes);
        self.pretrained.push((key, tables.clone()));
        tables
    }

    /// The runner configuration of this evaluation's grid studies.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig::serial().with_jobs(self.jobs)
    }

    /// The full paper campaign — all designs × the 10-benchmark test set,
    /// IntelliNoC pre-trained on blackscholes — run on first call.
    ///
    /// # Errors
    ///
    /// A unit that did not finish `ok` ([`Campaign::run`]), as an I/O error
    /// so renderers propagate it with `?`.
    pub fn results(&mut self) -> io::Result<&CampaignResults> {
        if self.results.is_none() {
            eprintln!("[campaign] running 5 designs x 10 benchmarks, {} worker(s)...", self.jobs);
            let campaign = self.campaign;
            let pretrained = self.pretrained(&campaign);
            let results = campaign
                .run(&ParsecBenchmark::TEST_SET, Some(&pretrained), &self.runner())
                .map_err(io::Error::other)?;
            self.results = Some(results);
        }
        Ok(self.results.as_ref().expect("computed above"))
    }
}

/// One entry of the evaluation: a paper figure or table, or an extension
/// study.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The key `figures <name>` takes; DESIGN.md §3 and EXPERIMENTS.md
    /// refer to experiments by it.
    pub name: &'static str,
    /// One line on what it shows.
    pub about: &'static str,
    /// Runs what it needs and writes the table(s).
    pub render: fn(&mut Evaluation, &mut dyn Write) -> io::Result<()>,
}

/// Every experiment of the evaluation, in `figures all` order: the paper's
/// Figs. 9–18 and Table 2 (DESIGN.md §3), then the extension studies.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig09_speedup",
        about: "Fig. 9: speed-up of full execution time, normalized to SECDED",
        render: |e, w| {
            studies::metric_figure(
                e,
                w,
                "Fig. 9: speed-up of execution time vs SECDED baseline",
                "higher is better",
                |m| m.speedup,
                "paper averages: EB 1.06, CP 0.97, CPD 1.08, IntelliNoC 1.16",
            )
        },
    },
    Figure {
        name: "fig10_latency",
        about: "Fig. 10: average end-to-end packet latency, normalized to SECDED",
        render: |e, w| {
            studies::metric_figure(
                e,
                w,
                "Fig. 10: average end-to-end latency vs SECDED baseline",
                "lower is better",
                |m| m.latency,
                "paper averages: EB 0.83, IntelliNoC 0.68",
            )
        },
    },
    Figure {
        name: "fig11_static_power",
        about: "Fig. 11: static power, normalized to SECDED",
        render: |e, w| {
            studies::metric_figure(
                e,
                w,
                "Fig. 11: static power vs SECDED baseline",
                "lower is better",
                |m| m.static_power,
                "paper averages: EB 0.86, CP 0.80, CPD 0.77, IntelliNoC lowest",
            )
        },
    },
    Figure {
        name: "fig12_dynamic_power",
        about: "Fig. 12: dynamic power, normalized to SECDED",
        render: |e, w| {
            studies::metric_figure(
                e,
                w,
                "Fig. 12: dynamic power vs SECDED baseline",
                "lower is better",
                |m| m.dynamic_power,
                "paper: IntelliNoC outperforms all other techniques",
            )
        },
    },
    Figure {
        name: "fig13_energy_efficiency",
        about: "Fig. 13: energy-efficiency (Eq. 8), normalized to SECDED",
        render: |e, w| {
            studies::metric_figure(
                e,
                w,
                "Fig. 13: energy-efficiency (Eq. 8) vs SECDED baseline",
                "higher is better",
                |m| m.energy_efficiency,
                "paper averages: CPD 1.36, IntelliNoC 1.67",
            )
        },
    },
    Figure {
        name: "fig14_mode_breakdown",
        about: "Fig. 14: IntelliNoC operation-mode breakdown per benchmark",
        render: studies::fig14,
    },
    Figure {
        name: "fig15_retransmissions",
        about: "Fig. 15: re-transmitted flits, normalized to SECDED, plus absolute counts",
        render: studies::fig15,
    },
    Figure {
        name: "fig16_mttf",
        about: "Fig. 16: mean-time-to-failure, normalized to SECDED",
        render: |e, w| {
            studies::metric_figure(
                e,
                w,
                "Fig. 16: MTTF vs SECDED baseline",
                "higher is better",
                |m| m.mttf,
                "paper average: IntelliNoC 1.77x baseline",
            )
        },
    },
    Figure {
        name: "fig17a_timestep",
        about: "Fig. 17a: RL control time-step sweep, IntelliNoC vs SECDED on 4 benchmarks",
        render: studies::fig17a,
    },
    Figure {
        name: "fig17b_error_rate",
        about: "Fig. 17b: forced bit-error-rate sweep, IntelliNoC vs SECDED on 3 benchmarks",
        render: studies::fig17b,
    },
    Figure {
        name: "fig18a_gamma",
        about: "Fig. 18a: discount rate gamma vs EDP and re-transmissions (blackscholes, seed 7)",
        render: |_, w| {
            studies::hyper_sweep(
                w,
                "Fig. 18a: impact of discount rate gamma",
                ("gamma", 6, 1),
                &[0.0, 0.1, 0.2, 0.5, 0.9, 1.0],
                |rl, gamma| rl.gamma = gamma as f32,
                "paper: EDP improves with larger gamma up to 0.9; gamma=1 fails to converge",
            )
        },
    },
    Figure {
        name: "fig18b_epsilon",
        about: "Fig. 18b: exploration epsilon vs EDP and re-transmissions (blackscholes, seed 7)",
        render: |_, w| {
            studies::hyper_sweep(
                w,
                "Fig. 18b: impact of exploration probability epsilon",
                ("epsilon", 8, 2),
                &[0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0],
                |rl, epsilon| rl.epsilon = epsilon,
                "paper: both extremes (epsilon=0 and epsilon=1) are sub-optimal; 0.05 is best",
            )
        },
    },
    Figure {
        name: "table2_area",
        about: "Table 2: per-router area by component and design (um^2, 32 nm)",
        render: studies::table2,
    },
    Figure {
        name: "ablations",
        about: "DESIGN.md §6 ablations D1/D2/D3/D5, IntelliNoC on canneal (seed 5)",
        render: studies::ablations,
    },
    Figure {
        name: "expert_vs_rl",
        about: "learned policy vs a hand-written threshold rule on 3 benchmarks (seed 21)",
        render: studies::expert_vs_rl,
    },
    Figure {
        name: "qtable_faults",
        about: "soft errors in the Q-tables, IntelliNoC on canneal (seed 31)",
        render: studies::qtable_faults,
    },
    Figure {
        name: "scaling",
        about: "4x4 / 8x8 / 16x16 meshes under uniform traffic, SECDED and IntelliNoC (seed 13)",
        render: studies::scaling,
    },
    Figure {
        name: "load_sweep",
        about: "latency vs offered load, 8 rates x 5 designs on uniform traffic (seed 42)",
        render: studies::load_sweep,
    },
    Figure {
        name: "resilience",
        about: "hard-fault campaign grid, with and without fault-aware rerouting (seed 1)",
        render: studies::resilience,
    },
    Figure {
        name: "probe",
        about: "raw campaign metrics of every design on 4 benchmarks (calibration check)",
        render: studies::probe,
    },
];

/// Formats a number with thousands separators for table output.
pub fn fmt_u64(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_u64_groups_digits() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1_000), "1,000");
        assert_eq!(fmt_u64(1_234_567), "1,234,567");
    }

    fn tiny_campaign() -> Campaign {
        Campaign { packets_per_node: 4, ..Campaign::default() }
    }

    /// A 4-packets-per-node evaluation of one benchmark, not pre-trained.
    fn tiny_evaluation(jobs: usize) -> Evaluation {
        let mut eval = Evaluation::new(tiny_campaign(), jobs);
        let results = eval.campaign.run(&[ParsecBenchmark::Swaptions], None, &eval.runner());
        eval.results = Some(results.expect("clean grid"));
        eval
    }

    #[test]
    fn tiny_campaign_runs_one_benchmark() {
        let eval = tiny_evaluation(1);
        let results = eval.results.as_ref().expect("seeded above");
        assert_eq!(results.raw[0].1.len(), 5);
        assert_eq!(results.rows[0].designs.len(), 5);
    }

    #[test]
    fn figure_names_are_unique_and_match_design_md() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 20);
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate figure name");
        assert!(FIGURES.iter().all(|f| !f.name.is_empty() && !f.about.is_empty()));
        // DESIGN.md §3 indexes every experiment in tables whose last column
        // reads `figures <name>`: those rows and the rows here must agree.
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("## 3. Experiment index").expect("DESIGN.md section 3");
        let section = &design[start..];
        let section = &section[..section.find("\n## 4.").expect("DESIGN.md section 4")];
        let documented: std::collections::BTreeSet<&str> = section
            .lines()
            .filter_map(|line| line.strip_suffix("` |")?.rsplit_once("| `figures ").map(|c| c.1))
            .collect();
        assert_eq!(documented, unique, "DESIGN.md section 3 and FIGURES disagree");
    }

    /// Everything `figures all` derives from the campaign, rendered from
    /// `eval`: Figs. 9–16, the probe, the headline block, both CSVs.
    fn render_campaign_entries(eval: &mut Evaluation) -> Vec<u8> {
        let mut out = Vec::new();
        for fig in FIGURES {
            let from_campaign = ("fig09".."fig17").contains(&fig.name) || fig.name == "probe";
            if from_campaign {
                let before = out.len();
                (fig.render)(eval, &mut out).expect("renders");
                assert!(out.len() > before, "{} rendered nothing", fig.name);
            }
        }
        let before = out.len();
        print_headline(eval, &mut out).expect("renders");
        assert!(out.len() > before, "headline rendered nothing");
        let results = eval.results().expect("seeded");
        write_campaign_csv(&mut out, results).expect("in-memory write");
        write_raw_csv(&mut out, results).expect("in-memory write");
        out
    }

    #[test]
    fn campaign_entries_render_identically_at_any_job_count() {
        let serial = render_campaign_entries(&mut tiny_evaluation(1));
        let text = String::from_utf8(serial.clone()).expect("utf8");
        for expected in ["Fig. 9:", "Fig. 14:", "Fig. 16:", "### swaptions ###", "headline"] {
            assert!(text.contains(expected), "missing {expected}");
        }
        let parallel = render_campaign_entries(&mut tiny_evaluation(2));
        assert!(serial == parallel, "jobs = 1 and jobs = 2 must render the same bytes");
    }

    #[test]
    fn a_unit_out_of_budget_fails_the_grid_by_key() {
        let campaign = tiny_campaign();
        let mut cells: Vec<(String, ExperimentConfig)> = [Design::Secded, Design::Eb]
            .map(|d| {
                (format!("fig/canneal/{d}"), campaign.config(d, ParsecBenchmark::Canneal, None))
            })
            .into();
        // Cut EB off before its first packet: nothing is in flight yet.
        cells[1].1.max_cycles = 1;
        let err = run_clean_grid(&cells, &RunnerConfig::serial()).expect_err("EB cannot finish");
        assert!(err.contains("fig/canneal/EB") && err.contains("timed-out"), "{err}");
    }

    /// The serial studies' runs are held to the grid's standard: out of
    /// budget or panicked is an error naming the unit, never an outcome.
    #[test]
    fn a_serial_run_that_does_not_finish_or_panics_fails_by_key() {
        let cfg = tiny_campaign()
            .config(Design::IntelliNoc, ParsecBenchmark::Canneal, None)
            .with_time_step(50);
        let ok = run_checked("study/ok", cfg.clone(), None, |_| ()).expect("finishes");
        assert!(ok.finished && ok.mode_histogram.iter().sum::<u64>() > 0);
        let cut = ExperimentConfig { max_cycles: 1, ..cfg.clone() };
        let err = run_checked("study/cut", cut, None, |_| ()).expect_err("no budget");
        assert!(err.contains("study/cut") && err.contains("timed-out"), "{err}");
        let err = run_checked("study/boom", cfg, None, |_| panic!("hook blew up"))
            .expect_err("the hook panics at the first control step");
        assert!(err.contains("study/boom failed: hook blew up"), "{err}");
    }

    /// Each scaling cell sizes its agent bank from its own mesh: one
    /// decision per router per control step at 4x4 and at 16x16 (the loop
    /// this study used to run on had no controller at all, and its siblings
    /// hard-coded 64 agents). Packets are conserved at every size and
    /// latency grows with the mesh.
    #[test]
    fn scaling_cells_run_one_agent_per_router_at_every_mesh_size() {
        // Design-major: SECDED at 4, 8, 16, then IntelliNoC at 4, 8, 16.
        let cells: Vec<_> = studies::scaling_cells().into_iter().skip(3).step_by(2).collect();
        assert!(cells.iter().all(|(_, cfg)| cfg.design == Design::IntelliNoc));
        let sides = [4u64, 16];
        let outcomes = run_clean_grid(&cells, &RunnerConfig::serial()).expect("clean grid");
        for (side, o) in sides.iter().zip(&outcomes) {
            let routers = side * side;
            let steps = (o.report.stats.cycles - 1) / intellinoc::DEFAULT_TIME_STEP;
            assert!(steps > 0, "{side}x{side} ran {} cycles", o.report.stats.cycles);
            assert_eq!(o.mode_histogram.iter().sum::<u64>(), routers * steps, "{side}x{side}");
            assert_eq!(o.report.stats.packets_delivered, routers * 40, "{side}x{side}");
        }
        assert!(outcomes[1].report.avg_latency() > outcomes[0].report.avg_latency());
    }

    #[test]
    fn pretrained_tables_are_cached_by_rl_time_step_and_seed() {
        let mut eval = Evaluation::new(Campaign::default(), 1);
        // A stand-in for the campaign's 24 episodes: one empty table.
        let stand_in = vec![QTable::new(5, 350)];
        let Campaign { rl, time_step, seed, .. } = eval.campaign;
        eval.pretrained.push(((rl, time_step, seed), stand_in));
        // Pre-training does not read the test runs' packet budget.
        let same = Campaign { packets_per_node: 4, ..Campaign::default() };
        let tables = eval.pretrained(&same);
        assert!(tables.len() == 1 && tables[0].is_empty(), "served from the cache");
        assert_eq!(eval.pretrained.len(), 1);
    }
}
