//! # intellinoc-bench
//!
//! The paper's evaluation (§7) as one table. [`FIGURES`] lists every
//! experiment — Figs. 9–18, Table 2 and the extension studies — by the name
//! DESIGN.md §3 and EXPERIMENTS.md use, each with the pre-training recipes
//! it reads and the function that renders it; the one binary, `figures`,
//! looks names up here (`figures --list`, `figures <name>…`, `figures all`).
//!
//! The 5 designs × 10 benchmarks campaign behind Figs. 9–16 and the probe,
//! and the test runs of Figs. 17a/17b, are [`intellinoc::BenchSpec`] grids
//! with a PARSEC workload axis (`Campaign::outcomes`); `Campaign` only
//! stamps its time step, RL hyperparameters and pre-trained tables on the
//! spec's cells. A PARSEC cell's seed is paired: every design of a benchmark
//! runs seed `k` of the spec (`k = 0` is the campaign seed, 2019), so Figs.
//! 9–16 normalize each benchmark to SECDED on the *same* traffic. The other
//! studies — Figs. 18a/18b, the ablations, expert-vs-RL, the Q-table
//! faults, the mesh-scaling study, the load sweep and (through
//! `run_campaign_runner`) the resilience grid — are cell lists for
//! [`intellinoc::run_grid`], each cell at the seed its study pins; a
//! cell's policy (`expert`) and Q-table soft errors (`qtable_flips`) are
//! cell data like its seed. Pre-training is a grid too: before the first
//! render, [`Evaluation::pretrain`] trains every distinct recipe the
//! selected figures declare as one [`intellinoc::pretrain_grid`] grid, and
//! a render only looks its tables up. `--jobs N` parallelizes every grid
//! without moving a byte of output. An [`Evaluation`] carries the campaign
//! parameters, worker count and trained tables across the figures of one
//! invocation and runs the campaign at most once, in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod studies;

pub use csv::{write_campaign_csv, write_raw_csv, METRIC_COLUMNS};
pub use intellinoc::Pretraining;
pub use studies::print_headline;

use intellinoc::{
    compare, pretrain_grid, pretraining_key, run_grid, BenchSpec, BenchWorkload, ChaosOptions,
    ComparisonRow, Design, ExperimentConfig, ExperimentOutcome, NormalizedMetrics, RunnerConfig,
    UnitSinks,
};
use noc_rl::{QLearningConfig, QTable};
use noc_traffic::ParsecBenchmark;
use std::io::{self, Write};

/// Default packets-per-node budget for figure campaigns. Keeps full-campaign
/// wall-clock tractable while exercising thousands of packets per run.
pub const CAMPAIGN_PACKETS_PER_NODE: u64 = 300;

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
    /// This campaign's pre-training: 24 full blackscholes executions of 200
    /// packets per node, at its RL hyperparameters, time step and seed.
    pub fn pretraining(&self) -> Pretraining {
        (self.rl, 200, self.time_step, self.seed, 24)
    }

    /// `designs` × `benches` as a one-seed [`BenchSpec`] grid at this
    /// campaign's packet budget and seed, and its outcomes in cell order
    /// (design-major): the spec's cells with this campaign's time step, RL
    /// hyperparameters and `pretrained` tables (for the designs that learn)
    /// stamped on, then `tweak`ed, run as one grid and folded by
    /// [`BenchSpec::runs`].
    ///
    /// # Errors
    ///
    /// Engine errors, and the first unit that did not finish `ok` — timed
    /// out, stalled or panicked — named by its key.
    pub(crate) fn outcomes(
        &self,
        designs: &[Design],
        benches: &[ParsecBenchmark],
        pretrained: Option<&[QTable]>,
        rcfg: &RunnerConfig,
        tweak: impl Fn(&mut ExperimentConfig),
    ) -> Result<Vec<ExperimentOutcome>, String> {
        let spec = BenchSpec {
            designs: designs.to_vec(),
            rates: benches.iter().map(|&b| BenchWorkload::Parsec(b)).collect(),
            seeds: 1,
            ppn: self.packets_per_node,
            master_seed: self.seed,
            reqreply: None,
        };
        let mut cells = spec.cells();
        for (_, cfg) in &mut cells {
            cfg.time_step = self.time_step;
            cfg.rl = self.rl;
            if cfg.design.uses_rl() {
                cfg.pretrained = pretrained.map(<[QTable]>::to_vec);
            }
            tweak(cfg);
        }
        let report = run_grid(&cells, rcfg, &ChaosOptions::default(), UnitSinks::default())?;
        Ok(spec.runs(&report)?.into_iter().flat_map(|(.., runs)| runs).cloned().collect())
    }

    /// Runs all five designs on each of `benches` as one grid and
    /// normalizes each benchmark to its SECDED run.
    ///
    /// # Errors
    ///
    /// As `Campaign::outcomes`: engine errors, and the first unit that did
    /// not finish `ok`, named by its key.
    pub fn run(
        &self,
        benches: &[ParsecBenchmark],
        pretrained: Option<&[QTable]>,
        rcfg: &RunnerConfig,
    ) -> Result<CampaignResults, String> {
        let outcomes = self.outcomes(&Design::ALL, benches, pretrained, rcfg, |_| ())?;
        // Design-major: design d on benches[j] is outcome d * benches.len() + j.
        let raw: Vec<(ParsecBenchmark, Vec<ExperimentOutcome>)> = benches
            .iter()
            .enumerate()
            .map(|(j, &bench)| {
                (bench, outcomes.iter().skip(j).step_by(benches.len()).cloned().collect())
            })
            .collect();
        let rows = raw.iter().map(|(_, per_design)| compare(per_design)).collect();
        Ok(CampaignResults { rows, raw })
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
/// parameters, the worker count for the grids, the pre-trained tables and
/// the campaign results — kept in memory, never on disk.
#[derive(Debug)]
pub struct Evaluation {
    /// Campaign parameters ([`Campaign::default`] is the paper's job).
    pub campaign: Campaign,
    /// Worker threads for the grids (results identical at any count).
    pub jobs: usize,
    results: Option<CampaignResults>,
    /// Pre-trained tables by the recipe that produced them, filled by
    /// [`Evaluation::pretrain`].
    pretrained: Vec<(Pretraining, Vec<QTable>)>,
}

impl Evaluation {
    /// An evaluation that has run nothing yet.
    pub fn new(campaign: Campaign, jobs: usize) -> Self {
        Evaluation { campaign, jobs, results: None, pretrained: Vec::new() }
    }

    /// Pre-trains every recipe `figures` declare ([`declared_recipes`]) as
    /// one grid on this evaluation's workers.
    ///
    /// # Errors
    ///
    /// Engine errors, and the first recipe unit that did not finish `ok`,
    /// named by its `pretrain/…` key.
    pub fn pretrain(&mut self, figures: &[&Figure]) -> Result<(), String> {
        let recipes = declared_recipes(figures, &self.campaign);
        let report = pretrain_grid(&recipes, &self.runner(), &ChaosOptions::default())?;
        let tables = report.clean_payloads()?.into_iter().cloned();
        self.pretrained.extend(recipes.into_iter().zip(tables));
        Ok(())
    }

    /// The IntelliNoC policy pre-trained on blackscholes (paper §6.3) by
    /// `recipe`, as [`Evaluation::pretrain`] left it.
    ///
    /// # Errors
    ///
    /// `recipe` was not trained: no selected figure declared it. The error
    /// names its key.
    pub fn pretrained(&self, recipe: Pretraining) -> io::Result<&[QTable]> {
        match self.pretrained.iter().find(|(k, _)| *k == recipe) {
            Some((_, tables)) => Ok(tables),
            None => Err(io::Error::other(format!(
                "pre-training recipe {} was not declared by any selected figure",
                pretraining_key(&recipe)
            ))),
        }
    }

    /// The runner configuration of this evaluation's grids.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig::serial().with_jobs(self.jobs)
    }

    /// Runs a study's own `cells` as one grid on this evaluation's workers:
    /// their outcomes in cell order, or the first unit that did not finish
    /// `ok`, named by its key ([`intellinoc::RunnerReport::clean_payloads`]).
    pub(crate) fn grid(
        &self,
        cells: &[(String, ExperimentConfig)],
    ) -> io::Result<Vec<ExperimentOutcome>> {
        let report =
            run_grid(cells, &self.runner(), &ChaosOptions::default(), UnitSinks::default())
                .map_err(io::Error::other)?;
        Ok(report.clean_payloads().map_err(io::Error::other)?.into_iter().cloned().collect())
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
            let pretrained = self.pretrained(self.campaign.pretraining())?;
            let results = self
                .campaign
                .run(&ParsecBenchmark::TEST_SET, Some(pretrained), &self.runner())
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
    /// The pre-training recipes its render reads at a campaign.
    pub recipes: fn(&Campaign) -> Vec<Pretraining>,
    /// Runs what it needs and writes the table(s).
    pub render: fn(&mut Evaluation, &mut dyn Write) -> io::Result<()>,
}

/// What an entry fed by the campaign reads: the campaign's recipe.
fn campaign_recipe(c: &Campaign) -> Vec<Pretraining> {
    vec![c.pretraining()]
}

/// What an entry that runs no pre-trained policy reads.
fn no_recipes(_: &Campaign) -> Vec<Pretraining> {
    Vec::new()
}

/// The distinct recipes `figures` declare at `campaign`, each once, in
/// [`FIGURES`] order: the campaign's 24-episode recipes lead, so the
/// workers of one grid pack well.
pub fn declared_recipes(figures: &[&Figure], campaign: &Campaign) -> Vec<Pretraining> {
    let mut recipes = Vec::new();
    for fig in FIGURES.iter().filter(|f| figures.iter().any(|s| s.name == f.name)) {
        for recipe in (fig.recipes)(campaign) {
            if !recipes.contains(&recipe) {
                recipes.push(recipe);
            }
        }
    }
    recipes
}

/// Every experiment of the evaluation, in `figures all` order: the paper's
/// Figs. 9–18 and Table 2 (DESIGN.md §3), then the extension studies.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig09_speedup",
        about: "Fig. 9: speed-up of full execution time, normalized to SECDED",
        recipes: campaign_recipe,
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
        recipes: campaign_recipe,
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
        recipes: campaign_recipe,
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
        recipes: campaign_recipe,
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
        recipes: campaign_recipe,
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
        recipes: campaign_recipe,
        render: studies::fig14,
    },
    Figure {
        name: "fig15_retransmissions",
        about: "Fig. 15: re-transmitted flits, normalized to SECDED, plus absolute counts",
        recipes: campaign_recipe,
        render: studies::fig15,
    },
    Figure {
        name: "fig16_mttf",
        about: "Fig. 16: mean-time-to-failure, normalized to SECDED",
        recipes: campaign_recipe,
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
        recipes: studies::fig17a_recipes,
        render: studies::fig17a,
    },
    Figure {
        name: "fig17b_error_rate",
        about: "Fig. 17b: forced bit-error-rate sweep, IntelliNoC vs SECDED on 3 benchmarks",
        recipes: campaign_recipe,
        render: studies::fig17b,
    },
    Figure {
        name: "fig18a_gamma",
        about: "Fig. 18a: discount rate gamma vs EDP and re-transmissions (blackscholes, seed 7)",
        recipes: |_| studies::hyper_recipes(studies::fig18a_gamma, &studies::GAMMAS),
        render: |e, w| {
            studies::hyper_sweep(
                e,
                w,
                "Fig. 18a: impact of discount rate gamma",
                ("gamma", 6, 1),
                &studies::GAMMAS,
                studies::fig18a_gamma,
                "paper: EDP improves with larger gamma up to 0.9; gamma=1 fails to converge",
            )
        },
    },
    Figure {
        name: "fig18b_epsilon",
        about: "Fig. 18b: exploration epsilon vs EDP and re-transmissions (blackscholes, seed 7)",
        recipes: |_| studies::hyper_recipes(studies::fig18b_epsilon, &studies::EPSILONS),
        render: |e, w| {
            studies::hyper_sweep(
                e,
                w,
                "Fig. 18b: impact of exploration probability epsilon",
                ("epsilon", 8, 2),
                &studies::EPSILONS,
                studies::fig18b_epsilon,
                "paper: both extremes (epsilon=0 and epsilon=1) are sub-optimal; 0.05 is best",
            )
        },
    },
    Figure {
        name: "table2_area",
        about: "Table 2: per-router area by component and design (um^2, 32 nm)",
        recipes: no_recipes,
        render: studies::table2,
    },
    Figure {
        name: "ablations",
        about: "DESIGN.md §6 ablations D1/D2/D3/D5, IntelliNoC on canneal (seed 5)",
        recipes: no_recipes,
        render: studies::ablations,
    },
    Figure {
        name: "expert_vs_rl",
        about: "learned policy vs a hand-written threshold rule on 3 benchmarks (seed 21)",
        recipes: no_recipes,
        render: studies::expert_vs_rl,
    },
    Figure {
        name: "qtable_faults",
        about: "soft errors in the Q-tables, IntelliNoC on canneal (seed 31)",
        recipes: |_| vec![studies::qtable_faults_recipe()],
        render: studies::qtable_faults,
    },
    Figure {
        name: "scaling",
        about: "4x4 / 8x8 / 16x16 meshes under uniform traffic, SECDED and IntelliNoC (seed 13)",
        recipes: no_recipes,
        render: studies::scaling,
    },
    Figure {
        name: "load_sweep",
        about: "latency vs offered load, 8 rates x 5 designs on uniform traffic (seed 42)",
        recipes: no_recipes,
        render: studies::load_sweep,
    },
    Figure {
        name: "resilience",
        about: "hard-fault campaign grid, with and without fault-aware rerouting (seed 1)",
        recipes: no_recipes,
        render: studies::resilience,
    },
    Figure {
        name: "probe",
        about: "raw campaign metrics of every design on 4 benchmarks (calibration check)",
        recipes: campaign_recipe,
        render: studies::probe,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

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
        let designs = [Design::Secded, Design::Eb];
        // Cut EB off before its first packet: nothing is in flight yet.
        let cut = |cfg: &mut ExperimentConfig| {
            if cfg.design == Design::Eb {
                cfg.max_cycles = 1;
            }
        };
        let err = tiny_campaign()
            .outcomes(&designs, &[ParsecBenchmark::Canneal], None, &RunnerConfig::serial(), cut)
            .expect_err("EB cannot finish");
        assert!(err.contains("bench/EB/canneal/s0 timed-out"), "{err}");
        assert!(err.contains("1 ok, 0 failed, 1 timed-out, 0 skipped"), "{err}");
    }

    /// A study's cells are held to the grid's standard: out of budget or
    /// panicked is an error naming the unit, never an outcome — for the
    /// cells that carry a policy (`expert`) or soft errors (`qtable_flips`)
    /// like any other.
    #[test]
    fn a_study_cell_that_does_not_finish_or_panics_fails_by_key() {
        let cfg = ExperimentConfig::new(Design::IntelliNoc, ParsecBenchmark::Canneal.workload(4))
            .with_seed(2019)
            .with_time_step(50);
        let flips = ExperimentConfig { qtable_flips: 2.0, ..cfg.clone() };
        let expert = ExperimentConfig { expert: Some(Default::default()), max_cycles: 1, ..cfg };
        let cells = [("study/flips".to_owned(), flips), ("study/expert".to_owned(), expert)];
        let eval = Evaluation::new(tiny_campaign(), 1);
        let ok = eval.grid(&cells[..1]).expect("the flips cell finishes");
        assert!(ok[0].finished && ok[0].mode_histogram.iter().sum::<u64>() > 0);
        let err = eval.grid(&cells).expect_err("no budget").to_string();
        assert!(err.contains("unit study/expert timed-out"), "{err}");
        let chaos = ChaosOptions { panic_units: Some("flips".into()), ..Default::default() };
        let report = run_grid(&cells, &RunnerConfig::serial(), &chaos, UnitSinks::default());
        let err = report.expect("engine").clean_payloads().expect_err("a panicked unit");
        assert!(err.contains("unit study/flips failed: "), "{err}");
        // A recipe unit is held to the same standard, by its `pretrain/…` key.
        let recipe = (intellinoc::intellinoc_rl_config(), 4, 50, 2019, 1);
        let chaos = ChaosOptions { panic_units: Some("pretrain/".into()), ..Default::default() };
        let report = pretrain_grid(&[recipe], &RunnerConfig::serial(), &chaos);
        let err = report.expect("engine").clean_payloads().expect_err("a panicked unit");
        assert!(err.contains("unit pretrain/ts50/ppn4/s2019/e1/g0.9/eps0.05 failed: "), "{err}");
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
        let outcomes = Evaluation::new(tiny_campaign(), 1).grid(&cells).expect("clean grid");
        for (side, o) in sides.iter().zip(&outcomes) {
            let routers = side * side;
            let steps = (o.report.stats.cycles - 1) / intellinoc::DEFAULT_TIME_STEP;
            assert!(steps > 0, "{side}x{side} ran {} cycles", o.report.stats.cycles);
            assert_eq!(o.mode_histogram.iter().sum::<u64>(), routers * steps, "{side}x{side}");
            assert_eq!(o.report.stats.packets_delivered, routers * 40, "{side}x{side}");
        }
        assert!(outcomes[1].report.avg_latency() > outcomes[0].report.avg_latency());
    }

    /// Every entry the campaign grid feeds — Figs. 9–16, 17a, 17b, the
    /// probe, the headline block and both CSVs — rendered from a ppn-4
    /// evaluation of the whole test set, with stand-in (untrained) tables in
    /// the pre-training cache for each recipe the entries ask for, so
    /// nothing pre-trains. Recorded before the campaign became a
    /// `BenchSpec` grid: the bytes must not move.
    #[test]
    fn tiny_evaluation_renders_the_pinned_bytes() {
        let mut eval = Evaluation::new(tiny_campaign(), 2);
        for time_step in [intellinoc::DEFAULT_TIME_STEP, 200, 500, 10_000] {
            let stand_in = vec![QTable::new(5, 350); 64];
            let recipe = Campaign { time_step, ..eval.campaign }.pretraining();
            eval.pretrained.push((recipe, stand_in));
        }
        let mut out = Vec::new();
        let entries = [
            "fig09_speedup",
            "fig10_latency",
            "fig11_static_power",
            "fig12_dynamic_power",
            "fig13_energy_efficiency",
            "fig14_mode_breakdown",
            "fig15_retransmissions",
            "fig16_mttf",
            "fig17a_timestep",
            "fig17b_error_rate",
            "probe",
        ];
        for name in entries {
            let fig = FIGURES.iter().find(|f| f.name == name).expect("an entry");
            (fig.render)(&mut eval, &mut out).expect("renders");
        }
        print_headline(&mut eval, &mut out).expect("renders");
        let results = eval.results().expect("computed");
        write_campaign_csv(&mut out, results).expect("in-memory write");
        write_raw_csv(&mut out, results).expect("in-memory write");
        assert_eq!(eval.pretrained.len(), 4, "no entry pre-trained");
        let text = String::from_utf8(out).expect("utf8");
        let pin = include_str!("../tests/fixtures/tiny_evaluation.txt");
        for (i, (got, want)) in text.lines().zip(pin.lines()).enumerate() {
            assert_eq!(got, want, "line {} of the pin moved", i + 1);
        }
        assert_eq!(text.lines().count(), pin.lines().count(), "pin line count");
    }

    /// `figures all` trains 17 distinct recipes, each under its own key: the
    /// campaign's four time steps (Fig. 17a's sweep holds the campaign's
    /// own) first, then 12 for Figs. 18a/18b — γ = 0.9 and ε = 0.05 are both
    /// the paper's config, so one recipe — and `qtable_faults`' one.
    /// Pre-training does not read the test runs' packet budget.
    #[test]
    fn figures_declare_seventeen_distinct_recipes_with_unique_keys() {
        let all: Vec<&Figure> = FIGURES.iter().collect();
        let recipes = declared_recipes(&all, &Campaign::default());
        assert_eq!(recipes.len(), 17);
        assert!(recipes[..4].iter().all(|&(_, ppn, _, _, episodes)| (ppn, episodes) == (200, 24)));
        assert!(recipes[4..].iter().all(|&(.., episodes)| episodes == 12));
        let keys: std::collections::BTreeSet<String> =
            recipes.iter().map(pretraining_key).collect();
        assert_eq!(keys.len(), recipes.len(), "two recipes share a key");
        assert!(keys.contains("pretrain/ts1000/ppn200/s2019/e24/g0.9/eps0.05"), "{keys:?}");
        let tiny = declared_recipes(&all, &tiny_campaign());
        assert_eq!(tiny, recipes);
        // A named selection trains only what it reads.
        let entry = |name| FIGURES.iter().find(|f| f.name == name).expect("an entry");
        let gamma = studies::hyper_recipe(studies::fig18a_gamma, 0.9);
        let epsilons = declared_recipes(&[entry("fig18b_epsilon")], &Campaign::default());
        assert!(epsilons.len() == 7 && epsilons.contains(&gamma));
        assert!(declared_recipes(&[entry("table2_area")], &Campaign::default()).is_empty());
    }

    /// A render looks its tables up and trains nothing: a recipe no selected
    /// figure declared is an error naming it, raised before any run.
    #[test]
    fn a_figure_whose_recipe_was_not_trained_fails_naming_it() {
        let mut eval = Evaluation::new(tiny_campaign(), 1);
        let fig = FIGURES.iter().find(|f| f.name == "qtable_faults").expect("an entry");
        let err = (fig.render)(&mut eval, &mut Vec::new()).expect_err("nothing trained");
        let err = err.to_string();
        assert!(err.contains("recipe pretrain/ts1000/ppn150/s31/e12/g0.9/eps0.05 "), "{err}");
        assert!(eval.pretrained.is_empty(), "the render trained a recipe");
        assert!(eval.pretrained(tiny_campaign().pretraining()).is_err());
    }
}
