//! # intellinoc-bench
//!
//! The paper's evaluation (§7) as one table. [`FIGURES`] lists every
//! experiment — Figs. 9–18, Table 2 and the extension studies — by the name
//! DESIGN.md §3 and EXPERIMENTS.md use, each with the runs it reads and the
//! function that writes its table from them. The crate is a library: the
//! `intellinoc figures <name>… | all` command looks names up here, and
//! `intellinoc list` prints them.
//!
//! A figure declares its runs once, as [`Cell`]s, and `figures` works in
//! three steps: it collects the distinct cells of the selected figures
//! ([`figure_cells`]), trains their distinct recipes as one
//! [`intellinoc::pretrain_grid`] grid and runs every cell as one
//! [`intellinoc::run_grid`] grid ([`evaluate`]), then writes each figure
//! from its own cells' records ([`Figure::write`]). `--jobs N` parallelizes
//! both grids without moving a byte of output. The campaign behind Figs.
//! 9–16 and the probe, and the runs of Figs. 17a/17b, are PARSEC cells of
//! [`intellinoc::BenchSpec`] grids ([`Campaign::cells`]): every design of a
//! benchmark runs the same seed, so Figs. 9–16 normalize each benchmark to
//! SECDED on the *same* traffic. The other studies' cells run at the seeds
//! their studies pin; a cell's policy (`expert`) and Q-table soft errors
//! (`qtable_flips`) are cell data like its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod studies;

pub use csv::{write_campaign_csv, write_raw_csv, METRIC_COLUMNS};
pub use intellinoc::Pretraining;
pub use studies::print_headline;

use intellinoc::{
    compare, pretrain_grid, pretraining_key, run_grid, BenchSpec, BenchWorkload, ChaosOptions,
    ComparisonRow, Design, ExperimentConfig, ExperimentOutcome, NormalizedMetrics, RunStatus,
    RunnerConfig, RunnerReport, UnitRecord, UnitSinks,
};
use noc_rl::{QLearningConfig, QTable};
use noc_traffic::ParsecBenchmark;
use std::io::{self, Write};

/// Default packets-per-node budget for figure campaigns. Keeps full-campaign
/// wall-clock tractable while exercising thousands of packets per run.
pub const CAMPAIGN_PACKETS_PER_NODE: u64 = 300;

/// One run of the evaluation: its key, which spells what the run varies;
/// the experiment, seed included; and the recipe whose pre-trained tables
/// it starts from (`None`: it runs no pre-trained policy).
pub type Cell = (String, ExperimentConfig, Option<Pretraining>);

/// The record of one cell's run.
pub type Record = UnitRecord<ExperimentOutcome>;

/// The report of a grid of cells.
pub type Report = RunnerReport<ExperimentOutcome>;

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

    /// `designs` × `benches` as the cells of a one-seed [`BenchSpec`] grid
    /// at this campaign's packet budget and seed, design-major: the spec's
    /// cells with this campaign's time step and RL hyperparameters stamped
    /// on, and its recipe on the designs that learn. A key is the spec's,
    /// plus `/ts<step>` at a time step other than the paper's.
    pub fn cells(&self, designs: &[Design], benches: &[ParsecBenchmark]) -> Vec<Cell> {
        let spec = BenchSpec {
            designs: designs.to_vec(),
            rates: benches.iter().map(|&b| BenchWorkload::Parsec(b)).collect(),
            seeds: 1,
            ppn: self.packets_per_node,
            master_seed: self.seed,
            reqreply: None,
        };
        let step = match self.time_step {
            intellinoc::DEFAULT_TIME_STEP => String::new(),
            step => format!("/ts{step}"),
        };
        let stamp = |(key, cfg): (String, ExperimentConfig)| {
            let recipe = cfg.design.uses_rl().then(|| self.pretraining());
            let cfg = ExperimentConfig { time_step: self.time_step, rl: self.rl, ..cfg };
            (format!("{key}{step}"), cfg, recipe)
        };
        spec.cells().into_iter().map(stamp).collect()
    }

    /// The paper campaign's cells: all five designs on the 10-benchmark
    /// test set, IntelliNoC pre-trained on blackscholes.
    pub fn paper_cells(&self) -> Vec<Cell> {
        self.cells(&Design::ALL, &ParsecBenchmark::TEST_SET)
    }

    /// The paper campaign's results, from the records of its cells in
    /// `report`; an error names a cell that did not run or finish `ok`.
    pub fn results(&self, report: &Report) -> io::Result<CampaignResults> {
        CampaignResults::new(&ParsecBenchmark::TEST_SET, &records_of(report, &self.paper_cells())?)
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

/// The outcomes of `records`, in order — the rule for a table read off
/// runs, which needs them all — or the first unit that did not finish `ok`,
/// named by its key.
fn ok_outcomes<'r>(records: &[&'r Record]) -> io::Result<Vec<&'r ExperimentOutcome>> {
    let ok = |r: &&'r Record| match (r.status, &r.payload) {
        (RunStatus::Ok, Some(outcome)) => Ok(outcome),
        _ => Err(unit_error(r)),
    };
    records.iter().map(ok).collect()
}

/// The error naming a unit that did not finish `ok`.
fn unit_error(r: &Record) -> io::Error {
    let why = r.error.as_ref().map_or(String::new(), |e| format!(": {e}"));
    io::Error::other(format!("unit {} {}{why}", r.key, r.status.label()))
}

impl CampaignResults {
    /// The campaign of [`Design::ALL`] × `benches` from its cells' records
    /// in [`Campaign::cells`] order, each benchmark normalized to its SECDED
    /// run; an error names the first unit that did not finish `ok`.
    pub fn new(benches: &[ParsecBenchmark], records: &[&Record]) -> io::Result<Self> {
        let outcomes = ok_outcomes(records)?;
        // Design-major: design d on benches[j] is outcome d * benches.len() + j.
        let of_bench = |j| outcomes.iter().skip(j).step_by(benches.len()).map(|&o| o.clone());
        let raw: Vec<(ParsecBenchmark, Vec<_>)> =
            benches.iter().enumerate().map(|(j, &b)| (b, of_bench(j).collect())).collect();
        let rows = raw.iter().map(|(_, per_design)| compare(per_design)).collect();
        Ok(CampaignResults { rows, raw })
    }

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

/// The distinct cells of `figures` at `campaign`, in figure and then
/// declared order: equal keys are one run, shared by the figures that read
/// it, and a key naming two different runs — in config or in recipe — is an
/// error naming the key.
pub fn figure_cells(figures: &[&Figure], campaign: &Campaign) -> Result<Vec<Cell>, String> {
    let mut cells: Vec<Cell> = Vec::new();
    for cell in figures.iter().flat_map(|f| (f.cells)(campaign)) {
        match cells.iter().find(|seen| seen.0 == cell.0) {
            None => cells.push(cell),
            // Compared whole, by `Debug`: every field, a tweak's address too.
            Some(seen) if format!("{seen:?}") == format!("{cell:?}") => {}
            Some(_) => return Err(format!("key {} names two different runs", cell.0)),
        }
    }
    Ok(cells)
}

/// The distinct recipes of `cells`, each once, in cell order.
fn recipes_of(cells: &[Cell]) -> Vec<Pretraining> {
    let mut recipes = Vec::new();
    for &(.., recipe) in cells {
        if let Some(recipe) = recipe.filter(|r| !recipes.contains(r)) {
            recipes.push(recipe);
        }
    }
    recipes
}

/// The whole evaluation of `cells` on `jobs` workers: their distinct
/// recipes trained as one [`pretrain_grid`] grid, then every cell run
/// against the tables ([`run_cells`]). An error is the engine's or names a
/// recipe that did not train; a run that did not finish is a record, for
/// its figures to judge.
pub fn evaluate(cells: &[Cell], jobs: usize) -> Result<Report, String> {
    let recipes = recipes_of(cells);
    let rcfg = RunnerConfig::serial().with_jobs(jobs);
    let report = pretrain_grid(&recipes, &rcfg, &ChaosOptions::default())?;
    let trained = report.clean_payloads()?.into_iter().map(Vec::as_slice);
    let tables: Vec<_> = recipes.into_iter().zip(trained).collect();
    run_cells(cells, &tables, jobs)
}

/// Runs `cells` as one [`run_grid`] grid on `jobs` workers, each cell
/// starting from its recipe's tables in `tables`; trains nothing. An error
/// is the engine's or names a recipe `tables` lacks.
pub fn run_cells(
    cells: &[Cell],
    tables: &[(Pretraining, &[QTable])],
    jobs: usize,
) -> Result<Report, String> {
    let table = |recipe: &Pretraining| match tables.iter().find(|(r, _)| r == recipe) {
        Some(&(_, tables)) => Ok(tables.to_vec()),
        None => Err(format!("recipe {} was not trained", pretraining_key(recipe))),
    };
    let grid = cells
        .iter()
        .map(|(key, cfg, recipe)| {
            let pretrained = recipe.as_ref().map(table).transpose()?;
            Ok((key.clone(), ExperimentConfig { pretrained, ..cfg.clone() }))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let rcfg = RunnerConfig::serial().with_jobs(jobs);
    run_grid(&grid, &rcfg, &ChaosOptions::default(), UnitSinks::default())
}

/// The records of `cells` in `report`, in cell order.
fn records_of<'r>(report: &'r Report, cells: &[Cell]) -> io::Result<Vec<&'r Record>> {
    let record = |(key, ..): &Cell| {
        let found = report.records.iter().find(|r| r.key == *key);
        found.ok_or_else(|| io::Error::other(format!("cell {key} was not run")))
    };
    cells.iter().map(record).collect()
}

/// One entry of the evaluation: a paper figure or table, or an extension
/// study.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The key `intellinoc figures <name>` takes; DESIGN.md §3 and
    /// EXPERIMENTS.md refer to experiments by it.
    pub name: &'static str,
    /// One line on what it shows.
    pub about: &'static str,
    /// The runs it reads at a campaign, in the order its render takes them.
    pub cells: fn(&Campaign) -> Vec<Cell>,
    /// Writes the table(s) from the records of its cells, running nothing.
    pub render: fn(&[&Record], &mut dyn Write) -> io::Result<()>,
}

impl Figure {
    /// Writes this figure from `report`, a grid that ran its cells. An error
    /// names a cell that did not run, or did not finish `ok` where the
    /// figure has no status row for it, or is the writer's.
    pub fn write(&self, campaign: &Campaign, report: &Report, w: &mut dyn Write) -> io::Result<()> {
        (self.render)(&records_of(report, &(self.cells)(campaign))?, w)
    }
}

/// Every experiment of the evaluation, in `figures all` order: the paper's
/// Figs. 9–18 and Table 2 (DESIGN.md §3), then the extension studies.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig09_speedup",
        about: "Fig. 9: speed-up of full execution time, normalized to SECDED",
        cells: Campaign::paper_cells,
        render: |records, w| {
            studies::metric_figure(
                records,
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
        cells: Campaign::paper_cells,
        render: |records, w| {
            studies::metric_figure(
                records,
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
        cells: Campaign::paper_cells,
        render: |records, w| {
            studies::metric_figure(
                records,
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
        cells: Campaign::paper_cells,
        render: |records, w| {
            studies::metric_figure(
                records,
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
        cells: Campaign::paper_cells,
        render: |records, w| {
            studies::metric_figure(
                records,
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
        cells: Campaign::paper_cells,
        render: studies::fig14,
    },
    Figure {
        name: "fig15_retransmissions",
        about: "Fig. 15: re-transmitted flits, normalized to SECDED, plus absolute counts",
        cells: Campaign::paper_cells,
        render: studies::fig15,
    },
    Figure {
        name: "fig16_mttf",
        about: "Fig. 16: mean-time-to-failure, normalized to SECDED",
        cells: Campaign::paper_cells,
        render: |records, w| {
            studies::metric_figure(
                records,
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
        cells: studies::fig17a_cells,
        render: studies::fig17a,
    },
    Figure {
        name: "fig17b_error_rate",
        about: "Fig. 17b: forced bit-error-rate sweep, IntelliNoC vs SECDED on 3 benchmarks",
        cells: studies::fig17b_cells,
        render: studies::fig17b,
    },
    Figure {
        name: "fig18a_gamma",
        about: "Fig. 18a: discount rate gamma vs EDP and re-transmissions (blackscholes, seed 7)",
        cells: |_| studies::hyper_cells(studies::fig18a_gamma, &studies::GAMMAS),
        render: |records, w| {
            studies::hyper_sweep(
                records,
                w,
                "Fig. 18a: impact of discount rate gamma",
                ("gamma", 6, 1),
                &studies::GAMMAS,
                "paper: EDP improves with larger gamma up to 0.9; gamma=1 fails to converge",
            )
        },
    },
    Figure {
        name: "fig18b_epsilon",
        about: "Fig. 18b: exploration epsilon vs EDP and re-transmissions (blackscholes, seed 7)",
        cells: |_| studies::hyper_cells(studies::fig18b_epsilon, &studies::EPSILONS),
        render: |records, w| {
            studies::hyper_sweep(
                records,
                w,
                "Fig. 18b: impact of exploration probability epsilon",
                ("epsilon", 8, 2),
                &studies::EPSILONS,
                "paper: both extremes (epsilon=0 and epsilon=1) are sub-optimal; 0.05 is best",
            )
        },
    },
    Figure {
        name: "table2_area",
        about: "Table 2: per-router area by component and design (um^2, 32 nm)",
        cells: |_| Vec::new(),
        render: studies::table2,
    },
    Figure {
        name: "ablations",
        about: "DESIGN.md §6 ablations D1/D2/D3/D5, IntelliNoC on canneal (seed 5)",
        cells: |_| studies::ablation_cells(),
        render: studies::ablations,
    },
    Figure {
        name: "expert_vs_rl",
        about: "learned policy vs a hand-written threshold rule on 3 benchmarks (seed 21)",
        cells: |_| studies::expert_vs_rl_cells(),
        render: studies::expert_vs_rl,
    },
    Figure {
        name: "qtable_faults",
        about: "soft errors in the Q-tables, IntelliNoC on canneal (seed 31)",
        cells: |_| studies::qtable_faults_cells(),
        render: studies::qtable_faults,
    },
    Figure {
        name: "scaling",
        about: "4x4 / 8x8 / 16x16 meshes under uniform traffic, SECDED and IntelliNoC (seed 13)",
        cells: |_| studies::scaling_cells(),
        render: studies::scaling,
    },
    Figure {
        name: "load_sweep",
        about: "latency vs offered load, 8 rates x 5 designs on uniform traffic (seed 42)",
        cells: |_| studies::load_sweep_cells(),
        render: studies::load_sweep,
    },
    Figure {
        name: "resilience",
        about: "hard-fault campaign grid, with and without fault-aware rerouting (seed 1)",
        cells: |_| studies::resilience_cells(),
        render: studies::resilience,
    },
    Figure {
        name: "probe",
        about: "raw campaign metrics of every design on 4 benchmarks (calibration check)",
        cells: Campaign::paper_cells,
        render: studies::probe,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tiny_campaign() -> Campaign {
        Campaign { packets_per_node: 4, ..Campaign::default() }
    }

    fn entry(name: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.name == name).expect("an entry")
    }

    /// `cells` run on `jobs` workers, the designs that learn untrained.
    pub(crate) fn run_untrained(mut cells: Vec<Cell>, jobs: usize) -> Report {
        for (.., recipe) in &mut cells {
            *recipe = None;
        }
        run_cells(&cells, &[], jobs).expect("engine")
    }

    /// A 4-packets-per-node campaign of one benchmark, not pre-trained.
    pub(crate) fn tiny_results() -> CampaignResults {
        let benches = [ParsecBenchmark::Swaptions];
        let report = run_untrained(tiny_campaign().cells(&Design::ALL, &benches), 1);
        let records: Vec<&Record> = report.records.iter().collect();
        CampaignResults::new(&benches, &records).expect("clean grid")
    }

    #[test]
    fn tiny_campaign_runs_one_benchmark() {
        let results = tiny_results();
        assert_eq!(results.raw[0].1.len(), 5);
        assert_eq!(results.rows[0].designs.len(), 5);
    }

    #[test]
    fn figure_names_are_unique_and_match_design_md() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 20);
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate figure name");
        assert!(FIGURES.iter().all(|f| !f.name.is_empty() && !f.about.is_empty()));
        // DESIGN.md §3 indexes every experiment in tables whose last column
        // reads `intellinoc figures <name>`: those rows and the rows here
        // must agree.
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("## 3. Experiment index").expect("DESIGN.md section 3");
        let section = &design[start..];
        let section = &section[..section.find("\n## 4.").expect("DESIGN.md section 4")];
        let documented: BTreeSet<&str> = section
            .lines()
            .filter_map(|line| {
                line.strip_suffix("` |")?.rsplit_once("| `intellinoc figures ").map(|c| c.1)
            })
            .collect();
        assert_eq!(documented, unique, "DESIGN.md section 3 and FIGURES disagree");
    }

    /// Everything `figures all` derives from the campaign, written from a
    /// ppn-4 run of its cells on `jobs` workers, not pre-trained: Figs.
    /// 9–16, the probe, the headline block, both CSVs.
    fn render_campaign_entries(jobs: usize) -> Vec<u8> {
        let campaign = tiny_campaign();
        let report = run_untrained(campaign.paper_cells(), jobs);
        let mut out = Vec::new();
        for fig in FIGURES {
            let from_campaign = ("fig09".."fig17").contains(&fig.name) || fig.name == "probe";
            if from_campaign {
                let before = out.len();
                fig.write(&campaign, &report, &mut out).expect("renders");
                assert!(out.len() > before, "{} rendered nothing", fig.name);
            }
        }
        let results = campaign.results(&report).expect("clean grid");
        let before = out.len();
        print_headline(&results, &mut out).expect("renders");
        assert!(out.len() > before, "headline rendered nothing");
        write_campaign_csv(&mut out, &results).expect("in-memory write");
        write_raw_csv(&mut out, &results).expect("in-memory write");
        out
    }

    #[test]
    fn campaign_entries_render_identically_at_any_job_count() {
        let serial = render_campaign_entries(1);
        let text = String::from_utf8(serial.clone()).expect("utf8");
        for expected in ["Fig. 9:", "Fig. 14:", "Fig. 16:", "### swaptions ###", "headline"] {
            assert!(text.contains(expected), "missing {expected}");
        }
        let parallel = render_campaign_entries(2);
        assert!(serial == parallel, "jobs = 1 and jobs = 2 must render the same bytes");
    }

    #[test]
    fn a_unit_out_of_budget_fails_the_grid_by_key() {
        let designs = [Design::Secded, Design::Eb];
        let mut cells = tiny_campaign().cells(&designs, &[ParsecBenchmark::Canneal]);
        // Cut EB off before its first packet: nothing is in flight yet.
        for (_, cfg, _) in &mut cells {
            if cfg.design == Design::Eb {
                cfg.max_cycles = 1;
            }
        }
        let report = run_cells(&cells, &[], 1).expect("engine");
        let err = report.clean_payloads().expect_err("EB cannot finish");
        assert!(err.contains("bench/EB/canneal/s0 timed-out"), "{err}");
        assert!(err.contains("1 ok, 0 failed, 1 timed-out, 0 skipped"), "{err}");
        // A render reading these records fails by the same key.
        let records: Vec<&Record> = report.records.iter().collect();
        let err = ok_outcomes(&records).expect_err("EB cannot finish").to_string();
        assert_eq!(err, "unit bench/EB/canneal/s0 timed-out");
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
        let cells =
            [("study/flips".to_owned(), flips, None), ("study/expert".to_owned(), expert, None)];
        let rcfg = RunnerConfig::serial();
        let report = run_cells(&cells[..1], &[], 1).expect("engine");
        let ok = report.clean_payloads().expect("the flips cell finishes");
        assert!(ok[0].finished && ok[0].mode_histogram.iter().sum::<u64>() > 0);
        let report = run_cells(&cells, &[], 1).expect("engine");
        let records: Vec<&Record> = report.records.iter().collect();
        let err = ok_outcomes(&records).expect_err("no budget").to_string();
        assert!(err.contains("unit study/expert timed-out"), "{err}");
        let chaos = ChaosOptions { panic_units: Some("flips".into()), ..Default::default() };
        let grid: Vec<_> = cells.iter().map(|(key, cfg, _)| (key.clone(), cfg.clone())).collect();
        let report = run_grid(&grid, &rcfg, &chaos, UnitSinks::default());
        let err = report.expect("engine").clean_payloads().expect_err("a panicked unit");
        assert!(err.contains("unit study/flips failed: "), "{err}");
        // A recipe unit is held to the same standard, by its `pretrain/…` key.
        let recipe = (intellinoc::intellinoc_rl_config(), 4, 50, 2019, 1);
        let chaos = ChaosOptions { panic_units: Some("pretrain/".into()), ..Default::default() };
        let report = pretrain_grid(&[recipe], &rcfg, &chaos);
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
        assert!(cells.iter().all(|(_, cfg, _)| cfg.design == Design::IntelliNoc));
        let sides = [4u64, 16];
        let report = run_cells(&cells, &[], 1).expect("engine");
        let outcomes = report.clean_payloads().expect("clean grid");
        for (side, o) in sides.iter().zip(&outcomes) {
            let routers = side * side;
            let steps = (o.report.stats.cycles - 1) / intellinoc::DEFAULT_TIME_STEP;
            assert!(steps > 0, "{side}x{side} ran {} cycles", o.report.stats.cycles);
            assert_eq!(o.mode_histogram.iter().sum::<u64>(), routers * steps, "{side}x{side}");
            assert_eq!(o.report.stats.packets_delivered, routers * 40, "{side}x{side}");
        }
        assert!(outcomes[1].report.avg_latency() > outcomes[0].report.avg_latency());
    }

    /// Every entry the campaign cells feed — Figs. 9–16, 17a, 17b, the
    /// probe, the headline block and both CSVs — written from a ppn-4 run
    /// of the whole test set against stand-in (untrained) tables for each
    /// recipe the entries read, so nothing pre-trains. Recorded before the
    /// campaign became a `BenchSpec` grid: the bytes must not move.
    #[test]
    fn tiny_evaluation_renders_the_pinned_bytes() {
        let campaign = tiny_campaign();
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
        let selected: Vec<&Figure> = entries.map(entry).to_vec();
        let cells = figure_cells(&selected, &campaign).expect("one run per key");
        let stand_in = vec![QTable::new(5, 350); 64];
        let tables: Vec<_> = [intellinoc::DEFAULT_TIME_STEP, 200, 500, 10_000]
            .map(|time_step| {
                (Campaign { time_step, ..campaign }.pretraining(), stand_in.as_slice())
            })
            .to_vec();
        let recipes: Vec<Pretraining> = tables.iter().map(|&(recipe, _)| recipe).collect();
        assert_eq!(recipes_of(&cells), recipes, "the entries read the stand-ins' recipes");
        let err = run_cells(&cells, &tables[..3], 2).expect_err("one recipe untrained");
        assert!(err.contains("recipe pretrain/ts10000/ppn200/s2019/e24/g0.9/eps0.05 "), "{err}");
        let report = run_cells(&cells, &tables, 2).expect("engine");
        let mut out = Vec::new();
        for fig in selected {
            fig.write(&campaign, &report, &mut out).expect("renders");
        }
        let results = campaign.results(&report).expect("clean grid");
        print_headline(&results, &mut out).expect("renders");
        write_campaign_csv(&mut out, &results).expect("in-memory write");
        write_raw_csv(&mut out, &results).expect("in-memory write");
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
        let recipes_at = |figures: &[&Figure], campaign| {
            recipes_of(&figure_cells(figures, &campaign).expect("one run per key"))
        };
        let recipes = recipes_at(&all, Campaign::default());
        assert_eq!(recipes.len(), 17);
        assert!(recipes[..4].iter().all(|&(_, ppn, _, _, episodes)| (ppn, episodes) == (200, 24)));
        assert!(recipes[4..].iter().all(|&(.., episodes)| episodes == 12));
        let keys: BTreeSet<String> = recipes.iter().map(pretraining_key).collect();
        assert_eq!(keys.len(), recipes.len(), "two recipes share a key");
        assert!(keys.contains("pretrain/ts1000/ppn200/s2019/e24/g0.9/eps0.05"), "{keys:?}");
        assert_eq!(recipes_at(&all, tiny_campaign()), recipes);
        // A named selection trains only what it reads.
        let gamma = studies::hyper_recipe(studies::fig18a_gamma, 0.9);
        let epsilons = recipes_at(&[entry("fig18b_epsilon")], Campaign::default());
        assert!(epsilons.len() == 7 && epsilons.contains(&gamma));
        assert!(recipes_at(&[entry("table2_area")], Campaign::default()).is_empty());
    }

    /// `figures all` runs 220 distinct cells, each key once: Figs. 9–16 and
    /// the probe read one set of 50 campaign cells; Fig. 17a's four SECDED
    /// baselines and its time-step-1000 row are campaign cells; Figs.
    /// 18a/18b share their SECDED baseline and the paper's config (γ = 0.9
    /// is ε = 0.05). Run apart, as they once were, the studies were 230
    /// units.
    #[test]
    fn figures_all_runs_220_distinct_cells_with_unique_keys() {
        let campaign = Campaign::default();
        let all: Vec<&Figure> = FIGURES.iter().collect();
        let cells = figure_cells(&all, &campaign).expect("one run per key");
        assert_eq!(cells.len(), 220);
        let unique: BTreeSet<&str> = cells.iter().map(|(key, ..)| key.as_str()).collect();
        assert_eq!(unique.len(), cells.len(), "a key ran twice");
        let keys = |name| -> BTreeSet<String> {
            (entry(name).cells)(&campaign).into_iter().map(|(key, ..)| key).collect()
        };
        let paper = keys("fig09_speedup");
        assert_eq!(paper.len(), 50);
        for fig in FIGURES.iter().filter(|f| f.name.starts_with("fig1") || f.name == "probe") {
            let shared = keys(fig.name).intersection(&paper).count();
            let expected = match fig.name {
                "fig17a_timestep" => 8,
                "fig17b_error_rate" | "fig18a_gamma" | "fig18b_epsilon" => 0,
                _ => 50,
            };
            assert_eq!(shared, expected, "{}", fig.name);
        }
        assert_eq!(keys("fig17a_timestep").len(), 20);
        assert_eq!(keys("fig18a_gamma").intersection(&keys("fig18b_epsilon")).count(), 2);
    }

    /// Equal keys must be the same run: a cell that shares a key with
    /// another but differs from it — in config or in recipe — is an error
    /// naming the key, raised before anything runs.
    #[test]
    fn a_key_naming_two_different_runs_fails_naming_it() {
        let reseeded = Figure {
            name: "reseeded",
            about: "Fig. 9's cells, the first at another seed",
            cells: |c| {
                let mut cells = c.paper_cells();
                cells[0].1.seed += 1;
                cells
            },
            render: |_, _| Ok(()),
        };
        let untrained = Figure {
            name: "untrained",
            about: "Fig. 9's cells, IntelliNoC's without their recipe",
            cells: |c| c.paper_cells().into_iter().map(|(key, cfg, _)| (key, cfg, None)).collect(),
            ..reseeded
        };
        let campaign = tiny_campaign();
        let fig09 = entry("fig09_speedup");
        for (bad, key) in [(reseeded, "bench/SECDED/"), (untrained, "bench/IntelliNoC/")] {
            let err = figure_cells(&[fig09, &bad], &campaign).expect_err("two runs, one key");
            let named = campaign.paper_cells().into_iter().find(|(k, ..)| k.starts_with(key));
            let named = named.expect("a cell").0;
            assert_eq!(err, format!("key {named} names two different runs"), "{}", bad.name);
        }
        assert_eq!(figure_cells(&[fig09, fig09], &campaign).expect("one run per key").len(), 50);
    }
}
