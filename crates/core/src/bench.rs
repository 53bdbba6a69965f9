//! The design × workload × seed grid ([`BenchSpec::cells`], the one
//! builder of such cells: `bench record|compare` and `figures`' campaign)
//! and the noise-aware regression gate behind `intellinoc bench record` /
//! `bench compare`. A workload is a uniform rate or a PARSEC
//! profile ([`BenchWorkload`]). Seeds pair the designs of a PARSEC cell:
//! every design of a benchmark runs seed `k` on the same traffic (`k = 0`
//! is the master seed), so a normalization to SECDED compares like with
//! like; a rate cell keeps the `derive_seed(master_seed, key)` it was
//! recorded with, whose key names the design, so rate cells stay unpaired.
//!
//! `record` folds each cell's outcomes ([`BenchBaseline::from_report`] over
//! [`BenchSpec::runs`]: avg/p99 latency, energy per flit, the retired-flit
//! MTTF proxy, transaction completion tails) into mean, sample stddev and
//! a 95% confidence interval of the mean at Student's t width
//! ([`MetricStats::ci95`]), serialized as `BENCH_<name>.json`. `compare`
//! re-runs the same grid bit for bit and gates with the CI-separation
//! rule: a metric regresses only when the fresh interval lies strictly on
//! the worse side of the baseline interval *and* the relative delta clears
//! a float-noise epsilon. Every recorded metric is cycle-domain; wall-clock
//! throughput is `BENCHMARK.json`'s business, not a baseline's.

use crate::designs::Design;
use crate::experiment::{rate_workload, ExperimentConfig, ExperimentOutcome};
use crate::runner::{derive_seed, RunnerReport};
use crate::serve::MAX_JOB_UNITS;
use noc_sim::{RunReport, FLITS_PER_PACKET};
use noc_traffic::{ParsecBenchmark, ReqReplySpec};
use serde::{Content, Deserialize, Serialize};
use std::fmt;

/// Serialized baseline format version (bumped on incompatible changes;
/// version 2 states `ci95` at Student's t width).
pub const BENCH_FORMAT_VERSION: u32 = 2;

/// Fewest seeds a baseline cell is recorded over: at 1 its 95% interval
/// is 0 wide, at 2 Student's t (12.7) makes it wider than
/// `--force-regress`'s +25%, so the gate could not fire.
const MIN_BASELINE_SEEDS: u32 = 3;

/// Refuses a baseline spec below [`MIN_BASELINE_SEEDS`] seeds per cell.
fn check_baseline_seeds(spec: &BenchSpec) -> Result<(), String> {
    if spec.seeds < MIN_BASELINE_SEEDS {
        return Err(format!(
            "a baseline needs at least {MIN_BASELINE_SEEDS} seeds per cell for its 95% \
             interval, got {}",
            spec.seeds
        ));
    }
    Ok(())
}

/// Relative-delta floor below which a CI separation is attributed to float
/// noise rather than a real shift (deterministic re-runs give exactly
/// equal means, so this only matters for near-degenerate intervals).
pub const REL_EPSILON: f64 = 1e-6;

/// One entry of a grid's workload axis, run at the spec's packets per node.
/// On the wire a rate is a JSON number and a profile its variant name
/// (`"Canneal"`), so a rate-only grid reads and writes as it always did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenchWorkload {
    /// Uniform random traffic at this injection rate (packets/node/cycle).
    Rate(f64),
    /// A PARSEC benchmark's traffic profile.
    Parsec(ParsecBenchmark),
}

impl fmt::Display for BenchWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchWorkload::Rate(rate) => write!(f, "{rate}"),
            BenchWorkload::Parsec(bench) => write!(f, "{bench}"),
        }
    }
}

impl Serialize for BenchWorkload {
    fn serialize_content(&self) -> Content {
        match self {
            BenchWorkload::Rate(rate) => rate.serialize_content(),
            BenchWorkload::Parsec(bench) => bench.serialize_content(),
        }
    }
}

impl Deserialize for BenchWorkload {
    /// A string is a benchmark; anything else must be a number, and reads
    /// (or fails) as a rate always has.
    fn deserialize_content(content: &Content) -> Result<Self, serde::Error> {
        match content {
            Content::Str(_) => ParsecBenchmark::deserialize_content(content).map(Self::Parsec),
            _ => f64::deserialize_content(content).map(Self::Rate),
        }
    }
}

/// One cell of a folded grid: its design, workload and seeds' outcomes.
pub type CellRuns<'r> = (Design, BenchWorkload, Vec<&'r ExperimentOutcome>);

/// The grid a baseline was recorded over. Stored inside the baseline so
/// `compare` can re-run exactly the same units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Designs under test, in figure order.
    pub designs: Vec<Design>,
    /// The workload axis (the name predates PARSEC entries).
    pub rates: Vec<BenchWorkload>,
    /// Seeds per (design, workload) cell.
    pub seeds: u32,
    /// Packets per node per run.
    pub ppn: u64,
    /// Master seed; unit seeds follow from it (see the module docs).
    pub master_seed: u64,
    /// Closed-loop request–reply protocol for every (rate) cell; `None`
    /// keeps the classic open-loop workload.
    pub reqreply: Option<ReqReplySpec>,
}

/// The one rule for an injection rate (packets/node/cycle), whichever
/// command or grid takes it: finite in (0, 1]. A rate of 0 or `NaN` injects
/// nothing, so its run only ends at the cycle budget.
///
/// # Errors
///
/// Names the rate it refuses.
pub fn check_rate(rate: f64) -> Result<f64, String> {
    if rate > 0.0 && rate <= 1.0 {
        Ok(rate)
    } else {
        Err(format!("rate must be finite in (0, 1], got {rate}"))
    }
}

/// The one rule for a packet budget per node, whichever command or grid
/// takes it: at least one. A budget of 0 injects nothing, so its run would
/// report an empty success.
///
/// # Errors
///
/// Names the budget it refuses.
pub fn check_ppn(ppn: u64) -> Result<u64, String> {
    if ppn >= 1 {
        Ok(ppn)
    } else {
        Err(format!("packets per node must be at least 1, got {ppn}"))
    }
}

impl BenchSpec {
    /// The committed-baseline grid: all five designs at the 0.1/0.3/0.5
    /// injection rates, five seeds per cell. The per-node packet budget
    /// keeps every run well past several 250-cycle power epochs, so the
    /// energy-per-flit stats are settled, not zero-sampled.
    #[must_use]
    pub fn designs_grid() -> Self {
        BenchSpec {
            designs: Design::ALL.to_vec(),
            rates: [0.1, 0.3, 0.5].map(BenchWorkload::Rate).to_vec(),
            seeds: 5,
            ppn: 64,
            master_seed: 2019,
            reqreply: None,
        }
    }

    /// A 3-seed small grid for CI gate smoke runs (still multi-epoch so
    /// the energy gate exercises real numbers). Three seeds is the fewest
    /// at which `--force-regress`'s +25 % clears the t interval: at two,
    /// t(0.975, 1) = 12.7 makes it wider than the shift.
    #[must_use]
    pub fn ci_grid() -> Self {
        BenchSpec {
            designs: vec![Design::Secded, Design::IntelliNoc],
            rates: vec![BenchWorkload::Rate(0.1)],
            seeds: 3,
            ppn: 32,
            master_seed: 2019,
            reqreply: None,
        }
    }

    /// The check every grid spec passes before it runs or folds — a bench
    /// grid from a baseline file, the CLI or a fold, and a serve job.
    ///
    /// # Errors
    ///
    /// Names the first rule the spec breaks: 1 to [`MAX_JOB_UNITS`] units
    /// and `ppn` ≥ 1, rates finite in (0, 1], PARSEC profiles open-loop.
    pub fn validate(&self) -> Result<(), String> {
        let units = self.designs.len().saturating_mul(self.rates.len());
        let units = units.saturating_mul(self.seeds as usize);
        let refuse = |why: String| format!("grid of {units} units at ppn {}: {why}", self.ppn);
        if units == 0 || units > MAX_JOB_UNITS {
            return Err(refuse(format!("needs 1 to {MAX_JOB_UNITS} units")));
        }
        check_ppn(self.ppn).map_err(refuse)?;
        for &workload in &self.rates {
            match workload {
                BenchWorkload::Rate(rate) => {
                    check_rate(rate)?;
                }
                BenchWorkload::Parsec(bench) if self.reqreply.is_some() => {
                    return Err(format!("closed-loop traffic drives rates, not {bench}"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The (design, workload) cells in canonical order: design-major.
    fn cell_ids(&self) -> impl Iterator<Item = (Design, BenchWorkload)> + '_ {
        self.designs.iter().flat_map(|&d| self.rates.iter().map(move |&w| (d, w)))
    }

    /// The grid: `seeds` runs per (design, workload) cell — design-major,
    /// then workload, then seed — and the one place a grid unit of a bench
    /// baseline or a `figures` campaign is built. A rate cell is keyed
    /// `bench/<design>/r<rate>/s<k>` and seeded from `(master_seed, key)`,
    /// open- or closed-loop; a PARSEC cell is keyed
    /// `bench/<design>/<bench>/s<k>` and runs seed `k` of the spec, shared
    /// by every design.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentConfig)> {
        let mut cells = Vec::new();
        for (design, workload) in self.cell_ids() {
            for s in 0..self.seeds {
                let (key, seed, workload) = match workload {
                    BenchWorkload::Rate(rate) => {
                        let key = format!("bench/{}/r{rate}/s{s}", design.label());
                        let seed = derive_seed(self.master_seed, &key);
                        (key, seed, rate_workload(rate, self.ppn, self.reqreply.as_ref()))
                    }
                    BenchWorkload::Parsec(bench) => {
                        let key = format!("bench/{}/{bench}/s{s}", design.label());
                        let paired = derive_seed(self.master_seed, &format!("bench/paired/s{s}"));
                        let seed = if s == 0 { self.master_seed } else { paired };
                        (key, seed, bench.workload(self.ppn))
                    }
                };
                cells.push((key, ExperimentConfig::new(design, workload).with_seed(seed)));
            }
        }
        cells
    }

    /// The report of [`cells`](Self::cells) folded back into its cells: one
    /// `(design, workload, outcomes of its seeds)` per cell, in canonical
    /// order. Position names a cell, never the run key.
    ///
    /// # Errors
    ///
    /// An invalid spec ([`validate`](Self::validate)), or a unit that did
    /// not finish `ok` ([`RunnerReport::clean_payloads`]): a result folded
    /// over a grid is never recorded over failed or timed-out cells.
    pub fn runs<'r>(
        &self,
        report: &'r RunnerReport<ExperimentOutcome>,
    ) -> Result<Vec<CellRuns<'r>>, String> {
        self.validate()?;
        let outcomes = report.clean_payloads()?;
        let chunks = outcomes.chunks(self.seeds as usize);
        Ok(self.cell_ids().zip(chunks).map(|((d, w), runs)| (d, w, runs.to_vec())).collect())
    }
}

/// Student's t quantile t(0.975) at 1 to 30 degrees of freedom.
const T975: [f64; 30] = [
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281, 2.2010,
    2.1788, 2.1604, 2.1448, 2.1314, 2.1199, 2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687,
    2.0639, 2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
];

/// Mean / sample stddev / 95% CI of one metric over a cell's seeds (all
/// zero with no samples).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval of the mean,
    /// `t(0.975, n−1)·sd/√n`: Student's t from a table up to n − 1 = 30,
    /// the normal 1.96 past it, and 0 for n < 2.
    pub ci95: f64,
    /// Sample count.
    pub n: u32,
}

impl MetricStats {
    /// Aggregates raw samples.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return MetricStats::default();
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let var =
                samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n as f64 - 1.0);
            var.sqrt()
        };
        let t = T975.get(n.saturating_sub(2)).copied().unwrap_or(1.96);
        let ci95 = t * stddev / (n as f64).sqrt();
        MetricStats { mean, stddev, ci95, n: n as u32 }
    }
}

/// Aggregated metrics of one (design, workload) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Design figure label.
    pub design: String,
    /// The cell's workload (the name predates PARSEC entries).
    pub rate: BenchWorkload,
    /// Mean end-to-end latency (cycles).
    pub avg_latency: MetricStats,
    /// p99 end-to-end latency (cycles).
    pub p99_latency: MetricStats,
    /// Energy per retired flit (pJ).
    pub energy_per_flit_pj: MetricStats,
    /// Retired-flit MTTF proxy (hours; 0 = no aging observed).
    pub mttf_hours: MetricStats,
    /// Median transaction completion time (cycles; all-zero on open-loop
    /// grids, where the gate trivially passes).
    pub txn_p50_latency: MetricStats,
    /// p99 transaction completion time — the closed-loop tail the journey
    /// tail report explains (cycles; all-zero on open-loop grids).
    pub txn_p99_latency: MetricStats,
}

/// A gated metric of a cell.
pub type CellMetric = fn(&BenchCell) -> &MetricStats;

/// The gated metrics: `(field name, higher is worse, its stats)`. The
/// transaction-completion columns are all-zero on open-loop grids, which
/// the gate reads as "no change".
pub const GATED_METRICS: &[(&str, bool, CellMetric)] = &[
    ("avg_latency", true, |c| &c.avg_latency),
    ("p99_latency", true, |c| &c.p99_latency),
    ("energy_per_flit_pj", true, |c| &c.energy_per_flit_pj),
    ("mttf_hours", false, |c| &c.mttf_hours),
    ("txn_p50_latency", true, |c| &c.txn_p50_latency),
    ("txn_p99_latency", true, |c| &c.txn_p99_latency),
];

impl BenchCell {
    /// Cell identity, e.g. `IntelliNoC@0.3` or `SECDED@canneal`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}@{}", self.design, self.rate)
    }
}

/// A recorded baseline: the grid spec plus one aggregated cell per
/// (design, workload), serialized as canonical `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Baseline name (the `<name>` of `BENCH_<name>.json`).
    pub name: String,
    /// Serialized format version.
    pub format_version: u32,
    /// The grid this baseline was recorded over.
    pub spec: BenchSpec,
    /// Aggregated cells in canonical (design-major, workload) order.
    pub cells: Vec<BenchCell>,
}

impl BenchBaseline {
    /// Serializes to pretty JSON (the on-disk `BENCH_<name>.json` format).
    ///
    /// # Errors
    ///
    /// Propagates serializer failures.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parses and version-checks a serialized baseline.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed JSON, a format-version mismatch, a
    /// spec that fails [`BenchSpec::validate`] or one of fewer than 3 seeds.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let b: BenchBaseline =
            serde_json::from_str(json).map_err(|e| format!("malformed baseline: {e}"))?;
        if b.format_version != BENCH_FORMAT_VERSION {
            return Err(format!(
                "baseline format version {} (tool expects {}); re-record the baseline",
                b.format_version, BENCH_FORMAT_VERSION
            ));
        }
        b.spec
            .validate()
            .and_then(|()| check_baseline_seeds(&b.spec))
            .map_err(|e| format!("baseline spec: {e}"))?;
        Ok(b)
    }

    /// Folds the report of a [`BenchSpec::cells`] grid into per-cell
    /// statistics over each cell's seeds ([`BenchSpec::runs`]).
    ///
    /// # Errors
    ///
    /// A baseline is never recorded over fewer than 3 seeds, and, as
    /// [`BenchSpec::runs`], never over an invalid spec or over failed or
    /// timed-out cells.
    pub fn from_report(
        name: &str,
        spec: &BenchSpec,
        report: &RunnerReport<ExperimentOutcome>,
    ) -> Result<Self, String> {
        check_baseline_seeds(spec)?;
        let cells = spec
            .runs(report)?
            .into_iter()
            .map(|(design, rate, runs)| {
                let stats = |metric: fn(&RunReport) -> f64| {
                    MetricStats::from_samples(
                        &runs.iter().map(|o| metric(&o.report)).collect::<Vec<_>>(),
                    )
                };
                BenchCell {
                    design: design.label().to_owned(),
                    rate,
                    avg_latency: stats(RunReport::avg_latency),
                    p99_latency: stats(|r| r.stats.latency_percentile(0.99)),
                    energy_per_flit_pj: stats(|r| {
                        let flits = (r.stats.packets_delivered * FLITS_PER_PACKET as u64).max(1);
                        r.power.total_energy_pj() / flits as f64
                    }),
                    mttf_hours: stats(|r| r.mttf_hours.unwrap_or(0.0)),
                    txn_p50_latency: stats(|r| {
                        r.txn.as_ref().map_or(0.0, |t| t.p50_completion as f64)
                    }),
                    txn_p99_latency: stats(|r| {
                        r.txn.as_ref().map_or(0.0, |t| t.p99_completion as f64)
                    }),
                }
            })
            .collect();
        Ok(BenchBaseline {
            name: name.to_owned(),
            format_version: BENCH_FORMAT_VERSION,
            spec: spec.clone(),
            cells,
        })
    }
}

/// Gating switches for [`compare_bench`].
#[derive(Debug, Clone, Default)]
pub struct GateOptions {
    /// Chaos switch: perturb the fresh latency metrics by +25% before
    /// gating, to prove the gate fires (CI exercises this, expecting the
    /// regression exit code).
    pub force_regress: bool,
}

/// Verdict of one (cell, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateVerdict {
    /// Intervals overlap (or the delta is float noise): no change proven.
    Pass,
    /// Fresh interval strictly on the worse side of the baseline interval.
    Regressed,
    /// Fresh interval strictly on the better side.
    Improved,
}

/// One (cell, metric) comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareRow {
    /// Cell identity (`design@rate`).
    pub cell: String,
    /// Metric field name.
    pub metric: String,
    /// Baseline mean.
    pub base_mean: f64,
    /// Baseline CI half-width.
    pub base_ci95: f64,
    /// Fresh mean.
    pub new_mean: f64,
    /// Fresh CI half-width.
    pub new_ci95: f64,
    /// Relative change of the mean (`(new − base) / |base|`).
    pub rel_delta: f64,
    /// The gate's verdict.
    pub verdict: GateVerdict,
}

/// The full result of one `bench compare`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchComparison {
    /// Every gated (cell, metric) row, in canonical order.
    pub rows: Vec<CompareRow>,
    /// Number of regressed rows.
    pub regressions: usize,
    /// Number of improved rows.
    pub improvements: usize,
}

impl BenchComparison {
    /// Whether the gate should fail the build.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.regressions > 0
    }

    /// Renders the comparison table (regressions and improvements first,
    /// then a one-line tally).
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(
            "cell                     metric                verdict     base_mean       new_mean    delta%\n",
        );
        for r in &self.rows {
            let verdict = match r.verdict {
                GateVerdict::Pass => "pass",
                GateVerdict::Regressed => "REGRESSED",
                GateVerdict::Improved => "improved",
            };
            let _ = writeln!(
                out,
                "{:<24} {:<21} {:<9} {:>13.4} {:>14.4} {:>+8.3}",
                r.cell,
                r.metric,
                verdict,
                r.base_mean,
                r.new_mean,
                r.rel_delta * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "{} rows: {} regressed, {} improved, {} unchanged",
            self.rows.len(),
            self.regressions,
            self.improvements,
            self.rows.len() - self.regressions - self.improvements,
        );
        out
    }
}

/// The CI-separation gate for one metric.
fn gate(base: &MetricStats, new: &MetricStats, higher_is_worse: bool) -> (GateVerdict, f64) {
    let rel_delta = if base.mean.abs() > f64::EPSILON {
        (new.mean - base.mean) / base.mean.abs()
    } else if new.mean.abs() > f64::EPSILON {
        if new.mean > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        0.0
    };
    let base_lo = base.mean - base.ci95;
    let base_hi = base.mean + base.ci95;
    let new_lo = new.mean - new.ci95;
    let new_hi = new.mean + new.ci95;
    let (worse, better) = if higher_is_worse {
        (new_lo > base_hi, new_hi < base_lo)
    } else {
        (new_hi < base_lo, new_lo > base_hi)
    };
    let verdict = if worse && rel_delta.abs() > REL_EPSILON {
        GateVerdict::Regressed
    } else if better && rel_delta.abs() > REL_EPSILON {
        GateVerdict::Improved
    } else {
        GateVerdict::Pass
    };
    (verdict, rel_delta)
}

/// Diffs a fresh recording against a baseline with the CI-separation rule.
///
/// # Errors
///
/// Returns an error when the two recordings cover different grids — a
/// comparison across grids would be statistically meaningless.
pub fn compare_bench(
    base: &BenchBaseline,
    fresh: &BenchBaseline,
    opts: &GateOptions,
) -> Result<BenchComparison, String> {
    if base.spec != fresh.spec {
        return Err(format!(
            "grid mismatch: baseline `{}` was recorded over a different spec than the fresh run \
             (designs/rates/seeds/ppn/master_seed must all match); re-record the baseline",
            base.name
        ));
    }
    let mut rows = Vec::new();
    let mut regressions = 0;
    let mut improvements = 0;
    for (b, f) in base.cells.iter().zip(&fresh.cells) {
        if b.design != f.design || b.rate != f.rate {
            return Err(format!("cell order mismatch: {} vs {}", b.id(), f.id()));
        }
        for &(name, higher_is_worse, metric) in GATED_METRICS {
            let base_m = metric(b);
            let mut new_m = metric(f).clone();
            if opts.force_regress && (name == "avg_latency" || name == "p99_latency") {
                new_m.mean *= 1.25;
            }
            let (verdict, rel_delta) = gate(base_m, &new_m, higher_is_worse);
            match verdict {
                GateVerdict::Regressed => regressions += 1,
                GateVerdict::Improved => improvements += 1,
                GateVerdict::Pass => {}
            }
            rows.push(CompareRow {
                cell: b.id(),
                metric: name.to_owned(),
                base_mean: base_m.mean,
                base_ci95: base_m.ci95,
                new_mean: new_m.mean,
                new_ci95: new_m.ci95,
                rel_delta,
                verdict,
            });
        }
    }
    Ok(BenchComparison { rows, regressions, improvements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_grid, UnitSinks};
    use crate::runner::{ChaosOptions, RunnerConfig};

    fn tiny_spec() -> BenchSpec {
        BenchSpec {
            designs: vec![Design::Secded],
            rates: vec![BenchWorkload::Rate(0.02)],
            seeds: 3,
            ppn: 4,
            master_seed: 7,
            reqreply: None,
        }
    }

    /// `spec`'s grid as `bench record` runs it, folded into a baseline.
    fn record(name: &str, spec: &BenchSpec) -> BenchBaseline {
        let (rcfg, chaos) = (RunnerConfig::serial(), ChaosOptions::default());
        let report = run_grid(&spec.cells(), &rcfg, &chaos, UnitSinks::default()).unwrap();
        BenchBaseline::from_report(name, spec, &report).unwrap()
    }

    #[test]
    fn metric_stats_mean_stddev_ci() {
        let s = MetricStats::from_samples(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert!((s.ci95 - 4.3027 * 2.0 / 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 3);
        let single = MetricStats::from_samples(&[5.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(MetricStats::from_samples(&[]).n, 0);
        // The table ends at n − 1 = 30; past it the width is the normal's.
        for (n, t) in [(31, 2.0423), (32, 1.96)] {
            let s = MetricStats::from_samples(&(0..n).map(f64::from).collect::<Vec<_>>());
            assert!((s.ci95 - t * s.stddev / f64::from(n).sqrt()).abs() < 1e-12, "n = {n}");
        }
    }

    /// The interval covers the true mean 95 % of the time: 20 000 seeded
    /// draws of n standard-normal samples (Box–Muller) at n = 3 and n = 5,
    /// each landing in [0.94, 0.96]. At the normal 1.96 width n = 5 covers
    /// about 88 %.
    #[test]
    fn ci95_covers_the_mean_95_percent_of_the_time() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2019);
        let mut normal = || {
            let (u, v) = (1.0 - rng.gen::<f64>(), rng.gen::<f64>());
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        };
        for n in [3, 5] {
            let draws = 20_000;
            let covered = (0..draws)
                .filter(|_| {
                    let s =
                        MetricStats::from_samples(&(0..n).map(|_| normal()).collect::<Vec<_>>());
                    s.mean.abs() <= s.ci95
                })
                .count();
            let coverage = covered as f64 / draws as f64;
            assert!((0.94..=0.96).contains(&coverage), "n = {n}: coverage {coverage}");
        }
    }

    #[test]
    fn keys_are_canonical_and_unique() {
        let spec = BenchSpec::designs_grid();
        let cells = spec.cells();
        assert_eq!(cells.len(), 5 * 3 * 5);
        let unique: std::collections::HashSet<&String> = cells.iter().map(|(k, _)| k).collect();
        assert_eq!(unique.len(), cells.len());
        assert_eq!(cells[0].0, "bench/SECDED/r0.1/s0");
        for (i, (key, cfg)) in cells.iter().enumerate() {
            // Design-major, then rate, then seed.
            let (d, BenchWorkload::Rate(r)) = (spec.designs[i / 15], spec.rates[i / 5 % 3]) else {
                panic!("a rate grid")
            };
            assert_eq!(*key, format!("bench/{}/r{r}/s{}", d.label(), i % 5));
            assert_eq!((cfg.design, cfg.seed), (d, derive_seed(spec.master_seed, key)));
            assert_eq!(cfg.workload.name, format!("uniform-{r}"));
        }
    }

    /// Every design of a PARSEC cell runs the same seed `k` (the master
    /// seed itself at `k = 0`); rate cells keep their key-derived seeds.
    #[test]
    fn parsec_cells_pair_the_designs_on_one_seed_per_k() {
        let canneal = BenchWorkload::Parsec(ParsecBenchmark::Canneal);
        let spec = BenchSpec {
            designs: vec![Design::Secded, Design::IntelliNoc],
            rates: vec![canneal, BenchWorkload::Rate(0.1)],
            seeds: 2,
            ppn: 4,
            master_seed: 2019,
            reqreply: None,
        };
        let cells = spec.cells();
        let keys: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "bench/SECDED/canneal/s0",
                "bench/SECDED/canneal/s1",
                "bench/SECDED/r0.1/s0",
                "bench/SECDED/r0.1/s1",
                "bench/IntelliNoC/canneal/s0",
                "bench/IntelliNoC/canneal/s1",
                "bench/IntelliNoC/r0.1/s0",
                "bench/IntelliNoC/r0.1/s1",
            ]
        );
        let seed = |i: usize| cells[i].1.seed;
        assert_eq!((seed(0), seed(4)), (2019, 2019), "k = 0 is the master seed");
        assert_eq!(seed(1), seed(5), "designs share seed k");
        assert_ne!(seed(1), 2019);
        for i in [2, 3, 6, 7] {
            assert_eq!(seed(i), derive_seed(2019, &cells[i].0), "rate cells as recorded");
        }
        let workload = ParsecBenchmark::Canneal.workload(4);
        assert_eq!(cells[4].1.workload.name, workload.name);
        assert_eq!(cells[4].1.workload.packets_per_node, 4);
    }

    /// A hostile baseline spec is refused when it is read, before any
    /// grid is built: ppn 0, fewer than 3 seeds, a rate outside (0, 1], a
    /// PARSEC profile on a closed-loop grid, or more units than a serve job
    /// may have.
    #[test]
    fn from_json_refuses_a_hostile_spec() {
        let json = record("tiny", &tiny_spec()).to_json().unwrap();
        let rates = "\"rates\": [\n      0.02";
        let edit = |edits: &[(&str, &str)]| {
            let mut edited = json.clone();
            for (from, to) in edits {
                assert!(edited.contains(from), "{from}");
                edited = edited.replacen(from, to, 1);
            }
            BenchBaseline::from_json(&edited)
        };
        let cases: [(&[(&str, &str)], &str); 6] = [
            (&[("\"ppn\": 4", "\"ppn\": 0")], "at ppn 0"),
            (&[("\"seeds\": 3", "\"seeds\": 2")], "at least 3 seeds per cell"),
            (&[("\"seeds\": 3", "\"seeds\": 4294967295")], "grid of 4294967295 units"),
            (&[(rates, "\"rates\": [0")], "rate"),
            (&[(rates, "\"rates\": [1.5")], "rate"),
            (
                &[(rates, "\"rates\": [\"Canneal\""), ("\"reqreply\": null", "\"reqreply\": {}")],
                "not canneal",
            ),
        ];
        for (edits, named) in cases {
            let err = edit(edits).expect_err(named);
            assert!(err.contains("baseline spec") && err.contains(named), "{edits:?}: {err}");
        }
        let parsec = edit(&[(rates, "\"rates\": [\"Canneal\"")]);
        let parsec = parsec.expect("an open-loop PARSEC grid is valid");
        assert_eq!(parsec.spec.rates, [BenchWorkload::Parsec(ParsecBenchmark::Canneal)]);
        assert_eq!(BenchBaseline::from_json(&parsec.to_json().unwrap()), Ok(parsec));
    }

    #[test]
    fn unit_config_honours_the_closed_loop_spec() {
        let mut spec = tiny_spec();
        let open = spec.cells().remove(1).1;
        assert_eq!(open.workload.reqreply, None);
        assert_eq!(open.design, Design::Secded);
        let rr = ReqReplySpec { reply_timeout: 500, ..ReqReplySpec::default() };
        spec.reqreply = Some(rr.clone());
        let closed = spec.cells().remove(1).1;
        assert_eq!(closed.workload.reqreply, Some(rr), "a closed-loop grid must run closed-loop");
        assert_eq!(closed.workload.packets_per_node, spec.ppn);
        assert_eq!(closed.seed, open.seed, "the loop mode must not move a cell's seed");
    }

    #[test]
    fn gate_separates_only_disjoint_intervals() {
        let base = MetricStats { mean: 100.0, stddev: 5.0, ci95: 4.0, n: 5 };
        // Overlapping: 103 − 2 < 100 + 4 → pass.
        let close = MetricStats { mean: 103.0, stddev: 2.0, ci95: 2.0, n: 5 };
        assert_eq!(gate(&base, &close, true).0, GateVerdict::Pass);
        // Disjoint upward on a higher-is-worse metric → regression.
        let worse = MetricStats { mean: 110.0, stddev: 2.0, ci95: 2.0, n: 5 };
        assert_eq!(gate(&base, &worse, true).0, GateVerdict::Regressed);
        // Same shift on a lower-is-worse metric → improvement.
        assert_eq!(gate(&base, &worse, false).0, GateVerdict::Improved);
        // Disjoint downward on higher-is-worse → improvement.
        let better = MetricStats { mean: 90.0, stddev: 2.0, ci95: 2.0, n: 5 };
        assert_eq!(gate(&base, &better, true).0, GateVerdict::Improved);
        // Equal degenerate intervals (deterministic re-run) → pass.
        let exact = MetricStats { mean: 100.0, stddev: 0.0, ci95: 0.0, n: 5 };
        assert_eq!(gate(&exact, &exact, true).0, GateVerdict::Pass);
        // Both-zero (e.g. MTTF proxy with no aging) → pass.
        let zero = MetricStats { mean: 0.0, stddev: 0.0, ci95: 0.0, n: 5 };
        assert_eq!(gate(&zero, &zero, false).0, GateVerdict::Pass);
    }

    #[test]
    fn record_then_self_compare_passes_and_chaos_regresses() {
        let spec = tiny_spec();
        let base = record("tiny", &spec);
        assert_eq!(base.cells.len(), 1);
        assert!(base.cells[0].avg_latency.mean > 0.0);

        let fresh = record("tiny", &spec);
        let cmp = compare_bench(&base, &fresh, &GateOptions::default()).unwrap();
        assert!(!cmp.has_regressions(), "{}", cmp.table());
        // Deterministic re-run: every gated mean is exactly equal.
        assert!(cmp.rows.iter().all(|r| r.base_mean == r.new_mean), "{}", cmp.table());

        let forced = GateOptions { force_regress: true };
        let cmp = compare_bench(&base, &fresh, &forced).unwrap();
        assert!(cmp.has_regressions(), "--force-regress must fire:\n{}", cmp.table());
        assert!(cmp.table().contains("REGRESSED"));
    }

    /// The fold names cells by position in `cells()` order, never by key,
    /// and refuses a grid with a cell that did not finish.
    #[test]
    fn from_report_folds_by_position_and_refuses_unfinished_grids() {
        let spec = BenchSpec { designs: vec![Design::Secded, Design::Eb], ..tiny_spec() };
        let (rcfg, chaos) = (RunnerConfig::serial(), ChaosOptions::default());
        let mut report = run_grid(&spec.cells(), &rcfg, &chaos, UnitSinks::default()).unwrap();
        let keyed = BenchBaseline::from_report("t", &spec, &report).unwrap();
        assert_eq!(keyed, record("t", &spec));
        for rec in &mut report.records {
            rec.key = "?".to_owned();
        }
        let by_position = BenchBaseline::from_report("t", &spec, &report).unwrap();
        assert_eq!(by_position, keyed);
        assert_eq!(by_position.cells[1].id(), "EB@0.02");

        let capped = RunnerConfig { max_units: Some(5), ..RunnerConfig::serial() };
        let partial = run_grid(&spec.cells(), &capped, &chaos, UnitSinks::default()).unwrap();
        let err = BenchBaseline::from_report("t", &spec, &partial).unwrap_err();
        assert!(err.contains("not clean") && err.contains("1 skipped"), "{err}");
    }

    /// At 1 seed a cell's interval is 0 wide and at 2 too wide to gate:
    /// neither is folded into a baseline.
    #[test]
    fn from_report_refuses_fewer_than_three_seeds() {
        let (rcfg, chaos) = (RunnerConfig::serial(), ChaosOptions::default());
        for seeds in [1, 2] {
            let spec = BenchSpec { seeds, ..tiny_spec() };
            let report = run_grid(&spec.cells(), &rcfg, &chaos, UnitSinks::default()).unwrap();
            let err = BenchBaseline::from_report("t", &spec, &report).unwrap_err();
            assert!(err.contains("at least 3 seeds per cell"), "{err}");
            assert!(err.ends_with(&format!("got {seeds}")), "{err}");
        }
    }

    #[test]
    fn baseline_json_roundtrip_and_version_check() {
        let spec = tiny_spec();
        let base = record("tiny", &spec);
        let json = base.to_json().unwrap();
        let back = BenchBaseline::from_json(&json).unwrap();
        assert_eq!(back, base);

        let bad = json.replace(
            &format!("\"format_version\": {BENCH_FORMAT_VERSION}"),
            "\"format_version\": 999",
        );
        let err = BenchBaseline::from_json(&bad).unwrap_err();
        assert!(err.contains("format version"), "{err}");
    }

    #[test]
    fn deterministic_metrics_are_identical_across_recordings() {
        let spec = tiny_spec();
        let a = record("a", &spec);
        let b = record("b", &spec);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            // Everything but wall-clock throughput is bit-deterministic.
            assert_eq!(ca.avg_latency, cb.avg_latency);
            assert_eq!(ca.p99_latency, cb.p99_latency);
            assert_eq!(ca.energy_per_flit_pj, cb.energy_per_flit_pj);
            assert_eq!(ca.mttf_hours, cb.mttf_hours);
        }
    }

    #[test]
    fn closed_loop_bench_records_and_self_compares_clean() {
        let mut spec = tiny_spec();
        spec.reqreply = Some(ReqReplySpec { reply_timeout: 500, ..ReqReplySpec::default() });
        let base = record("cl", &spec);
        assert!(
            base.cells[0].txn_p50_latency.mean > 0.0
                && base.cells[0].txn_p99_latency.mean >= base.cells[0].txn_p50_latency.mean,
            "closed-loop grids must carry transaction completion tails"
        );
        let fresh = record("cl", &spec);
        let cmp = compare_bench(&base, &fresh, &GateOptions::default()).unwrap();
        assert!(!cmp.has_regressions(), "{}", cmp.table());
        assert!(cmp.rows.iter().any(|r| r.metric == "txn_p99_latency"));
        let back = BenchBaseline::from_json(&base.to_json().unwrap()).unwrap();
        assert_eq!(back.spec.reqreply, spec.reqreply);
    }

    #[test]
    fn compare_rejects_mismatched_grids() {
        let spec = tiny_spec();
        let base = record("tiny", &spec);
        let mut other = base.clone();
        other.spec.master_seed = 8;
        let err = compare_bench(&base, &other, &GateOptions::default()).unwrap_err();
        assert!(err.contains("grid mismatch"), "{err}");
    }
}
