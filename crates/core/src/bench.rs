//! Multi-seed baseline recording and noise-aware regression gating — the
//! quantitative memory behind `intellinoc bench record` / `bench compare`.
//!
//! `record` runs an N-seed × design × injection-rate grid
//! ([`BenchSpec::cells`]) through [`run_grid`] and folds each cell's
//! outcomes ([`BenchBaseline::from_report`]: avg/p99
//! latency, energy per flit, the retired-flit MTTF proxy, transaction
//! completion tails) into mean, sample stddev, and a 95% confidence interval,
//! serialized as a canonical `BENCH_<name>.json`. `compare` re-runs the
//! same grid (seeds derive from `(master_seed, key)` alone, so a re-run is
//! bit-identical) and gates with the CI-separation rule: a metric
//! regresses only when the fresh interval lies strictly on the worse side
//! of the baseline interval *and* the relative delta clears a float-noise
//! epsilon. Every recorded metric is cycle-domain and therefore gated;
//! wall-clock throughput is `BENCHMARK.json`'s business, not a baseline's.

use crate::designs::Design;
use crate::experiment::{rate_workload, run_grid, ExperimentConfig, ExperimentOutcome, UnitSinks};
use crate::runner::{derive_seed, ChaosOptions, RunnerConfig, RunnerReport};
use noc_sim::{RunReport, FLITS_PER_PACKET};
use noc_traffic::ReqReplySpec;
use serde::{Deserialize, Serialize};

/// Serialized baseline format version (bumped on incompatible changes).
pub const BENCH_FORMAT_VERSION: u32 = 1;

/// Relative-delta floor below which a CI separation is attributed to float
/// noise rather than a real shift (deterministic re-runs give exactly
/// equal means, so this only matters for near-degenerate intervals).
pub const REL_EPSILON: f64 = 1e-6;

/// The grid a baseline was recorded over. Stored inside the baseline so
/// `compare` can re-run exactly the same units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Designs under test, in figure order.
    pub designs: Vec<Design>,
    /// Uniform-traffic injection rates (packets/node/cycle).
    pub rates: Vec<f64>,
    /// Seeds per (design, rate) cell.
    pub seeds: u32,
    /// Packets per node per run.
    pub ppn: u64,
    /// Master seed; unit seeds derive from `(master_seed, key)`.
    pub master_seed: u64,
    /// Closed-loop request–reply protocol for every cell; `None` keeps the
    /// classic open-loop uniform workload. Absent in baselines recorded
    /// before the closed-loop era, which read as open-loop grids.
    #[serde(default)]
    pub reqreply: Option<ReqReplySpec>,
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
            rates: vec![0.1, 0.3, 0.5],
            seeds: 5,
            ppn: 64,
            master_seed: 2019,
            reqreply: None,
        }
    }

    /// A 2-seed small grid for CI gate smoke runs (still multi-epoch so
    /// the energy gate exercises real numbers).
    #[must_use]
    pub fn ci_grid() -> Self {
        BenchSpec {
            designs: vec![Design::Secded, Design::IntelliNoc],
            rates: vec![0.1],
            seeds: 2,
            ppn: 32,
            master_seed: 2019,
            reqreply: None,
        }
    }

    /// The (design, rate) cells in canonical order: design-major, then rate.
    fn cell_ids(&self) -> impl Iterator<Item = (Design, f64)> + '_ {
        self.designs.iter().flat_map(|&d| self.rates.iter().map(move |&r| (d, r)))
    }

    /// The grid: `seeds` runs per (design, rate) cell — design-major, then
    /// rate, then seed — keyed `bench/<design>/r<rate>/s<k>` and seeded from
    /// `(master_seed, key)` — the one place a bench unit is built (`bench
    /// record`, `bench compare` and `profile` all run exactly these):
    /// open- or closed-loop workload at the cell's rate.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, ExperimentConfig)> {
        let mut cells =
            Vec::with_capacity(self.designs.len() * self.rates.len() * self.seeds as usize);
        for (design, rate) in self.cell_ids() {
            for s in 0..self.seeds {
                let key = format!("bench/{}/r{rate}/s{s}", design.label());
                let workload = rate_workload(rate, self.ppn, self.reqreply.as_ref());
                let cfg = ExperimentConfig::new(design, workload)
                    .with_seed(derive_seed(self.master_seed, &key));
                cells.push((key, cfg));
            }
        }
        cells
    }
}

/// Mean / sample stddev / 95% CI of one metric over a cell's seeds (all
/// zero with no samples).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval (`1.96·sd/√n`).
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
        let ci95 = 1.96 * stddev / (n as f64).sqrt();
        MetricStats { mean, stddev, ci95, n: n as u32 }
    }
}

/// Aggregated metrics of one (design, rate) cell.
///
/// Baselines recorded before the transaction-completion columns existed
/// read them as all-zero, which the gate treats as "no change"; keys a cell
/// does not name (the retired `cycles_per_sec` of old baselines) are
/// ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Design figure label.
    pub design: String,
    /// Injection rate (packets/node/cycle).
    pub rate: f64,
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
    #[serde(default)]
    pub txn_p50_latency: MetricStats,
    /// p99 transaction completion time — the closed-loop tail the journey
    /// tail report explains (cycles; all-zero on open-loop grids).
    #[serde(default)]
    pub txn_p99_latency: MetricStats,
}

/// The gated metrics: `(field name, higher is worse)`. The
/// transaction-completion columns are all-zero on open-loop grids, which
/// the gate reads as "no change".
pub const GATED_METRICS: &[(&str, bool)] = &[
    ("avg_latency", true),
    ("p99_latency", true),
    ("energy_per_flit_pj", true),
    ("mttf_hours", false),
    ("txn_p50_latency", true),
    ("txn_p99_latency", true),
];

impl BenchCell {
    /// Cell identity, e.g. `IntelliNoC@0.3`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}@{}", self.design, self.rate)
    }

    /// The stats of a gated metric by field name.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`GATED_METRICS`].
    #[must_use]
    pub fn metric(&self, name: &str) -> &MetricStats {
        match name {
            "avg_latency" => &self.avg_latency,
            "p99_latency" => &self.p99_latency,
            "energy_per_flit_pj" => &self.energy_per_flit_pj,
            "mttf_hours" => &self.mttf_hours,
            "txn_p50_latency" => &self.txn_p50_latency,
            "txn_p99_latency" => &self.txn_p99_latency,
            _ => panic!("unknown bench metric `{name}`"),
        }
    }
}

/// A recorded baseline: the grid spec plus one aggregated cell per
/// (design, rate), serialized as canonical `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Baseline name (the `<name>` of `BENCH_<name>.json`).
    pub name: String,
    /// Serialized format version.
    pub format_version: u32,
    /// The grid this baseline was recorded over.
    pub spec: BenchSpec,
    /// Aggregated cells in canonical (design-major, rate) order.
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
    /// Returns an error for malformed JSON or a format-version mismatch.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let b: BenchBaseline =
            serde_json::from_str(json).map_err(|e| format!("malformed baseline: {e}"))?;
        if b.format_version != BENCH_FORMAT_VERSION {
            return Err(format!(
                "baseline format version {} (tool expects {}); re-record the baseline",
                b.format_version, BENCH_FORMAT_VERSION
            ));
        }
        Ok(b)
    }
}

impl BenchBaseline {
    /// Folds the report of a [`BenchSpec::cells`] grid into per-cell
    /// statistics: each (design, rate) cell is the next `spec.seeds`
    /// records, in the order the cells were built.
    ///
    /// # Errors
    ///
    /// An empty grid, or any unit that did not finish `ok` — a baseline
    /// must never be recorded over failed or timed-out cells.
    pub fn from_report(
        name: &str,
        spec: &BenchSpec,
        report: &RunnerReport<ExperimentOutcome>,
    ) -> Result<Self, String> {
        if spec.designs.is_empty() || spec.rates.is_empty() || spec.seeds == 0 {
            return Err("bench grid is empty (need ≥1 design, ≥1 rate, ≥1 seed)".to_owned());
        }
        if !report.is_clean() {
            return Err(format!("bench grid not clean ({}); refusing to record", report.summary()));
        }
        let cells = spec
            .cell_ids()
            .zip(report.records.chunks(spec.seeds as usize))
            .map(|((design, rate), chunk)| {
                let stats = |metric: fn(&RunReport) -> f64| {
                    let runs = chunk.iter().filter_map(|rec| rec.payload.as_ref());
                    MetricStats::from_samples(&runs.map(|o| metric(&o.report)).collect::<Vec<_>>())
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

/// Runs the grid ([`BenchSpec::cells`] through [`run_grid`]) and folds it
/// into a baseline; every unit feeds `sinks`, which never move the recorded
/// (cycle-domain) metrics.
///
/// # Errors
///
/// Engine failures (duplicate keys, journal I/O), and as
/// [`BenchBaseline::from_report`].
pub fn record_bench(
    name: &str,
    spec: &BenchSpec,
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
    sinks: UnitSinks<'_>,
) -> Result<BenchBaseline, String> {
    BenchBaseline::from_report(name, spec, &run_grid(&spec.cells(), rcfg, chaos, sinks)?)
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
        for &(name, higher_is_worse) in GATED_METRICS {
            let base_m = b.metric(name);
            let mut new_m = f.metric(name).clone();
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

    fn tiny_spec() -> BenchSpec {
        BenchSpec {
            designs: vec![Design::Secded],
            rates: vec![0.02],
            seeds: 2,
            ppn: 4,
            master_seed: 7,
            reqreply: None,
        }
    }

    fn record(name: &str, spec: &BenchSpec) -> BenchBaseline {
        let (rcfg, chaos) = (RunnerConfig::serial(), ChaosOptions::default());
        record_bench(name, spec, &rcfg, &chaos, UnitSinks::default()).unwrap()
    }

    #[test]
    fn metric_stats_mean_stddev_ci() {
        let s = MetricStats::from_samples(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * 2.0 / 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 3);
        let single = MetricStats::from_samples(&[5.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(MetricStats::from_samples(&[]).n, 0);
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
            let (d, r) = (spec.designs[i / 15], spec.rates[i / 5 % 3]);
            assert_eq!(*key, format!("bench/{}/r{r}/s{}", d.label(), i % 5));
            assert_eq!((cfg.design, cfg.seed), (d, derive_seed(spec.master_seed, key)));
            assert_eq!(cfg.workload.name, format!("uniform-{r}"));
        }
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

        let capped = RunnerConfig { max_units: Some(3), ..RunnerConfig::serial() };
        let partial = run_grid(&spec.cells(), &capped, &chaos, UnitSinks::default()).unwrap();
        let err = BenchBaseline::from_report("t", &spec, &partial).unwrap_err();
        assert!(err.contains("not clean") && err.contains("1 skipped"), "{err}");
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
    fn legacy_baseline_without_reqreply_parses_as_open_loop() {
        let base = record("tiny", &tiny_spec());
        let json = base.to_json().unwrap();
        // A baseline recorded before the closed-loop era has no `reqreply`
        // key at all; parsing must fall back to the open-loop default.
        let legacy = json.replace(",\n    \"reqreply\": null", "");
        assert_ne!(legacy, json, "pretty spec must carry the reqreply key");
        let back = BenchBaseline::from_json(&legacy).unwrap();
        assert_eq!(back.spec.reqreply, None);
        assert_eq!(back, base);
    }

    #[test]
    fn legacy_baseline_without_txn_columns_parses_as_all_zero() {
        let base = record("tiny", &tiny_spec());
        let json = base.to_json().unwrap();
        // A pre-txn-column baseline: no `txn_*` stat objects (pretty JSON:
        // key plus its 6-line object), and each cell ends with the since
        // retired `cycles_per_sec` stats, which the parser must ignore.
        let legacy: String = {
            let mut out = String::new();
            let mut skip = 0usize;
            for line in json.lines() {
                if skip > 0 {
                    skip -= 1;
                } else if line.contains("\"txn_p50_latency\"") {
                    skip = 5;
                } else {
                    out.push_str(&line.replace("\"txn_p99_latency\"", "\"cycles_per_sec\""));
                    out.push('\n');
                }
            }
            out
        };
        assert_ne!(legacy, json, "recorded baselines must carry the txn columns");
        let back = BenchBaseline::from_json(&legacy).unwrap();
        assert_eq!(back.cells[0].txn_p50_latency.n, 0);
        assert_eq!(back.cells[0].txn_p99_latency.mean, 0.0);
        // All-zero vs open-loop all-zero: the gate passes trivially.
        let cmp = compare_bench(&back, &base, &GateOptions::default()).unwrap();
        assert!(!cmp.has_regressions(), "{}", cmp.table());
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
