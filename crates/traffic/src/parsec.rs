//! PARSEC benchmark workload profiles (Netrace substitute).
//!
//! The paper drives its evaluation with Netrace-captured PARSEC traces. We
//! do not have those traces, so each benchmark is modeled as a statistical
//! profile matching its published NoC-level characterization: mean injected
//! load, burstiness (bursty pipeline benchmarks like `x264` vs. steady
//! data-parallel ones like `blackscholes`), memory-controller hotspot share,
//! spatial pattern, and phase structure.
//!
//! The per-router control policies under study (RL and heuristic) react to
//! *traffic statistics*, not program semantics, so matching these first- and
//! second-order statistics exercises the same control and data paths as the
//! original traces (see DESIGN.md §4). Benchmark-to-benchmark diversity —
//! which drives the spread in Figs. 9–16 — is preserved by giving each
//! benchmark a distinct load level and character.

use crate::pattern::SpatialPattern;
use crate::process::InjectionProcess;
use crate::workload::{Phase, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// The PARSEC benchmarks used in the paper's evaluation (Fig. 9 x-axis),
/// plus `blackscholes`, which the paper reserves for tuning/pre-training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ParsecBenchmark {
    /// Option pricing; steady, low load. Used for RL pre-training.
    Blackscholes,
    /// Body tracking; moderate load with hotspot phases.
    Bodytrack,
    /// Cache-aware simulated annealing; high, irregular load.
    Canneal,
    /// Deduplication pipeline; medium-high, bursty.
    Dedup,
    /// Face simulation; medium load, phase-structured.
    Facesim,
    /// Content-based similarity search pipeline; medium-high load.
    Ferret,
    /// Frequent itemset mining; medium-low, phases.
    Freqmine,
    /// Fluid dynamics; highest sustained load, neighbor-heavy.
    Fluidanimate,
    /// Portfolio pricing; very low load.
    Swaptions,
    /// Image processing; medium-high load.
    Vips,
    /// Video encoding; high, very bursty load.
    X264,
}

impl ParsecBenchmark {
    /// The ten benchmarks of the paper's test set, in figure order
    /// (bod, can, dedup, fac, fer, fre, flu, swa, vips, x264s).
    pub const TEST_SET: [ParsecBenchmark; 10] = [
        ParsecBenchmark::Bodytrack,
        ParsecBenchmark::Canneal,
        ParsecBenchmark::Dedup,
        ParsecBenchmark::Facesim,
        ParsecBenchmark::Ferret,
        ParsecBenchmark::Freqmine,
        ParsecBenchmark::Fluidanimate,
        ParsecBenchmark::Swaptions,
        ParsecBenchmark::Vips,
        ParsecBenchmark::X264,
    ];

    /// Short label used on the paper's figure axes.
    pub fn label(self) -> &'static str {
        match self {
            ParsecBenchmark::Blackscholes => "black",
            ParsecBenchmark::Bodytrack => "bod",
            ParsecBenchmark::Canneal => "can",
            ParsecBenchmark::Dedup => "dedup",
            ParsecBenchmark::Facesim => "fac",
            ParsecBenchmark::Ferret => "fer",
            ParsecBenchmark::Freqmine => "fre",
            ParsecBenchmark::Fluidanimate => "flu",
            ParsecBenchmark::Swaptions => "swa",
            ParsecBenchmark::Vips => "vips",
            ParsecBenchmark::X264 => "x264s",
        }
    }

    /// Full benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            ParsecBenchmark::Blackscholes => "blackscholes",
            ParsecBenchmark::Bodytrack => "bodytrack",
            ParsecBenchmark::Canneal => "canneal",
            ParsecBenchmark::Dedup => "dedup",
            ParsecBenchmark::Facesim => "facesim",
            ParsecBenchmark::Ferret => "ferret",
            ParsecBenchmark::Freqmine => "freqmine",
            ParsecBenchmark::Fluidanimate => "fluidanimate",
            ParsecBenchmark::Swaptions => "swaptions",
            ParsecBenchmark::Vips => "vips",
            ParsecBenchmark::X264 => "x264",
        }
    }

    /// The statistical workload profile for this benchmark, scaled to
    /// `packets_per_node` injected packets per node.
    pub fn workload(self, packets_per_node: u64) -> WorkloadSpec {
        let (process, pattern, hotspot, phases): (
            InjectionProcess,
            SpatialPattern,
            f64,
            Vec<Phase>,
        ) = match self {
            ParsecBenchmark::Blackscholes => {
                (InjectionProcess::Bernoulli { rate: 0.010 }, SpatialPattern::Uniform, 0.08, vec![])
            }
            ParsecBenchmark::Bodytrack => (
                InjectionProcess::Mmp {
                    on_rate: 0.045,
                    off_rate: 0.008,
                    p_on_off: 0.004,
                    p_off_on: 0.002,
                },
                SpatialPattern::Uniform,
                0.08,
                vec![],
            ),
            ParsecBenchmark::Canneal => (
                InjectionProcess::Mmp {
                    on_rate: 0.070,
                    off_rate: 0.020,
                    p_on_off: 0.003,
                    p_off_on: 0.004,
                },
                SpatialPattern::BitReverse,
                0.10,
                vec![],
            ),
            ParsecBenchmark::Dedup => (
                InjectionProcess::Mmp {
                    on_rate: 0.080,
                    off_rate: 0.006,
                    p_on_off: 0.006,
                    p_off_on: 0.003,
                },
                SpatialPattern::Shuffle,
                0.06,
                vec![],
            ),
            ParsecBenchmark::Facesim => (
                InjectionProcess::Bernoulli { rate: 0.030 },
                SpatialPattern::NearestNeighbor,
                0.08,
                vec![
                    Phase { cycles: 4_000, rate_factor: 1.5 },
                    Phase { cycles: 4_000, rate_factor: 0.5 },
                ],
            ),
            ParsecBenchmark::Ferret => (
                InjectionProcess::Mmp {
                    on_rate: 0.060,
                    off_rate: 0.015,
                    p_on_off: 0.005,
                    p_off_on: 0.004,
                },
                SpatialPattern::Shuffle,
                0.08,
                vec![],
            ),
            ParsecBenchmark::Freqmine => (
                InjectionProcess::Bernoulli { rate: 0.022 },
                SpatialPattern::Uniform,
                0.10,
                vec![
                    Phase { cycles: 6_000, rate_factor: 1.3 },
                    Phase { cycles: 3_000, rate_factor: 0.4 },
                ],
            ),
            ParsecBenchmark::Fluidanimate => (
                InjectionProcess::Bernoulli { rate: 0.055 },
                SpatialPattern::NearestNeighbor,
                0.05,
                vec![],
            ),
            ParsecBenchmark::Swaptions => {
                (InjectionProcess::Bernoulli { rate: 0.005 }, SpatialPattern::Uniform, 0.06, vec![])
            }
            ParsecBenchmark::Vips => (
                InjectionProcess::Mmp {
                    on_rate: 0.055,
                    off_rate: 0.012,
                    p_on_off: 0.004,
                    p_off_on: 0.003,
                },
                SpatialPattern::Transpose,
                0.08,
                vec![],
            ),
            ParsecBenchmark::X264 => (
                InjectionProcess::Mmp {
                    on_rate: 0.110,
                    off_rate: 0.004,
                    p_on_off: 0.010,
                    p_off_on: 0.004,
                },
                SpatialPattern::Uniform,
                0.08,
                vec![],
            ),
        };
        WorkloadSpec {
            name: self.name().to_owned(),
            pattern,
            process,
            hotspot_fraction: hotspot,
            mc_nodes: Vec::new(),
            phases,
            packets_per_node,
            window: 12,
            reqreply: None,
            trace: None,
        }
    }
}

impl std::fmt::Display for ParsecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_set_has_ten_benchmarks_and_excludes_training() {
        assert_eq!(ParsecBenchmark::TEST_SET.len(), 10);
        assert!(!ParsecBenchmark::TEST_SET.contains(&ParsecBenchmark::Blackscholes));
    }

    #[test]
    fn load_diversity_matches_characterization() {
        let rate = |b: ParsecBenchmark| b.workload(100).mean_rate();
        // Swaptions is the lightest; fluidanimate/x264/canneal are heavy.
        assert!(rate(ParsecBenchmark::Swaptions) < rate(ParsecBenchmark::Blackscholes) + 1e-9);
        assert!(rate(ParsecBenchmark::Fluidanimate) > 2.0 * rate(ParsecBenchmark::Freqmine));
        assert!(rate(ParsecBenchmark::Canneal) > rate(ParsecBenchmark::Bodytrack));
    }

    #[test]
    fn all_profiles_have_sane_rates() {
        for b in ParsecBenchmark::TEST_SET.iter().chain([&ParsecBenchmark::Blackscholes]) {
            let w = b.workload(100);
            let r = w.mean_rate();
            assert!(r > 0.0 && r < 0.2, "{b} rate {r}");
            assert!(w.hotspot_fraction >= 0.0 && w.hotspot_fraction <= 0.5);
            assert!(w.window > 0);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = ParsecBenchmark::TEST_SET.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn workload_scales_budget() {
        let w = ParsecBenchmark::Dedup.workload(321);
        assert_eq!(w.packets_per_node, 321);
        assert_eq!(w.name, "dedup");
    }
}
