//! Cross-crate property-based tests: network invariants under randomized
//! workloads, seeds, and design configurations.

use intellinoc::{run_experiment, Design, ExperimentConfig};
use noc_ecc::EccScheme;
use noc_sim::{HardFaultScenario, Network, RouterDirective, SimConfig};
use noc_traffic::{ParsecBenchmark, SpatialPattern, WorkloadSpec};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = SpatialPattern> {
    prop_oneof![
        Just(SpatialPattern::Uniform),
        Just(SpatialPattern::Transpose),
        Just(SpatialPattern::BitComplement),
        Just(SpatialPattern::BitReverse),
        Just(SpatialPattern::Shuffle),
        Just(SpatialPattern::NearestNeighbor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flit conservation: every injected packet is delivered exactly once,
    /// for arbitrary patterns, loads, seeds, and fault rates.
    #[test]
    fn conservation_under_random_workloads(
        pattern in arb_pattern(),
        rate in 0.005f64..0.08,
        seed in 0u64..1000,
        fault_exp in 0u32..3,
    ) {
        let mut cfg = SimConfig { seed, ..SimConfig::default() };
        // Fault rate in {0, 1e-5, 1e-4}.
        let rate_f = if fault_exp == 0 { 0.0 } else { 10f64.powi(-(6 - fault_exp as i32)) };
        cfg.varius.base_rate = rate_f;
        cfg.varius.min_rate = 0.0;
        cfg.varius.max_rate = rate_f.max(1e-12);
        let spec = WorkloadSpec {
            pattern,
            ..WorkloadSpec::uniform(rate, 8)
        };
        let mut net = Network::new(cfg, spec, seed);
        let done = net.run_cycles(2_000_000);
        prop_assert!(done, "network did not drain");
        prop_assert_eq!(net.stats().packets_delivered, 64 * 8);
        prop_assert_eq!(net.stats().packets_injected, 64 * 8);
    }

    /// Gating + bypass never lose packets regardless of traffic shape, with
    /// CP's single-flit latch or IntelliNoC's MFACs.
    #[test]
    fn conservation_with_gating_and_bypass(
        rate in 0.002f64..0.05,
        seed in 0u64..500,
        mfac in any::<bool>(),
    ) {
        let mut cfg = SimConfig {
            seed,
            reactive_gating: true,
            bypass_enabled: true,
            channel_capacity: 8,
            vc_depth: 2,
            mfac,
            ..SimConfig::default()
        };
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(rate, 6), seed);
        prop_assert!(net.run_cycles(2_000_000), "gated network did not drain");
        prop_assert_eq!(net.stats().packets_delivered, 64 * 6);
    }

    /// Same seed, same everything: the simulator is fully deterministic.
    #[test]
    fn determinism(seed in 0u64..200, rate in 0.01f64..0.05) {
        let run = || {
            let cfg = SimConfig { seed, ..SimConfig::default() };
            let mut net = Network::new(cfg, WorkloadSpec::uniform(rate, 6), seed);
            net.run_cycles(2_000_000);
            net.stats().clone()
        };
        prop_assert_eq!(run(), run());
    }

    /// Latency lower bound: no packet beats the physical minimum
    /// (pipeline + link per hop, plus serialization).
    #[test]
    fn latency_respects_physical_minimum(seed in 0u64..100) {
        let mut cfg = SimConfig::default();
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        cfg.seed = seed;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.005, 5), seed);
        prop_assert!(net.run_cycles(2_000_000));
        // Minimum: 1 hop x (4-cycle pipeline + 1-cycle link) + injection +
        // 3 cycles tail serialization ~ 9 cycles.
        prop_assert!(net.stats().avg_latency() >= 9.0,
            "implausible latency {}", net.stats().avg_latency());
    }
}

proptest! {
    /// The occupancy index (buffered counts, every router's VC table and
    /// readiness masks, inbound counts, non-empty channel and NI sets)
    /// equals a from-scratch recount after every cycle of runs that exercise
    /// every place a flit enters or leaves a queue or a VC changes hands:
    /// every design of `Design::ALL`, loads from idle to past saturation,
    /// link errors with a tight retry budget (hop NACKs, end-to-end
    /// re-injection), a router dying mid-run (`purge_packet`, salvage,
    /// drops) and, on bypass designs, a forced-gate directive.
    #[test]
    fn occupancy_index_equals_a_recount_every_cycle(
        (width, height) in (2usize..7, 2usize..7),
        design in 0u8..5,
        rate in 0.002f64..0.12,
        seed in any::<u64>(),
        death_at in 30u64..300,
        gate_at in 0u64..300,
    ) {
        let mut cfg = Design::ALL[usize::from(design)].sim_config();
        (cfg.width, cfg.height) = (width, height);
        cfg.seed = seed;
        cfg.fault_aware_routing = true;
        cfg.max_retx = 2;
        cfg.varius.base_rate = 3e-4;
        cfg.varius.min_rate = 3e-4;
        cfg.varius.max_rate = 3e-4;
        cfg.hard_faults = HardFaultScenario::dead_routers(width, height, 1, seed, death_at);
        let (nodes, bypass) = (cfg.nodes(), cfg.bypass_enabled);
        let mut net = Network::new(cfg, WorkloadSpec::uniform(rate, 8), seed ^ 0x5eed);
        for cycle in 0..1_200u64 {
            if net.is_done() {
                break;
            }
            if bypass && cycle == gate_at {
                let d = RouterDirective { gate: Some(true), scheme: EccScheme::Secded, relaxed: false };
                net.apply_directives(&vec![d; nodes]);
            }
            net.step_cycle();
            let drift = net.occupancy_index_drift();
            prop_assert!(drift.is_none(), "after cycle {cycle}: {drift:?}");
        }
        prop_assert!(net.stats().packets_injected > 0);
    }
}

/// Failure (d), ROADMAP item 2: with no fault injected, IntelliNoC with a
/// 4-stage MFAC channel deadlocks on canneal. The watchdog fires at cycle
/// 56 304 with 6 745 of 9 600 packets delivered (the D1 row of
/// `results/ablations.txt`). `cargo test -- --ignored` reproduces it.
#[test]
#[ignore = "failure (d), ROADMAP item 2"]
fn intellinoc_with_a_four_stage_channel_delivers_canneal() {
    let workload = ParsecBenchmark::Canneal.workload(150);
    let mut cfg = ExperimentConfig::new(Design::IntelliNoc, workload).with_seed(5);
    cfg.tweak = Some(|c| c.channel_capacity = 4);
    let stats = run_experiment(cfg).report.stats;
    assert_eq!(stats.packets_delivered, 9_600, "stalled at cycle {}", stats.cycles);
}
