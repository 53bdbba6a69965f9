//! Property tests for the simulator's data structures.

use noc_ecc::EccScheme;
use noc_sim::{
    make_packet, Channel, Cycle, Flit, HardFaultScenario, Network, RouterDirective, SimConfig,
};
use noc_traffic::WorkloadSpec;
use proptest::prelude::*;

/// The `seen`-set formulation of `Channel::scan_deliverable` that the
/// allocation-free look-back replaced, kept as the reference: walk front to
/// back, skip any flit whose packet already appeared, return the first
/// arrived flit the predicate accepts.
fn scan_reference(
    queue: &[(Flit, Cycle)],
    now: Cycle,
    mut deliverable: impl FnMut(&Flit) -> bool,
) -> Option<usize> {
    let mut seen: Vec<u64> = Vec::new();
    for (i, (flit, ready)) in queue.iter().enumerate() {
        if seen.contains(&flit.packet_id) {
            continue;
        }
        seen.push(flit.packet_id);
        if *ready <= now && deliverable(flit) {
            return Some(i);
        }
    }
    None
}

/// The buffer, gating and bypass settings of the five designs
/// (`intellinoc::Design::sim_config`, which this crate cannot depend on):
/// SECDED, EB, CP, CPD, IntelliNoC.
fn design_config(design: u8) -> SimConfig {
    let mut cfg = SimConfig::default();
    let (vcs, depth, cap) =
        [(4, 4, 0), (2, 1, 8), (4, 2, 8), (4, 2, 8), (4, 2, 8)][design as usize];
    (cfg.vcs, cfg.vc_depth, cfg.channel_capacity) = (vcs, depth, cap);
    cfg.pipeline_latency = if design == 1 { 3 } else { 4 };
    cfg.reactive_gating = design >= 2;
    cfg.bypass_enabled = design >= 2;
    cfg.wake_occupancy = if design == 4 { 6 } else { 1 };
    cfg.e2e_crc = design >= 3;
    if design == 4 {
        cfg.bypass_during_wake = true;
        cfg.mfac_retx = true;
        cfg.has_bst = true;
        cfg.default_scheme = EccScheme::None;
    }
    cfg
}

proptest! {
    /// The occupancy index (buffered counts, every router's VC table and
    /// readiness masks, inbound counts, non-empty channel and NI sets)
    /// equals a from-scratch recount after every cycle of runs that exercise
    /// every place a flit enters or leaves a queue or a VC changes hands:
    /// all five designs' buffering/gating/bypass settings, loads from idle
    /// to past saturation, link errors with a tight retry budget (hop NACKs,
    /// end-to-end re-injection), a router dying mid-run (`purge_packet`,
    /// salvage, drops) and, on bypass designs, a forced-gate directive.
    #[test]
    fn occupancy_index_equals_a_recount_every_cycle(
        (width, height) in (2usize..7, 2usize..7),
        design in 0u8..5,
        rate in 0.002f64..0.12,
        seed in any::<u64>(),
        death_at in 30u64..300,
        gate_at in 0u64..300,
    ) {
        let mut cfg = design_config(design);
        (cfg.width, cfg.height) = (width, height);
        cfg.seed = seed;
        cfg.fault_aware_routing = true;
        cfg.max_retx = 2;
        cfg.varius.base_rate = 3e-4;
        cfg.varius.min_rate = 3e-4;
        cfg.varius.max_rate = 3e-4;
        cfg.hard_faults = HardFaultScenario::dead_routers(width, height, 1, seed, death_at);
        let nodes = cfg.nodes();
        let mut net = Network::new(cfg, WorkloadSpec::uniform(rate, 8), seed ^ 0x5eed);
        for cycle in 0..1_200u64 {
            if net.is_done() {
                break;
            }
            if design >= 2 && cycle == gate_at {
                let d = RouterDirective { gate: Some(true), scheme: EccScheme::Secded, relaxed: false };
                net.apply_directives(&vec![d; nodes]);
            }
            net.step_cycle();
            let drift = net.occupancy_index_drift();
            prop_assert!(drift.is_none(), "after cycle {cycle}: {drift:?}");
        }
        prop_assert!(net.stats().packets_injected > 0);
    }

    /// `scan_deliverable` picks the same flit as the reference — and asks
    /// the predicate about the same flits in the same order — for any
    /// queue (empty included), with packet ids drawn from a small range so
    /// they repeat, arbitrary arrival times and arbitrary predicates.
    #[test]
    fn scan_deliverable_matches_seen_set_reference(
        entries in prop::collection::vec((0u64..4, 0u8..4, 0u64..12), 0..10),
        accept in prop::collection::vec(any::<bool>(), 10),
        now in 0u64..14,
    ) {
        let mut ch = Channel::new(entries.len());
        let mut queue = Vec::new();
        for (i, &(packet, index, pushed_at)) in entries.iter().enumerate() {
            let mut flit = make_packet(packet, packet * 4, 0, 1, 0)[index as usize];
            flit.id = i as u64; // position in the queue, so the predicate can key on it
            ch.push(flit, pushed_at);
            queue.push((flit, pushed_at + ch.latency()));
        }
        let mut asked = Vec::new();
        let got = ch.scan_deliverable(now, |f| {
            asked.push(f.id);
            accept[f.id as usize]
        });
        let mut asked_ref = Vec::new();
        let want = scan_reference(&queue, now, |f| {
            asked_ref.push(f.id);
            accept[f.id as usize]
        });
        prop_assert_eq!(got, want);
        prop_assert_eq!(asked, asked_ref);
    }
}
