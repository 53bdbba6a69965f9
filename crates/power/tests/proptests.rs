//! Property tests for the power/area models.

use noc_ecc::EccScheme;
use noc_power::{
    ActivityCounters, AreaModel, EnergyLedger, EnergyModel, LeakageModel, RouterAreaSpec,
    RouterLeakageSpec,
};
use proptest::prelude::*;

fn arb_counters() -> impl Strategy<Value = ActivityCounters> {
    (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000).prop_map(|(a, b, c, d)| {
        ActivityCounters {
            buffer_writes: a,
            buffer_reads: b,
            xbar_traversals: c,
            link_flits: d,
            channel_stage_ops: a / 2,
            crc_ops: b / 3,
            secded_ops: c / 4,
            dected_ops: d / 5,
            tecqed_ops: d / 6,
            alloc_ops: a,
            wakeups: c / 100,
        }
    })
}

proptest! {
    /// Dynamic energy is additive over merged counter batches.
    #[test]
    fn dynamic_energy_is_additive(a in arb_counters(), b in arb_counters()) {
        let m = EnergyModel::default();
        let mut merged = a;
        merged.merge(&b);
        let sum = m.dynamic_pj(&a) + m.dynamic_pj(&b);
        prop_assert!((m.dynamic_pj(&merged) - sum).abs() < 1e-6 * sum.max(1.0));
    }

    /// Leakage is monotone in temperature and in the leaky-component count.
    #[test]
    fn leakage_monotone(
        t1 in 40f64..120.0,
        dt in 0.1f64..40.0,
        slots in 0u32..200,
        stages in 0u32..64,
    ) {
        let m = LeakageModel::default();
        let spec = RouterLeakageSpec {
            buffer_slots: slots,
            channel_stages: stages,
            has_bst: true,
            has_qtable: false,
        };
        let cold = m.router_static_mw(&spec, EccScheme::Secded, t1, false);
        let hot = m.router_static_mw(&spec, EccScheme::Secded, t1 + dt, false);
        prop_assert!(hot > cold);
        let bigger = RouterLeakageSpec { buffer_slots: slots + 1, ..spec };
        prop_assert!(
            m.router_static_mw(&bigger, EccScheme::Secded, t1, false) > cold
        );
        // Gating always saves power.
        let gated = m.router_static_mw(&spec, EccScheme::Secded, t1, true);
        prop_assert!(gated < cold);
    }

    /// The ledger's report conserves energy: total power x time == energy in.
    #[test]
    fn ledger_conserves_energy(
        dynamic in 0f64..1e9,
        static_mw in 0f64..1e3,
        cycles in 1u64..1_000_000,
    ) {
        let mut l = EnergyLedger::new();
        l.add_dynamic_pj(dynamic);
        l.add_static_epoch(static_mw, cycles);
        let r = l.report(cycles);
        let back = r.total_energy_pj();
        let expect = dynamic + static_mw * cycles as f64 * 0.5;
        prop_assert!((back - expect).abs() < 1e-6 * expect.max(1.0));
    }

    /// Area grows monotonically with every structural knob.
    #[test]
    fn area_monotone_in_structure(slots in 0u32..200, stages in 0u32..64) {
        let m = AreaModel::default();
        let base = RouterAreaSpec {
            buffer_slots: slots,
            channel_stages: stages,
            mfac_channels: 0,
            dual_subnetwork: false,
            has_va: true,
            max_ecc: EccScheme::Secded,
            has_gating: false,
            has_bst: false,
            has_qtable: false,
        };
        let t0 = m.router_area(&base).total();
        for spec in [
            RouterAreaSpec { buffer_slots: slots + 1, ..base },
            RouterAreaSpec { channel_stages: stages + 1, ..base },
            RouterAreaSpec { mfac_channels: 4, ..base },
            RouterAreaSpec { max_ecc: EccScheme::Dected, ..base },
            RouterAreaSpec { has_gating: true, ..base },
            RouterAreaSpec { has_bst: true, ..base },
            RouterAreaSpec { has_qtable: true, ..base },
        ] {
            prop_assert!(m.router_area(&spec).total() > t0);
        }
    }
}
