//! Property tests for the fault substrate.

use noc_fault::{
    extrapolate_mttf, network_mttf, AgingModel, AgingState, FaultInjector, ThermalGrid,
    ThermalModel, VariusModel,
};
use proptest::prelude::*;

proptest! {
    /// Thermal state stays within [ambient, max] for any power history.
    #[test]
    fn thermal_bounded_for_any_power_history(
        powers in prop::collection::vec(prop::collection::vec(0f64..500.0, 16), 1..40),
        dt in 1u64..50_000,
    ) {
        let m = ThermalModel::default();
        let mut g = ThermalGrid::new(m, 4, 4);
        for p in &powers {
            g.step(p, dt);
            for &t in g.temps() {
                prop_assert!(t >= m.ambient_c - 1e-9 && t <= m.max_temp_c + 1e-9);
                prop_assert!(t.is_finite());
            }
        }
    }

    /// The error-rate model is monotone in temperature and bounded by its
    /// clamps, for any aging level.
    #[test]
    fn varius_monotone_and_clamped(
        t in -50f64..300.0,
        dt in 0.1f64..50.0,
        vdd in 0.7f64..1.3,
        aging in 0f64..0.5,
    ) {
        let m = VariusModel::default();
        let lo = m.bit_error_rate(t, vdd, aging);
        let hi = m.bit_error_rate(t + dt, vdd, aging);
        prop_assert!(hi >= lo);
        prop_assert!(lo >= m.min_rate && hi <= m.max_rate);
    }

    /// Injected flip counts never exceed the codeword width and occur at
    /// a frequency consistent with Eq. 3 (loose statistical bound).
    #[test]
    fn injector_flip_counts_in_range(seed in 0u64..500, re in 1e-6f64..1e-2) {
        let mut inj = FaultInjector::new(seed);
        let n = 145usize;
        let mut faulty = 0u32;
        let trials = 2_000;
        for _ in 0..trials {
            let k = inj.sample_flip_count(n, re);
            prop_assert!(k as usize <= n);
            if k > 0 {
                faulty += 1;
            }
        }
        let p = 1.0 - (1.0 - re).powi(n as i32);
        let expect = p * trials as f64;
        // 6-sigma binomial bound.
        let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
        prop_assert!(
            (faulty as f64 - expect).abs() < 6.0 * sigma + 5.0,
            "faulty {faulty} expect {expect}"
        );
    }

    /// One traversal costs exactly one RNG draw whatever it returns: after
    /// the same number of samples at a rate that never hits and at one that
    /// always does, two same-seed injectors are at the same point of their
    /// stream and choose the same positions.
    #[test]
    fn injector_draws_once_per_sample(seed in any::<u64>(), samples in 1usize..40, n in 1usize..300) {
        let mut quiet = FaultInjector::new(seed);
        let mut noisy = FaultInjector::new(seed);
        for _ in 0..samples {
            prop_assert_eq!(quiet.sample_flip_count(n, 1e-9), 0);
            let k = noisy.sample_flip_count(n, 0.5);
            prop_assert!(k as usize <= n);
        }
        let k = n.min(4) as u32;
        prop_assert_eq!(quiet.choose_positions(n, k), noisy.choose_positions(n, k));
    }

    /// The ends of the rate range: a zero (or negative, or NaN) rate draws
    /// nothing and flips nothing, a rate of one (or beyond) flips every
    /// bit, and no rate flips more bits than the codeword has.
    #[test]
    fn injector_rate_extremes(seed in any::<u64>(), n in 0usize..400, re in -0.5f64..1.5) {
        let mut inj = FaultInjector::new(seed);
        let mut untouched = FaultInjector::new(seed);
        for zero in [0.0, -re.abs(), f64::NAN] {
            prop_assert_eq!(inj.sample_flip_count(n, zero), 0);
        }
        prop_assert_eq!(inj.choose_positions(500, 3), untouched.choose_positions(500, 3));
        prop_assert_eq!(inj.sample_flip_count(n, 1.0), n as u32);
        prop_assert_eq!(inj.sample_flip_count(n, 1.0 + re.abs()), n as u32);
        prop_assert!(inj.sample_flip_count(n, re) as usize <= n);
        inj.set_rate_override(Some(re));
        prop_assert!(inj.sample_flip_count(n, 0.0) as usize <= n);
    }

    /// MTTF extrapolation is antitone in stress: more stress, shorter life.
    #[test]
    fn mttf_antitone_in_stress(
        temp in 50f64..100.0,
        act in 0.05f64..1.0,
        extra in 1.0f64..30.0,
    ) {
        let m = AgingModel::default();
        let mut a = AgingState::new();
        let mut b = AgingState::new();
        a.accumulate(&m, temp, act, 1_000_000);
        b.accumulate(&m, temp + extra, act, 1_000_000);
        let ma = extrapolate_mttf(&m, &a).expect("stressed");
        let mb = extrapolate_mttf(&m, &b).expect("stressed");
        prop_assert!(mb.cycles <= ma.cycles);
    }

    /// Network MTTF is never longer than the best component and never
    /// shorter than best/N.
    #[test]
    fn network_mttf_bounds(
        temps in prop::collection::vec(55f64..105.0, 2..32),
    ) {
        let m = AgingModel::default();
        let states: Vec<AgingState> = temps
            .iter()
            .map(|&t| {
                let mut s = AgingState::new();
                s.accumulate(&m, t, 0.3, 1_000_000);
                s
            })
            .collect();
        let per: Vec<f64> = states
            .iter()
            .map(|s| extrapolate_mttf(&m, s).expect("stressed").cycles)
            .collect();
        let best = per.iter().cloned().fold(f64::MIN, f64::max);
        let worst = per.iter().cloned().fold(f64::MAX, f64::min);
        let net = network_mttf(&m, &states).expect("stressed").cycles;
        prop_assert!(net <= worst + 1.0, "net {net} > worst {worst}");
        // 1/sum(1/m_i) >= worst/N (harmonic-mean style lower bound).
        prop_assert!(net >= worst / states.len() as f64 * 0.99, "net {net} best {best}");
    }
}
