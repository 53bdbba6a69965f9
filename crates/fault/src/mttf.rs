//! Mean-time-to-failure estimation (Fig. 16).
//!
//! The simulated windows are far too short for ΔVth to reach the failure
//! threshold, so — like the paper's architecture-level reliability framework
//! [23, 44] — MTTF is *extrapolated*: from the average NBTI/HCI stress rates
//! observed during the run, solve for the wall-clock time at which
//! `ΔVth(t) = 10 % · Vth0`.

use crate::aging::{AgingModel, AgingState};

/// Cycles per hour at the paper's 2.0 GHz clock.
pub const CYCLES_PER_HOUR: f64 = 2.0e9 * 3600.0;

/// MTTF estimate for one component or the whole network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfEstimate {
    /// Extrapolated time to failure in cycles.
    pub cycles: f64,
}

impl MttfEstimate {
    /// MTTF in hours.
    pub fn hours(&self) -> f64 {
        self.cycles / CYCLES_PER_HOUR
    }

    /// MTTF in years.
    pub fn years(&self) -> f64 {
        self.hours() / (24.0 * 365.0)
    }

    /// Failure-in-time rate: failures per 10⁹ device-hours.
    pub fn fit(&self) -> f64 {
        1e9 / self.hours()
    }
}

/// Extrapolates MTTF from the stress rates accumulated in `state`.
///
/// Solves `k_n·(r_n·t)^n1 + k_h·(r_h·t)^n2 = failure_dvth` for `t` by
/// bisection (the left side is strictly increasing in `t`).
///
/// The bisection runs at most 200 steps and stops early at the first step
/// whose midpoint equals `lo` or `hi`. That stop is exact: the loop's state
/// is the pair `(lo, hi)` alone, and such a step either assigns an endpoint
/// the value it already holds (the state is unchanged, so every later step
/// repeats it) or collapses the bracket onto one point `x`, after which
/// every midpoint is `x` and every step assigns `x` to an endpoint already
/// holding it. Whatever `ΔVth(mid)` is, NaN included, the 200-step loop ends
/// on the same bits. A root in ordinary units gets there in about 55 steps;
/// one far below the initial `1e12` bracket needs more than 200 halvings
/// and still ends at the cap.
///
/// Returns `None` when the state has accumulated no stress at all (an
/// always-gated router never ages and so never fails from wear-out).
///
/// # Examples
///
/// ```
/// use noc_fault::{extrapolate_mttf, AgingModel, AgingState};
///
/// let model = AgingModel::default();
/// let mut state = AgingState::new();
/// state.accumulate(&model, 80.0, 0.5, 1_000_000);
/// let mttf = extrapolate_mttf(&model, &state).expect("stressed router ages");
/// assert!(mttf.years() > 0.0);
/// ```
pub fn extrapolate_mttf(model: &AgingModel, state: &AgingState) -> Option<MttfEstimate> {
    let rn = state.nbti_rate();
    let rh = state.hci_rate();
    if rn <= 0.0 && rh <= 0.0 {
        return None;
    }
    let target = model.failure_dvth();
    let dvth_at = |t: f64| model.nbti_dvth(rn * t) + model.hci_dvth(rh * t);
    // Bracket the root.
    let mut lo = 0.0f64;
    let mut hi = 1e12;
    while dvth_at(hi) < target {
        hi *= 10.0;
        if hi > 1e30 {
            return None; // effectively never fails
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fixed = mid == lo || mid == hi;
        if dvth_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if fixed {
            break;
        }
    }
    Some(MttfEstimate { cycles: 0.5 * (lo + hi) })
}

/// Network-level MTTF under the serial reliability model of the paper's
/// architecture-level framework [23, 44]: component failure rates (FIT)
/// add, so `MTTF_net = 1 / Σ (1 / MTTF_i)`. Routers that never age
/// (`None`) contribute no failure rate.
///
/// Returns `None` if no router accumulated any stress.
pub fn network_mttf(model: &AgingModel, states: &[AgingState]) -> Option<MttfEstimate> {
    let rate: f64 =
        states.iter().filter_map(|s| extrapolate_mttf(model, s)).map(|m| 1.0 / m.cycles).sum();
    if rate > 0.0 {
        Some(MttfEstimate { cycles: 1.0 / rate })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bisection as it was before the early stop: always 200 steps.
    fn extrapolate_mttf_200(model: &AgingModel, state: &AgingState) -> Option<MttfEstimate> {
        let rn = state.nbti_rate();
        let rh = state.hci_rate();
        if rn <= 0.0 && rh <= 0.0 {
            return None;
        }
        let target = model.failure_dvth();
        let dvth_at = |t: f64| model.nbti_dvth(rn * t) + model.hci_dvth(rh * t);
        let mut lo = 0.0f64;
        let mut hi = 1e12;
        while dvth_at(hi) < target {
            hi *= 10.0;
            if hi > 1e30 {
                return None;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if dvth_at(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(MttfEstimate { cycles: 0.5 * (lo + hi) })
    }

    /// Temperatures from a frozen die to past the NBTI weight's overflow
    /// (`exp(0.05·(T − 45))` is infinite above about 14 200 °C).
    fn temperature() -> impl Strategy<Value = f64> {
        prop_oneof![
            -200.0f64..200.0,
            -1e5f64..15_000.0,
            (0usize..8).prop_map(|i| {
                [0.0, -1e5, -700.0, 14_000.0, 14_300.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
                    [i]
            }),
        ]
    }

    fn activity() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..1.0,
            (0usize..5).prop_map(|i| [0.0, f64::MIN_POSITIVE, 1e-300, 1.0, 7.0][i]),
        ]
    }

    fn cycles() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..2_000_000, (0usize..4).prop_map(|i| [0, 1, u64::MAX / 2, u64::MAX][i])]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The early stop returns the 200-step loop's bits on every state.
        #[test]
        fn early_stop_matches_the_200_step_loop(
            epochs in prop::collection::vec((temperature(), activity(), cycles()), 1..4),
        ) {
            let m = AgingModel::default();
            let mut s = AgingState::new();
            for (temp, act, n) in epochs {
                s.accumulate(&m, temp, act, n);
            }
            let bits = |e: Option<MttfEstimate>| e.map(|e| e.cycles.to_bits());
            prop_assert_eq!(bits(extrapolate_mttf(&m, &s)), bits(extrapolate_mttf_200(&m, &s)));
        }
    }

    fn aged(temp: f64, act: f64) -> AgingState {
        let m = AgingModel::default();
        let mut s = AgingState::new();
        s.accumulate(&m, temp, act, 1_000_000);
        s
    }

    #[test]
    fn extrapolation_matches_direct_simulation() {
        let m = AgingModel::default();
        let s = aged(75.0, 0.3);
        let mttf = extrapolate_mttf(&m, &s).unwrap();
        // Directly verify: at the extrapolated time the ΔVth equals the
        // threshold (within bisection tolerance).
        let dvth =
            m.nbti_dvth(s.nbti_rate() * mttf.cycles) + m.hci_dvth(s.hci_rate() * mttf.cycles);
        assert!((dvth - m.failure_dvth()).abs() / m.failure_dvth() < 1e-6);
    }

    #[test]
    fn hotter_router_fails_sooner() {
        let m = AgingModel::default();
        let cool = extrapolate_mttf(&m, &aged(60.0, 0.3)).unwrap();
        let hot = extrapolate_mttf(&m, &aged(95.0, 0.3)).unwrap();
        assert!(hot.cycles < cool.cycles);
    }

    #[test]
    fn busier_router_fails_sooner() {
        let m = AgingModel::default();
        let idle = extrapolate_mttf(&m, &aged(70.0, 0.05)).unwrap();
        let busy = extrapolate_mttf(&m, &aged(70.0, 0.9)).unwrap();
        assert!(busy.cycles < idle.cycles);
    }

    #[test]
    fn gated_router_never_fails() {
        let m = AgingModel::default();
        let s = aged(70.0, 0.0);
        assert!(extrapolate_mttf(&m, &s).is_none());
    }

    #[test]
    fn network_mttf_sums_failure_rates() {
        let m = AgingModel::default();
        let states = [aged(60.0, 0.2), aged(90.0, 0.8), aged(70.0, 0.4)];
        let net = network_mttf(&m, &states).unwrap();
        let worst = extrapolate_mttf(&m, &states[1]).unwrap();
        // Below the weakest component (rates add), but within a factor of
        // the component count.
        assert!(net.cycles < worst.cycles);
        assert!(net.cycles > worst.cycles / 3.0);
        // Removing a component raises network MTTF.
        let fewer = network_mttf(&m, &states[..2]).unwrap();
        assert!(fewer.cycles > net.cycles);
    }

    #[test]
    fn mttf_units_are_plausible() {
        let m = AgingModel::default();
        let mttf = extrapolate_mttf(&m, &aged(75.0, 0.3)).unwrap();
        assert!(mttf.years() > 0.1 && mttf.years() < 50.0, "{} years", mttf.years());
        assert!(mttf.fit() > 0.0);
    }
}
