//! NBTI + HCI transistor-aging model (paper §6.2).
//!
//! The paper quantifies permanent-fault susceptibility through the shift in
//! transistor threshold voltage ΔVth, accumulated from two independent
//! mechanisms:
//!
//! * **NBTI** (Eq. 5): grows with a sub-linear power of *temperature-weighted
//!   stress time* — PMOS stress whenever the router is powered.
//! * **HCI** (Eq. 6): grows with a sub-linear power of *switching-activity
//!   time* — NMOS stress proportional to dynamic activity.
//!
//! A transistor is considered permanently failed when ΔVth exceeds 10 % of
//! the nominal threshold voltage (paper [37]); the alpha-power law (Eq. 4)
//! converts ΔVth into a relative circuit-delay degradation that also feeds
//! back into the transient-error rate.
//!
//! Both mechanisms accumulate *rates* (so temperature/activity may vary over
//! the run) and apply the power-law exponent at read time:
//! `ΔVth_NBTI = k_n · S^n₁` with `S = Σ w(T)·dt`, and similarly for HCI.

/// Aging model parameters.
///
/// Passive constants bag; fields are public by design. Constants are
/// calibrated so a router held at ~75 °C with moderate activity reaches the
/// ΔVth failure threshold after a few years of continuous 2 GHz operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    /// Nominal threshold voltage (V) at 32 nm.
    pub vth0: f64,
    /// NBTI prefactor `k_n` (V per stress-unit^n1).
    pub k_nbti: f64,
    /// NBTI time exponent `n₁` (classic reaction–diffusion ≈ 0.25).
    pub nbti_exponent: f64,
    /// NBTI temperature-acceleration coefficient (1/°C) in `w(T)`.
    pub nbti_temp_coeff: f64,
    /// Reference temperature (°C) where `w(T) = 1`.
    pub ref_temp_c: f64,
    /// HCI prefactor `k_h` (V per activity-unit^n2).
    pub k_hci: f64,
    /// HCI time exponent `n₂` (≈ 0.45).
    pub hci_exponent: f64,
    /// ΔVth/Vth0 fraction at which a permanent fault is declared (0.10).
    pub failure_fraction: f64,
    /// Alpha-power-law exponent relating (Vdd−Vth) to delay (Eq. 4).
    pub alpha: f64,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl Default for AgingModel {
    fn default() -> Self {
        AgingModel {
            vth0: 0.30,
            k_nbti: 7.3e-7,
            nbti_exponent: 0.25,
            nbti_temp_coeff: 0.05,
            ref_temp_c: 45.0,
            k_hci: 3.5e-10,
            hci_exponent: 0.45,
            failure_fraction: 0.10,
            alpha: 1.3,
            vdd: 1.0,
        }
    }
}

impl AgingModel {
    /// NBTI temperature weight `w(T)`.
    pub fn nbti_weight(&self, temp_c: f64) -> f64 {
        (self.nbti_temp_coeff * (temp_c - self.ref_temp_c)).exp()
    }

    /// ΔVth (V) produced by accumulated NBTI stress `s` (weighted cycles).
    pub fn nbti_dvth(&self, s: f64) -> f64 {
        self.k_nbti * s.max(0.0).powf(self.nbti_exponent)
    }

    /// ΔVth (V) produced by accumulated HCI activity `h` (activity cycles).
    pub fn hci_dvth(&self, h: f64) -> f64 {
        self.k_hci * h.max(0.0).powf(self.hci_exponent)
    }

    /// Relative circuit-delay degradation for a given ΔVth via the
    /// alpha-power law: `d/d₀ = ((Vdd−Vth0)/(Vdd−Vth0−ΔVth))^α − 1`.
    pub fn delay_degradation(&self, dvth: f64) -> f64 {
        let head0 = self.vdd - self.vth0;
        let head = (head0 - dvth).max(1e-3);
        (head0 / head).powf(self.alpha) - 1.0
    }

    /// ΔVth (V) at which the device is declared permanently failed.
    pub fn failure_dvth(&self) -> f64 {
        self.failure_fraction * self.vth0
    }
}

/// Per-router accumulated aging state.
///
/// # Examples
///
/// ```
/// use noc_fault::{AgingModel, AgingState};
///
/// let model = AgingModel::default();
/// let mut state = AgingState::new();
/// // One epoch: 1000 cycles at 80 degC with 40% switching activity.
/// state.accumulate(&model, 80.0, 0.4, 1_000);
/// assert!(state.delta_vth(&model) > 0.0);
/// assert!(state.aging_factor(&model) > 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AgingState {
    /// Temperature-weighted powered cycles (NBTI stress integral `S`).
    nbti_stress: f64,
    /// Activity-weighted cycles (HCI integral `H`).
    hci_stress: f64,
    /// Total wall-clock cycles observed (powered or not).
    total_cycles: f64,
}

impl AgingState {
    /// Fresh (unaged) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one epoch of stress.
    ///
    /// `activity` is the switching-activity factor in `[0, 1]` (0 when the
    /// router is power-gated — gating pauses both NBTI and HCI stress, which
    /// is exactly the stress-relaxing benefit of operation mode 0).
    pub fn accumulate(&mut self, model: &AgingModel, temp_c: f64, activity: f64, cycles: u64) {
        let dt = cycles as f64;
        self.total_cycles += dt;
        if activity > 0.0 {
            self.nbti_stress += model.nbti_weight(temp_c) * dt;
            self.hci_stress += activity.clamp(0.0, 1.0) * dt;
        }
    }

    /// Current total ΔVth in volts (NBTI + HCI, independent per paper [21]).
    pub fn delta_vth(&self, model: &AgingModel) -> f64 {
        model.nbti_dvth(self.nbti_stress) + model.hci_dvth(self.hci_stress)
    }

    /// Paper Eq. 7: `Aging = 1 + (ΔVth / Vth0) × 100 %`, always > 1 so it can
    /// be used inside the log-space reward.
    pub fn aging_factor(&self, model: &AgingModel) -> f64 {
        1.0 + 100.0 * self.delta_vth(model) / model.vth0
    }

    /// Relative delay degradation from the current ΔVth.
    pub fn delay_degradation(&self, model: &AgingModel) -> f64 {
        model.delay_degradation(self.delta_vth(model))
    }

    /// Whether the router has crossed the permanent-fault threshold.
    pub fn is_failed(&self, model: &AgingModel) -> bool {
        self.delta_vth(model) >= model.failure_dvth()
    }

    /// Average NBTI stress rate per cycle so far (for MTTF extrapolation).
    pub fn nbti_rate(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.nbti_stress / self.total_cycles
        }
    }

    /// Average HCI stress rate per cycle so far (for MTTF extrapolation).
    pub fn hci_rate(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.hci_stress / self.total_cycles
        }
    }

    /// Total cycles observed.
    pub fn total_cycles(&self) -> f64 {
        self.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const YEAR_CYCLES: f64 = 6.3e16; // ~1 year at 2 GHz

    #[test]
    fn fresh_state_is_unaged() {
        let m = AgingModel::default();
        let s = AgingState::new();
        assert_eq!(s.delta_vth(&m), 0.0);
        assert_eq!(s.aging_factor(&m), 1.0);
        assert!(!s.is_failed(&m));
    }

    #[test]
    fn hotter_ages_faster() {
        let m = AgingModel::default();
        let mut cool = AgingState::new();
        let mut hot = AgingState::new();
        cool.accumulate(&m, 55.0, 0.3, 1_000_000);
        hot.accumulate(&m, 95.0, 0.3, 1_000_000);
        assert!(hot.delta_vth(&m) > cool.delta_vth(&m) * 1.2);
    }

    #[test]
    fn gated_epochs_do_not_age() {
        let m = AgingModel::default();
        let mut s = AgingState::new();
        s.accumulate(&m, 80.0, 0.0, 1_000_000);
        assert_eq!(s.delta_vth(&m), 0.0);
        assert_eq!(s.total_cycles(), 1_000_000.0);
    }

    #[test]
    fn lifetime_scale_is_years() {
        // At a sustained 75 degC and 30% activity, failure should occur
        // between ~0.2 and ~30 years of continuous operation.
        let m = AgingModel::default();
        let mut s = AgingState::new();
        let step = YEAR_CYCLES / 100.0;
        let mut years = 0.0;
        while !s.is_failed(&m) && years < 50.0 {
            s.accumulate(&m, 75.0, 0.3, step as u64);
            years += 0.01;
        }
        assert!(years > 0.2 && years < 30.0, "lifetime {years} years");
    }

    #[test]
    fn delay_degradation_monotone_in_dvth() {
        let m = AgingModel::default();
        let mut last = -1.0;
        for i in 0..10 {
            let d = m.delay_degradation(i as f64 * 0.005);
            assert!(d > last);
            last = d;
        }
        assert!(m.delay_degradation(0.0).abs() < 1e-12);
    }

    #[test]
    fn aging_factor_always_above_one() {
        let m = AgingModel::default();
        let mut s = AgingState::new();
        s.accumulate(&m, 70.0, 0.5, 10_000);
        assert!(s.aging_factor(&m) > 1.0);
        assert!(s.aging_factor(&m).ln() > 0.0);
    }

    #[test]
    fn sublinear_time_dependence() {
        // Doubling stress time must less-than-double NBTI dVth (n1 < 1).
        let m = AgingModel::default();
        let mut a = AgingState::new();
        let mut b = AgingState::new();
        a.accumulate(&m, 75.0, 0.3, 1_000_000);
        b.accumulate(&m, 75.0, 0.3, 2_000_000);
        assert!(b.delta_vth(&m) < 2.0 * a.delta_vth(&m));
        assert!(b.delta_vth(&m) > a.delta_vth(&m));
    }
}
