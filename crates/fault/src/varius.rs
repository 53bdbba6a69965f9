//! VARIUS-style transient timing-error model.
//!
//! Following the paper's §6.1, the per-bit probability of a timing error on a
//! link traversal, `Re`, increases with operating temperature and decreases
//! with supply voltage. The per-flit fault probability is the paper's Eq. 3,
//! `P_fault = 1 − (1 − Re)ⁿ` for an n-bit codeword; the injector samples the
//! Binomial(n, Re) flip count directly, so the formula is never evaluated.
//!
//! Aging couples in through delay degradation: a router whose transistors
//! have shifted threshold voltage has less timing slack, which multiplies
//! `Re` (alpha-power law, §6.2).

/// Timing-error model parameters.
///
/// Passive constants bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariusModel {
    /// Base per-bit error rate at the reference temperature and voltage.
    pub base_rate: f64,
    /// Reference temperature in °C.
    pub ref_temp_c: f64,
    /// Exponential temperature coefficient (1/°C).
    pub temp_coeff: f64,
    /// Reference supply voltage in volts.
    pub ref_vdd: f64,
    /// Exponential voltage coefficient (1/V); higher Vdd → more slack →
    /// fewer errors.
    pub vdd_coeff: f64,
    /// Multiplier applied per unit of relative delay degradation from aging.
    pub aging_coeff: f64,
    /// Lower clamp on the produced rate.
    pub min_rate: f64,
    /// Upper clamp on the produced rate.
    pub max_rate: f64,
}

impl Default for VariusModel {
    fn default() -> Self {
        VariusModel {
            base_rate: 1e-7,
            ref_temp_c: 60.0,
            temp_coeff: 0.28,
            ref_vdd: 1.0,
            vdd_coeff: 12.0,
            aging_coeff: 40.0,
            min_rate: 1e-12,
            max_rate: 5e-4,
        }
    }
}

impl VariusModel {
    /// Per-bit timing-error probability for one link traversal.
    ///
    /// `delay_degradation` is the relative circuit-delay increase from aging
    /// (0.0 for a fresh chip; see [`crate::AgingState::delay_degradation`]).
    pub fn bit_error_rate(&self, temp_c: f64, vdd: f64, delay_degradation: f64) -> f64 {
        let t = (self.temp_coeff * (temp_c - self.ref_temp_c)).exp();
        let v = (-self.vdd_coeff * (vdd - self.ref_vdd)).exp();
        let a = (self.aging_coeff * delay_degradation).exp();
        (self.base_rate * t * v * a).clamp(self.min_rate, self.max_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_increases_with_temperature() {
        let m = VariusModel::default();
        let cold = m.bit_error_rate(50.0, 1.0, 0.0);
        let hot = m.bit_error_rate(90.0, 1.0, 0.0);
        assert!(hot > cold * 5.0, "hot {hot} cold {cold}");
    }

    #[test]
    fn rate_decreases_with_voltage() {
        let m = VariusModel::default();
        let low = m.bit_error_rate(60.0, 0.9, 0.0);
        let high = m.bit_error_rate(60.0, 1.1, 0.0);
        assert!(low > high * 5.0);
    }

    #[test]
    fn aging_raises_rate() {
        let m = VariusModel::default();
        let fresh = m.bit_error_rate(60.0, 1.0, 0.0);
        let aged = m.bit_error_rate(60.0, 1.0, 0.05);
        assert!(aged > fresh * 2.0);
    }

    #[test]
    fn rates_are_clamped() {
        let m = VariusModel::default();
        assert!(m.bit_error_rate(-200.0, 2.0, 0.0) >= m.min_rate);
        assert!(m.bit_error_rate(500.0, 0.0, 1.0) <= m.max_rate);
    }
}
