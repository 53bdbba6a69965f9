//! VARIUS-style transient timing-error model.
//!
//! Following the paper's §6.1, the per-bit probability of a timing error on a
//! link traversal, `Re`, increases with operating temperature and decreases
//! with supply voltage. The per-flit fault probability follows the paper's
//! Eq. 3: `P_fault = 1 − (1 − Re)ⁿ` for an n-bit codeword.
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

    /// Per-bit rate under relaxed-timing transmission (operation mode 4):
    /// doubling the link traversal time means a bit only fails if both
    /// half-rate samples fail, squaring the (already small) probability —
    /// "reduced to near zero" in the paper's terms.
    pub fn relaxed_bit_error_rate(&self, temp_c: f64, vdd: f64, delay_degradation: f64) -> f64 {
        let re = self.bit_error_rate(temp_c, vdd, delay_degradation);
        (re * re).max(self.min_rate)
    }

    /// Paper Eq. 3: probability that an `n_bits` flit suffers ≥1 bit error.
    pub fn flit_fault_probability(&self, re: f64, n_bits: usize) -> f64 {
        1.0 - (1.0 - re).powi(n_bits as i32)
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

    #[test]
    fn relaxed_rate_is_near_zero() {
        let m = VariusModel::default();
        let re = m.bit_error_rate(85.0, 1.0, 0.0);
        let relaxed = m.relaxed_bit_error_rate(85.0, 1.0, 0.0);
        assert!(relaxed <= re * re * 1.0001 + m.min_rate);
        assert!(relaxed < re / 100.0);
    }

    #[test]
    fn eq3_flit_probability() {
        let m = VariusModel::default();
        // For small Re, P ≈ n·Re.
        let re = 1e-8;
        let p = m.flit_fault_probability(re, 145);
        assert!((p - 145.0 * re).abs() / (145.0 * re) < 1e-4);
        // Degenerate cases.
        assert_eq!(m.flit_fault_probability(0.0, 145), 0.0);
        assert!((m.flit_fault_probability(1.0, 10) - 1.0).abs() < 1e-12);
    }
}
