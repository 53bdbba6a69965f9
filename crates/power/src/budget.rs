//! Energy accounting over a simulation run.
//!
//! Aggregates per-epoch static and dynamic energy into the quantities the
//! paper reports: average static power (Fig. 11), average dynamic power
//! (Fig. 12), energy-efficiency `1/((P_s+P_d)·T_exec)` (Eq. 8, Fig. 13) and
//! the energy–delay product used in the sensitivity studies (Fig. 18).

use serde::{Deserialize, Serialize};

/// Clock period in nanoseconds at the paper's 2.0 GHz operating point.
pub const CLOCK_PERIOD_NS: f64 = 0.5;

/// Running energy totals for one simulation.
///
/// # Examples
///
/// ```
/// use noc_power::EnergyLedger;
///
/// let mut ledger = EnergyLedger::new();
/// ledger.add_dynamic_pj(1000.0);
/// ledger.add_static_epoch(64.0, 100); // 64 mW over 100 cycles
/// let report = ledger.report(100);
/// assert!(report.static_mw > 0.0 && report.dynamic_mw > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    dynamic_pj: f64,
    static_pj: f64,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds dynamic energy in picojoules.
    pub fn add_dynamic_pj(&mut self, pj: f64) {
        debug_assert!(pj >= 0.0);
        self.dynamic_pj += pj;
    }

    /// Integrates `power_mw` of static power over `cycles` cycles.
    pub fn add_static_epoch(&mut self, power_mw: f64, cycles: u64) {
        debug_assert!(power_mw >= 0.0);
        // mW × ns = pJ
        self.static_pj += power_mw * cycles as f64 * CLOCK_PERIOD_NS;
    }

    /// Total dynamic energy so far (pJ).
    pub fn dynamic_pj(&self) -> f64 {
        self.dynamic_pj
    }

    /// Total static energy so far (pJ).
    pub fn static_pj(&self) -> f64 {
        self.static_pj
    }

    /// Finalizes the ledger into a [`PowerReport`] over `total_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `total_cycles` is zero.
    pub fn report(&self, total_cycles: u64) -> PowerReport {
        assert!(total_cycles > 0, "cannot report power over zero cycles");
        let t_ns = total_cycles as f64 * CLOCK_PERIOD_NS;
        PowerReport {
            static_mw: self.static_pj / t_ns,
            dynamic_mw: self.dynamic_pj / t_ns,
            exec_cycles: total_cycles,
        }
    }
}

/// Power summary of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Average static power in mW.
    pub static_mw: f64,
    /// Average dynamic power in mW.
    pub dynamic_mw: f64,
    /// Execution time in cycles.
    pub exec_cycles: u64,
}

impl PowerReport {
    /// Total average power in mW.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }

    /// Execution time in nanoseconds.
    pub fn exec_ns(&self) -> f64 {
        self.exec_cycles as f64 * CLOCK_PERIOD_NS
    }

    /// Total energy in pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.total_mw() * self.exec_ns()
    }

    /// Energy-efficiency per the paper's Eq. 8:
    /// `[(P_static + P_dynamic) × T_exec]⁻¹` in 1/pJ.
    pub fn energy_efficiency(&self) -> f64 {
        1.0 / self.total_energy_pj()
    }

    /// Energy–delay product in pJ·ns (lower is better; Fig. 18).
    pub fn edp(&self) -> f64 {
        self.total_energy_pj() * self.exec_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_power_units() {
        let mut l = EnergyLedger::new();
        // 1000 pJ dynamic over 1000 cycles (500 ns) = 2 mW.
        l.add_dynamic_pj(1000.0);
        let r = l.report(1000);
        assert!((r.dynamic_mw - 2.0).abs() < 1e-9);
        assert_eq!(r.static_mw, 0.0);
    }

    #[test]
    fn static_integration_roundtrips() {
        let mut l = EnergyLedger::new();
        l.add_static_epoch(10.0, 500);
        l.add_static_epoch(10.0, 500);
        let r = l.report(1000);
        assert!((r.static_mw - 10.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_is_inverse_energy() {
        let mut l = EnergyLedger::new();
        l.add_dynamic_pj(500.0);
        l.add_static_epoch(4.0, 1000);
        let r = l.report(1000);
        let energy = r.total_energy_pj();
        assert!((r.energy_efficiency() * energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edp_scales_with_delay_squared_at_fixed_power() {
        let mut l = EnergyLedger::new();
        l.add_static_epoch(8.0, 1000);
        let r1 = l.report(1000);
        let mut l2 = EnergyLedger::new();
        l2.add_static_epoch(8.0, 2000);
        let r2 = l2.report(2000);
        assert!((r2.edp() / r1.edp() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn zero_cycle_report_panics() {
        EnergyLedger::new().report(0);
    }
}
