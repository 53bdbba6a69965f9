//! Static (leakage) power model with temperature dependence and power gating.
//!
//! Leakage is the dominant static cost that the paper's power-gating and
//! stress-relaxing bypass attack. We model per-component leakage at a
//! reference temperature and scale it exponentially with temperature
//! (sub-threshold leakage roughly doubles every ~30 °C at 32 nm).

use noc_ecc::EccScheme;

/// Per-component leakage power at the reference temperature, in milliwatts.
///
/// Passive constants bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Reference temperature in °C for the nominal values below.
    pub ref_temp_c: f64,
    /// Exponential temperature coefficient (1/°C); leakage scales by
    /// `exp(coeff · (T − ref))`.
    pub temp_coeff: f64,
    /// Leakage per router-buffer flit slot.
    pub per_buffer_slot_mw: f64,
    /// Leakage per channel-buffer (MFAC) stage.
    pub per_channel_stage_mw: f64,
    /// Crossbar leakage.
    pub xbar_mw: f64,
    /// Router control (RC/VA/SA, pipeline registers) leakage.
    pub control_mw: f64,
    /// CRC logic leakage when enabled.
    pub crc_mw: f64,
    /// SECDED logic leakage when enabled.
    pub secded_mw: f64,
    /// DECTED logic leakage when enabled (superset of SECDED circuitry).
    pub dected_mw: f64,
    /// TECQED logic leakage when enabled.
    pub tecqed_mw: f64,
    /// Buffer state table leakage (separate always-on supply in IntelliNoC).
    pub bst_mw: f64,
    /// Q-table storage leakage (IntelliNoC only).
    pub qtable_mw: f64,
    /// Fraction of router leakage that remains when power-gated
    /// (sleep-transistor and retention losses).
    pub gated_residual: f64,
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel {
            ref_temp_c: 45.0,
            temp_coeff: 0.023, // ~2x per 30 degC
            per_buffer_slot_mw: 0.035,
            per_channel_stage_mw: 0.012,
            xbar_mw: 0.55,
            control_mw: 0.85,
            crc_mw: 0.04,
            secded_mw: 0.28,
            dected_mw: 0.62,
            tecqed_mw: 0.95,
            bst_mw: 0.18,
            qtable_mw: 0.10,
            gated_residual: 0.06,
        }
    }
}

/// Static description of which leaky components one router instance has.
///
/// Passive configuration bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterLeakageSpec {
    /// Router-buffer flit slots, all ports. The network passes its VC slots
    /// only (`SimConfig::buffer_slots_per_router`): the dedicated
    /// retransmission buffers that the area model counts do not leak here
    /// (DESIGN.md §7, `static-power-slots`).
    pub buffer_slots: u32,
    /// Channel-buffer stages attached to this router's output channels.
    pub channel_stages: u32,
    /// Whether the router has a BST on an always-on supply.
    pub has_bst: bool,
    /// Whether the router carries a Q-table (RL designs).
    pub has_qtable: bool,
}

impl LeakageModel {
    /// Temperature scaling factor relative to the reference temperature.
    pub fn temp_factor(&self, temp_c: f64) -> f64 {
        (self.temp_coeff * (temp_c - self.ref_temp_c)).exp()
    }

    /// Leakage power (mW) of the ECC hardware when `scheme` is active.
    ///
    /// The adaptive-ECC hardware is partially power-gated: CRC-only mode
    /// gates the SECDED/DECTED logic entirely (paper §3.2 / Fig. 5).
    pub fn ecc_leakage_mw(&self, scheme: EccScheme) -> f64 {
        match scheme {
            EccScheme::None => 0.0,
            EccScheme::Crc => self.crc_mw,
            EccScheme::Secded => self.crc_mw + self.secded_mw,
            EccScheme::Dected => self.crc_mw + self.dected_mw,
            EccScheme::Tecqed => self.crc_mw + self.tecqed_mw,
        }
    }

    /// Total static power (mW) of one router tile at temperature `temp_c`.
    ///
    /// When `gated` is true the core router (buffers, crossbar, control, ECC)
    /// drops to the sleep-residual fraction; channel stages, the BST and the
    /// Q-table stay powered (they are on separate supplies precisely so the
    /// bypass keeps working — paper §3.1.2).
    pub fn router_static_mw(
        &self,
        spec: &RouterLeakageSpec,
        scheme: EccScheme,
        temp_c: f64,
        gated: bool,
    ) -> f64 {
        let f = self.temp_factor(temp_c);
        let core = self.per_buffer_slot_mw * spec.buffer_slots as f64
            + self.xbar_mw
            + self.control_mw
            + self.ecc_leakage_mw(scheme);
        let core = if gated { core * self.gated_residual } else { core };
        let always_on = self.per_channel_stage_mw * spec.channel_stages as f64
            + if spec.has_bst { self.bst_mw } else { 0.0 }
            + if spec.has_qtable { self.qtable_mw } else { 0.0 };
        (core + always_on) * f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RouterLeakageSpec {
        RouterLeakageSpec { buffer_slots: 50, channel_stages: 32, has_bst: true, has_qtable: true }
    }

    #[test]
    fn leakage_increases_with_temperature() {
        let m = LeakageModel::default();
        let cold = m.router_static_mw(&spec(), EccScheme::Secded, 45.0, false);
        let hot = m.router_static_mw(&spec(), EccScheme::Secded, 85.0, false);
        assert!(hot > cold * 1.8, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn gating_saves_most_core_leakage() {
        let m = LeakageModel::default();
        let on = m.router_static_mw(&spec(), EccScheme::Secded, 60.0, false);
        let off = m.router_static_mw(&spec(), EccScheme::Secded, 60.0, true);
        assert!(off < on * 0.5, "gated {off} vs on {on}");
        assert!(off > 0.0, "BST/channel stages remain powered");
    }

    #[test]
    fn ecc_leakage_ordering() {
        let m = LeakageModel::default();
        let l = |s| m.ecc_leakage_mw(s);
        assert!(l(EccScheme::None) < l(EccScheme::Crc));
        assert!(l(EccScheme::Crc) < l(EccScheme::Secded));
        assert!(l(EccScheme::Secded) < l(EccScheme::Dected));
    }

    #[test]
    fn temp_factor_is_one_at_reference() {
        let m = LeakageModel::default();
        assert!((m.temp_factor(m.ref_temp_c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn doubling_scale_is_about_30c() {
        let m = LeakageModel::default();
        let f = m.temp_factor(m.ref_temp_c + 30.0);
        assert!(f > 1.8 && f < 2.2, "factor {f}");
    }
}
