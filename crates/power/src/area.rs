//! Per-component silicon area model (Table 2 reproduction).
//!
//! The paper reports Synopsys Design Vision areas at 32 nm (Table 2). The
//! published per-component rows cannot be recombined into the published
//! totals (the table omits the allocator/control contribution), so this
//! model uses transparent per-component constants and composes totals per
//! design; EXPERIMENTS.md compares the resulting percentage deltas against
//! the paper's (−32.7 % EB, −29.9 % CP, −25.4 % IntelliNoC).

use noc_ecc::EccScheme;

/// Per-component areas in µm² at 32 nm.
///
/// Passive constants bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One router-buffer flit slot (128-bit SRAM row + VC bookkeeping).
    pub buffer_slot_um2: f64,
    /// 5×5 128-bit crossbar.
    pub xbar_um2: f64,
    /// Crossbar for a dual-subnetwork (EB) router: two narrower crossbars
    /// plus steering muxes.
    pub xbar_dual_um2: f64,
    /// Plain repeated-wire channel (per router, all output channels).
    pub wire_channel_um2: f64,
    /// One channel-buffer / MFAC / elastic stage (tri-state or latch).
    pub channel_stage_um2: f64,
    /// MFAC function-select controller, per channel.
    pub mfac_ctrl_um2: f64,
    /// CRC encoder+decoder pair.
    pub crc_um2: f64,
    /// SECDED encoder+decoder hardware (per router).
    pub secded_um2: f64,
    /// Additional DECTED circuitry on top of SECDED (per router).
    pub dected_extra_um2: f64,
    /// Additional TECQED circuitry on top of DECTED (per router).
    pub tecqed_extra_um2: f64,
    /// Route computation logic.
    pub rc_um2: f64,
    /// VC allocator.
    pub va_um2: f64,
    /// Switch allocator.
    pub sa_um2: f64,
    /// Misc pipeline/control overhead.
    pub misc_ctrl_um2: f64,
    /// Power-gating controller (designs with gating).
    pub gating_ctrl_um2: f64,
    /// Unified buffer state table (IntelliNoC).
    pub bst_um2: f64,
    /// Q-table storage, 350 entries × 5 Q-values (IntelliNoC; paper §7.4
    /// reports ≈4 % of router area).
    pub qtable_um2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            buffer_slot_um2: 227.0,
            xbar_um2: 9004.7,
            xbar_dual_um2: 11774.6,
            wire_channel_um2: 136.7,
            channel_stage_um2: 85.0,
            mfac_ctrl_um2: 38.0,
            crc_um2: 410.0,
            secded_um2: 2915.4,
            dected_extra_um2: 614.9,
            tecqed_extra_um2: 980.0,
            rc_um2: 520.0,
            va_um2: 1480.0,
            sa_um2: 1510.0,
            misc_ctrl_um2: 3480.0,
            gating_ctrl_um2: 210.0,
            bst_um2: 560.0,
            qtable_um2: 1420.0,
        }
    }
}

/// Structural description of one router design for area composition.
///
/// Passive configuration bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterAreaSpec {
    /// Router-buffer flit slots (all ports, VC + retransmission).
    pub buffer_slots: u32,
    /// Channel-buffer / elastic stages on this router's output channels.
    pub channel_stages: u32,
    /// Channels that carry an MFAC controller.
    pub mfac_channels: u32,
    /// Uses the dual-subnetwork crossbar (EB).
    pub dual_subnetwork: bool,
    /// Has a VC allocator (EB removes it).
    pub has_va: bool,
    /// Strongest ECC hardware present.
    pub max_ecc: EccScheme,
    /// Has a power-gating controller.
    pub has_gating: bool,
    /// Has the unified BST.
    pub has_bst: bool,
    /// Has an RL agent Q-table.
    pub has_qtable: bool,
}

/// Area breakdown of one router tile in µm², mirroring Table 2's rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Router buffers.
    pub buffers: f64,
    /// Crossbar.
    pub crossbar: f64,
    /// Channel (wires + channel buffers + MFAC controllers).
    pub channel: f64,
    /// ECC hardware.
    pub ecc: f64,
    /// Control: RC/VA/SA, misc, gating, BST.
    pub control: f64,
    /// Q-table storage.
    pub qtable: f64,
}

impl AreaBreakdown {
    /// Total router area.
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.channel + self.ecc + self.control + self.qtable
    }
}

impl AreaModel {
    /// Composes the area of one router tile from its structural spec.
    pub fn router_area(&self, spec: &RouterAreaSpec) -> AreaBreakdown {
        let ecc = match spec.max_ecc {
            EccScheme::None => 0.0,
            EccScheme::Crc => self.crc_um2,
            EccScheme::Secded => self.crc_um2 + self.secded_um2,
            EccScheme::Dected => self.crc_um2 + self.secded_um2 + self.dected_extra_um2,
            EccScheme::Tecqed => {
                self.crc_um2 + self.secded_um2 + self.dected_extra_um2 + self.tecqed_extra_um2
            }
        };
        let mut control = self.rc_um2 + self.sa_um2 + self.misc_ctrl_um2;
        if spec.has_va {
            control += self.va_um2;
        }
        if spec.dual_subnetwork {
            // The second subnetwork duplicates RC + SA.
            control += self.rc_um2 + self.sa_um2;
        }
        if spec.has_gating {
            control += self.gating_ctrl_um2;
        }
        if spec.has_bst {
            control += self.bst_um2;
        }
        AreaBreakdown {
            buffers: self.buffer_slot_um2 * spec.buffer_slots as f64,
            crossbar: if spec.dual_subnetwork { self.xbar_dual_um2 } else { self.xbar_um2 },
            channel: self.wire_channel_um2
                + self.channel_stage_um2 * spec.channel_stages as f64
                + self.mfac_ctrl_um2 * spec.mfac_channels as f64,
            ecc,
            control,
            qtable: if spec.has_qtable { self.qtable_um2 } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_spec() -> RouterAreaSpec {
        // 4RB-4VC (depth 4) per port, no channel buffers, static SECDED.
        RouterAreaSpec {
            buffer_slots: 100,
            channel_stages: 0,
            mfac_channels: 0,
            dual_subnetwork: false,
            has_va: true,
            max_ecc: EccScheme::Secded,
            has_gating: false,
            has_bst: false,
            has_qtable: false,
        }
    }

    fn eb_spec() -> RouterAreaSpec {
        RouterAreaSpec {
            buffer_slots: 0,
            channel_stages: 64,
            mfac_channels: 0,
            dual_subnetwork: true,
            has_va: false,
            max_ecc: EccScheme::Secded,
            has_gating: false,
            has_bst: false,
            has_qtable: false,
        }
    }

    fn intellinoc_spec() -> RouterAreaSpec {
        RouterAreaSpec {
            buffer_slots: 50,
            channel_stages: 32,
            mfac_channels: 4,
            dual_subnetwork: false,
            has_va: true,
            max_ecc: EccScheme::Dected,
            has_gating: true,
            has_bst: true,
            has_qtable: true,
        }
    }

    #[test]
    fn design_area_ordering_matches_table2() {
        let m = AreaModel::default();
        let base = m.router_area(&baseline_spec()).total();
        let eb = m.router_area(&eb_spec()).total();
        let mut cp = intellinoc_spec();
        cp.max_ecc = EccScheme::Secded;
        cp.has_qtable = false;
        cp.has_bst = false;
        cp.mfac_channels = 0;
        let cp = m.router_area(&cp).total();
        let inoc = m.router_area(&intellinoc_spec()).total();
        // Table 2 ordering: EB < CP < IntelliNoC < baseline.
        assert!(eb < cp, "EB {eb} < CP {cp}");
        assert!(cp < inoc, "CP {cp} < IntelliNoC {inoc}");
        assert!(inoc < base, "IntelliNoC {inoc} < baseline {base}");
    }

    #[test]
    fn deltas_are_in_papers_band() {
        let m = AreaModel::default();
        let base = m.router_area(&baseline_spec()).total();
        let eb = m.router_area(&eb_spec()).total();
        let inoc = m.router_area(&intellinoc_spec()).total();
        let eb_delta = 1.0 - eb / base;
        let inoc_delta = 1.0 - inoc / base;
        assert!(eb_delta > 0.20 && eb_delta < 0.45, "EB delta {eb_delta}");
        assert!(inoc_delta > 0.08 && inoc_delta < 0.35, "IntelliNoC delta {inoc_delta}");
    }

    #[test]
    fn qtable_share_is_small() {
        // Paper §7.4: Q-table is ~4% of router area.
        let m = AreaModel::default();
        let b = m.router_area(&intellinoc_spec());
        let share = b.qtable / b.total();
        assert!(share > 0.01 && share < 0.08, "share {share}");
    }

    #[test]
    fn breakdown_total_is_sum_of_rows() {
        let m = AreaModel::default();
        let b = m.router_area(&intellinoc_spec());
        let sum = b.buffers + b.crossbar + b.channel + b.ecc + b.control + b.qtable;
        assert!((b.total() - sum).abs() < 1e-9);
    }
}
