//! The five NoC designs compared in the paper's evaluation (§6.3):
//! SECDED baseline, EB, CP, CPD, and IntelliNoC.
//!
//! Each design maps to a [`SimConfig`] (micro-architecture + buffer budget
//! per Table 1) and to area/leakage structural specs for Table 2.

use noc_ecc::EccScheme;
use noc_power::RouterAreaSpec;
use noc_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// One of the compared designs.
///
/// # Examples
///
/// ```
/// use intellinoc::Design;
///
/// let cfg = Design::IntelliNoc.sim_config();
/// assert!(cfg.bypass_enabled && cfg.e2e_crc && cfg.mfac);
/// assert_eq!(Design::ALL.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Design {
    /// Baseline: traditional wormhole router with static per-hop SECDED
    /// (Table 1: 4RB-4VC-0CB).
    Secded,
    /// Elastic Buffers [9]: zero router buffers, elastic channel stages,
    /// two sub-networks, no VA stage (Table 1: 8CB × 2 sub-networks).
    Eb,
    /// iDEAL channel buffers with power gating [10, 13]
    /// (Table 1: 2RB-4VC-8CB).
    Cp,
    /// CP extended with heuristic dynamic ECC (2RB-4VC-8CB).
    Cpd,
    /// The paper's proposal: MFACs + adaptive ECC + stress-relaxing bypass +
    /// RL control (2RB-4VC-8CB).
    IntelliNoc,
}

impl Design {
    /// All designs, in the paper's figure order.
    pub const ALL: [Design; 5] =
        [Design::Secded, Design::Eb, Design::Cp, Design::Cpd, Design::IntelliNoc];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Design::Secded => "SECDED",
            Design::Eb => "EB",
            Design::Cp => "CP",
            Design::Cpd => "CPD",
            Design::IntelliNoc => "IntelliNoC",
        }
    }

    /// Parses a design from its case-insensitive keyword (`secded` /
    /// `baseline`, `eb`, `cp`, `cpd`, `intellinoc`), as accepted by the CLI
    /// and the serve-mode job API.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown design.
    pub fn parse(s: &str) -> Result<Design, String> {
        match s.to_ascii_lowercase().as_str() {
            "secded" | "baseline" => Ok(Design::Secded),
            "eb" => Ok(Design::Eb),
            "cp" => Ok(Design::Cp),
            "cpd" => Ok(Design::Cpd),
            "intellinoc" => Ok(Design::IntelliNoc),
            other => Err(format!("unknown design: {other} (try `intellinoc list`)")),
        }
    }

    /// Whether this design's per-router operation is chosen by the RL policy.
    pub fn uses_rl(self) -> bool {
        matches!(self, Design::IntelliNoc)
    }

    /// The simulator configuration for this design (Table 1 buffer budgets).
    pub fn sim_config(self) -> SimConfig {
        let mut cfg = SimConfig::default();
        match self {
            Design::Secded => {
                // 4RB-4VC-0CB: deep router buffers, plain wires, static
                // SECDED everywhere, no gating.
                cfg.vcs = 4;
                cfg.vc_depth = 4;
                cfg.channel_capacity = 0;
                cfg.pipeline_latency = 4;
                cfg.default_scheme = EccScheme::Secded;
            }
            Design::Eb => {
                // Zero router buffers (modeled as single-flit elastic
                // latches), 8 elastic stages per channel, two sub-networks
                // (two single-flit VCs), no VA stage.
                cfg.vcs = 2;
                cfg.vc_depth = 1;
                cfg.channel_capacity = 8;
                cfg.pipeline_latency = 3;
                cfg.default_scheme = EccScheme::Secded;
            }
            Design::Cp => {
                // iDEAL: halved router buffers + 8 channel-buffer stages,
                // reactive power gating with a single-flit-latch bypass:
                // any sustained arrival wakes the router (the wake-up
                // latency is CP's performance cost, paper §7.1).
                cfg.vcs = 4;
                cfg.vc_depth = 2;
                cfg.channel_capacity = 8;
                cfg.pipeline_latency = 4;
                cfg.reactive_gating = true;
                cfg.bypass_enabled = true;
                cfg.default_scheme = EccScheme::Secded;
            }
            Design::Cpd => {
                // CP + dynamic ECC: needs the end-to-end CRC backstop for
                // its CRC-only mode.
                cfg.vcs = 4;
                cfg.vc_depth = 2;
                cfg.channel_capacity = 8;
                cfg.pipeline_latency = 4;
                cfg.reactive_gating = true;
                cfg.bypass_enabled = true;
                cfg.e2e_crc = true;
                cfg.default_scheme = EccScheme::Secded;
            }
            Design::IntelliNoc => {
                // MFACs (8 stages) with the BST and the Q-table, reactive
                // gating underneath the RL's proactive mode 0, e2e CRC. The
                // MFACs' storage lets a gated IntelliNoC router ride out far
                // more traffic than CP's single-flit latch before waking
                // (paper §3.3).
                cfg.vcs = 4;
                cfg.vc_depth = 2;
                cfg.channel_capacity = 8;
                cfg.pipeline_latency = 4;
                cfg.reactive_gating = true;
                cfg.bypass_enabled = true;
                cfg.mfac = true;
                cfg.e2e_crc = true;
                // Paper §6.3: all routers are initialized to mode 1.
                cfg.default_scheme = EccScheme::None;
            }
        }
        cfg
    }

    /// Structural area description of one router (Table 2 reproduction).
    pub fn area_spec(self) -> RouterAreaSpec {
        let cfg = self.sim_config();
        RouterAreaSpec {
            buffer_slots: cfg.buffer_slots_per_router()
                + match self {
                    // Dedicated retransmission buffers: the baseline keeps
                    // 4 per port, CP/CPD 2 per port; EB has none and
                    // IntelliNoC holds retransmission copies in the MFACs.
                    Design::Secded => 20,
                    Design::Cp | Design::Cpd => 10,
                    Design::Eb | Design::IntelliNoc => 0,
                },
            channel_stages: cfg.channel_stages_per_router()
                + if self == Design::Eb { 32 } else { 0 }, // second sub-network
            mfac_channels: if cfg.mfac { 4 } else { 0 },
            dual_subnetwork: self == Design::Eb,
            has_va: self != Design::Eb,
            max_ecc: match self {
                Design::Cpd | Design::IntelliNoc => EccScheme::Dected,
                _ => EccScheme::Secded,
            },
            has_gating: cfg.reactive_gating,
            has_bst: cfg.mfac,
            has_qtable: cfg.mfac,
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_power::AreaModel;

    #[test]
    fn buffer_budgets_match_table1() {
        // Slots per router = 5 ports × VCs × depth.
        assert_eq!(Design::Secded.sim_config().buffer_slots_per_router(), 80);
        assert_eq!(Design::Eb.sim_config().buffer_slots_per_router(), 10);
        assert_eq!(Design::Cp.sim_config().buffer_slots_per_router(), 40);
        assert_eq!(Design::IntelliNoc.sim_config().buffer_slots_per_router(), 40);
        assert_eq!(Design::Secded.sim_config().channel_capacity, 0);
        assert_eq!(Design::IntelliNoc.sim_config().channel_capacity, 8);
    }

    #[test]
    fn only_intellinoc_uses_rl() {
        assert!(Design::IntelliNoc.uses_rl());
        assert!(Design::ALL.iter().filter(|d| d.uses_rl()).count() == 1);
    }

    #[test]
    fn area_ordering_matches_table2() {
        let m = AreaModel::default();
        let total = |d: Design| m.router_area(&d.area_spec()).total();
        let base = total(Design::Secded);
        assert!(total(Design::Eb) < total(Design::Cp), "EB < CP");
        assert!(total(Design::Cp) < total(Design::IntelliNoc), "CP < IntelliNoC");
        assert!(total(Design::IntelliNoc) < base, "IntelliNoC < baseline");
        // CPD is not in Table 2; it lands near IntelliNoC (retransmission
        // buffers vs BST + Q-table).
        assert!(total(Design::Cpd) < base);
        let diff = (total(Design::Cpd) - total(Design::IntelliNoc)).abs();
        assert!(diff / base < 0.05, "CPD and IntelliNoC should be close");
    }

    #[test]
    fn eb_has_no_va_and_short_pipeline() {
        assert_eq!(Design::Eb.sim_config().pipeline_latency, 3);
        assert!(!Design::Eb.area_spec().has_va);
        assert!(Design::Eb.area_spec().dual_subnetwork);
    }

    #[test]
    fn gating_designs() {
        assert!(!Design::Secded.sim_config().reactive_gating);
        assert!(Design::Cp.sim_config().reactive_gating);
        assert!(Design::Cpd.sim_config().reactive_gating);
        // IntelliNoC gates reactively underneath the RL's proactive mode 0,
        // with an MFAC-sized wake threshold; only its router has MFACs.
        assert!(Design::IntelliNoc.sim_config().reactive_gating);
        assert!(Design::IntelliNoc.sim_config().bypass_enabled);
        let mfac: Vec<Design> = Design::ALL.into_iter().filter(|d| d.sim_config().mfac).collect();
        assert_eq!(mfac, [Design::IntelliNoc]);
    }
}
