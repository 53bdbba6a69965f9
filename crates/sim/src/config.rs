//! Simulation configuration.

use crate::router::MAX_VC_ROWS;
use crate::topology::PORTS;
use noc_ecc::EccScheme;
use noc_fault::{AgingModel, HardFaultScenario, ThermalModel, VariusModel};

/// Full configuration of one network simulation.
///
/// Passive configuration bag; fields are public by design. It carries only
/// what some caller varies: the rest of the Table 1 setup (wake-up and
/// retransmission latencies, gating thresholds, the power epoch, the energy
/// and leakage models) is fixed where it is read (DESIGN.md §7
/// "Configuration"). Defaults follow the paper's Table 1 (8×8 mesh, 4 VCs,
/// 4-stage routers, 2 GHz; the 1.0 V supply is [`AgingModel::vdd`]).
///
/// # Examples
///
/// ```
/// use noc_sim::SimConfig;
///
/// let mut cfg = SimConfig::default();
/// cfg.channel_capacity = 8; // iDEAL/MFAC channel buffers
/// cfg.bypass_enabled = true;
/// cfg.mfac = true; // IntelliNoC's router: MFAC re-reads and wake ride-through, BST, Q-table
/// cfg.validate();
/// assert_eq!(cfg.nodes(), 64);
/// assert_eq!(cfg.channel_stages_per_router(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Mesh width.
    pub width: usize,
    /// Mesh height.
    pub height: usize,
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Buffer depth (flits) per VC.
    pub vc_depth: usize,
    /// Channel-buffer capacity per inter-router channel (flits stored on the
    /// link itself: MFAC/iDEAL/elastic stages). `0` means a plain wire, which
    /// still pipelines a single in-flight flit.
    pub channel_capacity: usize,
    /// Router pipeline depth in cycles (head flit: RC→VA→SA→ST = 4;
    /// EB removes VA = 3). Body flits follow at one per cycle.
    pub pipeline_latency: u32,
    /// Enables cycle-granular reactive power gating (CP/CPD designs): a
    /// router gates after a fixed number of idle cycles.
    pub reactive_gating: bool,
    /// Whether flits can bypass a gated router (channel-to-channel
    /// forwarding via the BST-guided bypass switch).
    pub bypass_enabled: bool,
    /// IntelliNoC's router (paper §3): multi-function adaptive channels
    /// (MFACs), a unified buffer state table on an always-on supply and an
    /// RL Q-table. The MFAC stages hold the re-transmission copies (else
    /// router buffers do), keep the bypass forwarding while its router wakes
    /// (CP/CPD's single-flit latch stalls: the latency the paper charges to
    /// power gating), and let a gated router hold six channel flits before
    /// waking, not one (DESIGN.md §7 "Configuration").
    pub mfac: bool,
    /// Attach an end-to-end CRC at the network interface (IntelliNoC/CPD
    /// operation-mode designs).
    pub e2e_crc: bool,
    /// Initial / static per-hop ECC scheme.
    pub default_scheme: EccScheme,
    /// Per-hop retransmission budget before escalating to end-to-end
    /// recovery, and the end-to-end generation bound before an accounted
    /// drop. At least 1.
    pub max_retx: u32,
    /// Stall-watchdog window: with packets in flight and zero completions
    /// or drops for this many cycles, the run aborts with a structured
    /// [`crate::StallReport`]. At least 1.
    pub stall_window: u64,
    /// Consult the link/router health map and detour around dead links and
    /// routers on up*/down* route tables instead of routing strictly XY
    /// (`health.rs` says why a turn model cannot).
    pub fault_aware_routing: bool,
    /// Deterministic schedule of permanent/intermittent link and router
    /// failures.
    pub hard_faults: HardFaultScenario,
    /// Hard cap on simulated cycles (safety net for drains).
    pub max_cycles: u64,
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Thermal model.
    pub thermal: ThermalModel,
    /// Transient-error model.
    pub varius: VariusModel,
    /// Aging model; its `vdd` is the supply voltage (V).
    pub aging: AgingModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            width: 8,
            height: 8,
            vcs: 4,
            vc_depth: 4,
            channel_capacity: 0,
            pipeline_latency: 4,
            reactive_gating: false,
            bypass_enabled: false,
            mfac: false,
            e2e_crc: false,
            default_scheme: EccScheme::Secded,
            max_retx: 16,
            stall_window: 50_000,
            fault_aware_routing: false,
            hard_faults: HardFaultScenario::default(),
            max_cycles: 2_000_000,
            seed: 1,
            thermal: ThermalModel::default(),
            varius: VariusModel::default(),
            aging: AgingModel::default(),
        }
    }
}

impl SimConfig {
    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Total router-buffer flit slots per router (all ports and VCs).
    pub fn buffer_slots_per_router(&self) -> u32 {
        (PORTS * self.vcs * self.vc_depth) as u32
    }

    /// Channel stages attached to one router's four output channels.
    pub fn channel_stages_per_router(&self) -> u32 {
        (crate::topology::DIRS * self.channel_capacity) as u32
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an impossible configuration (zero mesh, zero VCs, …).
    pub fn validate(&self) {
        assert!(self.width >= 2 && self.height >= 2, "mesh must be at least 2x2");
        assert!(self.vcs >= 1, "need at least one VC");
        let max_vcs = MAX_VC_ROWS / PORTS;
        assert!(
            self.vcs <= max_vcs,
            "at most {max_vcs} VCs per port ({PORTS} ports x vcs rows of a router's VC table \
             must fit its {MAX_VC_ROWS}-bit readiness masks), got {}",
            self.vcs
        );
        assert!(self.vc_depth >= 1, "VC depth must be nonzero");
        assert!(self.pipeline_latency >= 1, "pipeline must be at least 1 cycle");
        assert!(self.max_retx >= 1, "retransmission budget must be at least 1");
        assert!(self.stall_window >= 1, "stall window must be at least 1 cycle");
        let nodes = self.nodes() as u32;
        for f in &self.hard_faults.faults {
            match f.target {
                noc_fault::HardFaultTarget::Link { router, dir } => {
                    assert!(router < nodes, "hard-fault link router {router} out of range");
                    assert!(dir < 4, "hard-fault link dir {dir} out of range");
                }
                noc_fault::HardFaultTarget::Router { router } => {
                    assert!(router < nodes, "hard-fault router {router} out of range");
                }
            }
        }
    }
}

/// A per-router control directive, applied at time-step boundaries by the
/// control policy (the IntelliNoC operation modes map onto this).
///
/// # Examples
///
/// ```
/// use noc_ecc::EccScheme;
/// use noc_sim::RouterDirective;
///
/// // Mode-2-like directive: per-hop SECDED, gating left to the reactive
/// // controller, normal link timing.
/// let d = RouterDirective { gate: None, scheme: EccScheme::Secded, relaxed: false };
/// assert_eq!(d, RouterDirective::fixed(EccScheme::Secded));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterDirective {
    /// Force the router gated (`Some(true)`), force it awake
    /// (`Some(false)`), or leave gating to the reactive mechanism (`None`).
    pub gate: Option<bool>,
    /// Per-hop ECC scheme for this router's outgoing links.
    pub scheme: EccScheme,
    /// Relaxed-timing transmission on this router's outgoing links
    /// (doubles link traversal latency, squares the bit-error rate).
    pub relaxed: bool,
}

impl RouterDirective {
    /// The static directive used by non-adaptive designs.
    pub fn fixed(scheme: EccScheme) -> Self {
        RouterDirective { gate: None, scheme, relaxed: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!((c.width, c.height), (8, 8));
        assert_eq!(c.vcs, 4);
        assert_eq!(c.pipeline_latency, 4);
        assert_eq!(c.aging.vdd, 1.0);
        c.validate();
    }

    #[test]
    fn derived_counts() {
        let c = SimConfig { vcs: 4, vc_depth: 2, channel_capacity: 8, ..SimConfig::default() };
        assert_eq!(c.buffer_slots_per_router(), 40);
        assert_eq!(c.channel_stages_per_router(), 32);
        assert_eq!(c.nodes(), 64);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_mesh_rejected() {
        SimConfig { width: 1, ..SimConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "at most 12 VCs per port")]
    fn more_vcs_than_the_readiness_masks_index_are_rejected() {
        SimConfig { vcs: 12, ..SimConfig::default() }.validate();
        SimConfig { vcs: 13, ..SimConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "retransmission budget must be at least 1")]
    fn zero_retransmission_budget_rejected() {
        SimConfig { max_retx: 0, ..SimConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "stall window must be at least 1 cycle")]
    fn zero_stall_window_rejected() {
        SimConfig { stall_window: 0, ..SimConfig::default() }.validate();
    }

    #[test]
    fn fixed_directive() {
        let d = RouterDirective::fixed(EccScheme::Secded);
        assert_eq!(d.gate, None);
        assert!(!d.relaxed);
    }
}
