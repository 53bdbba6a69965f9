//! Per-event dynamic-energy model.
//!
//! The paper obtains power through ORION 2.0 / Synopsys; this reproduction
//! uses a transparent per-event energy model at the paper's technology point
//! (32 nm, 1.0 V, 2.0 GHz — Table 1). The simulator counts micro-architectural
//! events ([`ActivityCounters`]) and this module converts them to energy.
//!
//! Absolute joule values are calibrated to typical published 32 nm NoC
//! router numbers; only *relative* energies across designs matter for the
//! paper's figures (all results are normalized to the SECDED baseline).

/// Per-event energies in picojoules for 128-bit flits at 32 nm / 1.0 V.
///
/// Passive constants bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Writing one flit into a router input buffer (SRAM write).
    pub buffer_write_pj: f64,
    /// Reading one flit out of a router input buffer.
    pub buffer_read_pj: f64,
    /// One flit crossing the 5×5 crossbar.
    pub xbar_pj: f64,
    /// One flit traversing one inter-router link (1 mm wire + repeaters).
    pub link_pj: f64,
    /// One flit written into / held by one MFAC / channel-buffer stage
    /// (tri-state repeater storage is cheaper than SRAM).
    pub channel_stage_pj: f64,
    /// CRC-16 encode or decode of one flit.
    pub crc_pj: f64,
    /// SECDED encode or decode of one flit.
    pub secded_pj: f64,
    /// DECTED encode or decode of one flit.
    pub dected_pj: f64,
    /// TECQED (t = 3 BCH) encode or decode of one flit.
    pub tecqed_pj: f64,
    /// One allocator operation (VA or SA grant).
    pub alloc_pj: f64,
    /// One RL decision: Q-table lookup + TD update (paper §7.4: 0.16 pJ per
    /// 1 k-cycle time step).
    pub rl_decision_pj: f64,
    /// Waking a power-gated router (recharging the power network).
    pub wakeup_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            buffer_write_pj: 1.2,
            buffer_read_pj: 0.9,
            xbar_pj: 1.5,
            link_pj: 2.0,
            channel_stage_pj: 0.55,
            crc_pj: 0.30,
            secded_pj: 0.70,
            dected_pj: 1.60,
            tecqed_pj: 2.40,
            alloc_pj: 0.20,
            rl_decision_pj: 0.16,
            wakeup_pj: 60.0,
        }
    }
}

impl EnergyModel {
    /// Energy of one encode or decode under the given scheme.
    pub fn ecc_pj(&self, scheme: noc_ecc::EccScheme) -> f64 {
        match scheme {
            noc_ecc::EccScheme::None => 0.0,
            noc_ecc::EccScheme::Crc => self.crc_pj,
            noc_ecc::EccScheme::Secded => self.secded_pj,
            noc_ecc::EccScheme::Dected => self.dected_pj,
            noc_ecc::EccScheme::Tecqed => self.tecqed_pj,
        }
    }

    /// Total dynamic energy (pJ) of an activity batch.
    pub fn dynamic_pj(&self, a: &ActivityCounters) -> f64 {
        self.buffer_write_pj * a.buffer_writes as f64
            + self.buffer_read_pj * a.buffer_reads as f64
            + self.xbar_pj * a.xbar_traversals as f64
            + self.link_pj * a.link_flits as f64
            + self.channel_stage_pj * a.channel_stage_ops as f64
            + self.crc_pj * a.crc_ops as f64
            + self.secded_pj * a.secded_ops as f64
            + self.dected_pj * a.dected_ops as f64
            + self.tecqed_pj * a.tecqed_ops as f64
            + self.alloc_pj * a.alloc_ops as f64
            + self.wakeup_pj * a.wakeups as f64
    }
}

/// Micro-architectural event counts accumulated by the simulator.
///
/// Passive counters bag; fields are public by design. All counters are
/// per-router unless aggregated by the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Flits written into router input buffers.
    pub buffer_writes: u64,
    /// Flits read from router input buffers.
    pub buffer_reads: u64,
    /// Flits through the crossbar.
    pub xbar_traversals: u64,
    /// Flits over inter-router links.
    pub link_flits: u64,
    /// MFAC / channel-buffer stage writes or holds.
    pub channel_stage_ops: u64,
    /// CRC encodes + decodes.
    pub crc_ops: u64,
    /// SECDED encodes + decodes.
    pub secded_ops: u64,
    /// DECTED encodes + decodes.
    pub dected_ops: u64,
    /// TECQED encodes + decodes.
    pub tecqed_ops: u64,
    /// Allocator grants (VA + SA).
    pub alloc_ops: u64,
    /// Power-gating wake-up events.
    pub wakeups: u64,
}

impl ActivityCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.xbar_traversals += other.xbar_traversals;
        self.link_flits += other.link_flits;
        self.channel_stage_ops += other.channel_stage_ops;
        self.crc_ops += other.crc_ops;
        self.secded_ops += other.secded_ops;
        self.dected_ops += other.dected_ops;
        self.tecqed_ops += other.tecqed_ops;
        self.alloc_ops += other.alloc_ops;
        self.wakeups += other.wakeups;
    }

    /// Records one encode or decode under `scheme`.
    pub fn count_ecc_op(&mut self, scheme: noc_ecc::EccScheme) {
        match scheme {
            noc_ecc::EccScheme::None => {}
            noc_ecc::EccScheme::Crc => self.crc_ops += 1,
            noc_ecc::EccScheme::Secded => self.secded_ops += 1,
            noc_ecc::EccScheme::Dected => self.dected_ops += 1,
            noc_ecc::EccScheme::Tecqed => self.tecqed_ops += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ecc::EccScheme;

    #[test]
    fn zero_activity_zero_energy() {
        let m = EnergyModel::default();
        assert_eq!(m.dynamic_pj(&ActivityCounters::new()), 0.0);
    }

    #[test]
    fn energy_is_linear_in_counts() {
        let m = EnergyModel::default();
        let mut a = ActivityCounters::new();
        a.buffer_writes = 10;
        a.link_flits = 5;
        let e1 = m.dynamic_pj(&a);
        let mut b = a;
        b.merge(&a);
        assert!((m.dynamic_pj(&b) - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn ecc_energy_ordering() {
        let m = EnergyModel::default();
        assert!(m.ecc_pj(EccScheme::None) < m.ecc_pj(EccScheme::Crc));
        assert!(m.ecc_pj(EccScheme::Crc) < m.ecc_pj(EccScheme::Secded));
        assert!(m.ecc_pj(EccScheme::Secded) < m.ecc_pj(EccScheme::Dected));
    }

    #[test]
    fn count_ecc_op_routes_to_right_counter() {
        let mut a = ActivityCounters::new();
        a.count_ecc_op(EccScheme::Crc);
        a.count_ecc_op(EccScheme::Secded);
        a.count_ecc_op(EccScheme::Secded);
        a.count_ecc_op(EccScheme::Dected);
        a.count_ecc_op(EccScheme::None);
        assert_eq!((a.crc_ops, a.secded_ops, a.dected_ops), (1, 2, 1));
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ActivityCounters::new();
        let b = ActivityCounters {
            buffer_writes: 1,
            buffer_reads: 2,
            xbar_traversals: 3,
            link_flits: 4,
            channel_stage_ops: 5,
            crc_ops: 6,
            secded_ops: 7,
            dected_ops: 8,
            tecqed_ops: 13,
            alloc_ops: 9,
            wakeups: 11,
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.buffer_writes, 2);
        assert_eq!(a.wakeups, 22);
        assert_eq!(a.tecqed_ops, 26);
    }
}
