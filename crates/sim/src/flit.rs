//! Flits and packets.
//!
//! Per the paper's Table 1, packets are 4 flits of 128 bits each. Flit
//! payloads are derived deterministically from the packet/flit identity so
//! the real ECC codecs can operate on actual bits whenever the fault
//! injector corrupts a traversal, without storing 64 bytes per in-flight
//! packet.

/// Simulation time in cycles.
pub type Cycle = u64;

/// Flits per packet (Table 1: 4 × 128-bit flits).
pub const FLITS_PER_PACKET: u8 = 4;

/// Sentinel for "no designated downstream VC" (flits sent toward a gated
/// router's bypass, which performs VC allocation at the next powered hop).
pub const NO_VC: u8 = u8::MAX;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases resources.
    Tail,
}

/// One 128-bit flit in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Globally unique flit id.
    pub id: u64,
    /// Packet this flit belongs to.
    pub packet_id: u64,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Index within the packet (0-based).
    pub index: u8,
    /// Source node.
    pub src: u16,
    /// Destination node.
    pub dest: u16,
    /// Cycle the packet was injected at the source NI.
    pub injected_at: Cycle,
    /// Bit errors accumulated on the journey that no per-hop decoder fixed
    /// (feeds the end-to-end CRC check / silent-corruption accounting).
    pub e2e_flips: u16,
    /// Times this flit was re-transmitted (per-hop or end-to-end).
    pub retx: u16,
    /// ECC scheme protecting the flit on its *current* link (stamped by the
    /// upstream router at link entry; the paper synchronizes this by passing
    /// the mode decision downstream).
    pub hop_scheme: noc_ecc::EccScheme,
    /// Downstream input VC this flit is destined for on its current link
    /// (allocated by the upstream router's VA stage; [`NO_VC`] when the
    /// downstream router is bypassed).
    pub vc: u8,
    /// Bit errors accumulated in the *current per-hop codeword*: a flit
    /// bypassing gated routers is not re-decoded/re-encoded until it reaches
    /// a powered router, so link flips accumulate across the bypass chain.
    pub hop_flips: u16,
    /// End-to-end transmission generation: 0 for the original send,
    /// incremented on every end-to-end recovery re-injection, and counted
    /// against the `max_retx` budget. No receiver filters on it: a superseded
    /// generation is never in flight, because salvage purges the packet's
    /// flits before re-sending and a CRC re-send follows a full ejection.
    pub generation: u16,
}

impl Flit {
    /// The deterministic 128-bit payload of this flit (splitmix64-derived).
    pub fn payload(&self) -> u128 {
        let lo = splitmix64(self.packet_id.wrapping_mul(31).wrapping_add(self.index as u64));
        let hi = splitmix64(lo ^ 0x9E37_79B9_7F4A_7C15);
        ((hi as u128) << 64) | lo as u128
    }

    /// Whether this is the head flit.
    pub fn is_head(&self) -> bool {
        matches!(self.kind, FlitKind::Head)
    }

    /// Whether this is the tail flit.
    pub fn is_tail(&self) -> bool {
        matches!(self.kind, FlitKind::Tail)
    }
}

/// Builds the `FLITS_PER_PACKET` flits of one packet — by value, so
/// injecting or re-injecting a packet allocates nothing.
pub fn make_packet(
    packet_id: u64,
    first_flit_id: u64,
    src: u16,
    dest: u16,
    injected_at: Cycle,
) -> [Flit; FLITS_PER_PACKET as usize] {
    std::array::from_fn(|i| Flit {
        id: first_flit_id + i as u64,
        packet_id,
        kind: match i as u8 {
            0 => FlitKind::Head,
            i if i == FLITS_PER_PACKET - 1 => FlitKind::Tail,
            _ => FlitKind::Body,
        },
        index: i as u8,
        src,
        dest,
        injected_at,
        e2e_flips: 0,
        retx: 0,
        hop_scheme: noc_ecc::EccScheme::None,
        vc: NO_VC,
        hop_flips: 0,
        generation: 0,
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_structure() {
        let flits = make_packet(7, 100, 3, 9, 42);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.id == 100 + i as u64));
        assert!(flits.iter().all(|f| f.packet_id == 7 && f.src == 3 && f.dest == 9));
    }

    #[test]
    fn payloads_are_deterministic_and_distinct() {
        let flits = make_packet(1, 0, 0, 1, 0);
        let p0 = flits[0].payload();
        assert_eq!(p0, flits[0].payload());
        assert_ne!(p0, flits[1].payload());
        let other = make_packet(2, 4, 0, 1, 0);
        assert_ne!(p0, other[0].payload());
    }

    #[test]
    fn head_tail_predicates() {
        let flits = make_packet(1, 0, 0, 1, 0);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(flits[3].is_tail() && !flits[3].is_head());
        assert!(!flits[1].is_head() && !flits[1].is_tail());
    }
}
