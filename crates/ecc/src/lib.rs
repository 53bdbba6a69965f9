//! # noc-ecc
//!
//! Error-control coding substrate for the IntelliNoC reproduction
//! (Wang et al., ISCA 2019).
//!
//! The paper's adaptive error-correction hardware (§3.2) switches each router
//! among three coding levels, all implemented here as real codecs operating
//! on 128-bit flits, one code per level:
//!
//! * [`Crc`] — end-to-end CRC-16/CCITT-FALSE (detection only),
//! * [`Secded`] — per-hop (137, 128) extended Hamming code (corrects 1,
//!   detects 2),
//! * [`Dected`] — per-hop shortened BCH t=2 code + parity (corrects 2,
//!   detects 3),
//!
//! plus [`Tecqed`], the shortened BCH t=3 code one rung above the ladder.
//! `Dected` and `Tecqed` are one type, [`Bch`], at two correction strengths.
//!
//! [`EccSuite`] dispatches on [`EccScheme`], which is the value the
//! per-router control policy manipulates at run time.
//!
//! # Examples
//!
//! ```
//! use noc_ecc::{EccScheme, EccSuite, DecodeStatus};
//!
//! let suite = EccSuite::new();
//! let mut cw = suite.encode(EccScheme::Dected, 0xFACE);
//! cw.flip_bit(3);
//! cw.flip_bit(140);
//! let (data, status) = suite.decode(EccScheme::Dected, &cw);
//! assert_eq!(data, 0xFACE);
//! assert_eq!(status, DecodeStatus::Corrected(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bch;
mod codec;
mod crc;
pub mod gf256;
mod hamming;

pub use bch::{Bch, Dected, Tecqed};
pub use codec::{Codeword, DecodeStatus, FlitCodec, IterOnes, MAX_CODEWORD_BITS};
pub use crc::Crc;
pub use hamming::Secded;

/// The error-control scheme a router (or network interface) applies to flits.
///
/// This is the quantity reconfigured by IntelliNoC's adaptive-ECC hardware:
/// fully power-gated (CRC only), partially active (SECDED), or fully active
/// (DECTED). `None` disables protection entirely (used by some baselines'
/// internal hops when CRC is end-to-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EccScheme {
    /// No coding on this hop.
    None,
    /// End-to-end CRC-16 (detection only).
    Crc,
    /// Per-hop SECDED (corrects 1-bit, detects 2-bit errors).
    Secded,
    /// Per-hop DECTED (corrects 2-bit, detects 3-bit errors).
    Dected,
    /// Per-hop TECQED: triple-error-correcting BCH (t = 3) — one rung above
    /// the paper's ladder, provided for design-space exploration. Despite
    /// the name it has no overall parity bit, so it does not detect every
    /// 4-bit error: some are miscorrected to wrong data (see [`Tecqed`]).
    Tecqed,
}

impl EccScheme {
    /// All schemes in increasing order of strength.
    pub const ALL: [EccScheme; 5] =
        [EccScheme::None, EccScheme::Crc, EccScheme::Secded, EccScheme::Dected, EccScheme::Tecqed];

    /// Number of check bits appended to a 128-bit flit under this scheme.
    pub fn check_bits(self) -> usize {
        match self {
            EccScheme::None => 0,
            EccScheme::Crc => 16,
            EccScheme::Secded => 9,
            EccScheme::Dected => 17,
            EccScheme::Tecqed => 24,
        }
    }

    /// Codeword length for a 128-bit flit under this scheme.
    pub fn codeword_bits(self) -> usize {
        128 + self.check_bits()
    }

    /// Maximum number of bit errors this scheme corrects per codeword.
    pub fn corrects(self) -> u8 {
        match self {
            EccScheme::None | EccScheme::Crc => 0,
            EccScheme::Secded => 1,
            EccScheme::Dected => 2,
            EccScheme::Tecqed => 3,
        }
    }

    /// Whether decoding happens at every hop (as opposed to end-to-end).
    pub fn is_per_hop(self) -> bool {
        matches!(self, EccScheme::Secded | EccScheme::Dected | EccScheme::Tecqed)
    }
}

impl std::fmt::Display for EccScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EccScheme::None => "none",
            EccScheme::Crc => "crc",
            EccScheme::Secded => "secded",
            EccScheme::Dected => "dected",
            EccScheme::Tecqed => "tecqed",
        };
        f.write_str(s)
    }
}

/// The flit codecs behind [`EccScheme`], constructed once and shared.
///
/// Construction of the BCH codecs builds GF(2⁸) tables and the generator
/// polynomials, so callers should create one `EccSuite` per simulation
/// rather than per flit.
#[derive(Debug, Clone, Default)]
pub struct EccSuite {
    dected: Dected,
    tecqed: Tecqed,
}

impl EccSuite {
    /// Builds the codecs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `data` under `scheme`.
    ///
    /// For [`EccScheme::None`] the codeword is the bare 128 data bits.
    pub fn encode(&self, scheme: EccScheme, data: u128) -> Codeword {
        match scheme {
            EccScheme::None => Codeword::from_data(data, 128),
            EccScheme::Crc => Crc.encode(data),
            EccScheme::Secded => Secded.encode(data),
            EccScheme::Dected => self.dected.encode(data),
            EccScheme::Tecqed => self.tecqed.encode(data),
        }
    }

    /// Decodes a codeword previously produced under `scheme`.
    pub fn decode(&self, scheme: EccScheme, cw: &Codeword) -> (u128, DecodeStatus) {
        match scheme {
            EccScheme::None => (cw.low128(), DecodeStatus::Clean),
            EccScheme::Crc => Crc.decode(cw),
            EccScheme::Secded => Secded.decode(cw),
            EccScheme::Dected => self.dected.decode(cw),
            EccScheme::Tecqed => self.tecqed.decode(cw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_geometry_is_consistent_with_codecs() {
        let suite = EccSuite::new();
        for scheme in EccScheme::ALL {
            let cw = suite.encode(scheme, 0x1234);
            assert_eq!(cw.len(), scheme.codeword_bits(), "{scheme}");
        }
    }

    #[test]
    fn dispatch_roundtrips() {
        let suite = EccSuite::new();
        let data = 0xFEED_FACE_DEAD_BEEFu128;
        for scheme in EccScheme::ALL {
            let cw = suite.encode(scheme, data);
            let (out, status) = suite.decode(scheme, &cw);
            assert_eq!(out, data, "{scheme}");
            assert_eq!(status, DecodeStatus::Clean, "{scheme}");
        }
    }

    #[test]
    fn correction_strengths() {
        assert_eq!(EccScheme::None.corrects(), 0);
        assert_eq!(EccScheme::Crc.corrects(), 0);
        assert_eq!(EccScheme::Secded.corrects(), 1);
        assert_eq!(EccScheme::Dected.corrects(), 2);
        assert_eq!(EccScheme::Tecqed.corrects(), 3);
        assert!(!EccScheme::Crc.is_per_hop());
        assert!(EccScheme::Dected.is_per_hop());
        assert!(EccScheme::Tecqed.is_per_hop());
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = EccScheme::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["none", "crc", "secded", "dected", "tecqed"]);
    }
}
