//! The end-to-end flit CRC: CRC-16/CCITT-FALSE.
//!
//! IntelliNoC's operation mode 1 disables all per-hop ECC hardware and relies
//! on a basic end-to-end CRC computed at the source network interface and
//! checked at the destination (paper §3.2, §4). CRC only *detects* errors;
//! a failed check triggers an end-to-end re-transmission request.
//!
//! The implementation is a conventional MSB-first, table-driven CRC over the
//! 16 payload bytes of a 128-bit flit: polynomial `0x1021`, initial register
//! `0xFFFF`, no final XOR (16 check bits, the low-cost "basic CRC" of the
//! paper). The codeword is the data in bits 0..128 and the CRC in 128..144.

use crate::codec::{Codeword, DecodeStatus, FlitCodec};

/// Generator polynomial x¹⁶ + x¹² + x⁵ + 1 with the x¹⁶ term implicit.
const POLY: u16 = 0x1021;
/// Initial register value.
const INIT: u16 = 0xFFFF;
/// The register after shifting each byte value through it.
const TABLE: [u16; 256] = byte_table();

const fn byte_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut b = 0;
    while b < 256 {
        let mut reg = (b as u16) << 8;
        let mut k = 0;
        while k < 8 {
            reg = if reg & 0x8000 != 0 { (reg << 1) ^ POLY } else { reg << 1 };
            k += 1;
        }
        table[b] = reg;
        b += 1;
    }
    table
}

/// The CRC-16 flit codec.
///
/// # Examples
///
/// ```
/// use noc_ecc::{Crc, FlitCodec, DecodeStatus};
///
/// let crc = Crc::flit(); // CRC-16/CCITT
/// let mut cw = crc.encode(42);
/// assert_eq!(crc.decode(&cw).1, DecodeStatus::Clean);
/// cw.flip_bit(100);
/// assert_eq!(crc.decode(&cw).1, DecodeStatus::Detected);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc;

impl Crc {
    /// The flit CRC.
    pub fn flit() -> Self {
        Crc
    }

    /// Computes the CRC register over `data` (16 bytes, big-endian order).
    pub fn checksum(&self, data: u128) -> u16 {
        data.to_be_bytes()
            .iter()
            .fold(INIT, |reg, &byte| (reg << 8) ^ TABLE[usize::from((reg >> 8) as u8 ^ byte)])
    }
}

impl FlitCodec for Crc {
    fn data_bits(&self) -> usize {
        128
    }

    fn check_bits(&self) -> usize {
        16
    }

    fn encode(&self, data: u128) -> Codeword {
        Codeword::from_u192(data, u64::from(self.checksum(data)), 144)
    }

    fn decode(&self, cw: &Codeword) -> (u128, DecodeStatus) {
        let (data, rx) = cw.to_u192();
        if u64::from(self.checksum(data)) == rx {
            (data, DecodeStatus::Clean)
        } else {
            (data, DecodeStatus::Detected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-serial CRC-16/CCITT-FALSE over the 128 data bits, MSB first.
    fn reference_crc(data: u128) -> u16 {
        let mut reg = INIT;
        for i in (0..128).rev() {
            let feedback = (reg >> 15) ^ ((data >> i) & 1) as u16;
            reg = (reg << 1) ^ if feedback == 1 { POLY } else { 0 };
        }
        reg
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of ASCII "123456789" is 0x29B1; embed the 9
        // bytes in the low bytes of a zero-padded 16-byte block and compare
        // against a bitwise reference implementation instead.
        let crc = Crc::flit();
        let data = 0x3132_3334_3536_3738_3900_0000_0000_0000u128;
        assert_eq!(crc.checksum(data), reference_crc(data));
    }

    #[test]
    fn matches_bitwise_reference() {
        let crc = Crc::flit();
        for data in [0u128, 1, u128::MAX, 0xDEAD_BEEF_0BAD_F00D, 0x8000_0000 << 96] {
            assert_eq!(crc.checksum(data), reference_crc(data), "data {data:#x}");
        }
    }

    #[test]
    fn clean_roundtrip() {
        let crc = Crc::flit();
        let cw = crc.encode(0xABCD);
        let (data, status) = crc.decode(&cw);
        assert_eq!(data, 0xABCD);
        assert_eq!(status, DecodeStatus::Clean);
    }

    #[test]
    fn single_bit_error_detected_everywhere() {
        let crc = Crc::flit();
        let cw = crc.encode(0x1234_5678_9ABC_DEF0);
        for i in 0..cw.len() {
            let mut bad = cw;
            bad.flip_bit(i);
            assert_eq!(crc.decode(&bad).1, DecodeStatus::Detected, "bit {i}");
        }
    }

    #[test]
    fn burst_errors_up_to_width_detected() {
        // A CRC of width w detects all burst errors of length <= w.
        let crc = Crc::flit();
        let cw = crc.encode(0x5555_AAAA_5555_AAAA);
        for start in 0..cw.len() {
            let maxlen = 16.min(cw.len() - start);
            let mut bad = cw;
            for off in 0..maxlen {
                bad.flip_bit(start + off);
            }
            assert_eq!(crc.decode(&bad).1, DecodeStatus::Detected, "burst at {start}");
        }
    }

    #[test]
    fn check_bits_reported() {
        assert_eq!(Crc::flit().check_bits(), 16);
        assert_eq!(Crc::flit().codeword_bits(), 144);
    }
}
