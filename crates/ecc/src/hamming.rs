//! The (137, 128) extended Hamming SECDED flit code (single-error
//! correction, double-error detection).
//!
//! SECDED is the workhorse per-hop ECC of the paper's baseline and of
//! IntelliNoC operation mode 2: 8 Hamming parity bits plus one overall
//! parity bit on a 128-bit flit.
//!
//! The codeword layout follows the classic positional construction: codeword
//! positions are numbered `1..=136`; positions that are powers of two hold
//! parity bits; all other positions hold data bits in order; position 0 (the
//! first bit of the [`Codeword`]) holds the overall parity. The syndrome of a
//! word is the XOR of the positions of its set bits.

use crate::codec::{Codeword, DecodeStatus, FlitCodec};

/// Hamming positions `1..=N`: 128 data + 8 parity.
const N: usize = 136;
/// `DATA_POS[i]` is the Hamming position of data bit `i`.
const DATA_POS: [u8; 128] = data_positions();

const fn data_positions() -> [u8; 128] {
    let mut pos = [0u8; 128];
    let (mut p, mut d) = (1usize, 0);
    while d < 128 {
        if !p.is_power_of_two() {
            pos[d] = p as u8;
            d += 1;
        }
        p += 1;
    }
    pos
}

/// The SECDED flit codec.
///
/// # Examples
///
/// ```
/// use noc_ecc::{Secded, FlitCodec, DecodeStatus};
///
/// let codec = Secded::flit();
/// assert_eq!(codec.check_bits(), 9); // 8 Hamming + 1 overall parity
/// let mut cw = codec.encode(0xFEED);
/// cw.flip_bit(31);
/// cw.flip_bit(90);
/// assert_eq!(codec.decode(&cw).1, DecodeStatus::Detected); // double error
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Secded;

impl Secded {
    /// The flit codec.
    pub fn flit() -> Self {
        Secded
    }
}

fn extract(cw: &Codeword) -> u128 {
    let mut data = 0u128;
    for (i, &p) in DATA_POS.iter().enumerate() {
        if cw.bit(usize::from(p)) {
            data |= 1 << i;
        }
    }
    data
}

impl FlitCodec for Secded {
    fn data_bits(&self) -> usize {
        128
    }

    fn check_bits(&self) -> usize {
        9
    }

    fn encode(&self, data: u128) -> Codeword {
        let mut cw = Codeword::zeroed(N + 1);
        let mut syndrome = 0usize;
        for (i, &p) in DATA_POS.iter().enumerate() {
            if (data >> i) & 1 == 1 {
                cw.set_bit(usize::from(p), true);
                syndrome ^= usize::from(p);
            }
        }
        // Parity bit 2^k covers the positions with bit k set, so setting it
        // to bit k of the data syndrome zeroes the codeword's syndrome.
        for k in 0..8 {
            cw.set_bit(1 << k, (syndrome >> k) & 1 == 1);
        }
        // Overall parity over positions 1..=N, stored at index 0.
        cw.set_bit(0, cw.count_ones() % 2 == 1);
        cw
    }

    fn decode(&self, cw: &Codeword) -> (u128, DecodeStatus) {
        debug_assert_eq!(cw.len(), N + 1);
        let mut syndrome = 0usize;
        let mut ones = 0u32;
        for i in cw.iter_ones() {
            ones += 1;
            syndrome ^= i; // index 0 (the overall parity) adds nothing
        }
        let parity_ok = ones.is_multiple_of(2);

        match (syndrome, parity_ok) {
            (0, true) => (extract(cw), DecodeStatus::Clean),
            (0, false) => {
                // The overall parity bit itself flipped; data is intact.
                (extract(cw), DecodeStatus::Corrected(1))
            }
            (s, false) => {
                // Odd number of errors with nonzero syndrome: assume single
                // error at position s and correct it.
                if s > N {
                    // Syndrome points outside the codeword: multi-bit error.
                    return (extract(cw), DecodeStatus::Detected);
                }
                let mut fixed = *cw;
                fixed.flip_bit(s);
                (extract(&fixed), DecodeStatus::Corrected(1))
            }
            (_, true) => {
                // Nonzero syndrome but even parity: double error, detected.
                (extract(cw), DecodeStatus::Detected)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_codec_geometry() {
        let c = Secded::flit();
        assert_eq!(c.data_bits(), 128);
        assert_eq!(c.check_bits(), 9);
        assert_eq!(c.codeword_bits(), 137);
        assert_eq!(c.encode(0).len(), 137);
    }

    #[test]
    fn clean_roundtrip_various_data() {
        let c = Secded::flit();
        for data in [0u128, 1, u128::MAX, 0xDEAD_BEEF, 0xAAAA_AAAA_AAAA_AAAA_5555_5555_5555_5555] {
            let cw = c.encode(data);
            let (out, status) = c.decode(&cw);
            assert_eq!(out, data);
            assert_eq!(status, DecodeStatus::Clean);
        }
    }

    #[test]
    fn every_single_bit_error_corrected() {
        let c = Secded::flit();
        let data = 0x0123_4567_89AB_CDEF_1122_3344_5566_7788u128;
        let cw = c.encode(data);
        for i in 0..cw.len() {
            let mut bad = cw;
            bad.flip_bit(i);
            let (out, status) = c.decode(&bad);
            assert_eq!(status, DecodeStatus::Corrected(1), "bit {i}");
            assert_eq!(out, data, "bit {i}");
        }
    }

    #[test]
    fn every_double_bit_error_detected() {
        let c = Secded::flit();
        let data = 0xCAFE_BABEu128;
        let cw = c.encode(data);
        for i in 0..cw.len() {
            for j in (i + 1)..cw.len() {
                let mut bad = cw;
                bad.flip_bit(i);
                bad.flip_bit(j);
                let (_, status) = c.decode(&bad);
                assert_eq!(status, DecodeStatus::Detected, "bits {i},{j}");
            }
        }
    }
}
