//! Pinned encode/decode bytes of every flit code.
//!
//! For each [`EccScheme`] the test folds into one FNV-1a digest (a) the
//! codewords of 512 words drawn from a fixed xorshift, and (b) the
//! `(data, status)` decode of each of those codewords after 0–4 distinct bit
//! flips at positions drawn from the same generator. Any change to a
//! generator polynomial, a bit layout, a syndrome table or a decoder's
//! classification moves a digest.

use noc_ecc::{Codeword, DecodeStatus, EccScheme, EccSuite};

const WORDS: usize = 512;

/// `(scheme, encode digest, decode digest)`.
const PINNED: [(EccScheme, u64, u64); 5] = [
    (EccScheme::None, 0xb275_a6d1_9e05_cae4, 0x49cb_b184_7b9b_ed4c),
    (EccScheme::Crc, 0x5487_57e0_02c0_11eb, 0x56fc_ac2a_83ce_8781),
    (EccScheme::Secded, 0x3f6c_2027_624d_497c, 0x0ff0_fb07_90b8_7dcd),
    (EccScheme::Dected, 0x9d3a_5d64_b757_c43c, 0x7861_2163_3e11_d72b),
    (EccScheme::Tecqed, 0x1657_0292_8955_5d2a, 0x93c1_c568_e048_7f3f),
];

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn word(&mut self) -> u128 {
        (u128::from(self.next()) << 64) | u128::from(self.next())
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn codeword(&mut self, cw: &Codeword) {
        let mut words = [0u64; 3];
        for i in cw.iter_ones() {
            words[i / 64] |= 1 << (i % 64);
        }
        self.bytes(&(cw.len() as u16).to_le_bytes());
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    fn decoded(&mut self, data: u128, status: DecodeStatus) {
        self.bytes(&data.to_le_bytes());
        match status {
            DecodeStatus::Clean => self.bytes(&[0]),
            DecodeStatus::Corrected(n) => self.bytes(&[1, n]),
            DecodeStatus::Detected => self.bytes(&[2]),
        }
    }
}

/// The two digests of `scheme`.
fn digests(suite: &EccSuite, scheme: EccScheme) -> (u64, u64) {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let (mut enc, mut dec) = (Fnv::new(), Fnv::new());
    for _ in 0..WORDS {
        let cw = suite.encode(scheme, rng.word());
        enc.codeword(&cw);
        let flips = (rng.next() % 5) as usize;
        let mut flipped: Vec<usize> = Vec::with_capacity(flips);
        let mut bad = cw;
        while flipped.len() < flips {
            let p = (rng.next() % cw.len() as u64) as usize;
            if !flipped.contains(&p) {
                bad.flip_bit(p);
                flipped.push(p);
            }
        }
        let (data, status) = suite.decode(scheme, &bad);
        dec.decoded(data, status);
    }
    (enc.0, dec.0)
}

#[test]
fn every_scheme_encodes_and_decodes_the_pinned_bytes() {
    let suite = EccSuite::new();
    let got: Vec<(EccScheme, u64, u64)> = EccScheme::ALL
        .iter()
        .map(|&s| {
            let (e, d) = digests(&suite, s);
            (s, e, d)
        })
        .collect();
    assert_eq!(got, PINNED);
}
