//! Shortened binary BCH flit codes over GF(2⁸): DECTED (t = 2) and TECQED
//! (t = 3).
//!
//! IntelliNoC operation mode 3 activates the full adaptive-ECC hardware to run
//! per-hop DECTED when flits are likely to contain multi-bit errors
//! (paper §3.2, §4). The t = 3 rung sits one step above the paper's ladder,
//! for design-space exploration. One type, [`Bch<T>`], implements both:
//!
//! * Generator `g(x) = m₁(x)·m₃(x)⋯m₂ₜ₋₁(x)`, where `mⱼ` is the minimal
//!   polynomial of αʲ over GF(2). For t ≤ 3 the conjugacy classes of α, α³
//!   and α⁵ are disjoint, so the product is their lcm, of degree 8t.
//! * Codeword bits `0..8t` hold the remainder of `data(x)·x⁸ᵗ` mod `g(x)`,
//!   bits `8t..8t+128` the data. DECTED appends an overall parity bit
//!   (bit 144, a 145-bit codeword); TECQED has none (152 bits).
//! * Decoding computes the odd syndromes `Sⱼ = r(αʲ)` (the even ones are
//!   their squares, `S₂ⱼ = Sⱼ²`), solves the error-locator polynomial σ,
//!   locates errors with a Chien search over the shortened positions and
//!   keeps a correction only if the corrected word has zero syndrome.
//! * `T` picks the locator solver. DECTED solves the degree-≤2 σ in closed
//!   form; the parity bit disambiguates 2 errors (even parity) from 1 or 3
//!   (odd), which is what upgrades DEC into DECTED. TECQED runs
//!   Berlekamp–Massey.
//!
//! TECQED is named for a t = 3 code that also detects 4 flips, but as built
//! it is triple-error *correcting* only: with 24 check bits and no overall
//! parity bit, a 4-flip pattern can lie within distance 3 of another
//! codeword and is then miscorrected (6 853 of 200 000 random 4-flip
//! patterns decoded to wrong data with a `Corrected` status). Adding the
//! parity bit moves cycle-domain results, so it waits for a re-baseline.

use crate::codec::{Codeword, DecodeStatus, FlitCodec};
use crate::gf256::Gf256;

/// A shortened binary BCH code correcting `T` bit errors in a 128-bit flit;
/// `T` is 2 ([`Dected`]) or 3 ([`Tecqed`]).
#[derive(Debug, Clone)]
pub struct Bch<const T: usize> {
    gf: Gf256,
    /// Low `8T` coefficient bits of g(x) (the x⁸ᵀ term is implicit).
    gen_low: u64,
    /// `pow[i][k] = α^((2k+1)·i)` for BCH position `i`: the odd-syndrome
    /// terms of a set bit.
    pow: Vec<[u8; T]>,
}

/// The DECTED flit codec: t = 2 plus the overall parity bit (corrects 2,
/// detects 3).
///
/// # Examples
///
/// ```
/// use noc_ecc::{Dected, FlitCodec, DecodeStatus};
///
/// let codec = Dected::flit();
/// let mut cw = codec.encode(0x1234_5678_9ABC_DEF0);
/// cw.flip_bit(10);
/// cw.flip_bit(99);
/// let (data, status) = codec.decode(&cw);
/// assert_eq!(status, DecodeStatus::Corrected(2));
/// assert_eq!(data, 0x1234_5678_9ABC_DEF0);
/// ```
pub type Dected = Bch<2>;

/// The t = 3 flit codec (corrects 3; see the module docs on 4 flips).
///
/// # Examples
///
/// ```
/// use noc_ecc::{Tecqed, FlitCodec, DecodeStatus};
///
/// let codec = Tecqed::flit();
/// let mut cw = codec.encode(0xABCD);
/// cw.flip_bit(3);
/// cw.flip_bit(77);
/// cw.flip_bit(140);
/// let (data, status) = codec.decode(&cw);
/// assert_eq!(data, 0xABCD);
/// assert_eq!(status, DecodeStatus::Corrected(3));
/// ```
pub type Tecqed = Bch<3>;

impl<const T: usize> Default for Bch<T> {
    fn default() -> Self {
        Self::flit()
    }
}

impl<const T: usize> Bch<T> {
    /// Number of BCH check bits (degree of g(x)).
    const CHECK: usize = 8 * T;
    /// Positions covered by the BCH code: check bits, then data.
    const N: usize = Self::CHECK + 128;
    /// Whether an overall parity bit follows the BCH positions (DECTED).
    const PARITY: bool = T == 2;

    /// Creates the 128-bit-flit codec.
    ///
    /// # Panics
    ///
    /// Panics unless `T` is 2 or 3.
    pub fn flit() -> Self {
        assert!(T == 2 || T == 3, "the flit BCH codes have t = 2 or t = 3, not {T}");
        let gf = Gf256::new();
        let g = (0..T).fold(1, |g, k| clmul(g, minimal_poly(&gf, 2 * k + 1)));
        debug_assert_eq!(g >> Self::CHECK, 1, "g(x) must have degree 8t");
        let gen_low = g & ((1 << Self::CHECK) - 1);
        let pow =
            (0..Self::N).map(|i| std::array::from_fn(|k| gf.alpha_pow((2 * k + 1) * i))).collect();
        Bch { gf, gen_low, pow }
    }

    /// The `8T` check bits of `data`: LFSR division of data(x)·x⁸ᵀ by g(x).
    fn remainder(&self, data: u128) -> u64 {
        let mut reg = 0u64;
        for i in (0..128).rev() {
            let feedback = (reg >> (Self::CHECK - 1)) ^ ((data >> i) & 1) as u64;
            reg = (reg << 1) & ((1 << Self::CHECK) - 1);
            if feedback == 1 {
                reg ^= self.gen_low;
            }
        }
        reg
    }

    /// The odd syndromes `S₁, S₃, …, S₂ₜ₋₁` over the BCH positions of `cw`.
    fn syndromes(&self, cw: &Codeword) -> [u8; T] {
        let mut s = [0u8; T];
        for i in cw.iter_ones().take_while(|&i| i < Self::N) {
            for (acc, term) in s.iter_mut().zip(&self.pow[i]) {
                *acc ^= term;
            }
        }
        s
    }

    /// Berlekamp–Massey over `S₁ … S₂ₜ` (the even syndromes squared from
    /// `odd`): the error-locator σ (coefficients, σ₀ = 1), or `None` if its
    /// degree exceeds `T`.
    fn berlekamp_massey(&self, odd: [u8; T]) -> Option<Vec<u8>> {
        let gf = &self.gf;
        let mut s = vec![0u8; 2 * T + 1]; // s[j] = S_j, s[0] unused
        for (k, &sk) in odd.iter().enumerate() {
            s[2 * k + 1] = sk;
        }
        for j in 1..=T {
            s[2 * j] = gf.square(s[j]);
        }
        let mut sigma = vec![0u8; T + 2];
        sigma[0] = 1;
        let mut b = sigma.clone();
        let mut l = 0usize; // current LFSR length
        let mut m = 1usize; // steps since last length change
        let mut bb = 1u8; // discrepancy at the last length change
        for i in 0..2 * T {
            // Discrepancy d = S_{i+1} + Σ σ_k·S_{i+1−k}.
            let mut d = s[i + 1];
            for k in 1..=l.min(i) {
                d ^= gf.mul(sigma[k], s[i + 1 - k]);
            }
            if d == 0 {
                m += 1;
                continue;
            }
            let lengthen = (2 * l <= i).then(|| sigma.clone());
            let coef = gf.div(d, bb);
            for k in m..sigma.len() {
                sigma[k] ^= gf.mul(coef, b[k - m]);
            }
            match lengthen {
                Some(old) => {
                    l = i + 1 - l;
                    b = old;
                    bb = d;
                    m = 1;
                }
                None => m += 1,
            }
            if l > T {
                return None; // the length never shrinks
            }
        }
        sigma.truncate(l + 1);
        Some(sigma)
    }

    /// Chien search: the positions `i` with σ(α⁻ⁱ) = 0, at most deg σ.
    fn chien(&self, sigma: &[u8]) -> Vec<usize> {
        let gf = &self.gf;
        let degree = sigma.len() - 1;
        let mut roots = Vec::with_capacity(degree);
        for i in 0..Self::N {
            let x = gf.alpha_pow(255 - i);
            let (mut acc, mut xp) = (0u8, 1u8);
            for &c in sigma {
                acc ^= gf.mul(c, xp);
                xp = gf.mul(xp, x);
            }
            if acc == 0 {
                roots.push(i);
                if roots.len() == degree {
                    break;
                }
            }
        }
        roots
    }

    /// The data of `cw` corrected at the roots of `sigma`, if σ has deg σ
    /// roots and flipping them leaves a zero syndrome.
    fn correct(&self, cw: &Codeword, sigma: &[u8]) -> Option<u128> {
        let roots = self.chien(sigma);
        if roots.len() != sigma.len() - 1 {
            return None;
        }
        let mut fixed = *cw;
        for &r in &roots {
            fixed.flip_bit(r);
        }
        (self.syndromes(&fixed) == [0; T]).then(|| Self::extract(&fixed))
    }

    fn extract(cw: &Codeword) -> u128 {
        let (low, high) = cw.to_u192();
        (low >> Self::CHECK) | (u128::from(high) << (128 - Self::CHECK))
    }

    /// The data of `cw` with BCH position `pos` flipped.
    fn extract_flipped(cw: &Codeword, pos: usize) -> u128 {
        let mut fixed = *cw;
        fixed.flip_bit(pos);
        Self::extract(&fixed)
    }

    /// DECTED: σ(x) = 1 + S₁x + σ₂x² in closed form, the error count read
    /// from the overall parity.
    fn decode_closed_form(&self, cw: &Codeword, s1: u8, s3: u8) -> (u128, DecodeStatus) {
        let gf = &self.gf;
        let raw = Self::extract(cw);
        let parity_even = cw.count_ones().is_multiple_of(2);

        if s1 == 0 && s3 == 0 {
            return if parity_even {
                (raw, DecodeStatus::Clean)
            } else {
                // Only the parity bit itself is flipped.
                (raw, DecodeStatus::Corrected(1))
            };
        }

        if !parity_even {
            // Odd number of errors: try the single-error hypothesis.
            if s1 != 0 && s3 == gf.cube(s1) {
                let pos = gf.log_of(s1);
                if pos < Self::N {
                    return (Self::extract_flipped(cw, pos), DecodeStatus::Corrected(1));
                }
            }
            // Inconsistent with one error: at least three errors.
            return (raw, DecodeStatus::Detected);
        }

        // Even parity with nonzero syndrome: two-error hypotheses.
        if s1 == 0 {
            // Two errors can never produce S1 == 0 (X1 == X2 is impossible),
            // so this is a ≥4-error pattern.
            return (raw, DecodeStatus::Detected);
        }
        if s3 == gf.cube(s1) {
            // Syndrome consistent with a single data error, but parity is
            // even: the companion error must be the parity bit itself.
            let pos = gf.log_of(s1);
            if pos < Self::N {
                return (Self::extract_flipped(cw, pos), DecodeStatus::Corrected(2));
            }
            return (raw, DecodeStatus::Detected);
        }
        // σ(x) = 1 + S1·x + σ2·x² with σ2 = (S1³ + S3)/S1.
        let sigma2 = gf.div(gf.cube(s1) ^ s3, s1);
        match self.correct(cw, &[1, s1, sigma2]) {
            Some(data) => (data, DecodeStatus::Corrected(2)),
            None => (raw, DecodeStatus::Detected),
        }
    }

    /// TECQED: Berlekamp–Massey, no parity bit.
    fn decode_berlekamp_massey(&self, cw: &Codeword, odd: [u8; T]) -> (u128, DecodeStatus) {
        let raw = Self::extract(cw);
        if odd == [0; T] {
            return (raw, DecodeStatus::Clean);
        }
        let corrected = self
            .berlekamp_massey(odd)
            .and_then(|sigma| Some((self.correct(cw, &sigma)?, sigma.len() - 1)));
        match corrected {
            Some((data, errors)) => (data, DecodeStatus::Corrected(errors as u8)),
            None => (raw, DecodeStatus::Detected),
        }
    }
}

impl<const T: usize> FlitCodec for Bch<T> {
    fn data_bits(&self) -> usize {
        128
    }

    fn check_bits(&self) -> usize {
        Self::CHECK + usize::from(Self::PARITY)
    }

    fn encode(&self, data: u128) -> Codeword {
        let low = (data << Self::CHECK) | u128::from(self.remainder(data));
        let high = (data >> (128 - Self::CHECK)) as u64;
        let mut cw = Codeword::from_u192(low, high, self.codeword_bits());
        // Even overall parity across the whole codeword.
        if Self::PARITY && cw.count_ones() % 2 == 1 {
            cw.set_bit(Self::N, true);
        }
        cw
    }

    fn decode(&self, cw: &Codeword) -> (u128, DecodeStatus) {
        debug_assert_eq!(cw.len(), self.codeword_bits());
        let odd = self.syndromes(cw);
        if T == 2 {
            self.decode_closed_form(cw, odd[0], odd[1])
        } else {
            self.decode_berlekamp_massey(cw, odd)
        }
    }
}

/// Minimal polynomial of α^e over GF(2), returned as a coefficient bitmask.
fn minimal_poly(gf: &Gf256, e: usize) -> u64 {
    // Product of (y + root) over the conjugacy class {α^(e·2^i)}, with
    // coefficients in GF(256).
    let mut coeffs: Vec<u8> = vec![1]; // constant polynomial 1
    let mut x = e % 255;
    loop {
        let root = gf.alpha_pow(x);
        let mut next = vec![0u8; coeffs.len() + 1];
        for (k, &c) in coeffs.iter().enumerate() {
            next[k + 1] ^= c; // y * c
            next[k] ^= gf.mul(c, root); // root * c
        }
        coeffs = next;
        x = (x * 2) % 255;
        if x == e % 255 {
            break;
        }
    }
    coeffs.iter().enumerate().fold(0, |mask, (k, &c)| {
        assert!(c <= 1, "minimal polynomial must have binary coefficients");
        mask | u64::from(c) << k
    })
}

/// Carry-less multiplication of two GF(2) polynomials.
fn clmul(a: u64, b: u64) -> u64 {
    (0..64).filter(|k| (b >> k) & 1 == 1).fold(0, |acc, k| acc ^ (a << k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Flips `k` distinct positions below `n`.
    fn flip_distinct(rng: &mut SmallRng, cw: &mut Codeword, k: usize, n: usize) {
        let mut flipped = Vec::with_capacity(k);
        while flipped.len() < k {
            let p = rng.gen_range(0..n);
            if !flipped.contains(&p) {
                cw.flip_bit(p);
                flipped.push(p);
            }
        }
    }

    /// g(x) has degree 8t and g(α^j) = 0 for j = 1..=2t (the BCH bound).
    fn assert_generator_roots<const T: usize>(c: &Bch<T>) {
        let g = c.gen_low | 1 << (8 * T);
        for j in 1..=2 * T {
            let v =
                (0..=8 * T).filter(|k| (g >> k) & 1 == 1).fold(0, |v, k| v ^ c.gf.alpha_pow(j * k));
            assert_eq!(v, 0, "t={T}: g(alpha^{j}) != 0");
        }
    }

    #[test]
    fn generator_has_degree_16_and_known_roots() {
        assert_generator_roots(&Dected::flit());
    }

    #[test]
    fn tecqed_generator_has_degree_24_and_known_roots() {
        assert_generator_roots(&Tecqed::flit());
    }

    #[test]
    fn clean_roundtrip() {
        let c = Dected::flit();
        for data in [0u128, 1, u128::MAX, 0xDEAD_BEEF_CAFE_BABE, 0x8000 << 112] {
            let cw = c.encode(data);
            assert_eq!(c.decode(&cw), (data, DecodeStatus::Clean), "data {data:#x}");
        }
    }

    #[test]
    fn clean_roundtrip_all_t() {
        fn roundtrip<const T: usize>(c: &Bch<T>) {
            for data in [0u128, 1, u128::MAX, 0x1234_5678_9ABC, 0x8000 << 112] {
                assert_eq!(c.decode(&c.encode(data)), (data, DecodeStatus::Clean), "t={T}");
            }
        }
        roundtrip(&Dected::flit());
        roundtrip(&Tecqed::flit());
    }

    #[test]
    fn all_single_bit_errors_corrected() {
        let c = Dected::flit();
        let data = 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFFu128;
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
    fn sampled_double_bit_errors_corrected() {
        let c = Dected::flit();
        let data = 0xF0F0_F0F0_0F0F_0F0F_1234_5678_9ABC_DEF0u128;
        let cw = c.encode(data);
        // Full pairwise sweep of a strided sample plus boundary positions.
        let mut positions: Vec<usize> = (0..145).step_by(7).collect();
        positions.extend([0, 1, 15, 16, 17, 143, 144]);
        for &i in &positions {
            for &j in &positions {
                if i >= j {
                    continue;
                }
                let mut bad = cw;
                bad.flip_bit(i);
                bad.flip_bit(j);
                let (out, status) = c.decode(&bad);
                assert_eq!(status, DecodeStatus::Corrected(2), "bits {i},{j}");
                assert_eq!(out, data, "bits {i},{j}");
            }
        }
    }

    #[test]
    fn sampled_triple_bit_errors_detected() {
        let c = Dected::flit();
        let data = 0xAAAA_5555_AAAA_5555_0000_FFFF_0000_FFFFu128;
        let cw = c.encode(data);
        for a in (0..145).step_by(11) {
            for b in ((a + 1)..145).step_by(13) {
                for d in ((b + 1)..145).step_by(17) {
                    let mut bad = cw;
                    bad.flip_bit(a);
                    bad.flip_bit(b);
                    bad.flip_bit(d);
                    // A triple error "corrected" into wrong data is the
                    // miscorrection DECTED's parity bit prevents.
                    let (_, status) = c.decode(&bad);
                    assert_eq!(status, DecodeStatus::Detected, "bits {a},{b},{d}");
                }
            }
        }
    }

    #[test]
    fn parity_bit_error_corrected() {
        let c = Dected::flit();
        let data = 7u128;
        let mut cw = c.encode(data);
        cw.flip_bit(144);
        let (out, status) = c.decode(&cw);
        assert_eq!(status, DecodeStatus::Corrected(1));
        assert_eq!(out, data);
    }

    #[test]
    fn data_plus_parity_double_error_corrected() {
        let c = Dected::flit();
        let data = 0x77u128;
        let mut cw = c.encode(data);
        cw.flip_bit(50);
        cw.flip_bit(144);
        let (out, status) = c.decode(&cw);
        assert_eq!(status, DecodeStatus::Corrected(2));
        assert_eq!(out, data);
    }

    #[test]
    fn geometry() {
        let c = Dected::flit();
        assert_eq!(c.data_bits(), 128);
        assert_eq!(c.check_bits(), 17);
        assert_eq!(c.codeword_bits(), 145);
    }

    #[test]
    fn geometry_by_t() {
        // 8t BCH check bits; DECTED adds one overall parity bit.
        let (d, t) = (Dected::flit(), Tecqed::flit());
        assert_eq!((d.data_bits(), d.check_bits(), d.codeword_bits()), (128, 17, 145));
        assert_eq!((t.data_bits(), t.check_bits(), t.codeword_bits()), (128, 24, 152));
    }

    #[test]
    fn berlekamp_massey_agrees_with_the_closed_form_on_dected() {
        // BM is the reference for DECTED's closed-form locator: on every
        // ≤ 2-flip pattern in the BCH positions it must find the same σ and
        // recover the same data.
        let mut rng = SmallRng::seed_from_u64(46);
        let c = Dected::flit();
        let gf = &c.gf;
        for _ in 0..200 {
            let data: u128 = rng.gen();
            let mut cw = c.encode(data);
            let k = rng.gen_range(1..=2usize);
            flip_distinct(&mut rng, &mut cw, k, 144);
            let [s1, s3] = c.syndromes(&cw);
            let closed =
                if k == 1 { vec![1, s1] } else { vec![1, s1, gf.div(gf.cube(s1) ^ s3, s1)] };
            let sigma = c.berlekamp_massey([s1, s3]).expect("two errors fit t = 2");
            assert_eq!(sigma, closed);
            assert_eq!(c.correct(&cw, &sigma), Some(data));
            assert_eq!(c.decode(&cw), (data, DecodeStatus::Corrected(k as u8)));
        }
    }

    #[test]
    fn tecqed_corrects_every_sampled_pattern_of_up_to_three_flips() {
        let mut rng = SmallRng::seed_from_u64(44);
        let c = Tecqed::flit();
        for trial in 0..600 {
            let data: u128 = rng.gen();
            let mut cw = c.encode(data);
            let k = 1 + trial % 3;
            flip_distinct(&mut rng, &mut cw, k, 152);
            assert_eq!(c.decode(&cw), (data, DecodeStatus::Corrected(k as u8)), "k={k}");
        }
    }

    #[test]
    fn tecqed_miscorrects_some_four_flip_patterns() {
        // The module docs' caveat: without an overall parity bit, TECQED
        // "corrects" a few percent of 4-flip patterns into wrong data.
        let mut rng = SmallRng::seed_from_u64(47);
        let c = Tecqed::flit();
        let mut miscorrected = 0;
        for _ in 0..2_000 {
            let data: u128 = rng.gen();
            let mut cw = c.encode(data);
            flip_distinct(&mut rng, &mut cw, 4, 152);
            let (out, status) = c.decode(&cw);
            if matches!(status, DecodeStatus::Corrected(_)) && out != data {
                miscorrected += 1;
            }
        }
        assert!((20..200).contains(&miscorrected), "{miscorrected} of 2000");
    }

    #[test]
    fn beyond_t_never_returns_wrong_data_silently_as_clean() {
        // Patterns with > t errors either get Detected or (miscorrection)
        // return Corrected with consistent-but-wrong data — never Clean.
        let mut rng = SmallRng::seed_from_u64(45);
        let c = Tecqed::flit();
        for _ in 0..200 {
            let data: u128 = rng.gen();
            let mut cw = c.encode(data);
            // Up to 6 flips: below the designed distance 2t + 1 = 7.
            let k = rng.gen_range(4..7usize);
            flip_distinct(&mut rng, &mut cw, k, 152);
            assert_ne!(c.decode(&cw).1, DecodeStatus::Clean);
        }
    }
}
