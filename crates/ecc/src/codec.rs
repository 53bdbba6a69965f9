//! Common codec abstractions shared by all error-control codes in this crate.
//!
//! A [`Codeword`] is a fixed-length bit vector (up to 192 bits) produced by a
//! [`FlitCodec`]. The NoC simulator corrupts codewords by flipping bits (the
//! transient-fault injector in `noc-fault` decides *which* bits) and then asks
//! the codec to decode, observing a [`DecodeStatus`].

/// Maximum codeword length supported by [`Codeword`], in bits.
pub const MAX_CODEWORD_BITS: usize = 192;

/// A fixed-length bit vector holding an encoded flit (data + check bits).
///
/// Bit `0` is the least-significant bit of `words[0]`. Bits at or beyond
/// [`Codeword::len`] are always zero.
///
/// # Examples
///
/// ```
/// use noc_ecc::Codeword;
///
/// let mut cw = Codeword::zeroed(10);
/// cw.set_bit(3, true);
/// assert!(cw.bit(3));
/// cw.flip_bit(3);
/// assert!(!cw.bit(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword {
    words: [u64; 3],
    len: u16,
}

impl Codeword {
    /// Creates an all-zero codeword of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_CODEWORD_BITS`.
    pub fn zeroed(len: usize) -> Self {
        assert!(len <= MAX_CODEWORD_BITS, "codeword too long: {len}");
        Codeword { words: [0; 3], len: len as u16 }
    }

    /// Creates a codeword whose low 128 bits are `data` and whose total
    /// length is `len` (any bits above 128 start as zero).
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_CODEWORD_BITS` or `len < 128` while `data` has
    /// bits set at or above `len`.
    pub fn from_data(data: u128, len: usize) -> Self {
        let mut cw = Self::zeroed(len);
        cw.words[0] = data as u64;
        cw.words[1] = (data >> 64) as u64;
        if len < 128 {
            assert!(data >> len == 0, "data does not fit in {len} bits");
        }
        cw
    }

    /// A `len`-bit codeword whose bits 0..128 are `low` and 128.. are `high`.
    pub(crate) fn from_u192(low: u128, high: u64, len: usize) -> Self {
        let mut cw = Self::from_data(low, len);
        cw.words[2] = high;
        debug_assert!(len >= 128 + 64 - high.leading_zeros() as usize, "bits beyond {len}");
        cw
    }

    /// The codeword as `(bits 0..128, bits 128..)`, the inverse of
    /// [`Codeword::from_u192`].
    pub(crate) fn to_u192(self) -> (u128, u64) {
        (self.low128(), self.words[2])
    }

    /// Length of the codeword in bits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the codeword has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set_bit(&mut self, i: usize, v: bool) {
        assert!(i < self.len(), "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`. This is the fault-injection primitive.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn flip_bit(&mut self, i: usize) {
        assert!(i < self.len(), "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Returns the low 128 bits as the data payload.
    pub fn low128(&self) -> u128 {
        (self.words[0] as u128) | ((self.words[1] as u128) << 64)
    }

    /// Number of set bits in the whole codeword.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of bit positions in which `self` and `other` differ.
    pub fn hamming_distance(&self, other: &Codeword) -> u32 {
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Iterator over the indices of the set bits.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes { cw: self, word: 0, bits: self.words[0] }
    }
}

/// Iterator over set-bit indices of a [`Codeword`], produced by
/// [`Codeword::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    cw: &'a Codeword,
    word: usize,
    bits: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + tz);
            }
            self.word += 1;
            if self.word >= 3 {
                return None;
            }
            self.bits = self.cw.words[self.word];
        }
    }
}

/// Outcome of decoding a (possibly corrupted) codeword.
///
/// `Corrected` reports how many bit errors the decoder believes it fixed;
/// whether the correction was *actually* right is only known to the caller,
/// who holds the original data (see [`DecodeStatus::is_usable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeStatus {
    /// Syndrome was zero: no error observed.
    Clean,
    /// The decoder corrected this many bit errors.
    Corrected(u8),
    /// An uncorrectable error was detected; the data must be re-transmitted.
    Detected,
}

impl DecodeStatus {
    /// Returns `true` when the decoder hands data onward (clean or corrected),
    /// `false` when a re-transmission is required.
    pub fn is_usable(self) -> bool {
        !matches!(self, DecodeStatus::Detected)
    }
}

/// A codec that protects one 128-bit flit payload.
///
/// Implemented by [`crate::Crc`] (detection only), [`crate::Secded`]
/// (single-error correction, double-error detection), [`crate::Dected`]
/// (double-error correction, triple-error detection) and [`crate::Tecqed`]
/// (triple-error correction).
///
/// # Examples
///
/// ```
/// use noc_ecc::{FlitCodec, Secded, DecodeStatus};
///
/// let codec = Secded::flit();
/// let mut cw = codec.encode(0xDEAD_BEEF);
/// cw.flip_bit(7);
/// let (data, status) = codec.decode(&cw);
/// assert_eq!(data, 0xDEAD_BEEF);
/// assert_eq!(status, DecodeStatus::Corrected(1));
/// ```
pub trait FlitCodec {
    /// Number of data bits protected (always 128 for flit codecs here).
    fn data_bits(&self) -> usize;

    /// Number of appended check bits.
    fn check_bits(&self) -> usize;

    /// Total codeword length (`data_bits + check_bits`).
    fn codeword_bits(&self) -> usize {
        self.data_bits() + self.check_bits()
    }

    /// Encodes `data` into a codeword.
    fn encode(&self, data: u128) -> Codeword;

    /// Decodes a codeword, returning the best-effort data and the status.
    ///
    /// When the status is [`DecodeStatus::Detected`], the returned data is
    /// the raw (uncorrected) payload bits and must not be used.
    fn decode(&self, cw: &Codeword) -> (u128, DecodeStatus);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codeword_bit_ops_roundtrip() {
        let mut cw = Codeword::zeroed(145);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 144] {
            assert!(!cw.bit(i));
            cw.set_bit(i, true);
            assert!(cw.bit(i));
        }
        assert_eq!(cw.count_ones(), 8);
        cw.flip_bit(64);
        assert!(!cw.bit(64));
        assert_eq!(cw.count_ones(), 7);
    }

    #[test]
    fn codeword_from_data_preserves_low128() {
        let data = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210u128;
        let cw = Codeword::from_data(data, 145);
        assert_eq!(cw.low128(), data);
    }

    #[test]
    fn u192_roundtrip_puts_the_high_word_above_bit_128() {
        let cw = Codeword::from_u192(1 | 1 << 127, 0x1_0001, 145);
        let ones: Vec<usize> = cw.iter_ones().collect();
        assert_eq!(ones, [0, 127, 128, 144]);
        assert_eq!(cw.to_u192(), (1 | 1 << 127, 0x1_0001));
    }

    #[test]
    fn iter_ones_matches_bits() {
        let mut cw = Codeword::zeroed(150);
        let positions = [0usize, 5, 63, 64, 100, 128, 149];
        for &p in &positions {
            cw.set_bit(p, true);
        }
        let got: Vec<usize> = cw.iter_ones().collect();
        assert_eq!(got, positions);
    }

    #[test]
    fn hamming_distance_counts_flips() {
        let a = Codeword::from_data(0, 140);
        let mut b = a;
        b.flip_bit(3);
        b.flip_bit(77);
        b.flip_bit(139);
        assert_eq!(a.hamming_distance(&b), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let cw = Codeword::zeroed(10);
        let _ = cw.bit(10);
    }

    #[test]
    fn decode_status_usability() {
        assert!(DecodeStatus::Clean.is_usable());
        assert!(DecodeStatus::Corrected(2).is_usable());
        assert!(!DecodeStatus::Detected.is_usable());
    }
}
