//! State featurization and discretization.
//!
//! The paper's per-router RL state (Fig. 7) is a 16-feature vector — five
//! input-link utilizations, five buffer utilizations, five output-link
//! utilizations, and the router temperature — with every feature evenly
//! discretized into five bins over its profiled range. The discretized
//! vector is packed into a compact [`StateKey`] used to index the Q-table.

/// Number of features in the paper's state vector.
pub const FEATURE_COUNT: usize = 16;

/// Number of discretization bins per feature (paper §5).
pub const BINS: u8 = 5;

/// A packed, discretized state (4 bits per feature, 16 features = 64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey(pub u64);

/// Maps raw feature vectors to discretized [`StateKey`]s.
///
/// # Examples
///
/// ```
/// use noc_rl::{Discretizer, FEATURE_COUNT};
///
/// let disc = Discretizer::paper_default();
/// let features = [0.5f64; FEATURE_COUNT];
/// let key = disc.key(&features);
/// assert_eq!(key, disc.key(&features)); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Discretizer {
    /// Creates a discretizer from per-feature `[lo, hi]` ranges.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths, exceed
    /// [`FEATURE_COUNT`], or any range is empty (`hi <= lo`).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "range vectors must have equal length");
        assert!(lo.len() <= FEATURE_COUNT, "too many features");
        assert!(lo.iter().zip(&hi).all(|(l, h)| h > l), "every feature range must be non-empty");
        Discretizer { lo, hi }
    }

    /// The paper's feature ranges: utilizations in `[0, 1]` (features 0–14)
    /// and temperature in `[45, 105]` °C (feature 15).
    pub fn paper_default() -> Self {
        let mut lo = vec![0.0; FEATURE_COUNT];
        let mut hi = vec![1.0; FEATURE_COUNT];
        lo[FEATURE_COUNT - 1] = 45.0;
        hi[FEATURE_COUNT - 1] = 105.0;
        Discretizer::new(lo, hi)
    }

    /// Bin index of `value` for feature `i` (clamped into range).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin(&self, i: usize, value: f64) -> u8 {
        let (lo, hi) = (self.lo[i], self.hi[i]);
        let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
        // Even bins over the range; value == hi lands in the last bin.
        ((t * BINS as f64) as u8).min(BINS - 1)
    }

    /// Packs a raw feature vector into a [`StateKey`].
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the configured feature count.
    pub fn key(&self, features: &[f64]) -> StateKey {
        assert_eq!(features.len(), self.lo.len(), "feature vector length mismatch");
        let mut k = 0u64;
        for (i, &v) in features.iter().enumerate() {
            k |= (self.bin(i, v) as u64) << (4 * i);
        }
        StateKey(k)
    }

    /// Unpacks a key back into bin indices (for inspection/debugging).
    pub fn bins_of(&self, key: StateKey) -> Vec<u8> {
        (0..self.lo.len()).map(|i| ((key.0 >> (4 * i)) & 0xF) as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_range_evenly() {
        let d = Discretizer::paper_default();
        assert_eq!(d.bin(0, -1.0), 0);
        assert_eq!(d.bin(0, 0.0), 0);
        assert_eq!(d.bin(0, 0.19), 0);
        assert_eq!(d.bin(0, 0.21), 1);
        assert_eq!(d.bin(0, 0.5), 2);
        assert_eq!(d.bin(0, 0.99), 4);
        assert_eq!(d.bin(0, 1.0), 4);
        assert_eq!(d.bin(0, 5.0), 4);
    }

    #[test]
    fn temperature_feature_uses_its_own_range() {
        let d = Discretizer::paper_default();
        let i = FEATURE_COUNT - 1;
        assert_eq!(d.bin(i, 45.0), 0);
        assert_eq!(d.bin(i, 75.0), 2);
        assert_eq!(d.bin(i, 104.9), 4);
    }

    #[test]
    fn key_roundtrips_through_bins() {
        let d = Discretizer::paper_default();
        let mut f = vec![0.0; FEATURE_COUNT];
        for (i, v) in f.iter_mut().enumerate() {
            *v = (i as f64) / FEATURE_COUNT as f64;
        }
        f[FEATURE_COUNT - 1] = 80.0;
        let key = d.key(&f);
        let bins = d.bins_of(key);
        for (i, &b) in bins.iter().enumerate() {
            assert_eq!(b, d.bin(i, f[i]), "feature {i}");
        }
    }

    #[test]
    fn distinct_bins_distinct_keys() {
        let d = Discretizer::paper_default();
        let a = d.key(&[0.1; FEATURE_COUNT]);
        let mut f = vec![0.1; FEATURE_COUNT];
        f[3] = 0.9;
        let b = d.key(&f);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let d = Discretizer::paper_default();
        let _ = d.key(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = Discretizer::new(vec![1.0], vec![1.0]);
    }
}
