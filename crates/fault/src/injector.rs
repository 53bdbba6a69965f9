//! Run-time transient-fault injection.
//!
//! The simulator asks the injector, per link traversal, how many bits of the
//! encoded codeword flip. The count is Binomial(`n_bits`, `re`), sampled by
//! inverse transform from a single uniform draw: every traversal costs
//! exactly one RNG draw whether or not it is hit. A faulty traversal then
//! draws exact bit positions ([`FaultInjector::choose_positions`]) so the
//! real codecs in `noc-ecc` see realistic corruption patterns.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples bit-flip events for link traversals.
///
/// # Examples
///
/// ```
/// use noc_fault::FaultInjector;
///
/// let mut inj = FaultInjector::new(42);
/// // At a forced 10% per-bit rate nearly every 145-bit flit is hit.
/// inj.set_rate_override(Some(0.1));
/// let flips = inj.sample_flip_count(145, 1e-9);
/// assert!(flips > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SmallRng,
    rate_override: Option<f64>,
    injected_bits: u64,
    /// The zero-flip mass `(1 - p)^n` of the last `(n, p.to_bits())`
    /// sampled: codeword size and rate repeat from one traversal to the
    /// next far more often than they change.
    zero_mass: ((u32, u64), f64),
}

impl FaultInjector {
    /// Creates an injector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: SmallRng::seed_from_u64(seed),
            rate_override: None,
            injected_bits: 0,
            zero_mass: ((0, 0f64.to_bits()), 1.0),
        }
    }

    /// Forces a fixed per-bit error rate regardless of the model-provided
    /// rate (used by the Fig. 17b error-rate sweep). `None` restores normal
    /// operation. Rates outside `[0, 1]` are clamped when sampling.
    ///
    /// # Panics
    ///
    /// Panics if the rate is NaN or infinite: front ends validate what
    /// users type, so a non-finite rate here is a caller bug.
    pub fn set_rate_override(&mut self, rate: Option<f64>) {
        if let Some(r) = rate {
            assert!(r.is_finite(), "rate override must be finite, got {r}");
        }
        self.rate_override = rate;
    }

    /// Current override, if any.
    pub fn rate_override(&self) -> Option<f64> {
        self.rate_override
    }

    /// Samples the number of bit flips for one `n_bits` codeword traversal
    /// at per-bit rate `re` (overridden if an override is set): a
    /// Binomial(`n_bits`, `re`) variate by inverse transform.
    ///
    /// Draws exactly one uniform when `re > 0` and none otherwise. The
    /// draw lands in the zero-flip mass `(1 - re)^n_bits` almost always;
    /// otherwise the CDF is walked upward with the pmf recurrence
    /// `P(k+1) = P(k) * (n-k)/(k+1) * re/(1-re)` — at most `n_bits` steps,
    /// about one at realistic rates.
    pub fn sample_flip_count(&mut self, n_bits: usize, re: f64) -> u32 {
        let re = self.rate_override.unwrap_or(re);
        if re.is_nan() || re <= 0.0 {
            return 0;
        }
        let n = n_bits as u32;
        let u = self.rng.gen::<f64>();
        let k = if re >= 1.0 {
            n
        } else if re <= 0.5 {
            binomial_inverse(n, re, u, self.zero_mass(n, re))
        } else {
            // Count the bits that do *not* flip, reading the same draw from
            // the other end: (1 - re)^n underflows long before re^n does.
            let keep = 1.0 - re;
            n - binomial_inverse(n, keep, 1.0 - u, self.zero_mass(n, keep))
        };
        self.injected_bits += u64::from(k);
        k
    }

    /// `(1 - p)^n`, recomputed only when `(n, p)` differs from the last call.
    fn zero_mass(&mut self, n: u32, p: f64) -> f64 {
        let key = (n, p.to_bits());
        if self.zero_mass.0 != key {
            self.zero_mass = (key, (1.0 - p).powi(n as i32));
        }
        self.zero_mass.1
    }

    /// Chooses `k` distinct bit positions in `[0, n_bits)` to flip.
    ///
    /// # Panics
    ///
    /// Panics if `k > n_bits`.
    pub fn choose_positions(&mut self, n_bits: usize, k: u32) -> Vec<usize> {
        assert!((k as usize) <= n_bits, "cannot flip {k} of {n_bits} bits");
        let mut chosen = Vec::with_capacity(k as usize);
        while chosen.len() < k as usize {
            let p = self.rng.gen_range(0..n_bits);
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        chosen
    }

    /// Total bits flipped so far.
    pub fn injected_bits(&self) -> u64 {
        self.injected_bits
    }
}

/// The smallest `k` with `u < P(X <= k)` for `X ~ Binomial(n, p)`, `p < 1`
/// (`n` if rounding leaves the walked CDF short of `u`), given
/// `zero_mass = P(X = 0) = (1 - p)^n`.
fn binomial_inverse(n: u32, p: f64, u: f64, zero_mass: f64) -> u32 {
    if u < zero_mass {
        return 0;
    }
    let mut pmf = zero_mass;
    let mut cdf = pmf;
    let odds = p / (1.0 - p);
    let mut k = 0;
    while u >= cdf && k < n {
        pmf *= odds * f64::from(n - k) / f64::from(k + 1);
        k += 1;
        cdf += pmf;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sampler this module used before the inverse transform, kept as
    /// the distribution reference: one uniform against the zero-flip mass,
    /// then — on a hit — per-bit Bernoulli draws, redrawn until one flips.
    fn rejection_flip_count(rng: &mut SmallRng, n_bits: usize, re: f64) -> u32 {
        let p0 = (1.0 - re).powi(n_bits as i32);
        if rng.gen::<f64>() < p0 {
            return 0;
        }
        rejection_truncated(rng, n_bits, re)
    }

    /// Zero-truncated Binomial(`n_bits`, `re`) by rejection.
    fn rejection_truncated(rng: &mut SmallRng, n_bits: usize, re: f64) -> u32 {
        loop {
            let k = (0..n_bits).filter(|_| rng.gen::<f64>() < re).count() as u32;
            if k > 0 {
                return k;
            }
        }
    }

    /// Whether two histograms over the same bins are compatible with one
    /// distribution: two-sample chi-squared at p = 0.001. Neighbouring bins
    /// are pooled until each holds at least ten observations.
    fn chi2_compatible(a: &[u64], b: &[u64]) -> bool {
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let mut acc = (0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            acc = (acc.0 + x as f64, acc.1 + y as f64);
            if acc.0 + acc.1 >= 10.0 {
                bins.push(acc);
                acc = (0.0, 0.0);
            }
        }
        match bins.last_mut() {
            Some(last) => *last = (last.0 + acc.0, last.1 + acc.1),
            None => bins.push(acc),
        }
        let (na, nb) = bins.iter().fold((0.0, 0.0), |t, b| (t.0 + b.0, t.1 + b.1));
        let (ka, kb) = ((nb / na).sqrt(), (na / nb).sqrt());
        let chi2: f64 = bins.iter().map(|&(x, y)| (x * ka - y * kb).powi(2) / (x + y)).sum();
        // Wilson-Hilferty approximation of the chi-squared quantile.
        let df = (bins.len() - 1).max(1) as f64;
        let z = 3.09; // upper 0.001 point of the standard normal
        let critical = df * (1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt()).powi(3);
        chi2 < critical
    }

    fn histogram(n_bits: usize, samples: usize, mut draw: impl FnMut() -> u32) -> Vec<u64> {
        let mut h = vec![0u64; n_bits + 1];
        for _ in 0..samples {
            h[draw() as usize] += 1;
        }
        h
    }

    #[test]
    fn flip_count_histogram_matches_rejection_reference() {
        let n = 145;
        for (re, samples) in [(1e-4, 150_000), (1e-2, 60_000), (0.05, 30_000)] {
            let mut inj = FaultInjector::new(17);
            let mut rng = SmallRng::seed_from_u64(18);
            let new = histogram(n, samples, || inj.sample_flip_count(n, re));
            let old = histogram(n, samples, || rejection_flip_count(&mut rng, n, re));
            assert!(chi2_compatible(&new, &old), "re {re}: {:?} vs {:?}", &new[..8], &old[..8]);
            assert_eq!(
                inj.injected_bits(),
                new.iter().enumerate().map(|(k, c)| k as u64 * c).sum::<u64>()
            );
        }
    }

    #[test]
    fn zero_truncated_tail_matches_rejection_reference() {
        // At a realistic rate almost every draw is zero; condition on a hit
        // so the test sees the k >= 2 tail the CDF walk produces.
        let (n, re, hits) = (145, 1e-3, 20_000);
        let mut inj = FaultInjector::new(19);
        let mut rng = SmallRng::seed_from_u64(20);
        let new = histogram(n, hits, || loop {
            let k = inj.sample_flip_count(n, re);
            if k > 0 {
                return k;
            }
        });
        let old = histogram(n, hits, || rejection_truncated(&mut rng, n, re));
        assert!(new[2] > 500 && new[3] > 10, "the tail must be populated: {:?}", &new[..6]);
        assert!(chi2_compatible(&new, &old), "{:?} vs {:?}", &new[..6], &old[..6]);
    }

    #[test]
    fn chi2_check_tells_a_ten_percent_rate_error_apart() {
        let n = 145;
        let mut a = FaultInjector::new(21);
        let mut b = FaultInjector::new(22);
        let at = histogram(n, 30_000, || a.sample_flip_count(n, 0.05));
        let off = histogram(n, 30_000, || b.sample_flip_count(n, 0.055));
        assert!(!chi2_compatible(&at, &off));
    }

    #[test]
    fn rates_above_one_half_count_the_unflipped_bits() {
        // (1 - re)^145 underflows here; the complement walk must still
        // reproduce the mean and never exceed the codeword.
        let n = 145;
        for re in [0.6, 0.95, 0.999] {
            let mut inj = FaultInjector::new(23);
            let total: u64 = (0..4_000).map(|_| u64::from(inj.sample_flip_count(n, re))).sum();
            let mean = total as f64 / 4_000.0;
            assert!((mean - n as f64 * re).abs() < 0.5, "re {re}: mean {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "rate override must be finite")]
    fn nan_override_is_refused() {
        FaultInjector::new(1).set_rate_override(Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "rate override must be finite")]
    fn infinite_override_is_refused() {
        FaultInjector::new(1).set_rate_override(Some(f64::INFINITY));
    }

    #[test]
    fn zero_rate_never_flips() {
        let mut inj = FaultInjector::new(1);
        for _ in 0..1000 {
            assert_eq!(inj.sample_flip_count(145, 0.0), 0);
        }
        assert_eq!(inj.injected_bits(), 0);
    }

    #[test]
    fn high_rate_flips_often() {
        let mut inj = FaultInjector::new(2);
        let mut total = 0u32;
        for _ in 0..100 {
            total += inj.sample_flip_count(145, 0.05);
        }
        // Expectation is 145*0.05*100 = 725.
        assert!(total > 400 && total < 1100, "total {total}");
    }

    #[test]
    fn flip_rate_statistics_match_re() {
        let mut inj = FaultInjector::new(3);
        let re = 1e-3;
        let n = 145;
        let trials = 20_000;
        let mut faulty = 0;
        for _ in 0..trials {
            if inj.sample_flip_count(n, re) > 0 {
                faulty += 1;
            }
        }
        let expect = (1.0 - (1.0 - re).powi(n as i32)) * trials as f64;
        let got = faulty as f64;
        assert!((got - expect).abs() < expect * 0.25, "got {got} expect {expect}");
    }

    #[test]
    fn positions_are_distinct_and_in_range() {
        let mut inj = FaultInjector::new(4);
        for k in 1..=5u32 {
            let pos = inj.choose_positions(145, k);
            assert_eq!(pos.len(), k as usize);
            let mut sorted = pos.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k as usize);
            assert!(pos.iter().all(|&p| p < 145));
        }
    }

    #[test]
    fn override_beats_model_rate() {
        let mut inj = FaultInjector::new(5);
        inj.set_rate_override(Some(0.5));
        let mut any = 0;
        for _ in 0..50 {
            if inj.sample_flip_count(145, 0.0) > 0 {
                any += 1;
            }
        }
        assert_eq!(any, 50);
        inj.set_rate_override(None);
        assert_eq!(inj.sample_flip_count(145, 0.0), 0);
    }

    #[test]
    fn remembered_zero_mass_never_changes_a_draw() {
        // Sizes and rates that repeat, alternate and cross 1/2: an injector
        // that forgets the mass before every call must agree draw for draw.
        let mut kept = FaultInjector::new(9);
        let mut forgetful = FaultInjector::new(9);
        let mix = [(145, 0.02), (145, 0.02), (137, 0.02), (145, 0.3), (145, 0.7), (145, 0.02)];
        for &(n, re) in mix.iter().cycle().take(6_000) {
            forgetful.zero_mass = ((0, 0), 1.0);
            assert_eq!(kept.sample_flip_count(n, re), forgetful.sample_flip_count(n, re));
        }
        assert!(kept.injected_bits() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        for _ in 0..100 {
            assert_eq!(a.sample_flip_count(145, 0.01), b.sample_flip_count(145, 0.01));
        }
    }
}
