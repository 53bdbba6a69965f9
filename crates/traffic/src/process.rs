//! Temporal injection processes.
//!
//! Each source node decides per cycle whether to inject a packet. Real
//! application traffic is bursty, so besides the memoryless Bernoulli
//! process we provide a 2-state Markov-modulated process (MMP) with
//! distinct ON/OFF injection rates — the standard burstiness model for
//! NoC workloads.

use rand::rngs::SmallRng;
use rand::Rng;

/// A per-node packet-injection process (rates in packets/node/cycle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionProcess {
    /// Memoryless injection at a fixed rate.
    Bernoulli {
        /// Packets per node per cycle.
        rate: f64,
    },
    /// 2-state Markov-modulated process: bursts (ON) alternate with quiet
    /// periods (OFF).
    Mmp {
        /// Injection rate while ON.
        on_rate: f64,
        /// Injection rate while OFF.
        off_rate: f64,
        /// Per-cycle probability of switching ON → OFF.
        p_on_off: f64,
        /// Per-cycle probability of switching OFF → ON.
        p_off_on: f64,
    },
}

impl InjectionProcess {
    /// Long-run average injection rate of the process.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            InjectionProcess::Bernoulli { rate } => rate,
            InjectionProcess::Mmp { on_rate, off_rate, p_on_off, p_off_on } => {
                // Stationary distribution of the 2-state chain.
                let pi_on = p_off_on / (p_on_off + p_off_on);
                pi_on * on_rate + (1.0 - pi_on) * off_rate
            }
        }
    }

    /// Scales the injection rates by `factor` (phase modulation).
    pub fn scaled(&self, factor: f64) -> InjectionProcess {
        match *self {
            InjectionProcess::Bernoulli { rate } => {
                InjectionProcess::Bernoulli { rate: (rate * factor).min(1.0) }
            }
            InjectionProcess::Mmp { on_rate, off_rate, p_on_off, p_off_on } => {
                InjectionProcess::Mmp {
                    on_rate: (on_rate * factor).min(1.0),
                    off_rate: (off_rate * factor).min(1.0),
                    p_on_off,
                    p_off_on,
                }
            }
        }
    }
}

/// Per-node run-time state of an injection process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessState {
    /// Current MMP phase (ignored by Bernoulli).
    pub bursting: bool,
}

impl ProcessState {
    /// Advances the state one cycle and returns whether to inject a packet,
    /// with the process's rates scaled by `rate_factor`.
    pub fn step(
        &mut self,
        process: &InjectionProcess,
        rate_factor: f64,
        rng: &mut SmallRng,
    ) -> bool {
        match *process {
            InjectionProcess::Bernoulli { rate } => rng.gen::<f64>() < rate * rate_factor,
            InjectionProcess::Mmp { on_rate, off_rate, p_on_off, p_off_on } => {
                if self.bursting {
                    if rng.gen::<f64>() < p_on_off {
                        self.bursting = false;
                    }
                } else if rng.gen::<f64>() < p_off_on {
                    self.bursting = true;
                }
                let rate = if self.bursting { on_rate } else { off_rate };
                rng.gen::<f64>() < rate * rate_factor
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = SmallRng::seed_from_u64(5);
        let p = InjectionProcess::Bernoulli { rate: 0.05 };
        let mut st = ProcessState::default();
        let n = 100_000;
        let injected = (0..n).filter(|_| st.step(&p, 1.0, &mut rng)).count();
        let rate = injected as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn mmp_mean_rate_matches_stationary() {
        let mut rng = SmallRng::seed_from_u64(6);
        let p = InjectionProcess::Mmp {
            on_rate: 0.2,
            off_rate: 0.01,
            p_on_off: 0.002,
            p_off_on: 0.001,
        };
        let mut st = ProcessState::default();
        let n = 400_000;
        let injected = (0..n).filter(|_| st.step(&p, 1.0, &mut rng)).count();
        let rate = injected as f64 / n as f64;
        let expect = p.mean_rate();
        assert!((rate - expect).abs() < expect * 0.25, "rate {rate} expect {expect}");
    }

    #[test]
    fn mmp_is_burstier_than_bernoulli() {
        // Compare variance of per-window injection counts at equal mean rate.
        let mmp = InjectionProcess::Mmp {
            on_rate: 0.3,
            off_rate: 0.0,
            p_on_off: 0.01,
            p_off_on: 0.0034, // pi_on ~ 0.254 -> mean ~ 0.076
        };
        let bern = InjectionProcess::Bernoulli { rate: mmp.mean_rate() };
        let window = 200;
        let windows = 500;
        let var = |proc: &InjectionProcess, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut st = ProcessState::default();
            let counts: Vec<f64> = (0..windows)
                .map(|_| (0..window).filter(|_| st.step(proc, 1.0, &mut rng)).count() as f64)
                .collect();
            let mean = counts.iter().sum::<f64>() / windows as f64;
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / windows as f64
        };
        assert!(var(&mmp, 7) > 2.0 * var(&bern, 8));
    }

    #[test]
    fn scaling_scales_mean_rate() {
        let p = InjectionProcess::Bernoulli { rate: 0.04 };
        assert!((p.scaled(2.0).mean_rate() - 0.08).abs() < 1e-12);
        let m =
            InjectionProcess::Mmp { on_rate: 0.2, off_rate: 0.02, p_on_off: 0.01, p_off_on: 0.01 };
        let s = m.scaled(0.5);
        assert!((s.mean_rate() - m.mean_rate() * 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_factor_never_injects() {
        let mut rng = SmallRng::seed_from_u64(9);
        let p = InjectionProcess::Bernoulli { rate: 0.9 };
        let mut st = ProcessState::default();
        assert!((0..1000).all(|_| !st.step(&p, 0.0, &mut rng)));
    }
}
