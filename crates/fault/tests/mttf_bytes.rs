//! Pinned bits of the MTTF extrapolation.
//!
//! One FNV-1a digest over `extrapolate_mttf(..).map(|m| m.cycles.to_bits())`
//! for a seeded grid of aging states: NBTI only (HCI activity at the
//! smallest positive value), HCI only (a temperature whose NBTI weight
//! underflows to zero), both, rates small enough to grow the bracket past
//! `1e12` cycles, rates past the `1e30` cut-off (`None`), rates so large
//! that the root lies more than 200 halvings below `1e12`, and the
//! degenerate inputs (no cycles, gated epochs, infinite and NaN weights).
//! Any change to the bisection, its bracket or its stop rule moves the
//! digest.

use noc_fault::{extrapolate_mttf, AgingModel, AgingState};

const PINNED: u64 = 0x260e_e872_ff9d_d8ab;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.next() as usize % from.len()]
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(temperature °C, activity, cycles)` of one epoch.
type Epoch = (f64, f64, u64);

fn states() -> Vec<Vec<Epoch>> {
    // Temperatures by what they do to the NBTI weight exp(0.05·(T − 45)):
    // zero (HCI only), tiny (past the 1e30 cut-off), ordinary, and so large
    // that the root sits far below the initial 1e12 bracket.
    const TEMPS: [f64; 10] =
        [-1e5, -700.0, -400.0, 20.0, 45.0, 75.0, 110.0, 2_000.0, 9_000.0, 14_000.0];
    // Activities: gated, NBTI only, ordinary, saturating.
    const ACTS: [f64; 7] = [0.0, f64::MIN_POSITIVE, 1e-9, 0.05, 0.3, 0.9, 1.0];
    const CYCLES: [u64; 6] = [0, 1, 250, 1_000, 1_000_000, 40_000_000];
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut out: Vec<Vec<Epoch>> = Vec::new();
    for &t in &TEMPS {
        for &a in &ACTS {
            out.push(vec![(t, a, 1_000)]);
        }
    }
    for _ in 0..400 {
        let epochs = 1 + rng.next() as usize % 3;
        out.push(
            (0..epochs)
                .map(|_| {
                    let temp = if rng.next().is_multiple_of(2) {
                        rng.pick(&TEMPS)
                    } else {
                        -50.0 + 200.0 * rng.unit()
                    };
                    let act =
                        if rng.next().is_multiple_of(2) { rng.pick(&ACTS) } else { rng.unit() };
                    (temp, act, rng.pick(&CYCLES))
                })
                .collect(),
        );
    }
    // Degenerate weights.
    out.push(vec![(f64::INFINITY, 0.5, 1_000)]);
    out.push(vec![(f64::NAN, 0.5, 1_000)]);
    out.push(vec![(75.0, f64::NAN, 1_000)]);
    out
}

/// The digest, and how many states fell in each case: `None`, a root
/// inside the initial bracket, a root past it, and a root the 200 steps
/// never reach (ΔVth at the answer is not the failure threshold).
fn digest(model: &AgingModel) -> (u64, [usize; 4]) {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut seen = [0usize; 4];
    let target = model.failure_dvth();
    for epochs in states() {
        let mut state = AgingState::new();
        for (temp, act, cycles) in epochs {
            state.accumulate(model, temp, act, cycles);
        }
        match extrapolate_mttf(model, &state) {
            None => {
                seen[0] += 1;
                fnv.bytes(&[0]);
            }
            Some(m) => {
                let t = m.cycles;
                let dvth =
                    model.nbti_dvth(state.nbti_rate() * t) + model.hci_dvth(state.hci_rate() * t);
                let case = if (dvth - target).abs() > 1e-9 * target {
                    3
                } else if t < 1e12 {
                    1
                } else {
                    2
                };
                seen[case] += 1;
                fnv.bytes(&[1]);
                fnv.bytes(&t.to_bits().to_le_bytes());
            }
        }
    }
    (fnv.0, seen)
}

#[test]
fn extrapolated_bits_are_pinned() {
    let (got, seen) = digest(&AgingModel::default());
    assert!(seen.iter().all(|&n| n > 0), "grid misses a case: {seen:?}");
    assert_eq!(got, PINNED, "digest {got:#018x}");
}
