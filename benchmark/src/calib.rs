//! The reference kernel host times are normalised by. It is the benchmark's
//! own code and touches nothing of the repository, so a change to the
//! simulator cannot move it.
//!
//! The reference box is a shared virtual machine. Its noise comes in
//! phases of a few seconds in which everything, the simulator included,
//! runs about 1.4 times slower; 600 samples of one unit spread by 32 %
//! (first to third quartile over median). Dividing each stretch of work by
//! this kernel, run immediately before and after it, brought ten-second
//! runs of that unit to within 1 to 3 %.
//!
//! The kernel is two walks of dependent loads and stores, one over 32 KB
//! (first-level cache, as the simulator's router state is) and one over
//! 1 MB (second level, as its buffers and tables are): in a slow phase the
//! simulator slows 10 % more than the first walk alone and 9 % less than
//! the second alone, and tracks their sum.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// The unit of normalised time, frozen: normalised times are "seconds on a
/// box where one [`Calib::run`] takes this long". The reference box takes
/// 0.053 s when quiet, so a normalised second is about 5 % longer than a
/// quiet wall second there.
pub const CALIB_NOMINAL_S: f64 = 0.056;

const SMALL_WORDS: usize = 1 << 12; // 32 KB
const SMALL_STEPS: u64 = 5_000_000;
const LARGE_WORDS: usize = 1 << 17; // 1 MB
const LARGE_STEPS: u64 = 2_600_000;

/// The kernel and the tables it walks.
pub struct Calib {
    small: Vec<u64>,
    large: Vec<u64>,
}

impl Default for Calib {
    fn default() -> Self {
        Calib::new()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A xorshift walk of dependent loads and stores over `table`, with a short
/// `VecDeque` pushed and popped on every step (branches and queue traffic,
/// like the simulator's buffers).
fn walk(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut queue: VecDeque<u64> = VecDeque::with_capacity(64);
    let mut acc = 0u64;
    for _ in 0..steps {
        let i = (xorshift(&mut x) as usize) & mask;
        x ^= table[i];
        table[i] = x.rotate_left(9);
        queue.push_back(x);
        if queue.len() > 48 {
            acc = acc.wrapping_add(queue.pop_front().unwrap_or(0));
            if acc & 7 == 0 {
                acc = acc.wrapping_add(queue.pop_front().unwrap_or(0));
            }
        }
    }
    acc
}

impl Calib {
    /// Allocates and fills the tables.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut fill = |words: usize| (0..words).map(|_| xorshift(&mut x)).collect();
        Calib { small: fill(SMALL_WORDS), large: fill(LARGE_WORDS) }
    }

    /// Runs the kernel once and returns the seconds it took.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        black_box(walk(&mut self.small, SMALL_STEPS));
        black_box(walk(&mut self.large, LARGE_STEPS));
        start.elapsed().as_secs_f64()
    }
}

/// Wall time normalised to the reference box: `wall` scaled by how much
/// slower (or faster) than nominal the kernel ran around it.
pub fn normalise(wall_s: f64, calib_before_s: f64, calib_after_s: f64) -> f64 {
    wall_s * CALIB_NOMINAL_S / ((calib_before_s + calib_after_s) / 2.0)
}
