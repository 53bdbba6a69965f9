//! Permanent and intermittent hard faults.
//!
//! Transient bit flips (handled by [`crate::FaultInjector`]) corrupt data in
//! flight; *hard* faults take whole links or routers out of service. A
//! [`HardFaultScenario`] is a deterministic, seeded schedule of such
//! failures: fail-stop faults that never recover and intermittent faults
//! that flap with a fixed duty cycle. The simulator replays the schedule
//! cycle-by-cycle and reroutes or drops traffic accordingly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a hard fault takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardFaultTarget {
    /// One mesh link, identified by the router it leaves and the outgoing
    /// direction index (0 = X+, 1 = X−, 2 = Y+, 3 = Y−). Link failures are
    /// symmetric: the reverse channel dies with it.
    Link {
        /// Router the link leaves.
        router: u32,
        /// Outgoing direction index (0 = X+, 1 = X−, 2 = Y+, 3 = Y−).
        dir: u8,
    },
    /// A whole router, including its local NI attachment.
    Router {
        /// The failed router.
        router: u32,
    },
}

/// Temporal behaviour of a hard fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardFaultKind {
    /// Permanent fail-stop: down from the activation cycle onward.
    FailStop,
    /// Intermittent flapping: from activation on, the target is down for the
    /// first `down` cycles of every `period`-cycle window.
    Intermittent {
        /// Flapping period in cycles (must be nonzero).
        period: u64,
        /// Down time at the start of each period, in cycles.
        down: u64,
    },
}

/// One scheduled hard fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardFault {
    /// Cycle the fault activates.
    pub at: u64,
    /// What fails.
    pub target: HardFaultTarget,
    /// How it fails.
    pub kind: HardFaultKind,
}

impl HardFault {
    /// Whether the target is down at `cycle`.
    pub fn is_down(&self, cycle: u64) -> bool {
        if cycle < self.at {
            return false;
        }
        match self.kind {
            HardFaultKind::FailStop => true,
            HardFaultKind::Intermittent { period, down } => {
                period > 0 && (cycle - self.at) % period < down
            }
        }
    }

    /// Whether this fault can ever transition back up (intermittent faults
    /// do; fail-stop faults do not).
    pub fn is_intermittent(&self) -> bool {
        matches!(self.kind, HardFaultKind::Intermittent { .. })
    }
}

/// A deterministic schedule of hard faults for one simulation run.
///
/// # Examples
///
/// ```
/// use noc_fault::HardFaultScenario;
///
/// let s = HardFaultScenario::dead_links(8, 8, 2, 42, 0);
/// assert_eq!(s.faults.len(), 2);
/// // Same seed → identical schedule.
/// assert_eq!(s, HardFaultScenario::dead_links(8, 8, 2, 42, 0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HardFaultScenario {
    /// Scheduled faults, in schedule order.
    pub faults: Vec<HardFault>,
}

impl HardFaultScenario {
    /// An empty scenario (no hard faults).
    pub fn none() -> Self {
        HardFaultScenario::default()
    }

    /// Whether the scenario schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `n` distinct fail-stop link failures on a `width`×`height` mesh,
    /// chosen by `seed`, all activating at cycle `at`.
    pub fn dead_links(width: usize, height: usize, n: usize, seed: u64, at: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c69_6e6b);
        let links = all_links(width, height);
        let chosen = choose_distinct(&mut rng, links.len(), n.min(links.len()));
        let faults = chosen
            .into_iter()
            .map(|i| HardFault {
                at,
                target: HardFaultTarget::Link { router: links[i].0, dir: links[i].1 },
                kind: HardFaultKind::FailStop,
            })
            .collect();
        HardFaultScenario { faults }
    }

    /// `n` distinct fail-stop router failures, chosen by `seed`, activating
    /// at cycle `at`.
    pub fn dead_routers(width: usize, height: usize, n: usize, seed: u64, at: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x726f_7574);
        let nodes = width * height;
        let chosen = choose_distinct(&mut rng, nodes, n.min(nodes));
        let faults = chosen
            .into_iter()
            .map(|r| HardFault {
                at,
                target: HardFaultTarget::Router { router: r as u32 },
                kind: HardFaultKind::FailStop,
            })
            .collect();
        HardFaultScenario { faults }
    }

    /// `n` distinct intermittently flapping links (down `down` of every
    /// `period` cycles), chosen by `seed`, activating at cycle `at`.
    pub fn flapping_links(
        width: usize,
        height: usize,
        n: usize,
        seed: u64,
        at: u64,
        period: u64,
        down: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x666c_6170);
        let links = all_links(width, height);
        let chosen = choose_distinct(&mut rng, links.len(), n.min(links.len()));
        let faults = chosen
            .into_iter()
            .map(|i| HardFault {
                at,
                target: HardFaultTarget::Link { router: links[i].0, dir: links[i].1 },
                kind: HardFaultKind::Intermittent { period, down: down.min(period) },
            })
            .collect();
        HardFaultScenario { faults }
    }

    /// Merges another scenario's faults into this one.
    pub fn merged(mut self, other: HardFaultScenario) -> Self {
        self.faults.extend(other.faults);
        self
    }
}

/// Every directed mesh link in canonical order: for each router, its X+ then
/// Y+ neighbour (each physical link listed once, in its canonical
/// direction).
fn all_links(width: usize, height: usize) -> Vec<(u32, u8)> {
    let mut links = Vec::new();
    for y in 0..height {
        for x in 0..width {
            let r = (y * width + x) as u32;
            if x + 1 < width {
                links.push((r, 0)); // X+
            }
            if y + 1 < height {
                links.push((r, 2)); // Y+
            }
        }
    }
    links
}

/// `n` distinct indices in `0..len`, in draw order (deterministic for a
/// given RNG state).
fn choose_distinct(rng: &mut SmallRng, len: usize, n: usize) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(n);
    while chosen.len() < n && chosen.len() < len {
        let i = rng.gen_range(0..len);
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_stop_is_down_forever() {
        let f = HardFault {
            at: 100,
            target: HardFaultTarget::Link { router: 0, dir: 0 },
            kind: HardFaultKind::FailStop,
        };
        assert!(!f.is_down(99));
        assert!(f.is_down(100));
        assert!(f.is_down(1_000_000));
        assert!(!f.is_intermittent());
    }

    #[test]
    fn intermittent_flaps_with_duty_cycle() {
        let f = HardFault {
            at: 10,
            target: HardFaultTarget::Router { router: 3 },
            kind: HardFaultKind::Intermittent { period: 100, down: 30 },
        };
        assert!(!f.is_down(9));
        assert!(f.is_down(10));
        assert!(f.is_down(39));
        assert!(!f.is_down(40));
        assert!(!f.is_down(109));
        assert!(f.is_down(110));
        assert!(f.is_intermittent());
    }

    #[test]
    fn zero_period_intermittent_never_down() {
        let f = HardFault {
            at: 0,
            target: HardFaultTarget::Link { router: 0, dir: 0 },
            kind: HardFaultKind::Intermittent { period: 0, down: 0 },
        };
        assert!(!f.is_down(50));
    }

    #[test]
    fn dead_links_deterministic_and_distinct() {
        let a = HardFaultScenario::dead_links(8, 8, 8, 7, 0);
        let b = HardFaultScenario::dead_links(8, 8, 8, 7, 0);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 8);
        let mut targets: Vec<_> = a.faults.iter().map(|f| f.target).collect();
        targets.dedup();
        assert_eq!(targets.len(), 8, "links must be distinct");
        let c = HardFaultScenario::dead_links(8, 8, 8, 8, 0);
        assert_ne!(a, c, "different seeds should pick different links");
    }

    #[test]
    fn dead_links_clamps_to_available_links() {
        // 2x2 mesh has 4 physical links.
        let s = HardFaultScenario::dead_links(2, 2, 100, 1, 0);
        assert_eq!(s.faults.len(), 4);
    }

    #[test]
    fn dead_routers_in_range() {
        let s = HardFaultScenario::dead_routers(4, 4, 3, 5, 500);
        assert_eq!(s.faults.len(), 3);
        for f in &s.faults {
            assert_eq!(f.at, 500);
            match f.target {
                HardFaultTarget::Router { router } => assert!(router < 16),
                _ => panic!("expected router target"),
            }
        }
    }

    #[test]
    fn merged_concatenates() {
        let a = HardFaultScenario::dead_links(4, 4, 2, 1, 0);
        let b = HardFaultScenario::dead_routers(4, 4, 1, 1, 10);
        let m = a.clone().merged(b);
        assert_eq!(m.faults.len(), 3);
        assert!(HardFaultScenario::none().is_empty());
    }

    #[test]
    fn all_links_counts() {
        // w*h mesh: (w-1)*h horizontal + w*(h-1) vertical links.
        assert_eq!(all_links(8, 8).len(), 7 * 8 + 8 * 7);
        assert_eq!(all_links(2, 2).len(), 4);
    }
}
