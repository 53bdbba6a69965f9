//! The per-router Q-learning agent (paper §5, Fig. 8).
//!
//! Each router runs one agent. At every time step the agent:
//!
//! 1. looks up the current (discretized) state in its Q-table,
//! 2. selects an action ε-greedily,
//! 3. after the action has affected the NoC for one time step, receives the
//!    reward and the successor state and applies the temporal-difference
//!    rule (Eq. 2): `Q(s,a) ← (1−α)Q(s,a) + α[r + γ·maxₐ′ Q(s′,a′)]`.

use crate::qtable::QTable;
use crate::state::StateKey;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Q-learning hyperparameters.
///
/// Passive configuration bag; fields are public by design. Defaults are the
/// paper's tuned values (§6.3): α = 0.1, γ = 0.9, ε = 0.05.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QLearningConfig {
    /// Learning rate α.
    pub alpha: f32,
    /// Discount rate γ.
    pub gamma: f32,
    /// Exploration probability ε.
    pub epsilon: f64,
    /// Number of actions.
    pub actions: usize,
    /// Q-table capacity (states).
    pub capacity: usize,
    /// Initial Q-value for newly visited states (see
    /// [`QTable::with_init`]).
    pub q_init: f32,
    /// Action taken in states the table has never seen (the paper
    /// initializes all routers to operation mode 1).
    pub default_action: usize,
}

impl Default for QLearningConfig {
    fn default() -> Self {
        QLearningConfig {
            alpha: 0.1,
            gamma: 0.9,
            epsilon: 0.05,
            actions: 5,
            capacity: crate::qtable::PAPER_QTABLE_CAPACITY,
            q_init: 0.0,
            default_action: 0,
        }
    }
}

/// What one [`QAgent::step_traced`] learned and chose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTrace {
    /// The chosen action index.
    pub action: usize,
    /// Whether the choice was ε-random rather than greedy.
    pub explored: bool,
    /// Whether a TD update was applied this step (there was a pending
    /// `(s, a)` pair).
    pub updated: bool,
    /// Signed change the TD update applied to `Q(s_prev, a_prev)`
    /// (0 when no update happened).
    pub td_delta: f32,
}

/// A tabular Q-learning agent.
///
/// # Examples
///
/// ```
/// use noc_rl::{QAgent, QLearningConfig, StateKey};
///
/// let mut agent = QAgent::new(QLearningConfig::default(), 1);
/// let a0 = agent.step(StateKey(0), 0.0);   // first decision, nothing to learn yet
/// let _a1 = agent.step(StateKey(1), -2.5); // learn from the reward, decide again
/// assert!(a0 < 5);
/// ```
#[derive(Debug, Clone)]
pub struct QAgent {
    cfg: QLearningConfig,
    table: QTable,
    rng: SmallRng,
    previous: Option<(StateKey, usize)>,
    decisions: u64,
    explorations: u64,
}

impl QAgent {
    /// Creates an agent with a deterministic RNG seed.
    pub fn new(cfg: QLearningConfig, seed: u64) -> Self {
        assert!(cfg.default_action < cfg.actions, "default action out of range");
        QAgent {
            table: QTable::with_init(cfg.actions, cfg.capacity, cfg.q_init),
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            previous: None,
            decisions: 0,
            explorations: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &QLearningConfig {
        &self.cfg
    }

    /// Read access to the Q-table.
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Mutable access to the Q-table (fault-injection experiments).
    pub fn table_mut(&mut self) -> &mut QTable {
        &mut self.table
    }

    /// Number of decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of those decisions that were exploratory (random).
    pub fn explorations(&self) -> u64 {
        self.explorations
    }

    /// One time step: learn from `reward` observed for the previous action
    /// (if any), then choose the action for `state`.
    ///
    /// The reward argument is ignored on the very first call, when there is
    /// no previous `(s, a)` to credit (paper: modes start initialized and
    /// the first reward sample is discarded).
    pub fn step(&mut self, state: StateKey, reward: f64) -> usize {
        self.step_traced(state, reward).action
    }

    /// [`QAgent::step`], also reporting the TD update and how the action
    /// was chosen.
    pub fn step_traced(&mut self, state: StateKey, reward: f64) -> StepTrace {
        let mut updated = false;
        let mut td_delta = 0.0f32;
        if let Some((s, a)) = self.previous {
            let before = self.table.q(s, a);
            let target = reward as f32 + self.cfg.gamma * self.table.max_q(state);
            self.table.nudge(s, a, target, self.cfg.alpha);
            td_delta = self.table.q(s, a) - before;
            updated = true;
        }
        let (action, explored) = if self.rng.gen::<f64>() < self.cfg.epsilon {
            self.explorations += 1;
            (self.rng.gen_range(0..self.cfg.actions), true)
        } else if self.table.contains(state) {
            self.table.touch(state);
            (self.table.best_action(state).0, false)
        } else {
            (self.cfg.default_action, false)
        };
        self.decisions += 1;
        self.previous = Some((state, action));
        StepTrace { action, explored, updated, td_delta }
    }

    /// The pending `(state, action)` pair awaiting its reward, if any.
    pub fn previous(&self) -> Option<(StateKey, usize)> {
        self.previous
    }

    /// Adopts a pre-trained Q-table (paper §6.3: policies are pre-trained on
    /// `blackscholes`, then deployed on the test benchmarks).
    pub fn load_table(&mut self, table: QTable) {
        self.table = table;
    }

    /// Clones the Q-table out (for pre-training then distributing).
    pub fn table_clone(&self) -> QTable {
        self.table.clone()
    }
}

/// Reward shaping variant (ablation D5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// The paper's Eq. 1: `r = −log L − log P − log A`.
    LogSpace,
    /// Linear variant used by the D5 reward ablation:
    /// `r = −(L/100 + P/100 + A)` (scaled so magnitudes are comparable).
    Linear,
}

impl RewardKind {
    /// The reward's latency, power and aging terms; the reward is their sum,
    /// left to right.
    ///
    /// All three metrics are clamped to ≥ 1 first, so the log terms are
    /// never positive and no term is NaN (the paper constructs its metrics
    /// to satisfy this by definition).
    pub fn terms(self, latency: f64, power: f64, aging: f64) -> [f64; 3] {
        let (l, p, a) = (latency.max(1.0), power.max(1.0), aging.max(1.0));
        match self {
            RewardKind::LogSpace => [-l.ln(), -p.ln(), -a.ln()],
            RewardKind::Linear => [-l / 100.0, -p / 100.0, -a],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_does_not_learn() {
        let mut a = QAgent::new(QLearningConfig::default(), 1);
        a.step(StateKey(0), -1000.0);
        assert!(a.table().is_empty());
    }

    #[test]
    fn second_step_learns_previous_pair() {
        let cfg = QLearningConfig { epsilon: 0.0, ..QLearningConfig::default() };
        let mut a = QAgent::new(cfg, 2);
        let act = a.step(StateKey(0), 0.0);
        a.step(StateKey(1), -3.0);
        // First visit of (s0, act) adopts the full TD target: r + gamma*0.
        let q = a.table().q(StateKey(0), act);
        assert!((q - (-3.0)).abs() < 1e-6, "q = {q}");
        assert_eq!(a.table().visits(StateKey(0), act), 1);
    }

    #[test]
    fn greedy_prefers_learned_best() {
        let cfg =
            QLearningConfig { epsilon: 0.0, alpha: 1.0, gamma: 0.0, ..QLearningConfig::default() };
        let mut a = QAgent::new(cfg, 3);
        // Force exploration of all actions in state 0 by direct table edits.
        let mut t = QTable::new(5, 350);
        t.nudge(StateKey(0), 3, 5.0, 1.0);
        a.load_table(t);
        assert_eq!(a.step(StateKey(0), 0.0), 3);
    }

    #[test]
    fn epsilon_one_is_uniform_random() {
        let cfg = QLearningConfig { epsilon: 1.0, ..QLearningConfig::default() };
        let mut a = QAgent::new(cfg, 4);
        let mut seen = [false; 5];
        for i in 0..200 {
            seen[a.step(StateKey(i % 3), 0.0)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(a.explorations(), a.decisions());
    }

    fn reward(kind: RewardKind, latency: f64, power: f64, aging: f64) -> f64 {
        let [l, p, a] = kind.terms(latency, power, aging);
        l + p + a
    }

    #[test]
    fn reward_is_negative_log_sum() {
        let log = RewardKind::LogSpace;
        let r = reward(log, std::f64::consts::E, std::f64::consts::E, 1.0);
        assert!((r + 2.0).abs() < 1e-12);
        // Clamping: values below 1 contribute 0.
        assert_eq!(reward(log, 0.5, 0.5, 0.5), 0.0);
        // Better (smaller) metrics give larger reward.
        assert!(reward(log, 2.0, 2.0, 1.1) > reward(log, 4.0, 2.0, 1.1));
    }

    #[test]
    fn reward_terms_sum_to_the_closed_forms_bit_for_bit() {
        // Subtracting a term is adding its negation, and rounding is
        // sign-symmetric, so the terms' sum is the one-expression reward
        // exactly — signed zeros included (all metrics 1 gives −0).
        let values = [0.3f64, 1.0, 1.01, 2.5, 40.0, 1234.5678];
        for &l in &values {
            for &p in &values {
                for &a in &values {
                    let (cl, cp, ca) = (l.max(1.0), p.max(1.0), a.max(1.0));
                    let eq1 = -(cl.ln()) - (cp.ln()) - (ca.ln());
                    let linear = -(cl / 100.0 + cp / 100.0 + ca);
                    let got = reward(RewardKind::LogSpace, l, p, a);
                    assert_eq!(got.to_bits(), eq1.to_bits(), "log ({l}, {p}, {a})");
                    let got = reward(RewardKind::Linear, l, p, a);
                    assert_eq!(got.to_bits(), linear.to_bits(), "linear ({l}, {p}, {a})");
                }
            }
        }
    }

    #[test]
    fn step_traced_matches_step_exactly() {
        let mut plain = QAgent::new(QLearningConfig::default(), 11);
        let mut traced = QAgent::new(QLearningConfig::default(), 11);
        for i in 0..300u64 {
            let reward = -((i % 7) as f64);
            let a = plain.step(StateKey(i % 5), reward);
            let t = traced.step_traced(StateKey(i % 5), reward);
            assert_eq!(a, t.action, "step {i}");
        }
        assert_eq!(plain.explorations(), traced.explorations());
        assert_eq!(plain.table().len(), traced.table().len());
    }

    #[test]
    fn step_trace_reports_update_and_exploration() {
        let cfg = QLearningConfig { epsilon: 0.0, ..QLearningConfig::default() };
        let mut a = QAgent::new(cfg, 12);
        let t0 = a.step_traced(StateKey(0), 0.0);
        assert!(!t0.updated, "first step has nothing to learn from");
        assert_eq!(t0.td_delta, 0.0);
        assert!(!t0.explored);
        let t1 = a.step_traced(StateKey(1), -3.0);
        assert!(t1.updated);
        assert!((t1.td_delta - (-3.0)).abs() < 1e-6, "first visit adopts the target");
        assert_eq!(a.previous(), Some((StateKey(1), t1.action)));

        let mut always = QAgent::new(QLearningConfig { epsilon: 1.0, ..cfg }, 13);
        assert!(always.step_traced(StateKey(0), 0.0).explored);
    }

    #[test]
    fn rewards_are_finite_on_degenerate_inputs() {
        // Zero, negative, and non-finite metrics must never yield NaN: the
        // `.max(1.0)` clamps also normalize NaN (f64::max returns the other
        // operand when one side is NaN).
        let cases = [
            (0.0, 0.0, 0.0),
            (-5.0, -2.0, -1.0),
            (f64::NAN, 1.0, 1.0),
            (1.0, f64::NAN, f64::NAN),
            (-0.0, f64::NEG_INFINITY, 0.5),
        ];
        for (l, p, a) in cases {
            let h = reward(RewardKind::LogSpace, l, p, a);
            assert!(!h.is_nan(), "log-space reward({l}, {p}, {a}) = {h}");
            assert_eq!(h, 0.0, "clamped-to-1 inputs have zero log reward");
            let lin = reward(RewardKind::Linear, l, p, a);
            assert!(!lin.is_nan(), "linear reward({l}, {p}, {a}) = {lin}");
            assert!((lin - (-1.02)).abs() < 1e-12, "clamped linear reward, got {lin}");
        }
        // +inf latency is not NaN but must stay -inf-free after clamping? It
        // legitimately produces -inf in log space; document by assertion.
        assert!(reward(RewardKind::LogSpace, f64::INFINITY, 1.0, 1.0).is_infinite());
    }
}
