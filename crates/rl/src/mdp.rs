//! Reference MDPs for validating the Q-learning implementation.
//!
//! These small environments have analytically known optimal policies, so
//! the test suite can check that [`crate::QAgent`] actually converges —
//! independent of the NoC simulator.

use crate::state::StateKey;

/// A deterministic chain MDP with `n` states and 2 actions:
/// action 1 ("right") moves toward the goal at state `n−1`, action 0
/// ("left") moves back toward state 0. Every step costs −1; reaching the
/// goal yields +10 and teleports back to state 0.
///
/// The optimal policy is to always move right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainMdp {
    /// Number of states.
    pub n: usize,
    /// Current state.
    pub state: usize,
}

impl ChainMdp {
    /// Creates a chain of `n ≥ 2` states starting at state 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "chain needs at least 2 states");
        ChainMdp { n, state: 0 }
    }

    /// The current state key.
    pub fn state_key(&self) -> StateKey {
        StateKey(self.state as u64)
    }

    /// Applies `action` (0 = left, 1 = right); returns the reward.
    ///
    /// # Panics
    ///
    /// Panics if `action > 1`.
    pub fn apply(&mut self, action: usize) -> f64 {
        assert!(action <= 1, "chain MDP has 2 actions");
        if action == 1 {
            if self.state + 1 == self.n - 1 {
                self.state = 0;
                return 10.0;
            }
            self.state += 1;
        } else {
            self.state = self.state.saturating_sub(1);
        }
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{QAgent, QLearningConfig};

    #[test]
    fn chain_mechanics() {
        let mut m = ChainMdp::new(4);
        assert_eq!(m.apply(1), -1.0);
        assert_eq!(m.state, 1);
        assert_eq!(m.apply(0), -1.0);
        assert_eq!(m.state, 0);
        m.apply(1);
        m.apply(1);
        assert_eq!(m.state, 2);
        assert_eq!(m.apply(1), 10.0);
        assert_eq!(m.state, 0, "goal teleports home");
    }

    #[test]
    fn qlearning_converges_to_always_right() {
        let cfg = QLearningConfig {
            alpha: 0.2,
            gamma: 0.9,
            epsilon: 0.2,
            actions: 2,
            capacity: 64,
            ..QLearningConfig::default()
        };
        let mut agent = QAgent::new(cfg, 42);
        let mut env = ChainMdp::new(5);
        let mut reward = 0.0;
        for _ in 0..20_000 {
            let a = agent.step(env.state_key(), reward);
            reward = env.apply(a);
        }
        // Greedy policy in every state should now be "right".
        for s in 0..4u64 {
            let (best, _) = agent.table().best_action(StateKey(s));
            assert_eq!(best, 1, "state {s}");
        }
    }

    #[test]
    fn discount_shapes_values_monotonically_toward_goal() {
        let cfg = QLearningConfig {
            alpha: 0.2,
            gamma: 0.9,
            epsilon: 0.2,
            actions: 2,
            capacity: 64,
            ..QLearningConfig::default()
        };
        let mut agent = QAgent::new(cfg, 7);
        let mut env = ChainMdp::new(5);
        let mut reward = 0.0;
        for _ in 0..30_000 {
            let a = agent.step(env.state_key(), reward);
            reward = env.apply(a);
        }
        // Q(s, right) should increase as s approaches the goal.
        let q: Vec<f32> = (0..4u64).map(|s| agent.table().q(StateKey(s), 1)).collect();
        for w in q.windows(2) {
            assert!(w[1] > w[0], "values {q:?} not increasing");
        }
    }
}
