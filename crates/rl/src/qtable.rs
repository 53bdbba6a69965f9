//! Capacity-bounded tabular Q-value storage.
//!
//! The paper (§7.4) observes that although the nominal state space is 5¹⁶,
//! the states actually visited during execution number only a few hundred,
//! and provisions a 350-entry hardware Q-table per router. This table
//! mirrors that: a hash map bounded at a fixed capacity with
//! least-recently-used eviction, so the model honestly pays the paper's
//! hardware constraint.

use crate::state::StateKey;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The paper's per-router Q-table capacity.
pub const PAPER_QTABLE_CAPACITY: usize = 350;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    q: Vec<f32>,
    visits: Vec<u32>,
    last_used: u64,
}

/// A bounded state–action value table. Its JSON encoding lists the entries
/// in key order, so equal tables encode to equal bytes.
///
/// # Examples
///
/// ```
/// use noc_rl::{QTable, StateKey};
///
/// let mut table = QTable::new(5, 350);
/// let s = StateKey(1);
/// table.nudge(s, 2, 1.0, 0.1); // move Q(s,2) toward 1.0 with alpha=0.1
/// assert_eq!(table.best_action(s).0, 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QTable {
    actions: usize,
    capacity: usize,
    init: f32,
    entries: HashMap<u64, Entry>,
    clock: u64,
    evictions: u64,
}

impl QTable {
    /// Creates a table for `actions` actions bounded at `capacity` states.
    ///
    /// # Panics
    ///
    /// Panics if `actions` or `capacity` is zero.
    pub fn new(actions: usize, capacity: usize) -> Self {
        Self::with_init(actions, capacity, 0.0)
    }

    /// Creates a table whose entries start at `init` for every action when a
    /// state is first visited. With the paper's negative log-space rewards,
    /// an `init` near the converged value avoids spending the whole (short)
    /// run on optimistic-initialization exploration.
    ///
    /// # Panics
    ///
    /// Panics if `actions` or `capacity` is zero.
    pub fn with_init(actions: usize, capacity: usize, init: f32) -> Self {
        assert!(actions > 0, "need at least one action");
        assert!(capacity > 0, "capacity must be nonzero");
        QTable { actions, capacity, init, entries: HashMap::new(), clock: 0, evictions: 0 }
    }

    /// Whether the table holds an entry for `state`.
    pub fn contains(&self, state: StateKey) -> bool {
        self.entries.contains_key(&state.0)
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Number of distinct states currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of LRU evictions that have occurred.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Q-value of `(state, action)`; unseen entries are 0.
    ///
    /// # Panics
    ///
    /// Panics if `action >= self.actions()`.
    pub fn q(&self, state: StateKey, action: usize) -> f32 {
        assert!(action < self.actions, "action {action} out of range");
        self.entries.get(&state.0).map_or(0.0, |e| e.q[action])
    }

    /// Greedy action and its value for `state` (ties break toward the lowest
    /// action index; unseen states return action 0 with value 0).
    pub fn best_action(&self, state: StateKey) -> (usize, f32) {
        match self.entries.get(&state.0) {
            None => (0, 0.0),
            Some(e) => {
                let mut best = 0;
                for a in 1..self.actions {
                    if e.q[a] > e.q[best] {
                        best = a;
                    }
                }
                (best, e.q[best])
            }
        }
    }

    /// Maximum Q-value over actions for `state` (0 for unseen states).
    pub fn max_q(&self, state: StateKey) -> f32 {
        self.best_action(state).1
    }

    /// Moves `Q(state, action)` toward `target` by learning rate `alpha`:
    /// the temporal-difference assignment
    /// `Q ← (1−α)·Q + α·target` (paper Eq. 2 with `target = r + γ·max Q'`).
    ///
    /// Touching a state refreshes its LRU stamp; inserting beyond capacity
    /// evicts the least-recently-used state.
    ///
    /// # Panics
    ///
    /// Panics if `action >= self.actions()`.
    pub fn nudge(&mut self, state: StateKey, action: usize, target: f32, alpha: f32) {
        assert!(action < self.actions, "action {action} out of range");
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&state.0) {
            e.visits[action] = e.visits[action].saturating_add(1);
            // Count-based schedule (the paper notes α can be reduced over
            // time): the first sample of a (state, action) pair replaces the
            // synthetic initialization outright, later samples average in.
            let a = alpha.max(1.0 / e.visits[action] as f32);
            e.q[action] = (1.0 - a) * e.q[action] + a * target;
            e.last_used = clock;
            return;
        }
        if self.entries.len() >= self.capacity {
            // Evict the LRU entry. Linear scan is fine at capacity 350.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        let mut q = vec![self.init; self.actions];
        q[action] = target; // first visit: adopt the sample outright
        let mut visits = vec![0u32; self.actions];
        visits[action] = 1;
        self.entries.insert(state.0, Entry { q, visits, last_used: clock });
    }

    /// Marks `state` as recently used without modifying values (lookup
    /// traffic also refreshes the hardware table's recency state).
    pub fn touch(&mut self, state: StateKey) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&state.0) {
            e.last_used = clock;
        }
    }

    /// Number of recorded visits of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action >= self.actions()`.
    pub fn visits(&self, state: StateKey, action: usize) -> u32 {
        assert!(action < self.actions, "action {action} out of range");
        self.entries.get(&state.0).map_or(0, |e| e.visits[action])
    }

    /// Iterator over stored states.
    pub fn states(&self) -> impl Iterator<Item = StateKey> + '_ {
        self.entries.keys().map(|&k| StateKey(k))
    }

    /// Flips one bit of the stored Q-value of `(state, action)` — a soft
    /// error in the hardware Q-table (the paper's §6 future work: "faults in
    /// the ... state-action table"). No-op for unseen states. Returns
    /// whether a value was corrupted.
    ///
    /// # Panics
    ///
    /// Panics if `action >= self.actions()` or `bit >= 32`.
    pub fn inject_bit_flip(&mut self, state: StateKey, action: usize, bit: u32) -> bool {
        assert!(action < self.actions, "action {action} out of range");
        assert!(bit < 32, "f32 has 32 bits");
        match self.entries.get_mut(&state.0) {
            Some(e) => {
                let raw = e.q[action].to_bits() ^ (1 << bit);
                let v = f32::from_bits(raw);
                // A flipped exponent bit can produce NaN/inf; hardware
                // comparators would still compare the raw patterns, and the
                // TD update would wash the entry out; keep the raw value but
                // guard NaN (which would poison max()).
                e.q[action] = if v.is_nan() { f32::MAX } else { v };
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_state_defaults() {
        let t = QTable::new(5, 10);
        assert_eq!(t.q(StateKey(7), 3), 0.0);
        assert_eq!(t.best_action(StateKey(7)), (0, 0.0));
    }

    #[test]
    fn nudge_first_sample_adopts_then_averages() {
        let mut t = QTable::new(3, 10);
        let s = StateKey(1);
        t.nudge(s, 1, 10.0, 0.5);
        assert_eq!(t.q(s, 1), 10.0, "first visit adopts the target");
        t.nudge(s, 1, 0.0, 0.5);
        assert_eq!(t.q(s, 1), 5.0, "second visit uses alpha=0.5");
        assert_eq!(t.best_action(s), (1, 5.0));
        assert_eq!(t.visits(s, 1), 2);
        assert_eq!(t.visits(s, 0), 0);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let mut t = QTable::new(2, 3);
        for i in 0..3u64 {
            t.nudge(StateKey(i), 0, 1.0, 1.0);
        }
        assert_eq!(t.len(), 3);
        // Touch state 0 so state 1 becomes the LRU victim.
        t.touch(StateKey(0));
        t.nudge(StateKey(99), 0, 1.0, 1.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.q(StateKey(1), 0), 0.0, "state 1 evicted");
        assert_eq!(t.q(StateKey(0), 0), 1.0, "state 0 retained");
        assert_eq!(t.q(StateKey(99), 0), 1.0);
    }

    #[test]
    fn negative_values_supported() {
        // The paper's reward is negative (−log terms), so Q-values are
        // negative; best_action must still pick the least negative.
        let mut t = QTable::new(3, 10);
        let s = StateKey(4);
        t.nudge(s, 0, -10.0, 1.0);
        t.nudge(s, 1, -2.0, 1.0);
        t.nudge(s, 2, -5.0, 1.0);
        assert_eq!(t.best_action(s).0, 1);
    }

    #[test]
    fn ties_break_low() {
        let mut t = QTable::new(4, 10);
        let s = StateKey(8);
        t.nudge(s, 2, 0.0, 1.0); // all zero
        assert_eq!(t.best_action(s).0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn action_bounds_checked() {
        let t = QTable::new(2, 2);
        let _ = t.q(StateKey(0), 2);
    }
}
