//! Run-time control policies for the compared designs.
//!
//! * [`ControlPolicy::Static`] — fixed directives (SECDED baseline, EB, CP).
//! * [`ControlPolicy::CpdHeuristic`] — CPD's reactive rule (paper §6.3): at
//!   each time step, pick the ECC scheme matching the most common error
//!   multiplicity observed in the previous step.
//! * [`ControlPolicy::Rl`] — IntelliNoC's per-router Q-learning agents
//!   selecting one of the five operation modes.
//! * [`ControlPolicy::Expert`] — a hand-written threshold rule selecting
//!   among the same five modes (the manual baseline of ablation D4b).

use crate::expert::{expert_decide, ExpertThresholds};
use crate::modes::OperationMode;
use noc_ecc::EccScheme;
pub use noc_rl::RewardKind;
use noc_rl::{Discretizer, QAgent, QLearningConfig, QTable, StateKey};
use noc_sim::{
    ConvergenceSample, DecisionLog, DecisionRecord, Event, RouterDirective, RouterObservation,
    Tracer,
};
use rand::{rngs::SmallRng, Rng};

/// Latency (cycles) charged for a control step in which no packet completed
/// anywhere while traffic was outstanding — a stalled network.
const STALL_LATENCY: f64 = 4_000.0;

/// The paper's RL configuration for IntelliNoC: α = 0.1, γ = 0.9, ε = 0.05,
/// 5 actions, 350-entry tables, mode 1 as the default action for unseen
/// states, and Q-init near the converged value of the log-space reward
/// (r ≈ −6 per step at γ = 0.9 ⇒ Q\* ≈ −60).
pub fn intellinoc_rl_config() -> QLearningConfig {
    QLearningConfig { q_init: -60.0, default_action: 1, ..QLearningConfig::default() }
}

/// The per-router RL controller bank for an IntelliNoC network.
#[derive(Debug)]
pub struct RlControl {
    agents: Vec<QAgent>,
    discretizer: Discretizer,
    reward_kind: RewardKind,
    /// Router-steps spent in each operation mode (Fig. 14).
    mode_histogram: [u64; 5],
    last_modes: Vec<OperationMode>,
    /// Per-decision introspection log, populated only when enabled.
    decision_log: Option<DecisionLog>,
}

impl RlControl {
    /// Creates one agent per router.
    pub fn new(routers: usize, cfg: QLearningConfig, seed: u64, reward_kind: RewardKind) -> Self {
        RlControl {
            agents: (0..routers).map(|r| QAgent::new(cfg, seed.wrapping_add(r as u64))).collect(),
            discretizer: Discretizer::paper_default(),
            reward_kind,
            mode_histogram: [0; 5],
            last_modes: vec![OperationMode::BasicCrc; routers],
            decision_log: None,
        }
    }

    /// Starts recording one [`DecisionRecord`] per agent decision plus a
    /// per-step [`ConvergenceSample`]. Costs one Q-row read per decision;
    /// leave disabled for performance runs.
    pub fn enable_decision_log(&mut self) {
        self.decision_log = Some(DecisionLog::default());
    }

    /// The decision log recorded so far, if enabled.
    pub fn decision_log(&self) -> Option<&DecisionLog> {
        self.decision_log.as_ref()
    }

    /// Takes the decision log, disabling further recording.
    pub fn take_decision_log(&mut self) -> Option<DecisionLog> {
        self.decision_log.take()
    }

    /// Loads pre-trained Q-tables (paper §6.3: pre-training on
    /// blackscholes).
    ///
    /// # Panics
    ///
    /// Panics if `tables.len()` differs from the number of agents.
    pub fn load_tables(&mut self, tables: Vec<QTable>) {
        assert_eq!(tables.len(), self.agents.len(), "one table per agent");
        for (agent, table) in self.agents.iter_mut().zip(tables) {
            agent.load_table(table);
        }
    }

    /// Clones out the current Q-tables.
    pub fn tables(&self) -> Vec<QTable> {
        self.agents.iter().map(|a| a.table_clone()).collect()
    }

    /// Soft errors in every agent's live Q-table: `flips_per_entry` × its
    /// stored entries (rounded) bit flips, each at a state, action and bit
    /// drawn from `rng` — states from the sorted list, since a table
    /// iterates in hash order, which differs per process.
    pub fn inject_soft_errors(&mut self, flips_per_entry: f64, rng: &mut SmallRng) {
        for table in self.agents.iter_mut().map(QAgent::table_mut) {
            let mut states: Vec<StateKey> = table.states().collect();
            states.sort_unstable();
            let n_flips = (flips_per_entry * states.len() as f64).round() as usize;
            for _ in 0..n_flips {
                let s = states[rng.gen_range(0..states.len())];
                let action = rng.gen_range(0..5);
                let bit = rng.gen_range(0..32);
                table.inject_bit_flip(s, action, bit);
            }
        }
    }

    /// Mean number of Q-table entries across routers (paper §7.4 reports
    /// < 300 visited states).
    pub fn mean_table_entries(&self) -> f64 {
        self.agents.iter().map(|a| a.table().len() as f64).sum::<f64>()
            / self.agents.len().max(1) as f64
    }

    /// Router-steps spent per operation mode so far.
    pub fn mode_histogram(&self) -> [u64; 5] {
        self.mode_histogram
    }

    /// One control step: learn from the last step's rewards, pick modes.
    ///
    /// The per-router latency term is the sender-side average latency of the
    /// router's own completed packets. A router whose packets did not
    /// complete this step cannot observe `0` latency (that would reward
    /// congestion precisely when it is worst); it falls back to the
    /// network-wide step average, and if *nothing* completed network-wide
    /// the step is treated as a stall with a large latency penalty.
    pub fn decide(&mut self, observations: &[RouterObservation]) -> Vec<RouterDirective> {
        self.decide_traced(observations, 0, None)
    }

    /// Like [`RlControl::decide`], additionally emitting one `QUpdate` event
    /// per agent (discretized state, chosen action, observed reward) and a
    /// `ModeSwitch` event for every router whose mode changed, stamped at
    /// `cycle`, when a tracer is supplied.
    pub fn decide_traced(
        &mut self,
        observations: &[RouterObservation],
        cycle: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<RouterDirective> {
        debug_assert_eq!(observations.len(), self.agents.len());
        let total_pkts: u64 = observations.iter().map(|o| o.ejected_packets).sum();
        let net_latency = if total_pkts > 0 {
            observations.iter().map(|o| o.avg_latency * o.ejected_packets as f64).sum::<f64>()
                / total_pkts as f64
        } else {
            STALL_LATENCY
        };
        let mut explorations = 0u64;
        let mut updates = 0u64;
        let mut td_abs_sum = 0.0f64;
        let directives: Vec<RouterDirective> = observations
            .iter()
            .zip(self.agents.iter_mut())
            .enumerate()
            .map(|(r, (obs, agent))| {
                let latency = if obs.ejected_packets > 0 { obs.avg_latency } else { net_latency };
                // The paper's three terms, kept apart so the decision log
                // shows *why* an action scored what it did.
                let [rl, rp, ra] =
                    self.reward_kind.terms(latency, obs.avg_power_mw, obs.aging_factor);
                let reward = rl + rp + ra;
                let key = self.discretizer.key(&obs.features);
                let trace = agent.step_traced(key, reward);
                let action = trace.action;
                if let Some(log) = self.decision_log.as_mut() {
                    let q_row = std::array::from_fn(|a| agent.table().q(key, a));
                    log.records.push(DecisionRecord {
                        cycle,
                        router: r as u32,
                        state: key.0,
                        q_row,
                        action: action as u8,
                        explored: trace.explored,
                        reward,
                        reward_latency: rl,
                        reward_power: rp,
                        reward_aging: ra,
                    });
                    if trace.explored {
                        explorations += 1;
                    }
                    if trace.updated {
                        updates += 1;
                        td_abs_sum += f64::from(trace.td_delta.abs());
                    }
                }
                let mode = OperationMode::from_action(action);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(Event::QUpdate {
                        cycle,
                        router: r as u32,
                        state: key.0,
                        action: action as u8,
                        reward,
                    });
                    let prev = self.last_modes[r];
                    if prev != mode {
                        t.record(Event::ModeSwitch {
                            cycle,
                            router: r as u32,
                            from: prev.action() as u8,
                            to: action as u8,
                        });
                    }
                }
                self.mode_histogram[action] += 1;
                self.last_modes[r] = mode;
                mode.directive()
            })
            .collect();
        let mean_entries =
            if self.decision_log.is_some() { self.mean_table_entries() } else { 0.0 };
        if let Some(log) = self.decision_log.as_mut() {
            log.convergence.push(ConvergenceSample {
                cycle,
                decisions: directives.len() as u64,
                explorations,
                updates,
                mean_abs_td: if updates > 0 { td_abs_sum / updates as f64 } else { 0.0 },
                mean_table_entries: mean_entries,
            });
        }
        directives
    }

    /// The mode each router is currently running.
    pub fn last_modes(&self) -> &[OperationMode] {
        &self.last_modes
    }
}

/// Consecutive error-free steps before CPD drops to CRC-only protection.
const CPD_CLEAN_STREAK: u32 = 3;

/// CPD's heuristic: per router, choose the ECC scheme matching the most
/// common error multiplicity seen in the previous time step (paper §6.3).
/// `clean_streaks` adds hysteresis: only a sustained error-free spell drops
/// protection to CRC-only (otherwise one quiet step would strip ECC from a
/// hot router).
pub fn cpd_decide(
    observations: &[RouterObservation],
    clean_streaks: &mut [u32],
) -> Vec<RouterDirective> {
    debug_assert_eq!(observations.len(), clean_streaks.len());
    observations
        .iter()
        .zip(clean_streaks.iter_mut())
        .map(|(obs, streak)| {
            let h = obs.error_hist;
            let scheme = if h[1] == 0 && h[2] == 0 && h[3] == 0 {
                *streak = streak.saturating_add(1);
                if *streak >= CPD_CLEAN_STREAK {
                    EccScheme::None // e2e CRC only
                } else {
                    EccScheme::Secded
                }
            } else {
                *streak = 0;
                if h[1] >= h[2] && h[1] >= h[3] {
                    EccScheme::Secded
                } else {
                    EccScheme::Dected
                }
            };
            RouterDirective { gate: None, scheme, relaxed: false }
        })
        .collect()
}

/// A design's run-time control policy.
#[derive(Debug)]
pub enum ControlPolicy {
    /// No run-time adaptation.
    Static,
    /// CPD's previous-step error-histogram heuristic (per-router clean-step
    /// streaks for hysteresis).
    CpdHeuristic(Vec<u32>),
    /// IntelliNoC's per-router Q-learning.
    Rl(Box<RlControl>),
    /// The hand-written threshold rule over the same observations (ablation
    /// D4b), with the router-steps it has spent in each operation mode.
    Expert(ExpertThresholds, [u64; 5]),
}

impl ControlPolicy {
    /// One control step; `None` means "leave directives unchanged". RL
    /// policies emit `QUpdate` and `ModeSwitch` events into `tracer` stamped
    /// at `cycle`.
    pub fn decide_traced(
        &mut self,
        observations: &[RouterObservation],
        cycle: u64,
        tracer: Option<&mut Tracer>,
    ) -> Option<Vec<RouterDirective>> {
        match self {
            ControlPolicy::Static => None,
            ControlPolicy::CpdHeuristic(streaks) => {
                if streaks.len() != observations.len() {
                    streaks.resize(observations.len(), 0);
                }
                Some(cpd_decide(observations, streaks))
            }
            ControlPolicy::Rl(rl) => Some(rl.decide_traced(observations, cycle, tracer)),
            ControlPolicy::Expert(thresholds, histogram) => {
                Some(expert_decide(thresholds, observations, histogram))
            }
        }
    }

    /// RL decision-energy events per step (0 for non-RL policies: a rule
    /// reads no Q-table).
    pub fn decisions_per_step(&self, routers: usize) -> u64 {
        match self {
            ControlPolicy::Rl(_) => routers as u64,
            ControlPolicy::Static | ControlPolicy::CpdHeuristic(_) | ControlPolicy::Expert(..) => 0,
        }
    }

    /// Router-steps spent in each operation mode so far (all zero for the
    /// policies that do not pick modes).
    pub fn mode_histogram(&self) -> [u64; 5] {
        match self {
            ControlPolicy::Rl(rl) => rl.mode_histogram(),
            ControlPolicy::Expert(_, histogram) => *histogram,
            ControlPolicy::Static | ControlPolicy::CpdHeuristic(_) => [0; 5],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(router: usize, hist: [u64; 4]) -> RouterObservation {
        RouterObservation {
            router,
            features: [0.1; 16],
            avg_latency: 20.0,
            ejected_packets: 5,
            avg_power_mw: 40.0,
            aging_factor: 1.01,
            temperature_c: 60.0,
            error_hist: hist,
            retransmissions: 0,
            gated_fraction: 0.0,
        }
    }

    #[test]
    fn cpd_chooses_by_error_multiplicity() {
        let o = [
            obs(0, [100, 0, 0, 0]),
            obs(1, [90, 9, 1, 0]),
            obs(2, [80, 3, 9, 1]),
            obs(3, [80, 0, 0, 5]),
        ];
        let mut streaks = vec![CPD_CLEAN_STREAK; 4]; // past the hysteresis
        let d = cpd_decide(&o, &mut streaks);
        assert_eq!(d[0].scheme, EccScheme::None);
        assert_eq!(d[1].scheme, EccScheme::Secded);
        assert_eq!(d[2].scheme, EccScheme::Dected);
        assert_eq!(d[3].scheme, EccScheme::Dected);
        assert!(d.iter().all(|x| x.gate.is_none() && !x.relaxed));
    }

    #[test]
    fn rl_control_produces_valid_directives_and_counts_modes() {
        let mut rl = RlControl::new(4, QLearningConfig::default(), 1, RewardKind::LogSpace);
        let observations: Vec<_> = (0..4).map(|r| obs(r, [10, 0, 0, 0])).collect();
        let d1 = rl.decide(&observations);
        assert_eq!(d1.len(), 4);
        let _ = rl.decide(&observations);
        assert_eq!(rl.mode_histogram().iter().sum::<u64>(), 8);
        assert_eq!(rl.last_modes().len(), 4);
    }

    #[test]
    fn mode_histogram_starts_empty_and_sums_to_decisions() {
        let mut rl = RlControl::new(8, QLearningConfig::default(), 21, RewardKind::LogSpace);
        assert_eq!(rl.mode_histogram(), [0; 5], "fresh controller has made no decisions");
        let observations: Vec<_> = (0..8).map(|r| obs(r, [5, 1, 0, 0])).collect();
        for _ in 0..10 {
            rl.decide(&observations);
        }
        let hist = rl.mode_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 80, "one histogram count per router-decision");
        // Every bucket maps back to a valid operation mode.
        for (action, _count) in hist.iter().enumerate() {
            assert!(OperationMode::from_action(action).action() == action);
        }
    }

    #[test]
    fn degenerate_observations_stay_finite() {
        // Zero / negative latency, power, and aging must clamp to 1.0 and
        // never reach the agents as NaN or -inf (satellite: reward edge
        // cases at the controller level).
        for kind in [RewardKind::LogSpace, RewardKind::Linear] {
            let mut rl = RlControl::new(2, QLearningConfig::default(), 5, kind);
            rl.enable_decision_log();
            let mut bad = obs(0, [0; 4]);
            bad.avg_latency = 0.0;
            bad.avg_power_mw = -7.5;
            bad.aging_factor = -1.0;
            let mut worse = obs(1, [0; 4]);
            worse.avg_latency = -100.0;
            worse.ejected_packets = 0; // falls back to net latency
            worse.avg_power_mw = 0.0;
            worse.aging_factor = 0.0;
            let d = rl.decide_traced(&[bad, worse], 1000, None);
            assert_eq!(d.len(), 2);
            let log = rl.take_decision_log().expect("log enabled");
            for rec in &log.records {
                assert!(rec.reward.is_finite(), "reward must be finite, got {}", rec.reward);
                assert!(rec.reward_latency.is_finite());
                assert!(rec.reward_power.is_finite());
                assert!(rec.reward_aging.is_finite());
            }
        }
    }

    #[test]
    fn decision_log_reproduces_controller_choices() {
        let mut rl = RlControl::new(4, intellinoc_rl_config(), 77, RewardKind::LogSpace);
        rl.enable_decision_log();
        let observations: Vec<_> = (0..4).map(|r| obs(r, [8, 2, 0, 0])).collect();
        for step in 0..25 {
            rl.decide_traced(&observations, step * 1000, None);
        }
        let hist = rl.mode_histogram();
        let last: Vec<_> = rl.last_modes().to_vec();
        let log = rl.take_decision_log().expect("log enabled");
        assert_eq!(log.len(), 100, "25 steps x 4 routers");
        assert_eq!(
            log.action_counts(),
            hist,
            "decision log action counts must reproduce the mode histogram"
        );
        // The final logged action per router matches the controller's
        // last-mode state.
        for (r, &mode) in last.iter().enumerate() {
            let rec = log
                .records
                .iter()
                .rev()
                .find(|d| d.router == r as u32)
                .expect("every router decided");
            assert_eq!(OperationMode::from_action(rec.action as usize), mode);
        }
        // Convergence samples: one per step, decisions add up, TD stats are
        // finite once learning starts.
        assert_eq!(log.convergence.len(), 25);
        assert!(log.convergence.iter().all(|c| c.decisions == 4));
        assert!(log.convergence.iter().skip(1).all(|c| c.updates == 4));
        assert!(log.convergence.iter().all(|c| c.mean_abs_td.is_finite()));
        assert!(log.convergence.last().unwrap().mean_table_entries >= 1.0);
    }

    #[test]
    fn decision_logging_does_not_change_the_policy() {
        // Same seeds, same observations: a logging controller and a plain
        // one must pick identical mode sequences (step_traced preserves the
        // agents' RNG stream).
        let observations: Vec<_> = (0..4).map(|r| obs(r, [6, 1, 1, 0])).collect();
        let mut plain = RlControl::new(4, intellinoc_rl_config(), 123, RewardKind::LogSpace);
        let mut logged = RlControl::new(4, intellinoc_rl_config(), 123, RewardKind::LogSpace);
        logged.enable_decision_log();
        for step in 0..40 {
            let a = plain.decide_traced(&observations, step, None);
            let b = logged.decide_traced(&observations, step, None);
            assert_eq!(a, b, "directives diverged at step {step}");
        }
        assert_eq!(plain.mode_histogram(), logged.mode_histogram());
        assert_eq!(plain.last_modes(), logged.last_modes());
    }

    #[test]
    fn rl_reward_uses_log_space() {
        let rl = RlControl::new(1, QLearningConfig::default(), 1, RewardKind::LogSpace);
        let o = obs(0, [0; 4]);
        let [l, p, a] = rl.reward_kind.terms(o.avg_latency, o.avg_power_mw, o.aging_factor);
        let r = l + p + a;
        let expect = -(20.0f64.ln() + 40.0f64.ln() + 1.01f64.ln());
        assert!((r - expect).abs() < 1e-12);
    }

    #[test]
    fn pretrained_tables_roundtrip() {
        let mut rl = RlControl::new(2, QLearningConfig::default(), 3, RewardKind::LogSpace);
        let observations: Vec<_> = (0..2).map(|r| obs(r, [0; 4])).collect();
        for _ in 0..5 {
            rl.decide(&observations);
        }
        let tables = rl.tables();
        let mut fresh = RlControl::new(2, QLearningConfig::default(), 9, RewardKind::LogSpace);
        fresh.load_tables(tables);
        assert!(fresh.mean_table_entries() >= 1.0);
    }

    #[test]
    fn static_policy_is_none() {
        let mut p = ControlPolicy::Static;
        assert!(p.decide_traced(&[], 0, None).is_none());
        assert_eq!(p.decisions_per_step(64), 0);
        let rl = ControlPolicy::Rl(Box::new(RlControl::new(
            64,
            QLearningConfig::default(),
            1,
            RewardKind::LogSpace,
        )));
        assert_eq!(rl.decisions_per_step(64), 64);
    }
}
