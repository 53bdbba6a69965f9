//! Characterization of the control loop, recorded at commit `8a5cb03`: the
//! exact `ExperimentOutcome` one small run of each kind of policy — static
//! (SECDED under forced errors), CPD's heuristic, IntelliNoC's Q-learning
//! from pre-trained tables — serializes to; the expert rule and the
//! Q-table soft errors were recorded the same way at `d102fed`, and CP and
//! IntelliNoC without the bypass at `850933f`. Every number in the fixtures
//! comes out of `run_experiment_instrumented`'s loop (traffic and agent
//! seeds, the order of observe / charge / decide / apply, `finished`), so a
//! refactor of that loop passes these tests only if it drives the network
//! exactly as before.

use intellinoc::{
    intellinoc_rl_config, pretrain_intellinoc, run_experiment_instrumented, Design,
    ExperimentConfig, ExpertThresholds, RewardKind,
};
use noc_traffic::WorkloadSpec;

/// A run of a few control steps: 20 packets per node at 0.03, step 200.
fn small(design: Design) -> ExperimentConfig {
    ExperimentConfig::new(design, WorkloadSpec::uniform(0.03, 20)).with_seed(11).with_time_step(200)
}

fn outcome_json(cfg: ExperimentConfig) -> String {
    let outcome = run_experiment_instrumented(cfg).0;
    assert!(outcome.finished && outcome.report.stats.cycles > 600, "several control steps");
    serde_json::to_string(&outcome).expect("an outcome serializes") + "\n"
}

#[test]
fn static_policy_outcome_is_pinned() {
    let mut cfg = small(Design::Secded);
    cfg.error_rate_override = Some(1e-4);
    assert_eq!(outcome_json(cfg), include_str!("fixtures/outcome_secded.json"));
}

#[test]
fn cpd_heuristic_outcome_is_pinned() {
    let mut cfg = small(Design::Cpd);
    cfg.error_rate_override = Some(1e-4);
    assert_eq!(outcome_json(cfg), include_str!("fixtures/outcome_cpd.json"));
}

#[test]
fn pretrained_rl_outcome_is_pinned() {
    let mut cfg = small(Design::IntelliNoc);
    cfg.pretrained =
        Some(pretrain_intellinoc(intellinoc_rl_config(), RewardKind::LogSpace, 4, 200, 3, 1));
    let json = outcome_json(cfg);
    assert!(!json.contains("\"mode_histogram\":[0,0,0,0,0]"), "the agents decided");
    assert_eq!(json, include_str!("fixtures/outcome_intellinoc.json"));
}

/// The same run under the hand-written threshold rule instead of the
/// design's agents (the `expert_vs_rl` study's second policy).
#[test]
fn expert_policy_outcome_is_pinned() {
    let mut cfg = small(Design::IntelliNoc);
    cfg.expert = Some(ExpertThresholds::default());
    let json = outcome_json(cfg);
    assert!(json.contains("\"mean_qtable_entries\":0.0"), "a rule reads no Q-table");
    assert_eq!(json, include_str!("fixtures/outcome_expert.json"));
}

/// The pre-trained run of `pretrained_rl_outcome_is_pinned` with soft errors
/// in its Q-tables: the `qtable_faults` study's corruption (seed 99, drawn
/// over each table's sorted states) at 2.0 bit flips per stored entry per
/// control step.
#[test]
fn qtable_soft_errors_outcome_is_pinned() {
    let mut cfg = small(Design::IntelliNoc);
    cfg.pretrained =
        Some(pretrain_intellinoc(intellinoc_rl_config(), RewardKind::LogSpace, 4, 200, 3, 1));
    cfg.qtable_flips = 2.0;
    let json = outcome_json(cfg);
    assert_ne!(json, include_str!("fixtures/outcome_intellinoc.json"), "the flips moved the run");
    assert_eq!(json, include_str!("fixtures/outcome_qtable_faults.json"));
}

/// CP under forced errors: a reactively gated router that wakes on the first
/// flit in its channel, and a bypass latch that stops while the router wakes.
/// The NACK re-reads come from router buffers.
#[test]
fn cp_outcome_is_pinned() {
    let mut cfg = small(Design::Cp);
    cfg.error_rate_override = Some(1e-4);
    assert_eq!(outcome_json(cfg), include_str!("fixtures/outcome_cp.json"));
}

/// The pre-trained run of `pretrained_rl_outcome_is_pinned` under forced
/// errors with ablation D2's tweak: IntelliNoC's routers without the bypass,
/// so a gated router wakes for any inbound flit. The agents keep nearly
/// every router in mode 1 (CRC only), so the errors come back as end-to-end
/// retransmissions rather than per-hop NACKs.
#[test]
fn no_bypass_intellinoc_outcome_is_pinned() {
    let mut cfg = small(Design::IntelliNoc);
    cfg.pretrained =
        Some(pretrain_intellinoc(intellinoc_rl_config(), RewardKind::LogSpace, 4, 200, 3, 1));
    cfg.error_rate_override = Some(1e-4);
    cfg.tweak = Some(|c| c.bypass_enabled = false);
    assert_eq!(outcome_json(cfg), include_str!("fixtures/outcome_no_bypass.json"));
}
