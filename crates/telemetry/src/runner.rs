//! Runner-level telemetry: lifecycle events of the host-side execution
//! engine (`noc-runner`), one structured record per experiment-unit state
//! transition.
//!
//! These events describe the *harness*, not the simulated mesh, so they are
//! kept apart from the simulator's [`crate::Event`] stream: they have no
//! cycle timestamps, they are emitted from worker threads in completion
//! order (nondeterministic under `--jobs N`), and they never enter the
//! determinism-checked run artifacts.

use crate::json_str;
use std::fmt::Write as _;

/// One execution-engine lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerEvent {
    /// A unit began running on a worker.
    UnitStarted {
        /// Stable run key.
        key: String,
    },
    /// A unit reached a terminal state.
    UnitFinished {
        /// Stable run key.
        key: String,
        /// Terminal status label (`ok`, `failed`, `timed-out`).
        status: &'static str,
    },
    /// A journaled result was reused instead of re-running the unit.
    UnitResumed {
        /// Stable run key.
        key: String,
        /// Journaled status label.
        status: &'static str,
    },
    /// A unit was not dispatched (unit cap / interrupted run).
    UnitSkipped {
        /// Stable run key.
        key: String,
        /// Why the unit was skipped.
        reason: String,
    },
    /// End-of-run profiler health note: span-stack warning counters and
    /// flight-recorder drops, so profile truncation is visible in the JSONL
    /// log and not just the terminal table.
    ProfileNote {
        /// Scope of the note (run key, or a fleet label like `fleet`).
        key: String,
        /// Span entries folded at the depth cap.
        span_truncations: u64,
        /// Unmatched `span_exit` calls observed.
        unbalanced_exits: u64,
        /// Records the flight recorder's rings evicted (all rings summed);
        /// non-zero means post-mortem bundles are truncated to ring tails.
        recorder_drops: u64,
    },
    /// A post-mortem bundle was dumped for a dying unit.
    PostmortemDumped {
        /// Stable run key.
        key: String,
        /// Bundle cause label (`stall`, `timeout`, `panic`, ...).
        cause: &'static str,
        /// Filesystem path the bundle was written to.
        path: String,
    },
}

impl RunnerEvent {
    /// Event kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            RunnerEvent::UnitStarted { .. } => "unit-started",
            RunnerEvent::UnitFinished { .. } => "unit-finished",
            RunnerEvent::UnitResumed { .. } => "unit-resumed",
            RunnerEvent::UnitSkipped { .. } => "unit-skipped",
            RunnerEvent::ProfileNote { .. } => "profile-note",
            RunnerEvent::PostmortemDumped { .. } => "postmortem-dumped",
        }
    }

    /// The run key the event concerns.
    pub fn key(&self) -> &str {
        match self {
            RunnerEvent::UnitStarted { key, .. }
            | RunnerEvent::UnitFinished { key, .. }
            | RunnerEvent::UnitResumed { key, .. }
            | RunnerEvent::UnitSkipped { key, .. }
            | RunnerEvent::ProfileNote { key, .. }
            | RunnerEvent::PostmortemDumped { key, .. } => key,
        }
    }

    /// Renders the event as one JSON object (JSONL line body).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"event\":\"{}\",\"key\":{}", self.kind(), json_str(self.key()));
        match self {
            RunnerEvent::UnitStarted { .. } => {}
            RunnerEvent::UnitFinished { status, .. } | RunnerEvent::UnitResumed { status, .. } => {
                let _ = write!(s, ",\"status\":\"{status}\"");
            }
            RunnerEvent::UnitSkipped { reason, .. } => {
                let _ = write!(s, ",\"reason\":{}", json_str(reason));
            }
            RunnerEvent::ProfileNote {
                span_truncations, unbalanced_exits, recorder_drops, ..
            } => {
                let _ = write!(
                    s,
                    ",\"span_truncations\":{span_truncations},\
                     \"unbalanced_exits\":{unbalanced_exits},\"recorder_drops\":{recorder_drops}"
                );
            }
            RunnerEvent::PostmortemDumped { cause, path, .. } => {
                let _ = write!(s, ",\"cause\":\"{cause}\",\"path\":{}", json_str(path));
            }
        }
        s.push('}');
        s
    }
}

/// Renders a batch of runner events as JSONL (one event per line).
#[must_use]
pub fn runner_events_jsonl(events: &[RunnerEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_jsonl() {
        let events = vec![
            RunnerEvent::UnitStarted { key: "a/b".into() },
            RunnerEvent::UnitFinished { key: "a/b".into(), status: "ok" },
            RunnerEvent::UnitResumed { key: "a/c".into(), status: "failed" },
            RunnerEvent::UnitSkipped { key: "a/d".into(), reason: "unit cap".into() },
            RunnerEvent::ProfileNote {
                key: "fleet".into(),
                span_truncations: 1,
                unbalanced_exits: 0,
                recorder_drops: 7,
            },
            RunnerEvent::PostmortemDumped {
                key: "a/b".into(),
                cause: "stall",
                path: "/tmp/postmortem-a_b.jsonl".into(),
            },
        ];
        let jsonl = runner_events_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 6);
        assert!(jsonl.contains(r#""event":"profile-note""#));
        assert!(jsonl.contains(
            r#"{"event":"profile-note","key":"fleet","span_truncations":1,"unbalanced_exits":0,"recorder_drops":7}"#
        ));
        assert!(jsonl.contains(r#""recorder_drops":7"#));
        assert!(jsonl.contains(r#""event":"postmortem-dumped""#));
        assert!(jsonl.contains(r#""cause":"stall""#));
        assert!(jsonl.contains(r#"{"event":"unit-started","key":"a/b"}"#));
        assert!(jsonl.contains(r#""event":"unit-finished","key":"a/b","status":"ok"}"#));
        for line in jsonl.lines() {
            let v: serde::Content = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("key").is_some());
        }
    }

    #[test]
    fn kind_and_key_accessors() {
        let e = RunnerEvent::UnitFinished { key: "x".into(), status: "timed-out" };
        assert_eq!(e.kind(), "unit-finished");
        assert_eq!(e.key(), "x");
        assert!(e.to_json().contains("timed-out"));
    }

    #[test]
    fn control_chars_are_escaped() {
        let e = RunnerEvent::UnitSkipped { key: "k".into(), reason: "a\u{1}b\nc".into() };
        let v: serde::Content = serde_json::from_str(&e.to_json()).unwrap();
        assert_eq!(v.get("reason").and_then(serde::Content::as_str), Some("a\u{1}b\nc"));
    }
}
