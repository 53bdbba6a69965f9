//! Per-control-step metrics time-series.

use serde::{Deserialize, Serialize};

/// One sampled point: the state of the network at the end of a control
/// time step. Rate-like fields are deltas over the step; level-like fields
/// (temperature, aging, power) are instantaneous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSample {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Average packet latency so far (cycles).
    pub avg_latency: f64,
    /// 99th-percentile packet latency so far (cycles).
    pub p99_latency: f64,
    /// Dynamic power over the run so far (mW).
    pub dynamic_power_mw: f64,
    /// Static (leakage) power over the run so far (mW).
    pub static_power_mw: f64,
    /// Mean tile temperature (°C).
    pub mean_temp_c: f64,
    /// Hottest tile temperature (°C).
    pub max_temp_c: f64,
    /// Per-tile temperatures (°C).
    pub tile_temps_c: Vec<f64>,
    /// Mean aging-induced delay factor across routers.
    pub mean_aging_factor: f64,
    /// Mode decisions made this step, per mode index.
    pub mode_histogram: [u64; 5],
    /// Hop-level retransmission events this step.
    pub hop_retx: u64,
    /// End-to-end retransmissions this step.
    pub e2e_retx: u64,
    /// Packets injected this step.
    pub packets_injected: u64,
    /// Packets delivered this step.
    pub packets_delivered: u64,
    /// Packets dropped this step (hard-fault escalation ladder exhausted).
    pub packets_dropped: u64,
    /// Fault-aware detour hops taken this step.
    pub reroutes: u64,
    /// Bit flips injected by the transient-fault injector this step.
    pub injected_bits: u64,
    /// Events the tracer's ring buffer evicted this step (0 when tracing
    /// is off) — makes dropped-event windows visible per step instead of
    /// only in the end-of-run profiler table.
    pub trace_drops: u64,
}

/// The full per-step time-series of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTimeline {
    /// Samples in chronological order, one per control time step.
    pub samples: Vec<TimelineSample>,
}

impl RunTimeline {
    /// Names of the series each sample carries (one per sampled field,
    /// excluding the `cycle` axis).
    pub const SERIES: [&'static str; 17] = [
        "avg_latency",
        "p99_latency",
        "dynamic_power_mw",
        "static_power_mw",
        "mean_temp_c",
        "max_temp_c",
        "tile_temps_c",
        "mean_aging_factor",
        "mode_histogram",
        "hop_retx",
        "e2e_retx",
        "packets_injected",
        "packets_delivered",
        "packets_dropped",
        "reroutes",
        "injected_bits",
        "trace_drops",
    ];

    /// An empty timeline.
    #[must_use]
    pub fn new() -> Self {
        RunTimeline::default()
    }

    /// Appends one sample.
    pub fn push(&mut self, sample: TimelineSample) {
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the timeline holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64) -> TimelineSample {
        TimelineSample {
            cycle,
            avg_latency: 10.0,
            p99_latency: 30.0,
            dynamic_power_mw: 1.5,
            static_power_mw: 0.5,
            mean_temp_c: 55.0,
            max_temp_c: 61.0,
            tile_temps_c: vec![55.0, 61.0],
            mean_aging_factor: 1.01,
            mode_histogram: [4, 0, 0, 0, 0],
            hop_retx: 1,
            e2e_retx: 0,
            packets_injected: 12,
            packets_delivered: 11,
            packets_dropped: 0,
            reroutes: 2,
            injected_bits: 3,
            trace_drops: 7,
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut tl = RunTimeline::new();
        tl.push(sample(1000));
        tl.push(sample(2000));
        let json = serde_json::to_string(&tl).unwrap();
        let back: RunTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tl);
        for series in RunTimeline::SERIES {
            assert!(json.contains(series), "series `{series}` missing from JSON");
        }
    }
}
