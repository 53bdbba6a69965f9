//! Run-level statistics, control-policy observations, and final reports.

use crate::latency::LatencyHistogram;
use noc_power::PowerReport;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Packets injected by the workload (first transmissions only).
    pub packets_injected: u64,
    /// Packets delivered (final, successful deliveries).
    pub packets_delivered: u64,
    /// Sum of end-to-end packet latencies (cycles).
    pub latency_sum: u64,
    /// Maximum end-to-end packet latency.
    pub latency_max: u64,
    /// Flits re-transmitted, per-hop NACKs and end-to-end retries combined
    /// (Fig. 15 metric).
    pub retransmitted_flits: u64,
    /// Per-hop re-transmission events (subset of the above).
    pub hop_retx_events: u64,
    /// End-to-end packet retries.
    pub e2e_retx_packets: u64,
    /// Bit errors corrected by per-hop ECC.
    pub corrected_bits: u64,
    /// Traversals with at least one injected bit flip.
    pub faulty_traversals: u64,
    /// Packets delivered with undetected corruption (silent data corruption).
    pub corrupted_packets: u64,
    /// Packets dropped after exhausting the retransmission escalation
    /// ladder or losing their route to a hard fault (accounted loss).
    pub packets_dropped: u64,
    /// Hops where fault-aware routing chose a non-XY port to detour around
    /// a hard fault (head flits only).
    pub reroutes: u64,
    /// Cycle of the last packet delivery (execution time).
    pub last_delivery: u64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Sum over routers of cycles spent power-gated.
    pub gated_router_cycles: u64,
    /// Latency distribution of delivered packets.
    pub latency_hist: LatencyHistogram,
}

impl NetworkStats {
    /// Average end-to-end packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets_delivered as f64
        }
    }

    /// Latency (cycles) at quantile `q` (e.g. 0.99 for the p99 tail).
    pub fn latency_percentile(&self, q: f64) -> f64 {
        self.latency_hist.percentile(q)
    }

    /// Fraction of injected packets delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_injected == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / self.packets_injected as f64
        }
    }
}

/// Transaction-layer summary of a closed-loop (request–reply) run: the
/// conservation auditor's view, aggregated across nodes. `violations` is
/// the summed per-node conservation error `|issued − (completed + failed +
/// shed + in_flight)|`, and `orphans` names every transaction id that
/// vanished without terminal accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnSummary {
    /// Transactions issued (shed candidates included).
    pub issued: u64,
    /// Transactions whose full reply was delivered.
    pub completed: u64,
    /// Transactions that exhausted their retry budget.
    pub failed: u64,
    /// Transactions shed by admission control before injection.
    pub shed: u64,
    /// Transactions still open at the end of the simulated interval.
    pub in_flight: u64,
    /// Attempt timeouts (several per transaction when it retries).
    pub timeouts: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Median transaction completion time (first issue → reply delivered,
    /// cycles; 0 when nothing completed). Nearest-rank percentile.
    pub p50_completion: u64,
    /// 99th-percentile transaction completion time (cycles; 0 when nothing
    /// completed). Nearest-rank percentile — the closed-loop tail the
    /// journey tail report explains.
    pub p99_completion: u64,
    /// Summed per-node conservation error; zero iff the invariant holds.
    pub violations: u64,
    /// Transaction ids missing from the transaction table.
    pub orphans: Vec<u64>,
}

/// Structured diagnostic produced by the stall watchdog when the network
/// makes zero forward progress (no deliveries, no drops) over a full
/// watchdog window while packets are in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallReport {
    /// Cycle the watchdog fired.
    pub cycle: u64,
    /// Watchdog window length in cycles.
    pub window: u64,
    /// Packets in flight (injected − delivered − dropped) at the stall.
    pub in_flight: u64,
    /// Human-readable descriptions of the first few blocked flits (from
    /// `network/fabric.rs`'s `snapshot_blocked`).
    pub blocked: Vec<String>,
    /// Full network state dump (from `snapshot_dump`, same file).
    pub dump: String,
}

/// Observation of one router over the last control time step — the RL state
/// features (paper Fig. 7) plus the reward ingredients and the error
/// histogram used by the CPD heuristic.
#[derive(Debug, Clone)]
pub struct RouterObservation {
    /// Router/node index.
    pub router: usize,
    /// The paper's 16 state features: 5 input-link utilizations, 5 buffer
    /// utilizations, 5 output-link utilizations, temperature (°C).
    pub features: [f64; 16],
    /// Mean end-to-end latency of packets this router's node *sent* that
    /// were delivered during the step (cycles; 0 when none completed).
    pub avg_latency: f64,
    /// Number of this node's packets delivered during the step.
    pub ejected_packets: u64,
    /// Mean router power over the step (mW; ≥ 1 for the reward).
    pub avg_power_mw: f64,
    /// Aging factor per paper Eq. 7 (> 1).
    pub aging_factor: f64,
    /// Router temperature (°C).
    pub temperature_c: f64,
    /// Histogram of per-traversal bit-flip counts on outgoing links:
    /// `[0, 1, 2, ≥3]`.
    pub error_hist: [u64; 4],
    /// Per-hop re-transmissions on outgoing links during the step.
    pub retransmissions: u64,
    /// Fraction of the step spent power-gated.
    pub gated_fraction: f64,
}

/// Final report of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Execution time in cycles (last packet delivery).
    pub exec_cycles: u64,
    /// Aggregate network statistics.
    pub stats: NetworkStats,
    /// Power summary.
    pub power: PowerReport,
    /// Network MTTF in hours (extrapolated), if any router aged.
    pub mttf_hours: Option<f64>,
    /// Mean die temperature at the end of the run (°C).
    pub mean_temp_c: f64,
    /// Peak tile temperature observed at the end of the run (°C).
    pub max_temp_c: f64,
    /// Mean aging factor across routers (Eq. 7).
    pub mean_aging_factor: f64,
    /// Total bit flips injected by the transient-fault injector (sanity
    /// check against the observed corrected/faulty counters).
    pub injected_bit_flips: u64,
    /// Link traversals on which the injector flipped at least one bit
    /// (`stats.faulty_traversals`, repeated at the top level).
    pub faulty_flit_traversals: u64,
    /// Stall-watchdog diagnostic, set when the run was aborted for lack of
    /// forward progress.
    pub stall: Option<StallReport>,
    /// Transaction-layer summary, set only for closed-loop workloads.
    pub txn: Option<TxnSummary>,
}

impl RunReport {
    /// Energy-efficiency per the paper's Eq. 8 (1/pJ).
    pub fn energy_efficiency(&self) -> f64 {
        self.power.energy_efficiency()
    }

    /// Energy–delay product (pJ·ns).
    pub fn edp(&self) -> f64 {
        self.power.edp()
    }

    /// Average packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.stats.avg_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_handles_empty() {
        let s = NetworkStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.delivery_ratio(), 1.0);
    }

    #[test]
    fn avg_latency_divides() {
        let s = NetworkStats {
            packets_delivered: 4,
            latency_sum: 100,
            packets_injected: 5,
            ..NetworkStats::default()
        };
        assert_eq!(s.avg_latency(), 25.0);
        assert_eq!(s.delivery_ratio(), 0.8);
    }

    #[test]
    fn avg_latency_stays_finite_near_u64_max() {
        let s =
            NetworkStats { packets_delivered: 1, latency_sum: u64::MAX, ..NetworkStats::default() };
        let avg = s.avg_latency();
        assert!(avg.is_finite());
        // f64 can't represent u64::MAX exactly; it must stay in the ballpark.
        assert!(avg > 1.8e19 && avg < 1.9e19, "avg = {avg}");
    }

    #[test]
    fn avg_latency_tiny_ratio_does_not_round_to_zero() {
        let s =
            NetworkStats { packets_delivered: u64::MAX, latency_sum: 1, ..NetworkStats::default() };
        let avg = s.avg_latency();
        assert!(avg > 0.0 && avg < 1e-18, "avg = {avg}");
    }

    #[test]
    fn delivery_ratio_extremes_stay_in_unit_interval() {
        let all = NetworkStats {
            packets_injected: u64::MAX,
            packets_delivered: u64::MAX,
            ..NetworkStats::default()
        };
        assert_eq!(all.delivery_ratio(), 1.0);

        let none = NetworkStats { packets_injected: u64::MAX, ..NetworkStats::default() };
        assert_eq!(none.delivery_ratio(), 0.0);

        let one = NetworkStats {
            packets_injected: u64::MAX,
            packets_delivered: 1,
            ..NetworkStats::default()
        };
        let r = one.delivery_ratio();
        assert!(r > 0.0 && r < 1e-18, "ratio = {r}");
    }

    #[test]
    fn delivery_ratio_in_flight_packets_bound_it_below_one() {
        // Injected-but-undelivered packets (still in flight at run end) pull
        // the ratio below 1 without any loss having occurred.
        let s = NetworkStats {
            packets_injected: 1000,
            packets_delivered: 993,
            ..NetworkStats::default()
        };
        let r = s.delivery_ratio();
        assert!(r > 0.99 && r < 1.0, "ratio = {r}");
    }

    #[test]
    fn latency_percentile_delegates_to_histogram() {
        let mut s = NetworkStats::default();
        s.latency_hist.record(10);
        s.latency_hist.record(1000);
        assert!(s.latency_percentile(0.0) <= 10.0);
        assert!(s.latency_percentile(1.0) >= 1000.0);
    }
}
