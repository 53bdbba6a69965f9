//! Workload specification and the on-line traffic generator.
//!
//! A [`WorkloadSpec`] fully describes one benchmark's network load: spatial
//! pattern, temporal process, memory-controller hotspot overlay, phase
//! structure, total packet budget, and the *dependency window* that makes
//! execution time sensitive to network latency (the Netrace property: a core
//! stalls once too many of its requests are outstanding, so slow deliveries
//! slow the application down).
//!
//! [`WorkloadSpec::into_workload`] turns a spec into the run-time source the
//! simulator polls each cycle: a [`TrafficGen`], a closed-loop
//! [`ReqReplyWorkload`] or the replay of a recorded trace.

use crate::pattern::{default_mc_nodes, SpatialPattern};
use crate::process::{InjectionProcess, ProcessState};
use crate::replay::TraceReplay;
use crate::reqreply::{ReqReplySpec, ReqReplyWorkload};
use crate::trace::TraceRecord;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-node transaction accounting of a closed-loop workload, kept such
/// that `issued = completed + failed + shed + in_flight` holds at every
/// node after every cycle — the conservation invariant the auditor checks
/// each control step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnStats {
    /// Transactions issued per client node (shed candidates included).
    pub issued: Vec<u64>,
    /// Transactions whose full reply was delivered, per client node.
    pub completed: Vec<u64>,
    /// Transactions that exhausted their retry budget, per client node.
    pub failed: Vec<u64>,
    /// Transactions shed by admission control, per client node.
    pub shed: Vec<u64>,
    /// Open (awaiting reply or backing off) transactions per client node.
    pub in_flight: Vec<u64>,
    /// Attempt timeouts across all nodes (several per transaction when it
    /// retries).
    pub timeouts: u64,
    /// Retry attempts issued across all nodes.
    pub retries: u64,
    /// Completion time (first issue → reply delivered, in cycles) of every
    /// completed transaction, in completion order. Source of the p50/p99
    /// transaction-completion percentiles in reports and bench gates.
    pub completion_latencies: Vec<u64>,
}

impl TxnStats {
    /// Zeroed accounting for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        TxnStats {
            issued: vec![0; n],
            completed: vec![0; n],
            failed: vec![0; n],
            shed: vec![0; n],
            in_flight: vec![0; n],
            timeouts: 0,
            retries: 0,
            completion_latencies: Vec::new(),
        }
    }

    /// Total transactions issued across all nodes.
    #[must_use]
    pub fn issued_total(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Total transactions completed across all nodes.
    #[must_use]
    pub fn completed_total(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Total transactions failed across all nodes.
    #[must_use]
    pub fn failed_total(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Total transactions shed across all nodes.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Total open transactions across all nodes.
    #[must_use]
    pub fn in_flight_total(&self) -> u64 {
        self.in_flight.iter().sum()
    }

    /// Sum over nodes of the absolute conservation error
    /// `|issued − (completed + failed + shed + in_flight)|`. Zero iff the
    /// invariant holds at every node.
    #[must_use]
    pub fn violations(&self) -> u64 {
        (0..self.issued.len())
            .map(|n| {
                let accounted =
                    self.completed[n] + self.failed[n] + self.shed[n] + self.in_flight[n];
                self.issued[n].abs_diff(accounted)
            })
            .sum()
    }
}

/// Lifecycle stage a [`TxnEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnEventKind {
    /// A client admitted a new transaction and injected its request.
    Issued,
    /// The full reply was delivered to the client.
    Completed,
    /// An attempt expired (deadline passed or its request was dropped).
    TimedOut,
    /// A backed-off retry attempt was injected.
    Retried,
    /// The retry budget was exhausted; the transaction terminated failed.
    Failed,
    /// Admission control shed the transaction before injection.
    Shed,
}

/// One transaction lifecycle event, drained from a closed-loop workload by
/// the simulator and forwarded into the telemetry event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnEvent {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// Client node that owns the transaction.
    pub node: usize,
    /// Transaction id (globally unique within a run).
    pub txn: u64,
    /// The other endpoint (the server).
    pub peer: usize,
    /// Attempt number the event concerns (0 for shed).
    pub attempt: u32,
    /// What happened.
    pub kind: TxnEventKind,
}

/// A packet source the simulator polls once per node per cycle.
///
/// Implemented by the statistical [`TrafficGen`], the closed-loop
/// [`ReqReplyWorkload`] and the replay of a recorded trace;
/// [`WorkloadSpec::into_workload`] picks one.
pub trait Workload: std::fmt::Debug {
    /// Polls node `node` at `cycle`; returns the destination of a packet to
    /// inject now, if any. `outstanding` is the node's in-flight packet
    /// count (the dependency window).
    fn poll(&mut self, cycle: u64, node: usize, outstanding: usize) -> Option<usize>;

    /// Whether the source will never produce another packet.
    fn is_exhausted(&self) -> bool;

    /// Human-readable workload name.
    fn name(&self) -> &str;

    /// Notifies the workload that the packet it just offered via
    /// [`poll`](Self::poll) was injected as `packet_id`. Closed-loop
    /// workloads bind protocol roles to packet ids here; open-loop
    /// workloads ignore it.
    fn on_injected(&mut self, _packet_id: u64) {}

    /// Notifies the workload that `packet_id` was finally delivered.
    fn on_delivered(&mut self, _cycle: u64, _packet_id: u64) {}

    /// Notifies the workload that `packet_id` was dropped (retransmission
    /// ladder exhausted or route lost to a hard fault).
    fn on_dropped(&mut self, _cycle: u64, _packet_id: u64) {}

    /// Transaction accounting, when this is a closed-loop workload.
    fn txn_stats(&self) -> Option<&TxnStats> {
        None
    }

    /// The transaction role bound to an in-flight packet, when this is a
    /// closed-loop workload: `(txn id, attempt, is_reply)`. Open-loop
    /// workloads have no transactions and return `None`.
    fn packet_txn(&self, _packet_id: u64) -> Option<(u64, u32, bool)> {
        None
    }

    /// Transaction ids that vanished without terminal accounting (the
    /// conservation auditor names these in post-mortem bundles).
    fn txn_orphans(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Enables or disables buffering of [`TxnEvent`]s for the telemetry
    /// stream. Off by default so unobserved runs allocate nothing.
    fn set_txn_event_recording(&mut self, _on: bool) {}

    /// Takes the transaction events buffered since the last drain.
    fn drain_txn_events(&mut self) -> Vec<TxnEvent> {
        Vec::new()
    }
}

/// A phase of execution with a rate multiplier (applications alternate
/// compute-heavy and communication-heavy phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Phase length in cycles.
    pub cycles: u64,
    /// Injection-rate multiplier during this phase.
    pub rate_factor: f64,
}

/// Complete description of one workload.
///
/// Passive configuration bag; fields are public by design.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name (benchmark name for PARSEC workloads).
    pub name: String,
    /// Base spatial pattern for non-hotspot packets.
    pub pattern: SpatialPattern,
    /// Temporal injection process.
    pub process: InjectionProcess,
    /// Fraction of packets directed at a memory-controller node.
    pub hotspot_fraction: f64,
    /// Memory-controller node indices (empty ⇒ derived from mesh shape).
    pub mc_nodes: Vec<usize>,
    /// Phase sequence, cycled until the packet budget is exhausted
    /// (empty ⇒ a single constant phase).
    pub phases: Vec<Phase>,
    /// Total packets each node injects over the run (execution budget).
    pub packets_per_node: u64,
    /// Maximum outstanding (injected but undelivered) packets per node;
    /// the dependency throttle that couples latency to execution time.
    /// For closed-loop workloads this caps *open transactions* instead.
    pub window: usize,
    /// Closed-loop request–reply protocol parameters; `None` keeps the
    /// classic open-loop injection. When set, `packets_per_node` is the
    /// per-node request budget.
    pub reqreply: Option<ReqReplySpec>,
    /// A recorded trace to replay instead of generating traffic (see
    /// [`WorkloadSpec::replay`]); when set, only `name` and `window` of the
    /// other fields apply.
    pub trace: Option<Arc<[TraceRecord]>>,
}

impl WorkloadSpec {
    /// A plain uniform-random Bernoulli workload, useful for unit tests and
    /// synthetic sweeps.
    pub fn uniform(rate: f64, packets_per_node: u64) -> Self {
        WorkloadSpec {
            name: format!("uniform-{rate}"),
            pattern: SpatialPattern::Uniform,
            process: InjectionProcess::Bernoulli { rate },
            hotspot_fraction: 0.0,
            mc_nodes: Vec::new(),
            phases: Vec::new(),
            packets_per_node,
            window: 16,
            reqreply: None,
            trace: None,
        }
    }

    /// A closed-loop variant of [`uniform`](Self::uniform): `rate` shapes
    /// request admission and `packets_per_node` is the per-node request
    /// budget.
    pub fn reqreply(rate: f64, packets_per_node: u64, rr: ReqReplySpec) -> Self {
        WorkloadSpec {
            name: format!("reqreply-{rate}"),
            reqreply: Some(rr),
            ..WorkloadSpec::uniform(rate, packets_per_node)
        }
    }

    /// Returns a copy with all injection rates scaled by `factor`.
    pub fn scaled_rate(&self, factor: f64) -> Self {
        WorkloadSpec {
            name: format!("{}-x{:.1}", self.name, factor),
            process: self.process.scaled(factor),
            ..self.clone()
        }
    }

    /// Long-run average offered load in packets/node/cycle (before any
    /// window throttling).
    pub fn mean_rate(&self) -> f64 {
        let base = self.process.mean_rate();
        if self.phases.is_empty() {
            return base;
        }
        let total: f64 = self.phases.iter().map(|p| p.cycles as f64).sum();
        let weighted: f64 = self.phases.iter().map(|p| p.cycles as f64 * p.rate_factor).sum();
        base * weighted / total
    }

    /// The packet source this spec describes on a `width × height` mesh,
    /// seeded with `seed`: the replay of `trace` when one is set, else the
    /// closed-loop [`ReqReplyWorkload`] when `reqreply` is set, else a
    /// [`TrafficGen`].
    pub fn into_workload(self, width: usize, height: usize, seed: u64) -> Box<dyn Workload> {
        if let Some(records) = &self.trace {
            return Box::new(TraceReplay::new(&self.name, records, width * height, self.window));
        }
        match self.reqreply.clone() {
            Some(rr) => Box::new(ReqReplyWorkload::new(self, rr, width, height, seed)),
            None => Box::new(TrafficGen::new(self, width, height, seed)),
        }
    }
}

/// On-line traffic generator: one per simulation run.
///
/// The one request source of the crate: open-loop runs inject what it
/// offers, and [`crate::ReqReplyWorkload`] admits new transactions through
/// it.
///
/// # Examples
///
/// ```
/// use noc_traffic::{TrafficGen, Workload, WorkloadSpec};
///
/// let spec = WorkloadSpec::uniform(0.1, 10);
/// let mut gen = TrafficGen::new(spec, 8, 8, 42);
/// // Poll node 0 for one cycle with no outstanding packets.
/// let _maybe_dest = gen.poll(0, 0, 0);
/// assert!(!gen.is_exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGen {
    spec: WorkloadSpec,
    width: usize,
    height: usize,
    mc_nodes: Vec<usize>,
    rng: SmallRng,
    states: Vec<ProcessState>,
    remaining: Vec<u64>,
    phase_total: u64,
}

impl TrafficGen {
    /// Creates a generator for a `width × height` mesh with a deterministic
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is smaller than 2 nodes.
    pub fn new(spec: WorkloadSpec, width: usize, height: usize, seed: u64) -> Self {
        let n = width * height;
        assert!(n >= 2, "mesh too small");
        let mc_nodes = if spec.mc_nodes.is_empty() {
            default_mc_nodes(width, height)
        } else {
            spec.mc_nodes.clone()
        };
        let remaining = vec![spec.packets_per_node; n];
        let phase_total = spec.phases.iter().map(|p| p.cycles).sum();
        TrafficGen {
            spec,
            width,
            height,
            mc_nodes,
            rng: SmallRng::seed_from_u64(seed),
            states: vec![ProcessState::default(); n],
            remaining,
            phase_total,
        }
    }

    /// Rate multiplier active at `cycle` given the phase schedule.
    fn rate_factor(&self, cycle: u64) -> f64 {
        if self.spec.phases.is_empty() || self.phase_total == 0 {
            return 1.0;
        }
        let mut t = cycle % self.phase_total;
        for p in &self.spec.phases {
            if t < p.cycles {
                return p.rate_factor;
            }
            t -= p.cycles;
        }
        1.0
    }
}

impl Workload for TrafficGen {
    fn poll(&mut self, cycle: u64, node: usize, outstanding: usize) -> Option<usize> {
        if self.remaining[node] == 0 || outstanding >= self.spec.window {
            return None;
        }
        let factor = self.rate_factor(cycle);
        if !self.states[node].step(&self.spec.process, factor, &mut self.rng) {
            return None;
        }
        self.remaining[node] -= 1;
        let dest = if self.spec.hotspot_fraction > 0.0
            && self.rng.gen::<f64>() < self.spec.hotspot_fraction
        {
            let pick = self.mc_nodes[self.rng.gen_range(0..self.mc_nodes.len())];
            if pick == node {
                self.spec.pattern.dest(node, self.width, self.height, &mut self.rng)
            } else {
                pick
            }
        } else {
            self.spec.pattern.dest(node, self.width, self.height, &mut self.rng)
        };
        Some(dest)
    }

    fn is_exhausted(&self) -> bool {
        self.remaining.iter().all(|&r| r == 0)
    }

    fn name(&self) -> &str {
        &self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_respected() {
        let mut g = TrafficGen::new(WorkloadSpec::uniform(0.5, 5), 4, 4, 1);
        let mut injected = [0u64; 16];
        for cycle in 0..10_000 {
            for (node, count) in injected.iter_mut().enumerate() {
                if g.poll(cycle, node, 0).is_some() {
                    *count += 1;
                }
            }
        }
        assert!(g.is_exhausted());
        assert!(injected.iter().all(|&c| c == 5));
    }

    #[test]
    fn window_throttles_injection() {
        let mut g = TrafficGen::new(WorkloadSpec::uniform(1.0, 100), 4, 4, 2);
        // Outstanding at the window: no injection ever.
        for cycle in 0..100 {
            assert!(g.poll(cycle, 0, 16).is_none());
        }
        // Below the window: injects immediately at rate 1.0.
        assert!(g.poll(100, 0, 0).is_some());
    }

    #[test]
    fn hotspot_fraction_targets_mcs() {
        let spec = WorkloadSpec { hotspot_fraction: 1.0, ..WorkloadSpec::uniform(1.0, 1000) };
        let mut g = TrafficGen::new(spec, 8, 8, 3);
        let mcs = default_mc_nodes(8, 8);
        let mut hits = 0;
        let mut total = 0;
        for cycle in 0..900 {
            if let Some(d) = g.poll(cycle, 9, 0) {
                total += 1;
                if mcs.contains(&d) {
                    hits += 1;
                }
            }
        }
        assert!(total > 0);
        assert_eq!(hits, total);
    }

    #[test]
    fn phases_modulate_rate() {
        let spec = WorkloadSpec {
            phases: vec![
                Phase { cycles: 1000, rate_factor: 0.0 },
                Phase { cycles: 1000, rate_factor: 1.0 },
            ],
            ..WorkloadSpec::uniform(0.5, 1_000_000)
        };
        let mut g = TrafficGen::new(spec, 4, 4, 4);
        let mut first = 0;
        let mut second = 0;
        for cycle in 0..2000 {
            for node in 0..16 {
                if g.poll(cycle, node, 0).is_some() {
                    if cycle < 1000 {
                        first += 1;
                    } else {
                        second += 1;
                    }
                }
            }
        }
        assert_eq!(first, 0);
        assert!(second > 1000);
    }

    #[test]
    fn mean_rate_accounts_for_phases() {
        let spec = WorkloadSpec {
            phases: vec![
                Phase { cycles: 100, rate_factor: 2.0 },
                Phase { cycles: 300, rate_factor: 0.0 },
            ],
            ..WorkloadSpec::uniform(0.1, 10)
        };
        assert!((spec.mean_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut g = TrafficGen::new(WorkloadSpec::uniform(0.3, 10), 4, 4, seed);
            let mut log = Vec::new();
            for cycle in 0..500 {
                for node in 0..16 {
                    if let Some(d) = g.poll(cycle, node, 0) {
                        log.push((cycle, node, d));
                    }
                }
            }
            log
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
