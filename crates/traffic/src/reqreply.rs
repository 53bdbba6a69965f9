//! Closed-loop request–reply workload with endpoint timeout/retry and
//! admission-control load shedding.
//!
//! Open-loop injection (DESIGN.md §4) only approximates the Netrace
//! property through the dependency window. [`ReqReplyWorkload`] closes the
//! loop at the *transaction* level: a client issues a request packet, the
//! destination endpoint serves it after a configurable service latency by
//! emitting a reply of `reply_packets` packets, and the transaction
//! completes only when every reply packet is delivered back. New requests
//! come from the same [`TrafficGen`] that drives open-loop runs (pattern,
//! process, hotspot overlay, phases and budget), polled with the client's
//! open transactions (not in-flight flits) as its window count. Clients
//! time out attempts after `reply_timeout` cycles, and retry with a
//! capped-exponential, deterministically-jittered backoff — so endpoint
//! retries fan out instead of re-synchronizing into a storm.
//!
//! When the recent timeout rate at a client crosses `shed_threshold`, the
//! client *sheds* new transactions instead of injecting them (admission
//! control): the transaction is accounted as issued-and-shed without ever
//! touching the fabric, and every fourth shed candidate probes through so
//! the client rediscovers a healed network. Shedding makes fault storms
//! degrade throughput gracefully instead of collapsing the fabric under
//! retry load.
//!
//! Every transaction is retained (in its terminal state) for the lifetime
//! of the run, so the conservation invariant
//! `issued = completed + failed + shed + in_flight` is auditable per node
//! at every control step, and any transaction id missing from the table is
//! a provable orphan. The `chaos_orphan` knob deliberately loses one named
//! transaction at completion time to exercise that auditor end to end.

use crate::workload::{TrafficGen, TxnEvent, TxnEventKind, TxnStats, Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Protocol parameters of a closed-loop request–reply workload.
///
/// Spatial pattern, injection process, phases, per-node request budget
/// (`packets_per_node`) and the open-transaction window all come from the
/// enclosing [`WorkloadSpec`]; this bag holds only what is specific to the
/// request–reply protocol. Deserialization is tolerant: absent fields take
/// their defaults, so hand-written serve JobSpecs stay short; a value that
/// is not an object is an error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ReqReplySpec {
    /// Cycles the destination endpoint "computes" before emitting the
    /// first reply packet.
    pub service_latency: u64,
    /// Reply size in packets (the flit layer has a fixed packet size, so
    /// reply size is expressed in whole packets).
    pub reply_packets: u32,
    /// Cycles a client waits for the full reply before timing out the
    /// attempt.
    pub reply_timeout: u64,
    /// Maximum retries per transaction after the first attempt; once
    /// exhausted the transaction terminates as failed.
    pub max_retries: u32,
    /// Base delay (cycles) of the capped-exponential retry backoff.
    pub backoff_base: u64,
    /// Upper bound (cycles) on the un-jittered retry delay.
    pub backoff_cap: u64,
    /// Recent-timeout-rate threshold above which a client sheds new
    /// transactions instead of injecting them.
    pub shed_threshold: f64,
    /// Chaos hook: silently lose this transaction id at completion time
    /// (no terminal accounting), orphaning it for the conservation
    /// auditor to catch. Test-only by intent.
    pub chaos_orphan: Option<u64>,
}

impl Default for ReqReplySpec {
    fn default() -> Self {
        ReqReplySpec {
            service_latency: 8,
            reply_packets: 1,
            reply_timeout: 2_000,
            max_retries: 3,
            backoff_base: 32,
            backoff_cap: 1_024,
            shed_threshold: 0.5,
            chaos_orphan: None,
        }
    }
}

/// Terminal or in-flight state of one transaction. Terminal transactions
/// stay in the table so conservation stays auditable and missing ids are
/// provable orphans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    /// Request issued; client is waiting for the full reply.
    AwaitingReply,
    /// Timed out; waiting out the backoff before the next attempt.
    RetryWait,
    /// All reply packets delivered.
    Completed,
    /// Retry budget exhausted.
    Failed,
    /// Shed by admission control; never touched the fabric.
    Shed,
}

#[derive(Debug, Clone)]
struct Txn {
    client: usize,
    server: usize,
    state: TxnState,
    /// Cycle the transaction was first issued (attempt 1); retries keep it,
    /// so completion time measures the whole transaction, not the last
    /// attempt.
    first_issued_at: u64,
    /// 1-based attempt number (attempt 1 is the first issue).
    attempt: u32,
    /// Deadline of the current attempt while `AwaitingReply`; cycle the
    /// next attempt may be issued while `RetryWait`.
    due: u64,
    /// Reply packets still undelivered for the current attempt.
    replies_left: u32,
}

/// What role an in-flight packet plays in the protocol. Attempt-tagged so
/// deliveries from a timed-out attempt are recognizably stale.
#[derive(Debug, Clone, Copy)]
enum PktRole {
    Request { txn: u64, attempt: u32 },
    Reply { txn: u64, attempt: u32 },
}

/// A reply the server owes: `left` packets starting no earlier than
/// `ready`, tagged with the request attempt that earned it.
#[derive(Debug, Clone, Copy)]
struct ReplyJob {
    txn: u64,
    client: usize,
    attempt: u32,
    ready: u64,
    left: u32,
}

/// Deterministic jitter hash — the same FNV-1a/SplitMix64 shape as the
/// runner's `derive_seed`, replicated here because `noc-core` sits above
/// this crate in the dependency order.
fn jitter_hash(master: u64, key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ master.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The capped-exponential retry delay (cycles) before attempt
/// `attempt + 1`: `min(base * 2^(attempt-1), cap)` plus a deterministic
/// jitter of up to half the delay keyed on the transaction id.
fn backoff_delay(base: u64, cap: u64, txn: u64, attempt: u32) -> u64 {
    let doublings = attempt.saturating_sub(1).min(20);
    let raw = base.saturating_mul(1u64 << doublings).min(cap);
    let jitter_span = raw / 2 + 1;
    let jitter = jitter_hash(u64::from(attempt), txn) % jitter_span;
    raw.saturating_add(jitter)
}

/// Outcomes a client remembers for shedding decisions.
const RECENT_CAP: usize = 16;
/// Minimum remembered outcomes before shedding can engage.
const RECENT_MIN: usize = 8;
/// Every `PROBE_EVERY`-th shed candidate probes through anyway, so a
/// shedding client rediscovers a healed network.
const PROBE_EVERY: u32 = 4;

/// Closed-loop request–reply workload (see the module docs).
#[derive(Debug, Clone)]
pub struct ReqReplyWorkload {
    /// Source of new requests: its window counts open transactions.
    gen: TrafficGen,
    rr: ReqReplySpec,
    /// Every transaction ever issued, terminal ones included. A missing id
    /// below `next_txn` is an orphan.
    txns: BTreeMap<u64, Txn>,
    next_txn: u64,
    /// Open (AwaitingReply/RetryWait) transaction ids per client, in issue
    /// order.
    open: Vec<Vec<u64>>,
    /// Earliest deadline/retry cycle per client; sweeps are skipped until
    /// the sim clock reaches it.
    next_check: Vec<u64>,
    /// Reply emissions each server still owes, in arrival order.
    replies: Vec<VecDeque<ReplyJob>>,
    /// Protocol role of every in-flight packet.
    pkt_roles: HashMap<u64, PktRole>,
    /// Recent attempt outcomes per client (`true` = timeout) feeding the
    /// shed decision.
    recent: Vec<VecDeque<bool>>,
    /// Shed-candidate counter per client driving probe-through.
    probe: Vec<u32>,
    /// Role of the packet the simulator is about to inject (set by `poll`,
    /// consumed by `on_injected`).
    bind: Option<PktRole>,
    stats: TxnStats,
    record_events: bool,
    events: Vec<TxnEvent>,
}

impl ReqReplyWorkload {
    /// Creates a closed-loop workload for a `width × height` mesh.
    /// `spec.packets_per_node` is the per-node *request* budget and
    /// `spec.window` caps open transactions per client.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is smaller than 2 nodes, the window is zero, or
    /// `reply_packets` is zero.
    pub fn new(
        spec: WorkloadSpec,
        rr: ReqReplySpec,
        width: usize,
        height: usize,
        seed: u64,
    ) -> Self {
        let n = width * height;
        assert!(spec.window > 0, "window must be positive");
        assert!(rr.reply_packets > 0, "reply_packets must be positive");
        ReqReplyWorkload {
            gen: TrafficGen::new(spec, width, height, seed),
            rr,
            txns: BTreeMap::new(),
            next_txn: 0,
            open: vec![Vec::new(); n],
            next_check: vec![u64::MAX; n],
            replies: vec![VecDeque::new(); n],
            pkt_roles: HashMap::new(),
            recent: vec![VecDeque::new(); n],
            probe: vec![0; n],
            bind: None,
            stats: TxnStats::new(n),
            record_events: false,
            events: Vec::new(),
        }
    }

    fn event(
        &mut self,
        cycle: u64,
        node: usize,
        txn: u64,
        peer: usize,
        attempt: u32,
        kind: TxnEventKind,
    ) {
        if self.record_events {
            self.events.push(TxnEvent { cycle, node, txn, peer, attempt, kind });
        }
    }

    fn push_recent(&mut self, node: usize, timeout: bool) {
        let r = &mut self.recent[node];
        if r.len() == RECENT_CAP {
            r.pop_front();
        }
        r.push_back(timeout);
    }

    /// Whether admission control is currently shedding at `node`.
    fn shedding(&self, node: usize) -> bool {
        let r = &self.recent[node];
        if r.len() < RECENT_MIN {
            return false;
        }
        let timeouts = r.iter().filter(|&&t| t).count();
        timeouts as f64 / r.len() as f64 > self.rr.shed_threshold
    }

    fn remove_open(&mut self, node: usize, txn: u64) {
        self.open[node].retain(|&t| t != txn);
    }

    /// Terminates `txn` at `cycle` after a timeout of its current attempt:
    /// schedules a backed-off retry while budget remains, else fails it.
    fn timeout_txn(&mut self, cycle: u64, id: u64) {
        let (client, server, attempt, can_retry) = {
            let t = self.txns.get_mut(&id).expect("timeout of unknown txn");
            debug_assert_eq!(t.state, TxnState::AwaitingReply);
            (t.client, t.server, t.attempt, t.attempt <= self.rr.max_retries)
        };
        self.stats.timeouts += 1;
        self.push_recent(client, true);
        self.event(cycle, client, id, server, attempt, TxnEventKind::TimedOut);
        if can_retry {
            let delay = backoff_delay(self.rr.backoff_base, self.rr.backoff_cap, id, attempt);
            let t = self.txns.get_mut(&id).expect("txn vanished");
            t.state = TxnState::RetryWait;
            t.due = cycle.saturating_add(delay.max(1));
            let at = t.due;
            self.next_check[client] = self.next_check[client].min(at);
        } else {
            let t = self.txns.get_mut(&id).expect("txn vanished");
            t.state = TxnState::Failed;
            self.remove_open(client, id);
            self.stats.failed[client] += 1;
            self.stats.in_flight[client] -= 1;
            self.event(cycle, client, id, server, attempt, TxnEventKind::Failed);
        }
    }

    /// Sweeps `node`'s open transactions for expired deadlines and due
    /// retries; returns a due retry id, if any. Skipped entirely until the
    /// cached earliest-event cycle is reached.
    fn sweep(&mut self, cycle: u64, node: usize) -> Option<u64> {
        if cycle < self.next_check[node] {
            return None;
        }
        let ids: Vec<u64> = self.open[node].clone();
        for id in &ids {
            let st = self.txns.get(id).map(|t| (t.state, t.due));
            if let Some((TxnState::AwaitingReply, deadline)) = st {
                if deadline <= cycle {
                    self.timeout_txn(cycle, *id);
                }
            }
        }
        // Pick the first due retry (issue order) and recompute the cache
        // over what remains open.
        let mut due: Option<u64> = None;
        let mut next = u64::MAX;
        for id in &self.open[node].clone() {
            let t = &self.txns[id];
            match t.state {
                TxnState::AwaitingReply => next = next.min(t.due),
                TxnState::RetryWait => {
                    if t.due <= cycle && due.is_none() {
                        due = Some(*id);
                    } else {
                        next = next.min(t.due);
                    }
                }
                _ => {}
            }
        }
        // A due-but-unissued retry must keep the node checking next cycle.
        self.next_check[node] = if due.is_some() { cycle } else { next };
        due
    }

    /// Pops the next valid reply packet owed by server `node`, discarding
    /// stale jobs for transactions that timed out or terminated meanwhile.
    fn next_reply(&mut self, cycle: u64, node: usize) -> Option<ReplyJob> {
        while let Some(job) = self.replies[node].front().copied() {
            if job.ready > cycle {
                return None;
            }
            let live = self
                .txns
                .get(&job.txn)
                .is_some_and(|t| t.state == TxnState::AwaitingReply && t.attempt == job.attempt);
            if !live {
                self.replies[node].pop_front();
                continue;
            }
            if job.left > 1 {
                self.replies[node].front_mut().expect("front vanished").left -= 1;
            } else {
                self.replies[node].pop_front();
            }
            return Some(job);
        }
        None
    }
}

impl Workload for ReqReplyWorkload {
    fn poll(&mut self, cycle: u64, node: usize, _outstanding: usize) -> Option<usize> {
        debug_assert!(self.bind.is_none(), "previous poll offer was never injected");
        // 1. Reply emission owed by this node as a server.
        if let Some(job) = self.next_reply(cycle, node) {
            self.bind = Some(PktRole::Reply { txn: job.txn, attempt: job.attempt });
            return Some(job.client);
        }
        // 2. Timeout sweep and due retries for this node as a client.
        if let Some(id) = self.sweep(cycle, node) {
            let (server, attempt) = {
                let t = self.txns.get_mut(&id).expect("retry of unknown txn");
                t.attempt += 1;
                t.state = TxnState::AwaitingReply;
                t.due = cycle.saturating_add(self.rr.reply_timeout);
                t.replies_left = self.rr.reply_packets;
                (t.server, t.attempt)
            };
            self.stats.retries += 1;
            self.next_check[node] = self.next_check[node].min(cycle + self.rr.reply_timeout);
            self.event(cycle, node, id, server, attempt, TxnEventKind::Retried);
            self.bind = Some(PktRole::Request { txn: id, attempt });
            return Some(server);
        }
        // 3. New request admission: the open-loop source, with this
        // client's open transactions filling its window.
        let server = self.gen.poll(cycle, node, self.open[node].len())?;
        let id = self.next_txn;
        self.next_txn += 1;
        self.stats.issued[node] += 1;
        if self.shedding(node) {
            self.probe[node] += 1;
            if !self.probe[node].is_multiple_of(PROBE_EVERY) {
                self.txns.insert(
                    id,
                    Txn {
                        client: node,
                        server,
                        state: TxnState::Shed,
                        first_issued_at: cycle,
                        attempt: 0,
                        due: 0,
                        replies_left: 0,
                    },
                );
                self.stats.shed[node] += 1;
                self.event(cycle, node, id, server, 0, TxnEventKind::Shed);
                return None;
            }
        }
        self.txns.insert(
            id,
            Txn {
                client: node,
                server,
                state: TxnState::AwaitingReply,
                first_issued_at: cycle,
                attempt: 1,
                due: cycle.saturating_add(self.rr.reply_timeout),
                replies_left: self.rr.reply_packets,
            },
        );
        self.open[node].push(id);
        self.stats.in_flight[node] += 1;
        self.next_check[node] = self.next_check[node].min(cycle + self.rr.reply_timeout);
        self.event(cycle, node, id, server, 1, TxnEventKind::Issued);
        self.bind = Some(PktRole::Request { txn: id, attempt: 1 });
        Some(server)
    }

    fn is_exhausted(&self) -> bool {
        self.gen.is_exhausted()
            && self.open.iter().all(Vec::is_empty)
            && self.replies.iter().all(VecDeque::is_empty)
    }

    fn name(&self) -> &str {
        self.gen.name()
    }

    fn on_injected(&mut self, packet_id: u64) {
        let role = self.bind.take().expect("injection without a polled offer");
        self.pkt_roles.insert(packet_id, role);
    }

    fn on_delivered(&mut self, cycle: u64, packet_id: u64) {
        let Some(role) = self.pkt_roles.remove(&packet_id) else { return };
        match role {
            PktRole::Request { txn, attempt } => {
                // Serve only the current attempt: a request delivered after
                // its attempt timed out is stale and silently dropped at
                // the endpoint.
                let Some(t) = self.txns.get(&txn) else { return };
                if t.state != TxnState::AwaitingReply || t.attempt != attempt {
                    return;
                }
                let (client, server) = (t.client, t.server);
                self.replies[server].push_back(ReplyJob {
                    txn,
                    client,
                    attempt,
                    ready: cycle.saturating_add(self.rr.service_latency),
                    left: self.rr.reply_packets,
                });
            }
            PktRole::Reply { txn, attempt } => {
                let Some(t) = self.txns.get_mut(&txn) else { return };
                if t.state != TxnState::AwaitingReply || t.attempt != attempt {
                    return;
                }
                t.replies_left -= 1;
                if t.replies_left > 0 {
                    return;
                }
                let (client, server) = (t.client, t.server);
                if self.rr.chaos_orphan == Some(txn) {
                    // Chaos: lose the transaction without terminal
                    // accounting — the conservation auditor must catch it.
                    self.txns.remove(&txn);
                    self.remove_open(client, txn);
                    self.stats.in_flight[client] -= 1;
                    return;
                }
                t.state = TxnState::Completed;
                let completion = cycle.saturating_sub(t.first_issued_at);
                self.remove_open(client, txn);
                self.stats.completed[client] += 1;
                self.stats.in_flight[client] -= 1;
                self.stats.completion_latencies.push(completion);
                self.push_recent(client, false);
                self.event(cycle, client, txn, server, attempt, TxnEventKind::Completed);
            }
        }
    }

    fn on_dropped(&mut self, cycle: u64, packet_id: u64) {
        let Some(role) = self.pkt_roles.remove(&packet_id) else { return };
        match role {
            PktRole::Request { txn, attempt } => {
                // A dropped request can never complete: treat it as an
                // immediate timeout instead of waiting out the deadline.
                let live = self
                    .txns
                    .get(&txn)
                    .is_some_and(|t| t.state == TxnState::AwaitingReply && t.attempt == attempt);
                if live {
                    let client = self.txns[&txn].client;
                    self.timeout_txn(cycle, txn);
                    self.next_check[client] = self.next_check[client].min(cycle + 1);
                }
            }
            // A dropped reply packet leaves the client to its deadline.
            PktRole::Reply { .. } => {}
        }
    }

    fn txn_stats(&self) -> Option<&TxnStats> {
        Some(&self.stats)
    }

    fn packet_txn(&self, packet_id: u64) -> Option<(u64, u32, bool)> {
        self.pkt_roles.get(&packet_id).map(|role| match *role {
            PktRole::Request { txn, attempt } => (txn, attempt, false),
            PktRole::Reply { txn, attempt } => (txn, attempt, true),
        })
    }

    fn txn_orphans(&self) -> Vec<u64> {
        // Any id below the issue counter missing from the table vanished
        // without terminal accounting.
        (0..self.next_txn).filter(|id| !self.txns.contains_key(id)).collect()
    }

    fn set_txn_event_recording(&mut self, on: bool) {
        self.record_events = on;
        if !on {
            self.events.clear();
        }
    }

    fn drain_txn_events(&mut self) -> Vec<TxnEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn spec(rate: f64, ppn: u64) -> WorkloadSpec {
        WorkloadSpec { reqreply: Some(ReqReplySpec::default()), ..WorkloadSpec::uniform(rate, ppn) }
    }

    /// Drives the workload open-loop with a perfect zero-latency network:
    /// every offered packet is "delivered" `net_latency` cycles later.
    /// Returns the number of packets injected.
    fn drive(w: &mut ReqReplyWorkload, nodes: usize, cycles: u64, net_latency: u64) -> u64 {
        let mut pid = 0u64;
        let mut in_net: Vec<(u64, u64)> = Vec::new(); // (deliver_at, packet)
        for cycle in 0..cycles {
            let due: Vec<u64> =
                in_net.iter().filter(|&&(at, _)| at <= cycle).map(|&(_, p)| p).collect();
            in_net.retain(|&(at, _)| at > cycle);
            for p in due {
                w.on_delivered(cycle, p);
            }
            for node in 0..nodes {
                if Workload::poll(w, cycle, node, 0).is_some() {
                    w.on_injected(pid);
                    in_net.push((cycle + net_latency, pid));
                    pid += 1;
                }
            }
            if w.is_exhausted() && in_net.is_empty() {
                break;
            }
        }
        pid
    }

    #[test]
    fn all_transactions_complete_on_a_healthy_network() {
        let mut w = ReqReplyWorkload::new(spec(0.2, 10), ReqReplySpec::default(), 2, 2, 7);
        drive(&mut w, 4, 100_000, 3);
        assert!(w.is_exhausted(), "workload did not drain");
        let s = w.txn_stats().unwrap();
        assert_eq!(s.issued_total(), 40);
        assert_eq!(s.completed_total(), 40);
        assert_eq!(s.failed_total(), 0);
        assert_eq!(s.shed_total(), 0);
        assert_eq!(s.violations(), 0);
        assert!(w.txn_orphans().is_empty());
    }

    #[test]
    fn conservation_holds_mid_run() {
        let mut w = ReqReplyWorkload::new(spec(0.3, 50), ReqReplySpec::default(), 2, 2, 11);
        let mut pid = 0u64;
        for cycle in 0..200 {
            for node in 0..4 {
                if Workload::poll(&mut w, cycle, node, 0).is_some() {
                    w.on_injected(pid);
                    pid += 1; // never delivered: all stay in flight or time out
                }
            }
            let s = w.txn_stats().unwrap();
            assert_eq!(s.violations(), 0, "conservation broke at cycle {cycle}");
        }
    }

    #[test]
    fn dropped_requests_retry_then_fail_with_bounded_attempts() {
        let rr =
            ReqReplySpec { max_retries: 2, backoff_base: 4, backoff_cap: 16, ..Default::default() };
        let mut w = ReqReplyWorkload::new(spec(1.0, 1), rr, 2, 1, 3);
        let mut pid = 0u64;
        for cycle in 0..10_000 {
            for node in 0..2 {
                if Workload::poll(&mut w, cycle, node, 0).is_some() {
                    w.on_injected(pid);
                    w.on_dropped(cycle, pid); // dead network: every packet dropped
                    pid += 1;
                }
            }
            if w.is_exhausted() {
                break;
            }
        }
        assert!(w.is_exhausted(), "failed transactions must drain the workload");
        let s = w.txn_stats().unwrap();
        assert_eq!(s.issued_total(), 2);
        assert_eq!(s.failed_total(), 2);
        assert_eq!(s.completed_total(), 0);
        // 1 original + 2 retries per transaction.
        assert_eq!(s.retries, 4);
        assert_eq!(s.timeouts, 6);
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn shedding_engages_under_sustained_timeouts_and_probes_through() {
        let rr = ReqReplySpec {
            max_retries: 0,
            reply_timeout: 10,
            shed_threshold: 0.5,
            ..Default::default()
        };
        let mut w = ReqReplyWorkload::new(spec(1.0, 200), rr, 2, 1, 5);
        let mut pid = 0u64;
        for cycle in 0..20_000 {
            for node in 0..2 {
                if Workload::poll(&mut w, cycle, node, 0).is_some() {
                    w.on_injected(pid);
                    w.on_dropped(cycle, pid);
                    pid += 1;
                }
            }
            if w.is_exhausted() {
                break;
            }
        }
        let s = w.txn_stats().unwrap();
        assert!(s.shed_total() > 0, "shedding never engaged");
        // Probe-through keeps some candidates flowing to the fabric even
        // while shedding, so failures keep accumulating past RECENT_MIN.
        assert!(s.failed_total() > RECENT_MIN as u64);
        assert_eq!(s.issued_total(), s.failed_total() + s.shed_total());
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn chaos_orphan_breaks_conservation_and_is_named() {
        let rr = ReqReplySpec { chaos_orphan: Some(0), ..Default::default() };
        let mut w = ReqReplyWorkload::new(spec(0.2, 5), rr, 2, 2, 7);
        drive(&mut w, 4, 100_000, 3);
        assert!(w.is_exhausted());
        let s = w.txn_stats().unwrap();
        assert_eq!(s.violations(), 1, "orphan must break per-node conservation");
        assert_eq!(w.txn_orphans(), vec![0]);
        assert_eq!(s.issued_total(), s.completed_total() + 1);
    }

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let d1 = backoff_delay(32, 1024, 9, 1);
        assert!((32..=48).contains(&d1), "attempt 1: {d1}");
        let d5 = backoff_delay(32, 1024, 9, 5);
        assert!((512..=768).contains(&d5), "attempt 5: {d5}");
        let d9 = backoff_delay(32, 1024, 9, 9);
        assert!((1024..=1536).contains(&d9), "attempt 9 capped: {d9}");
        assert_eq!(backoff_delay(32, 1024, 9, 5), backoff_delay(32, 1024, 9, 5));
        assert_ne!(backoff_delay(32, 1024, 1, 5), backoff_delay(32, 1024, 2, 5));
    }

    #[test]
    fn reply_size_in_packets_requires_all_packets() {
        let rr = ReqReplySpec { reply_packets: 3, ..Default::default() };
        let mut w = ReqReplyWorkload::new(spec(0.5, 4), rr, 2, 2, 13);
        let injected = drive(&mut w, 4, 100_000, 2);
        assert!(w.is_exhausted());
        let s = w.txn_stats().unwrap();
        assert_eq!(s.completed_total(), 16);
        // Each transaction moved 1 request + 3 reply packets.
        assert_eq!(injected, 16 * 4);
    }

    #[test]
    fn admission_follows_phases() {
        let phased = WorkloadSpec {
            phases: vec![
                Phase { cycles: 1000, rate_factor: 0.0 },
                Phase { cycles: 1000, rate_factor: 1.0 },
            ],
            ..spec(0.5, 1_000)
        };
        let mut w = ReqReplyWorkload::new(phased, ReqReplySpec::default(), 2, 2, 19);
        w.set_txn_event_recording(true);
        drive(&mut w, 4, 2_000, 3);
        let events = w.drain_txn_events();
        let first = events.iter().find(|e| e.kind == TxnEventKind::Issued).map(|e| e.cycle);
        assert!(first.is_some_and(|c| c >= 1000), "first transaction issued at cycle {first:?}");
    }

    #[test]
    fn txn_events_record_full_lifecycle() {
        let mut w = ReqReplyWorkload::new(spec(0.5, 2), ReqReplySpec::default(), 2, 1, 17);
        w.set_txn_event_recording(true);
        drive(&mut w, 2, 50_000, 2);
        let events = w.drain_txn_events();
        let issued = events.iter().filter(|e| e.kind == TxnEventKind::Issued).count();
        let completed = events.iter().filter(|e| e.kind == TxnEventKind::Completed).count();
        assert_eq!(issued, 4);
        assert_eq!(completed, 4);
        assert!(w.drain_txn_events().is_empty(), "drain must empty the buffer");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut w = ReqReplyWorkload::new(spec(0.3, 5), ReqReplySpec::default(), 2, 2, seed);
            let mut pid = 0u64;
            let mut log = Vec::new();
            for cycle in 0..2_000 {
                for node in 0..4 {
                    if let Some(dest) = Workload::poll(&mut w, cycle, node, 0) {
                        w.on_injected(pid);
                        w.on_delivered(cycle + 5, pid);
                        log.push((cycle, node, dest));
                        pid += 1;
                    }
                }
            }
            log
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn spec_deserialize_tolerates_absent_fields() {
        let json = r#"{"reply_timeout": 500, "max_retries": 7}"#;
        let rr: ReqReplySpec = serde_json::from_str(json).unwrap();
        assert_eq!(rr.reply_timeout, 500);
        assert_eq!(rr.max_retries, 7);
        assert_eq!(rr.service_latency, ReqReplySpec::default().service_latency);
        assert_eq!(rr.chaos_orphan, None);
        // Empty object is the all-defaults spec.
        let rr: ReqReplySpec = serde_json::from_str("{}").unwrap();
        assert_eq!(rr, ReqReplySpec::default());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let rr = ReqReplySpec { chaos_orphan: Some(3), reply_packets: 2, ..Default::default() };
        let json = serde_json::to_string(&rr).unwrap();
        let back: ReqReplySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rr);
    }
}
