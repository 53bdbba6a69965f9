//! The cycle-accurate simulation kernel.
//!
//! One [`Network`] instance simulates an entire run: mesh of routers,
//! inter-router channels, network interfaces (NIs), workload injection,
//! fault injection with real ECC decoding, power/thermal/aging epochs, and
//! the control-policy hook.
//!
//! # Cycle phase order (deterministic)
//!
//! 1. **Router phase** — powered routers perform switch allocation and move
//!    flits from input VCs into output channels or eject them at the NI;
//!    gated routers forward flits channel-to-channel through the bypass
//!    switch.
//! 2. **Delivery phase** — ready channel heads enter downstream input VCs
//!    (this is where link faults are sampled and per-hop ECC decodes run);
//!    NI injection queues feed local input ports.
//! 3. **Gating phase** — idle detection, proactive/reactive gate and wake
//!    transitions, occupancy accounting.
//! 4. **Workload phase** — the traffic generator is polled and new packets
//!    enter the NI injection queues.
//! 5. **Epoch phase** — every `epoch_cycles`: energy is settled, the
//!    thermal grid steps, aging accumulates, and per-router error rates are
//!    refreshed.
//!
//! # Occupancy index
//!
//! No phase finds out whether a router, link or NI holds flits by walking
//! its queues: [`Router::occupancy`], `Links::inbound` / `next_occupied`
//! and `Nis::waiting` / `next_waiting` answer in O(1) from counts and
//! bitsets that the owning types update wherever a flit enters or leaves
//! (DESIGN.md §7.0). Quiet routers are still visited every cycle — their
//! round-robin pointers, idle/gate timers and step counters are cycle-domain
//! state — but the visit is constant-time. The index changes host time
//! only; debug builds recount it at the end of every [`Network::step_cycle`].
//!
//! Each [`Router`] extends it into a *readiness index*: one flat VC table
//! plus bitmasks of which VCs hold an SA-eligible flit, which output each
//! bound VC requests and which VCs are free, so switch/VC allocation is a
//! few mask operations per output and link delivery looks VCs up in the
//! table instead of polling `PORTS x vcs` queues (DESIGN.md §7.0).

use crate::channel::Links;
use crate::config::{RouterDirective, SimConfig};
use crate::flit::{make_packet, Cycle, Flit, NO_VC};
use crate::health::HealthRouter;
use crate::ni::Nis;
use crate::probe::{Probe, ProbeArtifacts, ProbeConfig};
use crate::router::{set_bits, GateState, Router};
use crate::stats::{NetworkStats, RouterObservation, RunReport, StallReport, TxnSummary};
use crate::topology::{Mesh, Port, DIRS, PORTS};
use noc_ecc::{DecodeStatus, EccScheme, EccSuite};
use noc_fault::{network_mttf, AgingState, FaultInjector, HardFaultTarget, ThermalGrid};
use noc_power::{EnergyLedger, RouterLeakageSpec, CLOCK_PERIOD_NS};
use noc_telemetry::{Event, GateEdge, Profiler, RetxScope, Tracer};
use noc_traffic::{ReqReplyWorkload, TrafficGen, TxnStats, Workload, WorkloadSpec};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// One switch-allocation grant: the head-of-queue flit of VC `vc` of input
/// `port` crosses to output `out`, bound for downstream VC `dvc` ([`NO_VC`]
/// when ejecting or when the downstream router takes no reservation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SaGrant {
    port: usize,
    vc: usize,
    out: Port,
    dvc: u8,
}

/// The simulated network.
pub struct Network {
    cfg: SimConfig,
    mesh: Mesh,
    now: Cycle,
    routers: Vec<Router>,
    /// Outgoing channel per (router, direction); `None` at mesh boundaries.
    /// Owns the link part of the occupancy index.
    links: Links,
    /// Network interfaces; owns the NI part of the occupancy index.
    nis: Nis,
    traffic: Box<dyn Workload>,
    suite: EccSuite,
    injector: FaultInjector,
    thermal: ThermalGrid,
    aging: Vec<AgingState>,
    /// Current per-bit error rate per (upstream) router.
    re: Vec<f64>,
    ledger: EnergyLedger,
    stats: NetworkStats,
    outstanding: Vec<usize>,
    next_packet_id: u64,
    next_flit_id: u64,
    completed: u64,
    /// Every telemetry sink (tracer, profiler, attribution, flight
    /// recorder, journeys) behind one set of event points; with nothing
    /// installed each point is a not-taken branch per sink.
    probe: Probe,
    /// Link/router health map + fault-aware route tables.
    health: HealthRouter,
    /// Current down/up state per scheduled hard fault (transition edges are
    /// detected against this).
    fault_state: Vec<bool>,
    /// Links taken down by a currently-active *fail-stop* fault (indexed
    /// like `channels`); intermittent outages stall flits but do not purge.
    failstop_link_down: Vec<bool>,
    /// Routers taken down by a currently-active fail-stop fault.
    failstop_router_down: Vec<bool>,
    /// Connected-component id per router over the fail-stop-surviving
    /// topology (intermittent outages ignored). Packets whose source and
    /// destination sit in different components can never be delivered.
    fs_comp: Vec<u32>,
    /// Packets already accounted as dropped (guards double counting when a
    /// packet is disturbed by several faults or escalation paths).
    dropped_ids: HashSet<u64>,
    /// Last cycle the watchdog observed forward progress.
    last_progress: Cycle,
    /// Progress score (delivered + dropped) at `last_progress`.
    last_score: u64,
    /// Set when the stall watchdog aborted the run.
    stall: Option<StallReport>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds a network for `cfg` driven by `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig, workload: WorkloadSpec, traffic_seed: u64) -> Self {
        if let Some(rr) = workload.reqreply.clone() {
            let w = ReqReplyWorkload::new(workload, rr, cfg.width, cfg.height, traffic_seed);
            return Self::with_workload(cfg, Box::new(w));
        }
        let gen = TrafficGen::new(workload, cfg.width, cfg.height, traffic_seed);
        Self::with_workload(cfg, Box::new(gen))
    }

    /// Builds a network driven by an arbitrary [`Workload`] — e.g. a
    /// [`noc_traffic::TraceReplay`] of a captured trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]).
    pub fn with_workload(cfg: SimConfig, workload: Box<dyn Workload>) -> Self {
        cfg.validate();
        let mesh = Mesh::new(cfg.width, cfg.height);
        let n = mesh.nodes();
        let routers: Vec<Router> =
            (0..n).map(|id| Router::new(id, cfg.vcs, cfg.vc_depth, cfg.default_scheme)).collect();
        let links = Links::new(&mesh, cfg.channel_capacity);
        let thermal = ThermalGrid::new(cfg.thermal, cfg.width, cfg.height);
        let base_re = cfg.varius.bit_error_rate(thermal.temp_c(0), cfg.vdd, 0.0);
        let health = HealthRouter::new(mesh);
        let n_faults = cfg.hard_faults.faults.len();
        Network {
            health,
            fault_state: vec![false; n_faults],
            failstop_link_down: vec![false; n * DIRS],
            failstop_router_down: vec![false; n],
            fs_comp: vec![0; n],
            dropped_ids: HashSet::new(),
            last_progress: 0,
            last_score: 0,
            stall: None,
            mesh,
            now: 0,
            routers,
            links,
            nis: Nis::new(n),
            traffic: workload,
            suite: EccSuite::new(),
            injector: FaultInjector::new(cfg.seed),
            thermal,
            aging: vec![AgingState::new(); n],
            re: vec![base_re; n],
            ledger: EnergyLedger::new(),
            stats: NetworkStats::default(),
            outstanding: vec![0; n],
            next_packet_id: 0,
            next_flit_id: 0,
            completed: 0,
            probe: Probe::default(),
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Installs the telemetry sinks `cfg` asks for, replacing any installed
    /// before; subsequent cycles feed them. Sinks read simulator state but
    /// never perturb it, so cycle-domain results are identical whatever is
    /// installed.
    pub fn install_probe(&mut self, cfg: ProbeConfig) {
        self.probe = Probe::new(cfg, &self.mesh, self.traffic.name());
        self.traffic.set_txn_event_recording(self.probe.wants_txn_events());
    }

    /// Removes every installed sink, closing each at the current cycle.
    pub fn take_probe(&mut self) -> ProbeArtifacts {
        self.traffic.set_txn_event_recording(false);
        std::mem::take(&mut self.probe).finish(&self.mesh, self.now)
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.probe.tracer.as_ref()
    }

    /// Mutable access to the installed tracer (for control-layer events
    /// emitted between cycles).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.probe.tracer.as_mut()
    }

    /// The installed profiler, if any (e.g. to read the span tree).
    pub fn profiler(&self) -> Option<&Profiler> {
        self.probe.profiler.as_ref()
    }

    /// Mutable access to the installed profiler (for control-layer spans
    /// recorded between cycles).
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.probe.profiler.as_mut()
    }

    /// Per-node transaction accounting for closed-loop workloads; `None`
    /// for open-loop traffic.
    pub fn txn_stats(&self) -> Option<&TxnStats> {
        self.traffic.txn_stats()
    }

    /// Transaction ids missing from the workload's transaction table —
    /// non-empty means the conservation invariant is broken.
    pub fn txn_orphans(&self) -> Vec<u64> {
        self.traffic.txn_orphans()
    }

    /// Samples link bit flips, as a `fault.inject` leaf span when profiling.
    #[inline]
    fn sample_flips(&mut self, bits: usize, re: f64) -> u32 {
        let t0 = self.probe.clock();
        let k = self.injector.sample_flip_count(bits, re);
        self.probe.span_leaf("fault.inject", t0, 1);
        k
    }

    /// Forces a fixed per-bit transient error rate (Fig. 17b sweep).
    pub fn set_error_rate_override(&mut self, rate: Option<f64>) {
        self.injector.set_rate_override(rate);
    }

    /// Whether every workload packet has been generated and either
    /// delivered or accounted as dropped.
    pub fn is_done(&self) -> bool {
        self.traffic.is_exhausted()
            && self.completed + self.stats.packets_dropped == self.stats.packets_injected
    }

    fn channel_index(&self, router: usize, dir: Port) -> usize {
        router * DIRS + dir.index()
    }

    /// The channel feeding input port `port` of router `r` (owned by the
    /// neighbor in that direction), if it exists.
    fn incoming_index(&self, r: usize, port: Port) -> Option<usize> {
        let up = self.health.neighbor(r, port)?;
        Some(self.channel_index(up, port.opposite()))
    }

    // ------------------------------------------------------------------
    // Phase 0: scheduled hard faults (fail-stop and intermittent)
    // ------------------------------------------------------------------

    /// The current link/router health map.
    pub fn health(&self) -> &HealthRouter {
        &self.health
    }

    /// The stall-watchdog diagnostic, if the run was aborted.
    pub fn stall(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    /// Applies scheduled hard-fault transitions at `self.now`. On any
    /// service-state edge the health map and route tables are rebuilt, and
    /// packets stranded on fail-stop-dead components are salvaged via
    /// end-to-end recovery or accounted as dropped. Intermittent outages
    /// only stall traffic: stored flits wait out the outage.
    fn apply_hard_faults(&mut self) {
        if self.cfg.hard_faults.is_empty() {
            return;
        }
        let now = self.now;
        let mut edges: Vec<(HardFaultTarget, bool)> = Vec::new();
        for (i, fault) in self.cfg.hard_faults.faults.iter().enumerate() {
            let down = fault.is_down(now);
            if down != self.fault_state[i] {
                self.fault_state[i] = down;
                edges.push((fault.target, down));
            }
        }
        if edges.is_empty() {
            return;
        }
        for (target, down) in edges {
            self.probe.event(match (target, down) {
                (HardFaultTarget::Link { router, dir }, true) => {
                    Event::LinkFailed { cycle: now, router, dir }
                }
                (HardFaultTarget::Link { router, dir }, false) => {
                    Event::LinkRepaired { cycle: now, router, dir }
                }
                (HardFaultTarget::Router { router }, true) => {
                    Event::RouterFailed { cycle: now, router }
                }
                (HardFaultTarget::Router { router }, false) => {
                    Event::RouterRepaired { cycle: now, router }
                }
            });
        }
        // Recompute the aggregate service state from scratch: faults can
        // overlap (e.g. a flapping link inside a dead router), so per-edge
        // incremental updates would be wrong.
        let n = self.mesh.nodes();
        let mut link_down = vec![false; n * DIRS];
        let mut router_down = vec![false; n];
        let mut fs_link_down = vec![false; n * DIRS];
        let mut fs_router_down = vec![false; n];
        for (i, fault) in self.cfg.hard_faults.faults.iter().enumerate() {
            if !self.fault_state[i] {
                continue;
            }
            let fail_stop = !fault.is_intermittent();
            match fault.target {
                HardFaultTarget::Link { router, dir } => {
                    let idx = router as usize * DIRS + dir as usize;
                    link_down[idx] = true;
                    fs_link_down[idx] = fs_link_down[idx] || fail_stop;
                }
                HardFaultTarget::Router { router } => {
                    router_down[router as usize] = true;
                    fs_router_down[router as usize] = fs_router_down[router as usize] || fail_stop;
                }
            }
        }
        // A physical link fails in both directions regardless of which
        // endpoint the scenario named.
        symmetrize_links(&self.mesh, &mut link_down);
        symmetrize_links(&self.mesh, &mut fs_link_down);
        for r in 0..n {
            self.health.set_router(r, !router_down[r]);
            for dir in [Port::XPlus, Port::YPlus] {
                self.health.set_link(r, dir, !link_down[r * DIRS + dir.index()]);
            }
        }
        self.health.rebuild();
        self.failstop_link_down = fs_link_down;
        self.failstop_router_down = fs_router_down;
        self.rebuild_fs_components();
        self.purge_after_fault();
    }

    /// Labels connected components of the fail-stop-surviving topology.
    fn rebuild_fs_components(&mut self) {
        let n = self.mesh.nodes();
        self.fs_comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut queue = VecDeque::new();
        for start in 0..n {
            if self.fs_comp[start] != u32::MAX || self.failstop_router_down[start] {
                continue;
            }
            self.fs_comp[start] = next;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for dir in Port::DIRECTIONS {
                    let Some(v) = self.mesh.neighbor(u, dir) else { continue };
                    if self.failstop_link_down[u * DIRS + dir.index()]
                        || self.failstop_router_down[v]
                        || self.fs_comp[v] != u32::MAX
                    {
                        continue;
                    }
                    self.fs_comp[v] = next;
                    queue.push_back(v);
                }
            }
            next += 1;
        }
    }

    /// Routes `here → dest` given the arrival port: health-aware detour
    /// routing when `fault_aware_routing` is enabled, plain XY otherwise
    /// (in which case traffic blocked by a dead link waits until the stall
    /// watchdog aborts the run).
    fn route_via(&self, here: usize, dest: usize, in_port: Port) -> Option<Port> {
        if self.cfg.fault_aware_routing {
            self.health.route(here, dest, in_port)
        } else {
            Some(self.mesh.xy_route(here, dest))
        }
    }

    /// Whether a packet at router `at` can never reach `dest` again:
    /// either endpoint is fail-stop dead or they sit in different
    /// fail-stop-surviving components. Intermittent outages do not count.
    fn fs_split(&self, at: usize, dest: usize) -> bool {
        self.failstop_router_down[at]
            || self.failstop_router_down[dest]
            || self.fs_comp[at] != self.fs_comp[dest]
    }

    /// Finds every packet disturbed by a health-map transition and salvages
    /// or drops it: flits stranded on a fail-stop-dead component (or bound
    /// for a dead destination), plus — under fault-aware routing — packets
    /// whose head is parked at a position the rebuilt up*/down* table cannot
    /// continue from. Iteration is in deterministic packet-id order.
    fn purge_after_fault(&mut self) {
        let n = self.mesh.nodes();
        let any_failstop = self.failstop_link_down.iter().any(|&d| d)
            || self.failstop_router_down.iter().any(|&d| d);
        let mut disturbed: BTreeMap<u64, Flit> = BTreeMap::new();
        if any_failstop {
            // Channel-resident flits on a dead link or feeding a dead router.
            for u in 0..n {
                for dir in Port::DIRECTIONS {
                    let ci = self.channel_index(u, dir);
                    let Some(ch) = self.links.get(ci) else { continue };
                    let v = self.mesh.neighbor(u, dir).expect("channel implies neighbor");
                    let dead_path = self.failstop_link_down[ci]
                        || self.failstop_router_down[u]
                        || self.failstop_router_down[v];
                    for i in 0..ch.occupancy() {
                        let f = *ch.get(i);
                        if dead_path || self.fs_split(v, f.dest as usize) {
                            disturbed.entry(f.packet_id).or_insert(f);
                        }
                    }
                }
            }
            // VC-resident flits: dead router, dead bound output, or dead dest.
            for r in 0..n {
                let router_dead = self.failstop_router_down[r];
                let router = &self.routers[r];
                for p in 0..PORTS {
                    for (vi, vc) in router.port_vcs(p).iter().enumerate() {
                        let route = vc.route();
                        let route_dead = route != Port::Local
                            && (self.failstop_link_down[r * DIRS + route.index()]
                                || self
                                    .mesh
                                    .neighbor(r, route)
                                    .map(|nb| self.failstop_router_down[nb])
                                    .unwrap_or(false));
                        for f in router.flits(p, vi) {
                            if router_dead
                                || (route_dead && vc.is_bound_to(f.packet_id))
                                || self.fs_split(r, f.dest as usize)
                            {
                                disturbed.entry(f.packet_id).or_insert(*f);
                            }
                        }
                    }
                }
            }
            // NI injection queues: dead source or dead destination.
            for r in 0..n {
                let ni_dead = self.failstop_router_down[r];
                for f in &self.nis[r].inject {
                    if ni_dead || self.fs_split(r, f.dest as usize) {
                        disturbed.entry(f.packet_id).or_insert(*f);
                    }
                }
            }
            // Partial reassembly state dies with a destination router.
            for r in 0..n {
                if self.failstop_router_down[r] {
                    self.nis.recv_mut(r).clear();
                }
            }
        }
        // A rebuild invalidates routes computed under the previous topology.
        // The up*/down* table only guarantees progress from legal states; a
        // packet caught mid-path by the transition can sit at a (node,
        // arrival-port) pair the new table has no continuation for — it
        // would wait forever and leak its downstream VC reservation. Rebind
        // parked heads that still have a legal continuation; salvage the
        // phase-stranded rest. Targets inside an intermittent outage are
        // skipped here and re-swept at the repair edge.
        if self.cfg.fault_aware_routing {
            for u in 0..n {
                for dir in Port::DIRECTIONS {
                    let ci = self.channel_index(u, dir);
                    let Some(ch) = self.links.get(ci) else { continue };
                    if !self.health.usable(u, dir) {
                        continue;
                    }
                    let v = self.mesh.neighbor(u, dir).expect("channel implies neighbor");
                    for i in 0..ch.occupancy() {
                        let f = *ch.get(i);
                        if f.is_head()
                            && self.health.route(v, f.dest as usize, dir.opposite()).is_none()
                        {
                            disturbed.entry(f.packet_id).or_insert(f);
                        }
                    }
                }
            }
            let mut rebinds: Vec<(usize, usize, usize, Port)> = Vec::new();
            for r in 0..n {
                if !self.health.router_up(r) {
                    continue;
                }
                let router = &self.routers[r];
                for p in 0..PORTS {
                    for (vi, vc) in router.port_vcs(p).iter().enumerate() {
                        let Some(head) = router.flits(p, vi).next().copied() else { continue };
                        if !vc.is_bound_to(head.packet_id) || !head.is_head() {
                            continue; // body flits must follow their head's path
                        }
                        match self.health.route(r, head.dest as usize, Port::from_index(p)) {
                            None => {
                                disturbed.entry(head.packet_id).or_insert(head);
                            }
                            Some(route) if route != vc.route() => {
                                rebinds.push((r, p, vi, route));
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
            for (r, p, vi, route) in rebinds {
                self.routers[r].rebind_route(p, vi, route);
            }
        }
        for (_, f) in disturbed {
            self.salvage_or_drop(f);
        }
    }

    /// Removes every in-flight flit of `packet` from channels, input VCs,
    /// NI injection queues, and reassembly buffers.
    fn purge_packet(&mut self, packet: u64) {
        self.links.purge_packet(packet);
        for router in &mut self.routers {
            router.purge_packet(packet);
        }
        self.nis.purge_packet(packet);
    }

    /// End-to-end recovery for a packet disturbed by a hard fault or out of
    /// hop-retry budget: purges its in-flight flits, then re-injects it
    /// from the source NI with a bumped generation — or, when the budget is
    /// exhausted or no route survives, accounts it as dropped.
    fn salvage_or_drop(&mut self, f: Flit) {
        self.purge_packet(f.packet_id);
        if self.dropped_ids.contains(&f.packet_id) {
            return;
        }
        let src = f.src as usize;
        let budget_ok = self.cfg.max_retx == 0 || u32::from(f.generation) < self.cfg.max_retx;
        // Intermittent outages don't disqualify a salvage: the re-injected
        // packet simply waits them out in the source NI queue.
        let routable = !self.fs_split(src, f.dest as usize);
        if budget_ok && routable {
            self.stats.e2e_retx_packets += 1;
            self.stats.retransmitted_flits += crate::flit::FLITS_PER_PACKET as u64;
            self.probe.event(Event::Retransmission {
                cycle: self.now,
                router: src as u32,
                packet: f.packet_id,
                scope: RetxScope::E2e,
            });
            let mut flits =
                make_packet(f.packet_id, self.next_flit_id, f.src, f.dest, f.injected_at);
            self.next_flit_id += crate::flit::FLITS_PER_PACKET as u64;
            for nf in &mut flits {
                nf.generation = f.generation + 1;
            }
            self.routers[src].counters.crc_ops += crate::flit::FLITS_PER_PACKET as u64;
            self.routers[src].counters.retransmitted_flits += crate::flit::FLITS_PER_PACKET as u64;
            self.nis.extend(src, flits);
            self.probe.e2e_retx(f.packet_id, self.now);
        } else {
            self.account_drop(&f);
        }
    }

    /// Accounts a packet as permanently lost. Idempotent per packet id.
    fn account_drop(&mut self, f: &Flit) {
        if !self.dropped_ids.insert(f.packet_id) {
            return;
        }
        self.probe.drop(f.packet_id);
        let src = f.src as usize;
        self.stats.packets_dropped += 1;
        self.outstanding[src] = self.outstanding[src].saturating_sub(1);
        self.probe.event(Event::PacketDropped {
            cycle: self.now,
            router: u32::from(f.src),
            packet: f.packet_id,
            bits: u32::from(f.generation),
        });
        self.traffic.on_dropped(self.now, f.packet_id);
    }

    /// Checks forward progress and arms the stall diagnostic when none was
    /// made for a full watchdog window while packets are in flight.
    fn watchdog_check(&mut self) -> bool {
        if self.cfg.stall_window == 0 {
            return false;
        }
        let score = self.stats.packets_delivered + self.stats.packets_dropped;
        let in_flight = self
            .stats
            .packets_injected
            .saturating_sub(self.stats.packets_delivered + self.stats.packets_dropped);
        if score != self.last_score || in_flight == 0 {
            self.last_score = score;
            self.last_progress = self.now;
            return false;
        }
        if self.now.saturating_sub(self.last_progress) < self.cfg.stall_window {
            return false;
        }
        self.probe.event(Event::WatchdogStall { cycle: self.now, router: 0, state: in_flight });
        self.stall = Some(StallReport {
            cycle: self.now,
            window: self.cfg.stall_window,
            in_flight,
            blocked: self.snapshot_blocked(16).lines().map(String::from).collect(),
            dump: self.snapshot_dump(),
        });
        true
    }

    // ------------------------------------------------------------------
    // Phase 1: router internal movement
    // ------------------------------------------------------------------

    fn sa_phase(&mut self, r: usize) {
        let sa_base = self.routers[r].sa_rr;
        // The round-robin pointer is part of the cycle domain: it advances
        // on every visit, whether or not anything is granted.
        self.routers[r].sa_rr = (sa_base + 1) % PORTS;
        if self.routers[r].is_drained() {
            return; // nothing buffered: no candidates, O(1)
        }
        self.routers[r].promote_ready(self.now);
        // Allocation reads nothing a commit of the same cycle changes except
        // which input ports are taken, which it tracks itself: each output
        // has its own channel and its own downstream router.
        for grant in self.sa_allocate(r, sa_base).into_iter().flatten() {
            self.sa_commit(r, grant);
        }
    }

    /// Switch + VC allocation for router `r` from its readiness masks: at
    /// most one grant per output port (slot `k` is output `sa_base + k`)
    /// and per input port.
    fn sa_allocate(&self, r: usize, sa_base: usize) -> [Option<SaGrant>; PORTS] {
        let router = &self.routers[r];
        // Table rows are port-major, so splitting a mask at the first row of
        // port `sa_base` and reading the high part first visits candidates
        // in round-robin port order, then VC order.
        let split = sa_base * router.vcs();
        let mut granted_rows = 0u64; // every row of an already granted input port
        let mut grants = [None; PORTS];
        for (k, slot) in grants.iter_mut().enumerate() {
            let out = Port::from_index((sa_base + k) % PORTS);
            let cands = router.sa_requests(out) & !granted_rows;
            if cands == 0 {
                continue; // nothing wants this output
            }
            // The downstream VC a head flit would get (any flit, when
            // ejecting): `NO_VC` when ejecting or when the downstream router
            // takes no reservation (gated,
            // waking, or draining toward a proactive gate), `None` when VA
            // fails. One lookup serves the whole output: only this router's
            // single grant per output reserves on that downstream port.
            let head_dvc = if out == Port::Local {
                Some(NO_VC)
            } else {
                if !self.health.usable(r, out) {
                    continue; // dead link or dead downstream router: flits wait
                }
                if !self.links.has_space(self.channel_index(r, out)) {
                    continue; // boundary or full channel
                }
                let down = &self.routers[self.health.neighbor(r, out).expect("usable link")];
                if down.is_on() && !down.gate_pending {
                    down.free_vc(out.opposite().index()).map(|vc| vc as u8)
                } else {
                    Some(NO_VC)
                }
            };
            // The first candidate wins unless it is a head and VA failed;
            // bodies inherit the downstream VC their head won.
            let high = cands >> split << split;
            let winner = set_bits(high).chain(set_bits(cands ^ high)).find_map(|row| {
                let entry = router.row(row);
                let inherits = out != Port::Local && !entry.holds_head();
                Some((row, if inherits { entry.out_vc() } else { head_dvc? }))
            });
            let Some((row, dvc)) = winner else { continue }; // only heads, and no free VC
            let (port, vc) = (row / router.vcs(), row % router.vcs());
            granted_rows |= router.port_mask(port);
            *slot = Some(SaGrant { port, vc, out, dvc });
        }
        grants
    }

    /// Carries out one grant of router `r`: reserves the downstream VC a
    /// head won, pops the flit and sends it onto its channel or ejects it.
    fn sa_commit(&mut self, r: usize, grant: SaGrant) {
        let now = self.now;
        let SaGrant { port: p, vc: v, out, dvc } = grant;
        let scheme = self.routers[r].directive.scheme;
        let per_hop = scheme.is_per_hop();
        let router = &mut self.routers[r];
        let mut flit = router.pop_granted(p, v, now);
        let reserves = flit.is_head() && dvc != NO_VC;
        if flit.is_head() {
            router.set_out_vc(p, v, dvc);
        }
        flit.vc = dvc;
        router.counters.buffer_reads += 1;
        router.counters.xbar_traversals += 1;
        router.counters.alloc_ops += 1;
        router.step.out_flits[out.index()] += 1;
        self.probe.sa_grant(reserves);
        if reserves {
            let dv = self.health.neighbor(r, out).expect("non-local output");
            self.routers[dv].reserve(out.opposite().index(), dvc as usize, flit.packet_id);
        }
        if out == Port::Local {
            self.eject(r, flit);
            return;
        }
        let ci = self.channel_index(r, out);
        flit.hop_scheme = if per_hop { scheme } else { EccScheme::None };
        let router = &mut self.routers[r];
        router.counters.link_flits += 1;
        if per_hop {
            router.counters.count_ecc_op(scheme); // encode
        }
        if self.cfg.channel_capacity > 0 {
            router.counters.channel_stage_ops += 1;
        }
        let cost = self.links.get(ci).expect("channel exists").latency();
        self.probe.link_flit(ci, &flit, cost, false, now);
        self.links.push(ci, flit, now);
    }

    fn bypass_phase(&mut self, r: usize) {
        let now = self.now;
        let rr = self.routers[r].bypass_rr;
        // Like `sa_rr`, the pointer advances on every visit.
        self.routers[r].bypass_rr = (rr + 1) % PORTS;
        if !self.nis.waiting(r) && self.links.inbound(r) == 0 {
            return; // nothing to forward, O(1)
        }
        let mut out_used = [false; PORTS];
        // The bypass is a simple single-flit latch switch (paper §3.3): it
        // forwards at most ONE flit per cycle, round-robin over the inputs.
        // That serialization is the throughput price of power gating.
        let mut forwarded = false;
        // Inputs 0..4 are incoming direction channels; input 4 is the NI.
        for k in 0..PORTS {
            if forwarded {
                break;
            }
            let i = (rr + k) % PORTS;
            let (dest, is_ni) = if i < DIRS {
                let Some(ci) = self.incoming_index(r, Port::from_index(i)) else { continue };
                let Some(ch) = self.links.get(ci) else { continue };
                match ch.peek_ready(now) {
                    Some(f) => (f.dest as usize, false),
                    None => continue,
                }
            } else {
                match self.nis[r].inject.front() {
                    Some(f) => (f.dest as usize, true),
                    None => continue,
                }
            };
            let in_port = if is_ni { Port::Local } else { Port::from_index(i) };
            let Some(route) = self.route_via(r, dest, in_port) else {
                continue; // no live route right now: the flit waits
            };
            if out_used[route.index()] {
                continue;
            }
            // Without the crossbar, the bypass can only continue straight
            // ahead or eject (paper §3.3 / Fig. 6); a turning flit must wait
            // for the router to wake (see gating phase).
            if !is_ni && route != Port::Local && route != Port::from_index(i).opposite() {
                continue;
            }
            if route == Port::Local {
                let flit = if is_ni {
                    Some(self.nis.pop_front(r).expect("checked nonempty"))
                } else {
                    self.bypass_eject_consume(r, i)
                };
                let Some(flit) = flit else { continue };
                out_used[Port::Local.index()] = true;
                self.routers[r].step.in_flits[i.min(PORTS - 1)] += 1;
                self.eject(r, flit);
            } else {
                if !self.health.usable(r, route) {
                    continue; // outage on the outgoing link: wait it out
                }
                let out_ci = self.channel_index(r, route);
                if !self.links.has_space(out_ci) {
                    continue;
                }
                let flit = if is_ni {
                    // Locally injected flits enter the mesh unencoded; they
                    // pick up per-hop protection at the first powered router.
                    let mut f = self.nis.pop_front(r).expect("checked nonempty");
                    f.hop_scheme = EccScheme::None;
                    f
                } else {
                    // Forward the still-encoded codeword unchanged.
                    self.bypass_consume(r, i)
                };
                out_used[route.index()] = true;
                forwarded = true;
                let router = &mut self.routers[r];
                router.step.in_flits[i.min(PORTS - 1)] += 1;
                router.step.out_flits[route.index()] += 1;
                router.counters.link_flits += 1;
                router.counters.channel_stage_ops += 1;
                let cost = self.links.get(out_ci).expect("checked").latency() + 1;
                self.probe.link_flit(out_ci, &flit, cost, true, now);
                // The bypass mux/latch adds one cycle on top of the link.
                self.links.push_delayed(out_ci, flit, now, 1);
            }
        }
    }

    /// Consumes the ready head flit of the incoming channel on direction
    /// port `i` of gated router `r`, sampling link faults with no decoding
    /// (the gated router's ECC hardware is off, so flips accumulate toward
    /// the end-to-end check).
    fn bypass_consume(&mut self, r: usize, i: usize) -> Flit {
        let now = self.now;
        let port = Port::from_index(i);
        let up = self.health.neighbor(r, port).expect("incoming channel exists");
        let ci = self.incoming_index(r, port).expect("incoming channel exists");
        let mut flit = self.links.pop_ready(ci, now);
        let relaxed = self.links.get(ci).is_some_and(|c| c.relaxed);
        let base = self.re[up];
        let re = if relaxed { (base * base).max(1e-300) } else { base };
        let bits = self.traversal_bits(&flit);
        let k = self.sample_flips(bits, re);
        if k > 0 {
            self.stats.faulty_traversals += 1;
            if flit.hop_scheme.is_per_hop() {
                // The gated router's decoder is off: corruption rides the
                // still-encoded codeword until the next powered router.
                flit.hop_flips = flit.hop_flips.saturating_add(k as u16);
            } else {
                flit.e2e_flips = flit.e2e_flips.saturating_add(k as u16);
            }
        }
        self.routers[up].step.error_hist[(k as usize).min(3)] += 1;
        flit.hops += 1;
        self.probe.event(Event::HopTraversed {
            cycle: now,
            router: r as u32,
            packet: flit.packet_id,
            flit: flit.id,
        });
        flit
    }

    /// Like [`Network::bypass_consume`], but for flits being ejected at the
    /// gated router's own node: the destination NI *does* decode the per-hop
    /// codeword (it must recover the data to consume it), so uncorrectable
    /// corruption triggers a per-hop re-transmission instead of silently
    /// reaching the core. Returns `None` when the flit was NACKed.
    fn bypass_eject_consume(&mut self, r: usize, i: usize) -> Option<Flit> {
        let now = self.now;
        let port = Port::from_index(i);
        let up = self.health.neighbor(r, port).expect("incoming channel exists");
        let ci = self.incoming_index(r, port).expect("incoming channel exists");
        let head = *self.links.get(ci).expect("channel exists").peek_ready(now)?;
        let relaxed = self.links.get(ci).is_some_and(|c| c.relaxed);
        let base = self.re[up];
        let re = if relaxed { (base * base).max(1e-300) } else { base };
        let bits = self.traversal_bits(&head);
        let k_link = self.sample_flips(bits, re);
        if k_link > 0 {
            self.stats.faulty_traversals += 1;
        }
        self.routers[up].step.error_hist[(k_link as usize).min(3)] += 1;
        let k = k_link + head.hop_flips as u32;
        let mut extra_flips = 0u16;
        if k > 0 && head.hop_scheme.is_per_hop() {
            let scheme = head.hop_scheme;
            let payload = head.payload();
            let mut cw = self.suite.encode(scheme, payload);
            let k = k.min(bits as u32);
            for pos in self.injector.choose_positions(bits, k) {
                cw.flip_bit(pos);
            }
            let (data, status) = self.suite.decode(scheme, &cw);
            match status {
                DecodeStatus::Clean => extra_flips = k as u16,
                DecodeStatus::Corrected(_) => {
                    if data == payload {
                        self.stats.corrected_bits += k as u64;
                        self.probe.event(Event::EccCorrected {
                            cycle: now,
                            router: r as u32,
                            packet: head.packet_id,
                            bits: k,
                        });
                        self.probe.ecc_corrected(head.packet_id, r as u16, now);
                    } else {
                        extra_flips = k as u16;
                    }
                }
                DecodeStatus::Detected => {
                    if self.cfg.max_retx > 0 && u32::from(head.retx) >= self.cfg.max_retx {
                        // Hop-retry budget exhausted: escalate to
                        // end-to-end recovery (or an accounted drop).
                        self.salvage_or_drop(head);
                        return None;
                    }
                    self.links.delay_at(ci, 0, now, self.cfg.retx_latency as u64);
                    self.probe.hop_retx(ci, &head, self.cfg.retx_latency as u64, now);
                    self.stats.hop_retx_events += 1;
                    self.stats.retransmitted_flits += 1;
                    self.probe.event(Event::Retransmission {
                        cycle: now,
                        router: r as u32,
                        packet: head.packet_id,
                        scope: RetxScope::Hop,
                    });
                    let upr = &mut self.routers[up];
                    upr.step.retransmissions += 1;
                    upr.counters.retransmitted_flits += 1;
                    upr.counters.link_flits += 1;
                    upr.counters.count_ecc_op(scheme);
                    return None;
                }
            }
            let mut flit = self.links.pop_ready(ci, now);
            flit.e2e_flips = flit.e2e_flips.saturating_add(extra_flips);
            flit.hop_flips = 0;
            flit.hops += 1;
            self.routers[r].counters.count_ecc_op(scheme); // NI-side decode
            self.probe.event(Event::HopTraversed {
                cycle: now,
                router: r as u32,
                packet: flit.packet_id,
                flit: flit.id,
            });
            return Some(flit);
        }
        let mut flit = self.links.pop_ready(ci, now);
        if k > 0 {
            // Unprotected traversal: corruption flows to the e2e check.
            flit.e2e_flips = flit.e2e_flips.saturating_add(k as u16);
            flit.hop_flips = 0;
        }
        flit.hops += 1;
        self.probe.event(Event::HopTraversed {
            cycle: now,
            router: r as u32,
            packet: flit.packet_id,
            flit: flit.id,
        });
        Some(flit)
    }

    /// Number of physical bits on the wire for this flit's traversal.
    fn traversal_bits(&self, flit: &Flit) -> usize {
        if flit.hop_scheme.is_per_hop() {
            flit.hop_scheme.codeword_bits()
        } else if self.cfg.e2e_crc {
            EccScheme::Crc.codeword_bits()
        } else {
            128
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: deliveries into powered routers
    // ------------------------------------------------------------------

    fn delivery_phase(&mut self) {
        let now = self.now;
        // Non-empty channels in ascending (router, direction) order. The
        // set is re-read for every step, so a channel filled mid-pass by a
        // BST-continuation push ahead of the cursor is visited this cycle
        // and one behind it is not — what a scan of every slot would do.
        let mut next_slot = 0;
        while let Some(ci) = self.links.next_occupied(next_slot) {
            next_slot = ci + 1;
            let (u, dir) = (ci / DIRS, Port::from_index(ci % DIRS));
            let v = self.health.neighbor(u, dir).expect("channel implies neighbor");
            if !self.health.usable(u, dir) {
                continue; // link or endpoint outage: stored flits wait
            }
            if !self.routers[v].is_on() {
                continue; // bypass (phase 1) handles gated routers
            }
            let pending = self.routers[v].gate_pending;
            let in_port = dir.opposite().index();
            // Scan channel storage for the first deliverable flit
            // (order-preserving per packet — the BST dynamic buffer
            // allocation of §3.1.2).
            let idx = {
                let links = &self.links;
                let health = &self.health;
                let mesh = self.mesh;
                let fault_aware = self.cfg.fault_aware_routing;
                let Some(ch) = links.get(ci) else { continue };
                let down = &self.routers[v];
                let continuation_ok = |flit: &Flit| {
                    let route = if fault_aware {
                        health.route(v, flit.dest as usize, dir.opposite())
                    } else {
                        Some(mesh.xy_route(v, flit.dest as usize))
                    };
                    match route {
                        Some(Port::Local) => true,
                        Some(out) => {
                            links.has_space(v * DIRS + out.index()) && health.usable(v, out)
                        }
                        None => false, // no live route: wait
                    }
                };
                ch.scan_deliverable(now, |flit| {
                    if flit.is_head() {
                        if flit.vc != NO_VC {
                            down.vc(in_port, flit.vc as usize).is_reserved_for(flit.packet_id)
                        } else {
                            // Unreserved head (granted while this router
                            // was gated): bind a free VC, or — to keep
                            // the channel from wedging on VC exhaustion —
                            // ride the BST continuation latch onward.
                            // While draining toward a proactive gate only
                            // the continuation path is allowed.
                            let can_bind = !pending && down.free_vc(in_port).is_some();
                            can_bind || continuation_ok(flit)
                        }
                    } else if down.bound_vc(in_port, flit.packet_id).is_some() {
                        down.accept_target(in_port, flit).is_some()
                    } else {
                        // BST continuation (§3.1.2): the head passed this
                        // router while it was gated (bypass), so no VC is
                        // bound; the BST still holds the packet's route,
                        // and the body follows latch-to-channel.
                        continuation_ok(flit)
                    }
                })
            };
            let Some(idx) = idx else { continue };
            let head = *self.links.get(ci).expect("channel exists").get(idx);
            // Route at the receiving router, around any hard faults.
            // Heads (and BST continuations) need a live route now; a
            // temporarily unreachable destination (intermittent outage)
            // leaves them waiting on the channel. Body/tail flits bound
            // to a VC follow the path their head already took, so a
            // missing route must not block them.
            let bound_body =
                !head.is_head() && self.routers[v].bound_vc(in_port, head.packet_id).is_some();
            let route = if bound_body {
                Port::Local // unused: the flit follows its VC's binding
            } else {
                let t_rc = self.probe.clock();
                let routed = self.route_via(v, head.dest as usize, dir.opposite());
                self.probe.span_leaf("route.compute", t_rc, 0);
                let Some(route) = routed else { continue };
                route
            };
            // The flit physically traverses the link now: sample faults.
            let scheme = head.hop_scheme;
            let re = {
                let base = self.re[u];
                let relaxed = self.links.get(ci).is_some_and(|c| c.relaxed);
                if relaxed {
                    (base * base).max(1e-300)
                } else {
                    base
                }
            };
            let bits = self.traversal_bits(&head);
            let k_link = self.sample_flips(bits, re);
            let bucket = (k_link as usize).min(3);
            self.routers[u].step.error_hist[bucket] += 1;
            if k_link > 0 {
                self.stats.faulty_traversals += 1;
            }
            // Corruption accumulated while bypassing gated routers is
            // still in the codeword and decodes here.
            let k = k_link + head.hop_flips as u32;
            let mut extra_flips = 0u16;
            if k > 0 {
                if scheme.is_per_hop() {
                    let payload = head.payload();
                    let t_enc = self.probe.clock();
                    let mut cw = self.suite.encode(scheme, payload);
                    self.probe.span_leaf("ecc.encode", t_enc, 1);
                    let k = k.min(bits as u32);
                    for pos in self.injector.choose_positions(bits, k) {
                        cw.flip_bit(pos);
                    }
                    let t_dec = self.probe.clock();
                    let (data, status) = self.suite.decode(scheme, &cw);
                    self.probe.span_leaf("ecc.decode", t_dec, 1);
                    match status {
                        DecodeStatus::Clean => extra_flips = k as u16,
                        DecodeStatus::Corrected(_) => {
                            if data == payload {
                                self.stats.corrected_bits += k as u64;
                                self.probe.event(Event::EccCorrected {
                                    cycle: now,
                                    router: v as u32,
                                    packet: head.packet_id,
                                    bits: k,
                                });
                                self.probe.ecc_corrected(head.packet_id, v as u16, now);
                            } else {
                                extra_flips = k as u16;
                            }
                        }
                        DecodeStatus::Detected => {
                            let t_retx = self.probe.clock();
                            if self.cfg.max_retx > 0 && u32::from(head.retx) >= self.cfg.max_retx {
                                // Hop-retry budget exhausted: escalate to
                                // end-to-end recovery (or accounted drop).
                                self.salvage_or_drop(head);
                                self.probe.span_leaf("retx.ladder", t_retx, 1);
                                continue;
                            }
                            // NACK: the stored copy re-traverses the link.
                            self.links.delay_at(ci, idx, now, self.cfg.retx_latency as u64);
                            self.probe.hop_retx(ci, &head, self.cfg.retx_latency as u64, now);
                            self.stats.hop_retx_events += 1;
                            self.stats.retransmitted_flits += 1;
                            self.probe.event(Event::Retransmission {
                                cycle: now,
                                router: v as u32,
                                packet: head.packet_id,
                                scope: RetxScope::Hop,
                            });
                            let up = &mut self.routers[u];
                            up.step.retransmissions += 1;
                            up.counters.retransmitted_flits += 1;
                            up.counters.link_flits += 1;
                            up.counters.count_ecc_op(scheme); // re-encode
                            if self.cfg.mfac_retx {
                                up.counters.channel_stage_ops += 1;
                            } else {
                                up.counters.buffer_reads += 1;
                            }
                            self.probe.span_leaf("retx.ladder", t_retx, 1);
                            continue;
                        }
                    }
                } else {
                    extra_flips = k as u16;
                }
            }
            // Deliver.
            let mut flit = self.links.remove_at(ci, idx);
            flit.e2e_flips = flit.e2e_flips.saturating_add(extra_flips);
            flit.hop_flips = 0; // decoded (and re-encoded at next output)
            flit.hops += 1;
            self.probe.event(Event::HopTraversed {
                cycle: now,
                router: v as u32,
                packet: flit.packet_id,
                flit: flit.id,
            });
            if flit.is_head() {
                self.probe.route_computed(); // route computed for a new packet
                let xy = self.mesh.xy_route(v, flit.dest as usize);
                if route != xy {
                    self.stats.reroutes += 1;
                    self.probe.event(Event::Rerouted {
                        cycle: now,
                        router: v as u32,
                        packet: flit.packet_id,
                        from: xy.index() as u8,
                        to: route.index() as u8,
                    });
                    self.probe.reroute(flit.packet_id, v as u16, now);
                }
            }
            let ready = now + if flit.is_head() { self.cfg.pipeline_latency as u64 } else { 1 };
            let vc = if flit.is_head() {
                if flit.vc != NO_VC {
                    Some(flit.vc as usize)
                } else if self.routers[v].gate_pending {
                    None // continuation only while draining toward a gate
                } else {
                    self.routers[v].free_vc(in_port)
                }
            } else {
                self.routers[v].bound_vc(in_port, flit.packet_id)
            };
            {
                let router = &mut self.routers[v];
                if scheme.is_per_hop() {
                    router.counters.count_ecc_op(scheme); // decode
                }
                router.step.in_flits[in_port] += 1;
            }
            match vc {
                Some(vc) => {
                    if flit.is_head() {
                        let fill = self.cfg.pipeline_latency as u64;
                        self.probe.pipeline(flit.packet_id, v as u16, fill, now);
                    }
                    let router = &mut self.routers[v];
                    router.counters.buffer_writes += 1;
                    router.enqueue(in_port, vc, flit, route, ready);
                    self.probe.span_count(1, 1); // buffered into an input VC
                }
                None => {
                    // BST continuation: forward latch-to-channel.
                    flit.vc = NO_VC;
                    if route == Port::Local {
                        self.eject(v, flit);
                    } else {
                        flit.hop_scheme = EccScheme::None;
                        let out_ci = self.channel_index(v, route);
                        let router = &mut self.routers[v];
                        router.step.out_flits[route.index()] += 1;
                        router.counters.link_flits += 1;
                        router.counters.channel_stage_ops += 1;
                        let cost =
                            self.links.get(out_ci).expect("route stays on the mesh").latency();
                        self.probe.link_flit(out_ci, &flit, cost, false, now);
                        self.links.push(out_ci, flit, now);
                        self.probe.span_count(1, 0); // latch-to-channel, no buffer
                    }
                }
            }
        }
        // NI injection into powered local ports (one flit per cycle), over
        // the non-empty injection queues in ascending node order.
        let mut next_node = 0;
        while let Some(r) = self.nis.next_waiting(next_node) {
            next_node = r + 1;
            if !self.routers[r].is_on() {
                continue;
            }
            let head = *self.nis[r].inject.front().expect("waiting set implies a queued flit");
            if self.routers[r].gate_pending && head.is_head() {
                continue; // draining toward a proactive gate
            }
            let in_port = Port::Local.index();
            let bound = self.routers[r].bound_vc(in_port, head.packet_id).is_some();
            if !head.is_head() && !bound {
                // BST continuation: the packet's head was injected through
                // the bypass while the router was gated.
                let t_rc = self.probe.clock();
                let routed = self.route_via(r, head.dest as usize, Port::Local);
                self.probe.span_leaf("route.compute", t_rc, 0);
                let Some(route) = routed else {
                    continue; // no live route right now: wait in the NI
                };
                if route == Port::Local || !self.health.usable(r, route) {
                    continue;
                }
                let out_ci = self.channel_index(r, route);
                if self.links.has_space(out_ci) {
                    let mut flit = self.nis.pop_front(r).expect("checked nonempty");
                    flit.hop_scheme = EccScheme::None;
                    flit.vc = NO_VC;
                    let router = &mut self.routers[r];
                    router.step.out_flits[route.index()] += 1;
                    router.counters.link_flits += 1;
                    router.counters.channel_stage_ops += 1;
                    let cost = self.links.get(out_ci).expect("route stays on the mesh").latency();
                    self.probe.link_flit(out_ci, &flit, cost, false, now);
                    self.links.push(out_ci, flit, now);
                }
                continue;
            }
            let Some(vc) = self.routers[r].accept_target(in_port, &head) else {
                continue;
            };
            let t_rc = self.probe.clock();
            let routed = self.route_via(r, head.dest as usize, Port::Local);
            self.probe.span_leaf("route.compute", t_rc, 0);
            let Some(route) = routed else {
                continue; // destination unreachable right now: wait
            };
            let flit = self.nis.pop_front(r).expect("checked nonempty");
            if flit.is_head() {
                self.probe.route_computed(); // route computed at injection
                let xy = self.mesh.xy_route(r, flit.dest as usize);
                if route != xy {
                    self.stats.reroutes += 1;
                    self.probe.event(Event::Rerouted {
                        cycle: now,
                        router: r as u32,
                        packet: flit.packet_id,
                        from: xy.index() as u8,
                        to: route.index() as u8,
                    });
                    self.probe.reroute(flit.packet_id, r as u16, now);
                }
            }
            let ready = now + if flit.is_head() { self.cfg.pipeline_latency as u64 } else { 1 };
            if flit.is_head() {
                let fill = self.cfg.pipeline_latency as u64;
                self.probe.pipeline(flit.packet_id, r as u16, fill, now);
            }
            let router = &mut self.routers[r];
            router.counters.buffer_writes += 1;
            router.step.in_flits[in_port] += 1;
            router.enqueue(in_port, vc, flit, route, ready);
            self.probe.span_count(1, 1); // injected into an input VC buffer
        }
    }

    // ------------------------------------------------------------------
    // Ejection / packet completion
    // ------------------------------------------------------------------

    /// Ejects `flit` at its destination NI, recorded as an `eject` leaf
    /// span under whichever phase delivered it.
    fn eject(&mut self, r: usize, flit: Flit) {
        let t0 = self.probe.clock();
        self.eject_inner(r, flit);
        self.probe.span_leaf("eject", t0, 1);
    }

    fn eject_inner(&mut self, r: usize, mut flit: Flit) {
        debug_assert_eq!(flit.dest as usize, r, "flit ejected at wrong node");
        if flit.is_head() {
            self.probe.head_eject(flit.packet_id, self.now);
        }
        // A flit ejected straight off the bypass still carries undecoded
        // per-hop codeword corruption; it surfaces at the NI.
        flit.e2e_flips = flit.e2e_flips.saturating_add(flit.hop_flips);
        flit.hop_flips = 0;
        let mut crc_failed_now = false;
        if self.cfg.e2e_crc {
            self.routers[r].counters.crc_ops += 1; // e2e decode
            if flit.e2e_flips > 0 {
                let payload = flit.payload();
                let mut cw = self.suite.encode(EccScheme::Crc, payload);
                let bits = cw.len();
                let k = (flit.e2e_flips as usize).min(bits) as u32;
                for pos in self.injector.choose_positions(bits, k) {
                    cw.flip_bit(pos);
                }
                let (_, status) = self.suite.decode(EccScheme::Crc, &cw);
                crc_failed_now = status == DecodeStatus::Detected;
            }
        }
        let entry = self.nis.recv_mut(r).entry(flit.packet_id).or_default();
        entry.flits += 1;
        entry.flips += flit.e2e_flips as u32;
        entry.crc_failed |= crc_failed_now;
        if entry.flits < crate::flit::FLITS_PER_PACKET {
            return;
        }
        let state = self.nis.recv_mut(r).remove(&flit.packet_id).expect("entry exists");
        if state.crc_failed {
            // Bounded escalation: a packet that keeps failing its e2e CRC
            // past the generation budget is accounted as lost rather than
            // retried forever.
            let budget_ok =
                self.cfg.max_retx == 0 || u32::from(flit.generation) < self.cfg.max_retx;
            if !budget_ok || self.fs_split(flit.src as usize, r) {
                self.account_drop(&flit);
                return;
            }
            // End-to-end re-transmission: the source NI re-sends the packet.
            self.stats.e2e_retx_packets += 1;
            self.stats.retransmitted_flits += crate::flit::FLITS_PER_PACKET as u64;
            self.probe.event(Event::Retransmission {
                cycle: self.now,
                router: r as u32,
                packet: flit.packet_id,
                scope: RetxScope::E2e,
            });
            let src = flit.src as usize;
            let mut flits = make_packet(
                flit.packet_id,
                self.next_flit_id,
                flit.src,
                flit.dest,
                flit.injected_at,
            );
            self.next_flit_id += crate::flit::FLITS_PER_PACKET as u64;
            for f in &mut flits {
                f.retx = flit.retx + 1;
                f.generation = flit.generation + 1;
            }
            // e2e CRC re-encode energy at the source.
            self.routers[src].counters.crc_ops += crate::flit::FLITS_PER_PACKET as u64;
            self.routers[src].counters.retransmitted_flits += crate::flit::FLITS_PER_PACKET as u64;
            // Re-transmissions join the BACK of the source queue: pushing
            // them in front would interleave with a partially injected
            // packet's remaining flits and can deadlock the NI FIFO.
            self.nis.extend(src, flits);
            self.probe.e2e_retx(flit.packet_id, self.now);
            return;
        }
        // Final delivery.
        let latency = self.now + 1 - flit.injected_at;
        self.probe.complete(&flit, self.now, latency);
        self.stats.packets_delivered += 1;
        self.stats.latency_sum += latency;
        self.stats.latency_max = self.stats.latency_max.max(latency);
        self.stats.latency_hist.record(latency);
        self.stats.last_delivery = self.now + 1;
        if state.flips > 0 {
            self.stats.corrupted_packets += 1;
        }
        self.completed += 1;
        let src = flit.src as usize;
        self.outstanding[src] = self.outstanding[src].saturating_sub(1);
        self.traffic.on_delivered(self.now, flit.packet_id);
        // Paper Section 5: router i's latency covers "each flit transmission
        // within the time step" — every router that transmitted the packet.
        // Credit the whole XY path so a misconfigured router feels the
        // latency of the through-traffic it hurt.
        let mut here = src;
        loop {
            let step = &mut self.routers[here].step;
            step.ejected_latency_sum += latency;
            step.ejected_packets += 1;
            if here == r {
                break;
            }
            let p = self.mesh.xy_route(here, r);
            here = self.health.neighbor(here, p).expect("XY route stays on mesh");
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: gating bookkeeping
    // ------------------------------------------------------------------

    /// The fullest channel feeding router `r` — the wake-pressure reading
    /// of a `Gated` router with inbound flits. (The total is
    /// `self.links.inbound(r)`.)
    fn max_incoming_occupancy(&self, r: usize) -> usize {
        Port::DIRECTIONS
            .into_iter()
            .filter_map(|p| self.links.get(self.incoming_index(r, p)?))
            .map(|ch| ch.occupancy())
            .max()
            .unwrap_or(0)
    }

    /// Whether any incoming ready flit needs to *turn* at router `r` — a
    /// maneuver the crossbar-less bypass cannot perform, so it must wake
    /// the router.
    fn incoming_turn_pending(&self, r: usize) -> bool {
        let now = self.now;
        for p in Port::DIRECTIONS {
            let Some(ci) = self.incoming_index(r, p) else { continue };
            let Some(ch) = self.links.get(ci) else { continue };
            if let Some(flit) = ch.peek_ready(now) {
                let Some(route) = self.route_via(r, flit.dest as usize, p) else {
                    continue; // unreachable right now: nothing to wake for
                };
                if route != Port::Local && route != p.opposite() {
                    return true;
                }
            }
        }
        false
    }

    fn gating_phase(&mut self) {
        let now = self.now;
        for r in 0..self.mesh.nodes() {
            if !self.health.router_up(r) {
                // A dead router draws no dynamic power and makes no gating
                // transitions; account its cycles as gated.
                let router = &mut self.routers[r];
                router.step.cycles += 1;
                router.step.gated_cycles += 1;
                self.stats.gated_router_cycles += 1;
                continue;
            }
            let incoming = self.links.inbound(r);
            // Only the `Gated` arm reads these two, and with nothing inbound
            // both are their zero values: no channel needs walking.
            let gated_inbound = incoming > 0 && matches!(self.routers[r].gate, GateState::Gated);
            let max_incoming = if gated_inbound { self.max_incoming_occupancy(r) } else { 0 };
            let turn_pending = gated_inbound && self.incoming_turn_pending(r);
            let ni_waiting = self.nis.waiting(r);
            let router = &mut self.routers[r];
            router.step.occupancy_sum += router.occupancy() as u64;
            router.step.cycles += 1;
            let mut gate_edge = None;
            match router.gate {
                GateState::On => {
                    let busy = router.occupancy() > 0 || incoming > 0 || ni_waiting;
                    if busy {
                        router.idle_cycles = 0;
                    } else {
                        router.idle_cycles = router.idle_cycles.saturating_add(1);
                    }
                    // Mode 0 is advisory: the PG controller only engages on
                    // a quiet router (paper §4: triggered when the router is
                    // underutilized or overheating is predicted).
                    let forced_ready = router.directive.gate == Some(true)
                        && router.idle_cycles >= self.cfg.forced_idle_threshold;
                    let reactive_ready = self.cfg.reactive_gating
                        && router.directive.gate != Some(false)
                        && router.idle_cycles >= self.cfg.idle_gate_threshold;
                    if (forced_ready || reactive_ready)
                        && router.is_gateable()
                        && (self.cfg.bypass_enabled || (!busy && !ni_waiting && incoming == 0))
                    {
                        router.gate = GateState::Gated;
                        router.idle_cycles = 0;
                        gate_edge = Some(GateEdge::On);
                    }
                    router.gate_pending = false;
                }
                GateState::Gated => {
                    router.step.gated_cycles += 1;
                    self.stats.gated_router_cycles += 1;
                    let forced = router.directive.gate == Some(true);
                    let policy_wake = router.directive.gate == Some(false);
                    let turn_wake = turn_pending;
                    let pressure_wake = if forced {
                        // Proactive stress-relax mode rides out pressure
                        // using MFAC storage before powering back on.
                        max_incoming
                            >= self.cfg.forced_wake_occupancy.min(self.cfg.channel_capacity.max(1))
                    } else {
                        max_incoming
                            >= self.cfg.wake_occupancy.min(self.cfg.channel_capacity.max(1))
                    };
                    let stranded = !self.cfg.bypass_enabled && (incoming > 0 || ni_waiting);
                    if policy_wake || pressure_wake || stranded || turn_wake {
                        router.gate = GateState::Waking(now + self.cfg.wakeup_latency as u64);
                        router.counters.wakeups += 1;
                    }
                }
                GateState::Waking(t) => {
                    router.step.gated_cycles += 1;
                    self.stats.gated_router_cycles += 1;
                    if now >= t {
                        router.gate = GateState::On;
                        router.idle_cycles = 0;
                        gate_edge = Some(GateEdge::Off);
                    }
                }
            }
            if let Some(edge) = gate_edge {
                self.probe.event(Event::PowerGate { cycle: now, router: r as u32, edge });
            }
        }
        self.probe.gate_cycle(self.routers.len(), |r| {
            self.routers[r].is_gated_or_waking() || !self.health.router_up(r)
        });
    }

    // ------------------------------------------------------------------
    // Phase 4: workload injection
    // ------------------------------------------------------------------

    fn workload_phase(&mut self) {
        let now = self.now;
        for node in 0..self.mesh.nodes() {
            if let Some(dest) = self.traffic.poll(now, node, self.outstanding[node]) {
                let packet_id = self.next_packet_id;
                let flits =
                    make_packet(packet_id, self.next_flit_id, node as u16, dest as u16, now);
                self.next_packet_id += 1;
                self.next_flit_id += crate::flit::FLITS_PER_PACKET as u64;
                self.stats.packets_injected += 1;
                self.outstanding[node] += 1;
                // Closed-loop bookkeeping: bind the packet id to the pending
                // transaction role BEFORE the reachability check below, so a
                // drop-at-injection still resolves to its transaction.
                self.traffic.on_injected(now, node, packet_id, dest);
                self.probe.inject(packet_id, node as u16, dest as u16, now, || {
                    self.traffic.packet_txn(packet_id)
                });
                self.probe.event(Event::PacketInjected {
                    cycle: now,
                    router: node as u32,
                    packet: packet_id,
                    dest: dest as u32,
                });
                if self.fs_split(node, dest) {
                    // The destination can never be reached (dead source or
                    // dest router, or a mesh split): account the loss at
                    // injection instead of letting the packet wedge the NI.
                    self.account_drop(&flits[0]);
                    continue;
                }
                if self.cfg.e2e_crc {
                    // e2e CRC encode at the source NI.
                    self.routers[node].counters.crc_ops += crate::flit::FLITS_PER_PACKET as u64;
                }
                self.nis.extend(node, flits);
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 5: power / thermal / aging epoch
    // ------------------------------------------------------------------

    fn epoch_phase(&mut self) {
        let epoch = self.cfg.epoch_cycles;
        let n = self.mesh.nodes();
        let mut powers = Vec::with_capacity(n);
        let spec = RouterLeakageSpec {
            buffer_slots: self.cfg.buffer_slots_per_router(),
            channel_stages: self.cfg.channel_stages_per_router(),
            has_bst: self.cfg.has_bst,
            has_qtable: self.cfg.has_qtable,
        };
        for r in 0..n {
            let counters = std::mem::take(&mut self.routers[r].counters);
            let dyn_pj = self.cfg.energy.dynamic_pj(&counters);
            let gated = self.routers[r].is_gated_or_waking() || !self.health.router_up(r);
            let temp = self.thermal.temp_c(r);
            let static_mw = self.cfg.leakage.router_static_mw(
                &spec,
                self.routers[r].directive.scheme,
                temp,
                gated,
            );
            let dyn_mw = dyn_pj / (epoch as f64 * CLOCK_PERIOD_NS);
            self.ledger.add_dynamic_pj(dyn_pj);
            self.ledger.add_static_epoch(static_mw, epoch);
            let total = static_mw + dyn_mw;
            let step = &mut self.routers[r].step;
            step.power_mw_sum += total;
            step.epochs += 1;
            let activity = if gated {
                0.0
            } else {
                let switching =
                    (counters.xbar_traversals + counters.link_flits) as f64 / (epoch as f64 * 2.0);
                (switching + 0.02).min(1.0)
            };
            self.aging[r].accumulate(&self.cfg.aging, temp, activity, epoch);
            powers.push(total);
        }
        self.thermal.step(&powers, epoch);
        for r in 0..n {
            self.re[r] = self.cfg.varius.bit_error_rate(
                self.thermal.temp_c(r),
                self.cfg.vdd,
                self.aging[r].delay_degradation(&self.cfg.aging),
            );
        }
        self.probe.temp_epoch(n, |r| self.thermal.temp_c(r));
    }

    // ------------------------------------------------------------------
    // Top-level stepping
    // ------------------------------------------------------------------

    /// Advances the simulation by one cycle.
    ///
    /// When a profiler is installed, the cycle decomposes into the
    /// `noc-prof` span hierarchy (`step_cycle` → `fault.hard`,
    /// `alloc.vc_sa`, `router.bypass`, `link.traverse` with its
    /// `route.compute`/`ecc.*`/`retx.ladder`/`fault.inject`/`eject`
    /// leaves, `power.gating`, `workload.inject`, `epoch.update`);
    /// disabled, each guard is a single branch.
    pub fn step_cycle(&mut self) {
        self.probe.span_enter("step_cycle");
        self.probe.span_enter("fault.hard");
        self.apply_hard_faults();
        self.probe.span_exit();
        for r in 0..self.mesh.nodes() {
            if !self.health.router_up(r) {
                continue; // dead routers do no work at all
            }
            if self.routers[r].is_on() {
                self.probe.span_enter("alloc.vc_sa");
                self.sa_phase(r);
                self.probe.span_exit();
            } else if self.cfg.bypass_enabled {
                let waking = matches!(self.routers[r].gate, GateState::Waking(_));
                if !waking || self.cfg.bypass_during_wake {
                    self.probe.span_enter("router.bypass");
                    self.bypass_phase(r);
                    self.probe.span_exit();
                }
            }
        }
        self.probe.span_enter("link.traverse");
        self.delivery_phase();
        self.probe.span_exit();
        self.probe.span_enter("power.gating");
        self.gating_phase();
        self.probe.span_exit();
        self.probe.span_enter("workload.inject");
        self.workload_phase();
        self.probe.span_exit();
        if self.probe.wants_txn_events() {
            for ev in self.traffic.drain_txn_events() {
                self.probe.txn_event(&ev);
            }
        }
        self.now += 1;
        self.stats.cycles = self.now;
        if self.now.is_multiple_of(self.cfg.epoch_cycles) {
            self.probe.span_enter("epoch.update");
            self.epoch_phase();
            self.probe.span_exit();
        }
        self.probe.span_exit();
        debug_assert_eq!(self.occupancy_index_drift(), None, "cycle {}", self.now);
    }

    /// Compares the occupancy index (per-router buffered counts, VC tables
    /// and readiness masks, per-router inbound-flit counts, the non-empty
    /// channel set and the non-empty NI set) with a from-scratch recount of
    /// every queue. `None` means they
    /// agree; `Some(what)` names the first mismatch. Debug builds assert
    /// this at the end of every [`Network::step_cycle`].
    #[doc(hidden)]
    pub fn occupancy_index_drift(&self) -> Option<String> {
        // `ready` bits were promoted during the cycle that just ended.
        let promoted_at = self.now.saturating_sub(1);
        self.routers
            .iter()
            .find_map(|r| r.index_drift(promoted_at))
            .or_else(|| self.links.index_drift())
            .or_else(|| self.nis.index_drift())
    }

    /// Runs `n` cycles (or fewer if the workload completes); returns whether
    /// the run is done.
    pub fn run_cycles(&mut self, n: u64) -> bool {
        for _ in 0..n {
            if self.is_done() || self.now >= self.cfg.max_cycles || self.stall.is_some() {
                break;
            }
            self.step_cycle();
            if self.watchdog_check() {
                break;
            }
        }
        self.is_done() || self.now >= self.cfg.max_cycles || self.stall.is_some()
    }

    /// Applies one directive per router (control-policy output).
    ///
    /// # Panics
    ///
    /// Panics if `directives.len()` differs from the router count.
    pub fn apply_directives(&mut self, directives: &[RouterDirective]) {
        assert_eq!(directives.len(), self.mesh.nodes(), "one directive per router");
        for (r, d) in directives.iter().enumerate() {
            self.routers[r].directive = *d;
            for dir in Port::DIRECTIONS {
                self.links.set_relaxed(self.channel_index(r, dir), d.relaxed);
            }
        }
    }

    /// Charges the energy of `n` RL decisions (one per agent per time step).
    pub fn charge_rl_decisions(&mut self, n: u64) {
        self.ledger.add_dynamic_pj(self.cfg.energy.rl_decision_pj * n as f64);
    }

    /// Collects per-router observations for the elapsed control time step
    /// and resets the per-step accumulators.
    pub fn observations(&mut self) -> Vec<RouterObservation> {
        let n = self.mesh.nodes();
        let slots = self.cfg.buffer_slots_per_router() as f64;
        let mut out = Vec::with_capacity(n);
        for r in 0..n {
            let temp = self.thermal.temp_c(r);
            let step = std::mem::take(&mut self.routers[r].step);
            // Eq. 7's aging factor accrues over hours of wall-clock time and
            // is numerically ~1.0 within one control step; expose the
            // *instantaneous aging rate* instead (NBTI temperature
            // acceleration x stress time), normalized to stay of order 1,
            // so the reward can actually penalize aging-heavy operation.
            let active = 1.0 - step.gated_cycles as f64 / step.cycles.max(1) as f64;
            let aging_factor = 1.0 + self.cfg.aging.nbti_weight(temp) * active / 10.0;
            let cycles = step.cycles.max(1) as f64;
            let mut features = [0.0f64; 16];
            for p in 0..PORTS {
                features[p] = step.in_flits[p] as f64 / cycles;
                features[5 + p] = step.occupancy_sum as f64 / (cycles * slots.max(1.0));
                features[10 + p] = step.out_flits[p] as f64 / cycles;
            }
            // Buffer utilization is per-port in the paper; our occupancy sum
            // is router-wide, so replicate the router-wide value across the
            // five buffer features (they are highly correlated in practice,
            // which the paper itself notes in §7.4).
            features[15] = temp;
            let avg_latency = if step.ejected_packets > 0 {
                step.ejected_latency_sum as f64 / step.ejected_packets as f64
            } else {
                0.0
            };
            let avg_power =
                if step.epochs > 0 { step.power_mw_sum / step.epochs as f64 } else { 0.0 };
            out.push(RouterObservation {
                router: r,
                features,
                avg_latency,
                ejected_packets: step.ejected_packets,
                avg_power_mw: avg_power,
                aging_factor,
                temperature_c: temp,
                error_hist: step.error_hist,
                retransmissions: step.retransmissions,
                gated_fraction: step.gated_cycles as f64 / cycles,
            });
        }
        out
    }

    /// Runs to completion under a control policy invoked every `time_step`
    /// cycles, then produces the final report.
    pub fn run_to_completion<F>(&mut self, time_step: u64, mut policy: F) -> RunReport
    where
        F: FnMut(&[RouterObservation], Cycle) -> Option<Vec<RouterDirective>>,
    {
        loop {
            if self.run_cycles(time_step) {
                break;
            }
            let obs = self.observations();
            if let Some(directives) = policy(&obs, self.now) {
                self.apply_directives(&directives);
            }
        }
        self.report()
    }

    /// Explains why each router's SA cannot grant anything (debugging aid).
    #[doc(hidden)]
    pub fn debug_sa_block(&self, router: usize) {
        print!("{}", self.snapshot_sa_block(router));
    }

    /// String form of [`Network::debug_sa_block`] — the introspection text
    /// rendered for the telemetry/debug layer instead of stdout.
    #[doc(hidden)]
    pub fn snapshot_sa_block(&self, router: usize) -> String {
        use std::fmt::Write as _;
        let mut buf = String::new();
        let now = self.now;
        let r = router;
        let _ = writeln!(buf, "router {r} gate={:?}:", self.routers[r].gate);
        for p in 0..PORTS {
            for (vi, vc) in self.routers[r].port_vcs(p).iter().enumerate() {
                if vc.occupancy() == 0 {
                    continue;
                }
                let front = self.routers[r].sa_candidate(p, vi, now);
                let out = vc.route();
                let reason = if let Some(f) = front {
                    if out == Port::Local {
                        "ejectable NOW".to_owned()
                    } else {
                        let ci = self.channel_index(r, out);
                        if !self.links.has_space(ci) {
                            format!("out {out:?} channel full")
                        } else if f.is_head() {
                            let dv = self.mesh.neighbor(r, out);
                            match dv {
                                Some(dv) if self.routers[dv].is_on() => {
                                    let in_port = out.opposite().index();
                                    if self.routers[dv].free_vc(in_port).is_some() {
                                        "head grantable NOW".to_owned()
                                    } else {
                                        format!("no free VC at {dv}")
                                    }
                                }
                                _ => "downstream gated: head grantable NOW".to_owned(),
                            }
                        } else {
                            "body grantable NOW".to_owned()
                        }
                    }
                } else {
                    "front not SA-ready".to_owned()
                };
                let _ = writeln!(
                    buf,
                    "  port {p} vc {vi}: pkt={:?} occ={} route={:?} -> {}",
                    vc.packet(),
                    vc.occupancy(),
                    vc.route(),
                    reason
                );
            }
        }
        buf
    }

    /// Counts movement opportunities in the current state (debugging aid):
    /// SA-grantable VC fronts, deliverable channel flits, and NI injections.
    #[doc(hidden)]
    pub fn debug_movable(&self) -> (usize, usize, usize) {
        let now = self.now;
        let mut sa = 0;
        for r in 0..self.mesh.nodes() {
            if !self.routers[r].is_on() {
                continue;
            }
            for p in 0..PORTS {
                for (vi, vc) in self.routers[r].port_vcs(p).iter().enumerate() {
                    let Some(f) = self.routers[r].sa_candidate(p, vi, now) else { continue };
                    let out = vc.route();
                    if out == Port::Local {
                        sa += 1;
                        continue;
                    }
                    let ci = self.channel_index(r, out);
                    if !self.links.has_space(ci) {
                        continue;
                    }
                    if f.is_head() {
                        let dv = self.mesh.neighbor(r, out);
                        let ok = match dv {
                            Some(dv)
                                if self.routers[dv].is_on() && !self.routers[dv].gate_pending =>
                            {
                                let in_port = out.opposite().index();
                                self.routers[dv].free_vc(in_port).is_some()
                            }
                            _ => true, // NO_VC path
                        };
                        if ok {
                            sa += 1;
                        }
                    } else {
                        sa += 1;
                    }
                }
            }
        }
        let mut deliver = 0;
        for u in 0..self.mesh.nodes() {
            for dir in Port::DIRECTIONS {
                let Some(v) = self.mesh.neighbor(u, dir) else { continue };
                if !self.routers[v].is_on() {
                    if self.cfg.bypass_enabled {
                        let ci = self.channel_index(u, dir);
                        if self.links.get(ci).is_some_and(|ch| ch.peek_ready(now).is_some()) {
                            deliver += 1; // bypass will look at it
                        }
                    }
                    continue;
                }
                let pending = self.routers[v].gate_pending;
                let ci = self.channel_index(u, dir);
                let in_port = dir.opposite().index();
                let links = &self.links;
                let health = &self.health;
                let mesh = self.mesh;
                let fault_aware = self.cfg.fault_aware_routing;
                let Some(ch) = links.get(ci) else { continue };
                let down = &self.routers[v];
                let continuation_ok = |flit: &Flit| {
                    let route = if fault_aware {
                        health.route(v, flit.dest as usize, dir.opposite())
                    } else {
                        Some(mesh.xy_route(v, flit.dest as usize))
                    };
                    match route {
                        Some(Port::Local) => true,
                        Some(out) => links.has_space(v * DIRS + out.index()),
                        None => false,
                    }
                };
                if ch
                    .scan_deliverable(now, |flit| {
                        if flit.is_head() {
                            if flit.vc != NO_VC {
                                down.vc(in_port, flit.vc as usize).is_reserved_for(flit.packet_id)
                            } else {
                                let can_bind = !pending && down.free_vc(in_port).is_some();
                                can_bind || continuation_ok(flit)
                            }
                        } else if down.bound_vc(in_port, flit.packet_id).is_some() {
                            down.accept_target(in_port, flit).is_some()
                        } else {
                            continuation_ok(flit)
                        }
                    })
                    .is_some()
                {
                    deliver += 1;
                }
            }
        }
        let ni = (0..self.mesh.nodes())
            .filter(|&r| {
                self.routers[r].is_on()
                    && self.nis[r]
                        .inject
                        .front()
                        .map(|h| self.routers[r].accept_target(Port::Local.index(), h).is_some())
                        .unwrap_or(false)
            })
            .count();
        (sa, deliver, ni)
    }

    /// Prints every VC of a router including reservations (debugging aid).
    #[doc(hidden)]
    pub fn debug_vcs(&self, r: usize) {
        print!("{}", self.snapshot_vcs(r));
    }

    /// String form of [`Network::debug_vcs`].
    #[doc(hidden)]
    pub fn snapshot_vcs(&self, r: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in 0..PORTS {
            for (vi, vc) in self.routers[r].port_vcs(p).iter().enumerate() {
                let _ = writeln!(
                    out,
                    "router {r} port {p} vc {vi}: packet={:?} reserved={:?} occ={} route={:?}",
                    vc.packet(),
                    vc.reserved_by(),
                    vc.occupancy(),
                    vc.route()
                );
            }
        }
        out
    }

    /// Finds every location a packet's flits occupy (debugging aid).
    #[doc(hidden)]
    pub fn debug_find_packet(&self, pkt: u64) {
        print!("{}", self.snapshot_find_packet(pkt));
    }

    /// String form of [`Network::debug_find_packet`].
    #[doc(hidden)]
    pub fn snapshot_find_packet(&self, pkt: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (ci, ch) in self.links.iter() {
            for i in 0..ch.occupancy() {
                let f = ch.get(i);
                if f.packet_id == pkt {
                    let _ = writeln!(
                        out,
                        "pkt {pkt}: channel {} dir {} idx {i} kind={:?} vc={}",
                        ci / DIRS,
                        ci % DIRS,
                        f.kind,
                        f.vc
                    );
                }
            }
        }
        for r in 0..self.mesh.nodes() {
            for p in 0..PORTS {
                for (vi, vc) in self.routers[r].port_vcs(p).iter().enumerate() {
                    if vc.is_bound_to(pkt) || vc.is_reserved_for(pkt) {
                        let _ = writeln!(
                            out,
                            "pkt {pkt}: router {r} port {p} vc {vi} bound={:?} reserved={:?} occ={}",
                            vc.packet(),
                            vc.reserved_by(),
                            vc.occupancy()
                        );
                    }
                }
            }
            for f in &self.nis[r].inject {
                if f.packet_id == pkt {
                    let _ = writeln!(out, "pkt {pkt}: NI {r} inject queue kind={:?}", f.kind);
                }
            }
            if self.nis[r].recv.contains_key(&pkt) {
                let _ = writeln!(out, "pkt {pkt}: NI {r} recv partial");
            }
        }
        out
    }

    /// Dumps one channel's full contents (debugging aid).
    #[doc(hidden)]
    pub fn debug_channel(&self, u: usize, dir: Port) {
        print!("{}", self.snapshot_channel(u, dir));
    }

    /// String form of [`Network::debug_channel`].
    #[doc(hidden)]
    pub fn snapshot_channel(&self, u: usize, dir: Port) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let ci = self.channel_index(u, dir);
        let Some(ch) = self.links.get(ci) else {
            let _ = writeln!(out, "channel {u} {dir:?}: boundary");
            return out;
        };
        let v = self.mesh.neighbor(u, dir).expect("channel exists");
        let _ = writeln!(out, "channel {u}->{v} ({dir:?}) occ={}:", ch.occupancy());
        for i in 0..ch.occupancy() {
            let f = ch.get(i);
            let in_port = dir.opposite().index();
            let bound = self.routers[v].bound_vc(in_port, f.packet_id);
            let _ = writeln!(
                out,
                "  [{i}] pkt={} kind={:?} vc={} dest={} src={} retx={} bound_at={:?}",
                f.packet_id, f.kind, f.vc, f.dest, f.src, f.retx, bound
            );
        }
        out
    }

    /// Prints per-channel blocking detail for stuck-state debugging.
    #[doc(hidden)]
    pub fn debug_blocked(&self, limit: usize) {
        print!("{}", self.snapshot_blocked(limit));
    }

    /// String form of [`Network::debug_blocked`].
    #[doc(hidden)]
    pub fn snapshot_blocked(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let now = self.now;
        let mut shown = 0;
        for u in 0..self.mesh.nodes() {
            for dir in Port::DIRECTIONS {
                let Some(v) = self.mesh.neighbor(u, dir) else { continue };
                let ci = self.channel_index(u, dir);
                let Some(ch) = self.links.get(ci) else { continue };
                if ch.occupancy() == 0 {
                    continue;
                }
                let in_port = dir.opposite().index();
                let f = ch.get(0);
                let vcs: Vec<String> = self.routers[v]
                    .port_vcs(in_port)
                    .iter()
                    .map(|vc| {
                        format!(
                            "[pkt={:?} res={} occ={} route={:?}]",
                            vc.packet(),
                            vc.is_reserved_for(f.packet_id),
                            vc.occupancy(),
                            vc.route()
                        )
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "ch {u}->{v} ({dir:?}) occ={} front: pkt={} kind={:?} vc={} ready={} dest={} | down on={} pending={} vcs={}",
                    ch.occupancy(),
                    f.packet_id,
                    f.kind,
                    f.vc,
                    ch.peek_ready(now).is_some(),
                    f.dest,
                    self.routers[v].is_on(),
                    self.routers[v].gate_pending,
                    vcs.join(" ")
                );
                shown += 1;
                if shown >= limit {
                    return out;
                }
            }
        }
        out
    }

    /// Prints a diagnostic snapshot of stuck state (debugging aid).
    #[doc(hidden)]
    pub fn debug_dump(&self) {
        print!("{}", self.snapshot_dump());
    }

    /// String form of [`Network::debug_dump`].
    #[doc(hidden)]
    pub fn snapshot_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in 0..self.mesh.nodes() {
            let router = &self.routers[r];
            let occ = router.occupancy();
            let ni = self.nis[r].inject.len();
            let recv = self.nis[r].recv.len();
            let vcs = || (0..PORTS).flat_map(|p| router.port_vcs(p));
            let reserved = vcs().filter(|vc| vc.reserved_by().is_some()).count();
            let bound = vcs().filter(|vc| vc.packet().is_some()).count();
            let mut ch_occ = 0;
            for dir in Port::DIRECTIONS {
                if let Some(ch) = self.links.get(self.channel_index(r, dir)) {
                    ch_occ += ch.occupancy();
                }
            }
            if occ + ni + recv + ch_occ + reserved + bound > 0 {
                let _ = writeln!(
                    out,
                    "router {r}: gate={:?} pending={} occ={occ} ni={ni} recv={recv} out_ch={ch_occ} reserved_vcs={reserved} bound_vcs={bound}",
                    router.gate, router.gate_pending
                );
            }
        }
        out
    }

    /// Produces the final report for the simulated interval so far.
    pub fn report(&self) -> RunReport {
        let exec = self.stats.last_delivery.max(1);
        let power = self.ledger.report(self.now.max(1));
        let mean_aging = self.aging.iter().map(|a| a.aging_factor(&self.cfg.aging)).sum::<f64>()
            / self.aging.len() as f64;
        RunReport {
            exec_cycles: exec,
            stats: self.stats.clone(),
            power,
            mttf_hours: network_mttf(&self.cfg.aging, &self.aging).map(|m| m.hours()),
            mean_temp_c: self.thermal.mean_c(),
            max_temp_c: self.thermal.max_c(),
            mean_aging_factor: mean_aging,
            injected_bit_flips: self.injector.injected_bits(),
            faulty_flit_traversals: self.injector.faulty_flits(),
            stall: self.stall.clone(),
            txn: self.traffic.txn_stats().map(|s| {
                let mut lat = s.completion_latencies.clone();
                lat.sort_unstable();
                TxnSummary {
                    issued: s.issued_total(),
                    completed: s.completed_total(),
                    failed: s.failed_total(),
                    shed: s.shed_total(),
                    in_flight: s.in_flight_total(),
                    timeouts: s.timeouts,
                    retries: s.retries,
                    p50_completion: noc_telemetry::percentile(&lat, 0.50),
                    p99_completion: noc_telemetry::percentile(&lat, 0.99),
                    violations: s.violations(),
                    orphans: self.traffic.txn_orphans(),
                }
            }),
        }
    }
}

/// Marks the reverse direction of every downed link so a physical link
/// fails in both directions regardless of which endpoint named it.
fn symmetrize_links(mesh: &Mesh, down: &mut [bool]) {
    for r in 0..mesh.nodes() {
        for dir in Port::DIRECTIONS {
            if down[r * DIRS + dir.index()] {
                if let Some(nb) = mesh.neighbor(r, dir) {
                    down[nb * DIRS + dir.opposite().index()] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> SimConfig {
        let mut cfg = SimConfig::default();
        // Disable faults so the basic flow tests are deterministic.
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        cfg
    }

    fn run(cfg: SimConfig, spec: WorkloadSpec) -> (RunReport, Network) {
        let mut net = Network::new(cfg, spec, 7);
        let done = net.run_cycles(500_000);
        assert!(done, "run did not finish");
        (net.report(), net)
    }

    #[test]
    fn delivers_all_packets_uniform() {
        let (report, net) = run(quiet_config(), WorkloadSpec::uniform(0.02, 20));
        assert!(net.is_done());
        assert_eq!(report.stats.packets_delivered, 64 * 20);
        assert_eq!(report.stats.packets_delivered, report.stats.packets_injected);
        assert_eq!(report.stats.corrupted_packets, 0);
        assert_eq!(report.stats.retransmitted_flits, 0);
    }

    #[test]
    fn empty_router_still_advances_round_robin_pointers() {
        // The pointers are cycle-domain state: the early returns of the
        // empty-router paths must advance them exactly like a full visit.
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(quiet_config(), spec, 1);
        assert!(net.routers[9].is_drained() && net.nis[9].inject.is_empty());
        for visit in 1..=2 * PORTS {
            net.sa_phase(9);
            net.bypass_phase(9);
            assert_eq!(net.routers[9].sa_rr, visit % PORTS);
            assert_eq!(net.routers[9].bypass_rr, visit % PORTS);
        }
    }

    /// The gather-and-scan switch allocator that `sa_allocate` replaced, kept
    /// as the reference: poll every VC's head for eligibility in round-robin
    /// port order, then per output rescan that list for the first candidate
    /// of a not-yet-granted input port, walking the downstream port's VCs
    /// for a free one. Reads entries and queues, never the masks.
    fn sa_allocate_by_polling(net: &Network, r: usize, sa_base: usize) -> [Option<SaGrant>; PORTS] {
        let now = net.now;
        let router = &net.routers[r];
        let mut cands = Vec::new();
        for pk in 0..PORTS {
            let p = (sa_base + pk) % PORTS;
            for (v, vc) in router.port_vcs(p).iter().enumerate() {
                if router.sa_candidate(p, v, now).is_some() {
                    cands.push((vc.route(), p, v));
                }
            }
        }
        let mut granted_inputs = [false; PORTS];
        let mut grants = [None; PORTS];
        for (k, slot) in grants.iter_mut().enumerate() {
            let out = Port::from_index((sa_base + k) % PORTS);
            if !cands.iter().any(|c| c.0 == out) {
                continue;
            }
            if out != Port::Local
                && !(net.health.usable(r, out) && net.links.has_space(net.channel_index(r, out)))
            {
                continue;
            }
            let down = net.health.neighbor(r, out).map(|dv| &net.routers[dv]);
            let down_reservable = down.is_some_and(|d| d.is_on() && !d.gate_pending);
            for &(route, p, v) in &cands {
                if route != out || granted_inputs[p] {
                    continue;
                }
                let flit = router.sa_candidate(p, v, now).expect("gathered as a candidate");
                let dvc = if out == Port::Local {
                    NO_VC
                } else if !flit.is_head() {
                    router.vc(p, v).out_vc()
                } else if down_reservable {
                    let free = down.expect("non-local output").port_vcs(out.opposite().index());
                    match free.iter().position(|vc| vc.available()) {
                        Some(vc) => vc as u8,
                        None => continue, // VA failed: no free VC
                    }
                } else {
                    NO_VC
                };
                granted_inputs[p] = true;
                *slot = Some(SaGrant { port: p, vc: v, out, dvc });
                break;
            }
        }
        grants
    }

    /// What one VC of the router under test holds in the allocator proptest:
    /// `(kind, route, flits - 1, head-ready offset, out_vc)`, kind 0 = free,
    /// 1 = reserved, 2 = head flit first, 3 = head departed.
    type VcSeed = (u8, u8, u8, u64, u8);

    /// What lies beyond one output of the router under test: `(link dead
    /// if 0, channel full if 0, downstream gate 0-1 on / 2 gated / 3 waking,
    /// gate_pending if 0, downstream VCs taken as a bit per VC)`.
    type OutputSeed = (u8, u8, u8, u8, u8);

    /// Builds the centre router of a 3x3 mesh (four neighbours) from the
    /// seeds and checks the mask allocator against the polling one, then
    /// that `sa_phase` carries out exactly those grants.
    fn check_allocation(
        (vcs, depth, sa_rr): (usize, usize, usize),
        rows: &[VcSeed],
        outputs: &[OutputSeed],
    ) {
        let (r, now) = (4, 10);
        let mut cfg = quiet_config();
        (cfg.width, cfg.height, cfg.vcs, cfg.vc_depth, cfg.channel_capacity) =
            (3, 3, vcs, depth, 2);
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        net.now = now;
        net.routers[r].sa_rr = sa_rr;
        for (row, &(kind, route, extra, ready_in, out_vc)) in
            rows.iter().take(PORTS * vcs).enumerate()
        {
            let (p, v) = (row / vcs, row % vcs);
            let packet = 100 + row as u64;
            let route = Port::from_index(route as usize);
            // Only flits that are home may be routed to the local port.
            let dest = if route == Port::Local { r as u16 } else { 0 };
            let flits = make_packet(packet, packet * 4, 0, dest, 0);
            let ready = now - 2 + ready_in; // eligible now for offsets 0..=2
            let queued = 1 + (extra as usize).min(depth - 1);
            let router = &mut net.routers[r];
            match kind {
                0 => {}
                1 => router.reserve(p, v, packet),
                2 => {
                    for (i, f) in flits.iter().take(queued).enumerate() {
                        router.enqueue(p, v, *f, route, ready + i as u64);
                    }
                }
                _ => {
                    // The head came and went; bodies stream behind it.
                    router.enqueue(p, v, flits[0], route, 0);
                    let _ = router.pop_granted(p, v, now);
                    router.set_out_vc(p, v, if out_vc == 4 { NO_VC } else { out_vc });
                    for (i, f) in flits[1..].iter().take(queued).enumerate() {
                        router.enqueue(p, v, *f, route, ready + i as u64);
                    }
                }
            }
        }
        for (dir, &(dead, full, gate, gate_pending, taken)) in
            Port::DIRECTIONS.into_iter().zip(outputs)
        {
            if dead == 0 {
                net.health.set_link(r, dir, false);
            }
            let ci = net.channel_index(r, dir);
            while full == 0 && net.links.has_space(ci) {
                net.links.push(ci, make_packet(900, 3600, 0, 1, 0)[0], now);
            }
            let down = &mut net.routers[net.mesh.neighbor(r, dir).expect("centre router")];
            down.gate = match gate {
                0 | 1 => GateState::On,
                2 => GateState::Gated,
                _ => GateState::Waking(now + 3),
            };
            down.gate_pending = gate_pending == 0;
            for vc in (0..vcs).filter(|vc| taken >> vc & 1 == 1) {
                down.reserve(dir.opposite().index(), vc, 700 + vc as u64);
            }
        }
        // Promote in two steps, as consecutive cycles would.
        net.routers[r].promote_ready(now - 1);
        net.routers[r].promote_ready(now);
        assert_eq!(net.routers[r].index_drift(now), None);
        let want = sa_allocate_by_polling(&net, r, sa_rr);
        assert_eq!(net.sa_allocate(r, sa_rr), want);

        let before = net.routers[r].occupancy();
        let granted: Vec<(SaGrant, Flit)> = want
            .iter()
            .flatten()
            .map(|g| {
                let flit = net.routers[r].sa_candidate(g.port, g.vc, now);
                (*g, *flit.expect("granted VCs hold an eligible flit"))
            })
            .collect();
        net.sa_phase(r);
        assert_eq!(net.routers[r].sa_rr, (sa_rr + 1) % PORTS);
        assert_eq!(net.routers[r].occupancy(), before - granted.len());
        for (g, flit) in granted {
            if flit.is_head() && g.dvc != NO_VC {
                let dv = net.mesh.neighbor(r, g.out).expect("centre router");
                let reserved = net.routers[dv].vc(g.out.opposite().index(), g.dvc as usize);
                assert!(reserved.is_reserved_for(flit.packet_id), "{g:?}: {reserved:?}");
            }
        }
        net.now += 1; // the drift check expects the cycle to have ended
        assert_eq!(net.occupancy_index_drift(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// Mask-based allocation grants exactly what the polling allocator
        /// grants — same `(input port, vc, out, dvc)` per output — for any
        /// table state: free, reserved and bound VCs, heads and bodies,
        /// heads eligible now or later, every round-robin offset, full and
        /// dead outputs, gated, waking and gate-pending downstream routers
        /// with any subset of their VCs taken.
        #[test]
        fn mask_allocation_grants_what_polling_grants(
            shape in (1usize..5, 1usize..4, 0usize..PORTS),
            rows in proptest::collection::vec((0u8..4, 0u8..5, 0u8..3, 0u64..4, 0u8..5), 20),
            outputs in proptest::collection::vec((0u8..6, 0u8..4, 0u8..4, 0u8..5, 0u8..16), DIRS),
        ) {
            check_allocation(shape, &rows, &outputs);
        }
    }

    #[test]
    fn stuffed_ni_and_purged_packets_leave_the_occupancy_index_consistent() {
        let mut cfg = quiet_config();
        cfg.width = 4;
        cfg.height = 4;
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        // Hand-stuff two packets into node 0's NI, as the tests below do.
        net.stats.packets_injected = 2;
        net.outstanding[0] = 2;
        net.nis.extend(0, make_packet(0, 0, 0, 3, 0));
        net.nis.extend(0, make_packet(1, 4, 0, 15, 0));
        assert!(net.nis.waiting(0) && !net.nis.waiting(1));
        assert_eq!(net.occupancy_index_drift(), None);
        // Step (every step re-checks the index in debug builds) until flits
        // sit in all three kinds of queue at once: NI, input VCs, channels.
        let in_network = |net: &Network| {
            let buffered: usize = net.routers.iter().map(Router::occupancy).sum();
            let on_links: usize = (0..16).map(|r| net.links.inbound(r)).sum();
            (buffered, on_links)
        };
        let spread = |net: &Network| {
            let (buffered, on_links) = in_network(net);
            buffered > 0 && on_links > 0 && net.nis.waiting(0)
        };
        for _ in 0..20 {
            if spread(&net) {
                break;
            }
            net.step_cycle();
        }
        assert!(spread(&net), "{:?} in the network", in_network(&net));
        // Purge both mid-flight, the way hard-fault salvage does.
        net.purge_packet(0);
        assert_eq!(net.occupancy_index_drift(), None);
        net.purge_packet(1);
        assert_eq!(net.occupancy_index_drift(), None);
        assert_eq!(in_network(&net), (0, 0));
        assert_eq!(net.links.next_occupied(0), None);
        assert_eq!(net.nis.next_waiting(0), None);
        // A purged network is quiescent and stays consistent.
        net.step_cycle();
        assert_eq!(net.occupancy_index_drift(), None);
    }

    #[test]
    fn single_packet_minimum_latency() {
        // One packet from node 0 to node 1 (one hop): latency should be
        // injection + pipeline + link + serialization, within a small bound.
        let mut cfg = quiet_config();
        cfg.width = 2;
        cfg.height = 2;
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        // Hand-inject a packet.
        let flits = make_packet(0, 0, 0, 1, 0);
        net.stats.packets_injected = 1;
        net.outstanding[0] = 1;
        net.nis.extend(0, flits);
        for _ in 0..60 {
            net.step_cycle();
        }
        assert_eq!(net.stats.packets_delivered, 1);
        let lat = net.stats.latency_sum;
        // 4 flits: head takes ~ (inject 1 + pipeline 4 + SA + link 1 +
        // pipeline at dest...) and tail 3 cycles behind.
        assert!((10..=25).contains(&lat), "one-hop packet latency {lat}");
    }

    #[test]
    fn latency_grows_with_load() {
        let (light, _) = run(quiet_config(), WorkloadSpec::uniform(0.005, 30));
        let (heavy, _) = run(quiet_config(), WorkloadSpec::uniform(0.06, 30));
        assert!(
            heavy.avg_latency() > light.avg_latency(),
            "heavy {} vs light {}",
            heavy.avg_latency(),
            light.avg_latency()
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let (a, _) = run(quiet_config(), WorkloadSpec::uniform(0.03, 15));
        let (b, _) = run(quiet_config(), WorkloadSpec::uniform(0.03, 15));
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn faults_cause_retransmissions_with_secded() {
        let mut cfg = SimConfig::default();
        cfg.varius.base_rate = 2e-4; // exaggerated rate to see activity fast
        cfg.varius.max_rate = 2e-4;
        cfg.varius.min_rate = 2e-4;
        let (report, _) = run(cfg, WorkloadSpec::uniform(0.02, 20));
        assert_eq!(report.stats.packets_delivered, 64 * 20);
        assert!(report.stats.faulty_traversals > 0);
        // SECDED corrects single-bit errors; some multi-bit errors trigger
        // per-hop retransmission.
        assert!(report.stats.corrected_bits > 0);
    }

    #[test]
    fn e2e_crc_catches_unprotected_corruption() {
        let mut cfg = SimConfig {
            default_scheme: EccScheme::Crc, // no per-hop protection
            e2e_crc: true,
            ..SimConfig::default()
        };
        cfg.varius.base_rate = 2e-4;
        cfg.varius.max_rate = 2e-4;
        cfg.varius.min_rate = 2e-4;
        let (report, _) = run(cfg, WorkloadSpec::uniform(0.02, 20));
        assert_eq!(report.stats.packets_delivered, 64 * 20);
        assert!(report.stats.e2e_retx_packets > 0, "CRC must trigger e2e retries");
        assert_eq!(report.stats.corrupted_packets, 0, "CRC-16 missed corruption");
    }

    #[test]
    fn unprotected_network_delivers_corrupted_packets() {
        let mut cfg =
            SimConfig { default_scheme: EccScheme::None, e2e_crc: false, ..SimConfig::default() };
        cfg.varius.base_rate = 2e-4;
        cfg.varius.max_rate = 2e-4;
        cfg.varius.min_rate = 2e-4;
        let (report, _) = run(cfg, WorkloadSpec::uniform(0.02, 20));
        assert!(report.stats.corrupted_packets > 0);
        assert_eq!(report.stats.retransmitted_flits, 0);
    }

    #[test]
    fn reactive_gating_saves_static_power_at_idle() {
        let mut low = quiet_config();
        low.reactive_gating = true;
        low.bypass_enabled = true;
        low.channel_capacity = 8;
        let (gated, _) = run(low.clone(), WorkloadSpec::uniform(0.002, 10));
        let mut nog = low;
        nog.reactive_gating = false;
        let (on, _) = run(nog, WorkloadSpec::uniform(0.002, 10));
        assert!(gated.stats.gated_router_cycles > 0);
        assert!(
            gated.power.static_mw < on.power.static_mw,
            "gated {} vs always-on {}",
            gated.power.static_mw,
            on.power.static_mw
        );
    }

    #[test]
    fn forced_gating_with_bypass_still_delivers() {
        let mut cfg = quiet_config();
        cfg.bypass_enabled = true;
        cfg.channel_capacity = 8;
        let spec = WorkloadSpec::uniform(0.01, 10);
        let mut net = Network::new(cfg, spec, 3);
        // Force-gate every router; traffic must still flow via bypass.
        let d = RouterDirective { gate: Some(true), scheme: EccScheme::Crc, relaxed: false };
        net.apply_directives(&[d; 64]);
        let done = net.run_cycles(500_000);
        assert!(done, "bypass-only network deadlocked");
        assert_eq!(net.stats().packets_delivered, net.stats().packets_injected);
        assert!(net.stats().gated_router_cycles > 0);
    }

    #[test]
    fn relaxed_timing_increases_latency() {
        let cfg = quiet_config();
        let spec = WorkloadSpec::uniform(0.02, 15);
        let mut normal = Network::new(cfg.clone(), spec.clone(), 5);
        normal.run_cycles(500_000);
        let mut relaxed_net = Network::new(cfg, spec, 5);
        let d = RouterDirective { gate: None, scheme: EccScheme::Secded, relaxed: true };
        relaxed_net.apply_directives(&[d; 64]);
        relaxed_net.run_cycles(500_000);
        assert!(
            relaxed_net.stats().avg_latency() > normal.stats().avg_latency() + 1.0,
            "relaxed {} vs normal {}",
            relaxed_net.stats().avg_latency(),
            normal.stats().avg_latency()
        );
    }

    #[test]
    fn observations_reflect_traffic() {
        let cfg = quiet_config();
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.05, 100), 9);
        net.run_cycles(2_000);
        let obs = net.observations();
        assert_eq!(obs.len(), 64);
        let busy = obs.iter().filter(|o| o.features[..5].iter().sum::<f64>() > 0.0).count();
        assert!(busy > 32, "most routers should see traffic, saw {busy}");
        for o in &obs {
            assert!(o.temperature_c >= 45.0 && o.temperature_c <= 130.0);
            assert!(o.aging_factor >= 1.0);
            for f in &o.features[..15] {
                assert!(*f >= 0.0 && *f <= 1.5, "feature {f}");
            }
        }
        // Second observation call sees a drained accumulator.
        let obs2 = net.observations();
        assert!(obs2.iter().all(|o| o.features[..15].iter().all(|&f| f == 0.0)));
    }

    #[test]
    fn run_to_completion_invokes_policy() {
        let cfg = quiet_config();
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.03, 60), 2);
        let mut calls = 0;
        let report = net.run_to_completion(500, |obs, _| {
            calls += 1;
            assert_eq!(obs.len(), 64);
            None
        });
        assert!(calls > 0);
        assert_eq!(report.stats.packets_delivered, 64 * 60);
        assert!(report.mttf_hours.is_some());
        assert!(report.power.total_mw() > 0.0);
    }

    /// Zero progress from cycle 0: one packet stuck behind a dead link with
    /// rerouting off. The watchdog fires at exactly `cycle == stall_window`
    /// (progress was never made, so the baseline is cycle 0), and the
    /// [`StallReport`] fields carry the full diagnostic.
    #[test]
    fn watchdog_fires_on_zero_progress_from_cycle_zero() {
        let mut cfg = quiet_config();
        cfg.width = 2;
        cfg.height = 2;
        cfg.stall_window = 150;
        // Node 0's eastbound link (dir 0 = X+) is the only XY route to
        // node 1; kill it from cycle 0 so the hand-injected packet can
        // never leave its NI.
        cfg.hard_faults = noc_fault::HardFaultScenario {
            faults: vec![noc_fault::HardFault {
                at: 0,
                target: HardFaultTarget::Link { router: 0, dir: 0 },
                kind: noc_fault::HardFaultKind::FailStop,
            }],
        };
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        net.stats.packets_injected = 1;
        net.outstanding[0] = 1;
        net.nis.extend(0, make_packet(0, 0, 0, 1, 0));

        let done = net.run_cycles(10_000);
        assert!(done, "a stalled run must terminate via the watchdog");
        let stall = net.stall().expect("watchdog must fire");
        assert_eq!(stall.cycle, 150, "zero progress since cycle 0 fires at the window edge");
        assert_eq!(stall.window, 150);
        assert_eq!(stall.in_flight, 1);
        assert!(!stall.dump.is_empty(), "state dump attached");
        assert_eq!(net.stats.cycles, stall.cycle, "the run stops the cycle the watchdog fires");
        assert_eq!(net.stats.packets_delivered, 0);
        assert_eq!(net.stats.packets_dropped, 0);
    }

    /// Progress landing exactly when the window elapses wins over the
    /// stall: the score check precedes the window check, so a delivery at
    /// `last_progress + window` resets the baseline instead of firing.
    #[test]
    fn watchdog_progress_exactly_at_threshold_resets_the_window() {
        let mut cfg = quiet_config();
        cfg.stall_window = 100;
        let mut net = Network::new(
            cfg,
            WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) },
            1,
        );
        net.stats.packets_injected = 2;

        // One cycle short of the window: no stall.
        net.now = 99;
        assert!(!net.watchdog_check());
        // A delivery exactly at the window edge resets instead of firing.
        net.now = 100;
        net.stats.packets_delivered = 1;
        assert!(!net.watchdog_check(), "progress at the threshold must win");
        assert!(net.stall.is_none());
        assert_eq!(net.last_progress, 100, "baseline resets to the progress cycle");
        assert_eq!(net.last_score, 1);

        // The next window is measured from the reset point, not cycle 0.
        net.now = 199;
        assert!(!net.watchdog_check());
        net.now = 200;
        assert!(net.watchdog_check(), "a full silent window after the reset fires");
        let stall = net.stall().expect("stall armed");
        assert_eq!(stall.cycle, 200);
        assert_eq!(stall.window, 100);
        assert_eq!(stall.in_flight, 1, "injected 2 − delivered 1");
    }

    /// A drop counts as forward progress exactly like a delivery: the
    /// score is `delivered + dropped`.
    #[test]
    fn watchdog_counts_drops_as_progress() {
        let mut cfg = quiet_config();
        cfg.stall_window = 100;
        let mut net = Network::new(
            cfg,
            WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) },
            1,
        );
        net.stats.packets_injected = 3;
        net.now = 100;
        net.stats.packets_dropped = 1;
        assert!(!net.watchdog_check(), "a drop is progress");
        assert_eq!(net.last_score, 1);
        net.now = 200;
        assert!(net.watchdog_check());
        assert_eq!(net.stall().unwrap().in_flight, 2);
    }

    /// Idle tails — nothing in flight — never trip the watchdog no matter
    /// how stale the score is, and traffic appearing after a long idle tail
    /// gets a full fresh window before the watchdog can fire.
    #[test]
    fn watchdog_ignores_idle_tails() {
        let mut cfg = quiet_config();
        cfg.stall_window = 100;
        let mut net = Network::new(
            cfg,
            WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) },
            1,
        );
        net.stats.packets_injected = 5;
        net.stats.packets_delivered = 3;
        net.stats.packets_dropped = 2;
        for now in [50, 150, 100_000, 1_000_000] {
            net.now = now;
            assert!(!net.watchdog_check(), "idle tail tripped the watchdog at cycle {now}");
        }
        assert!(net.stall().is_none());

        // New traffic after the tail: the baseline is the last idle check,
        // so the stall needs a full window of in-flight silence from there.
        net.stats.packets_injected = 6;
        net.now = 1_000_000 + 99;
        assert!(!net.watchdog_check());
        net.now = 1_000_000 + 100;
        assert!(net.watchdog_check());
        assert_eq!(net.stall().unwrap().cycle, 1_000_100);
    }

    /// `stall_window == 0` disables the watchdog entirely.
    #[test]
    fn watchdog_disabled_with_zero_window() {
        let mut cfg = quiet_config();
        cfg.stall_window = 0;
        let mut net = Network::new(
            cfg,
            WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) },
            1,
        );
        net.stats.packets_injected = 1;
        net.now = 10_000_000;
        assert!(!net.watchdog_check());
        assert!(net.stall().is_none());
    }

    // ------------------------------------------------------------------
    // Closed-loop request–reply integration
    // ------------------------------------------------------------------

    use noc_traffic::ReqReplySpec;

    fn small_reqreply_cfg() -> SimConfig {
        let mut cfg = quiet_config();
        cfg.width = 4;
        cfg.height = 4;
        cfg
    }

    /// On a healthy mesh every transaction completes, the conservation
    /// invariant holds, and the report carries the transaction summary.
    #[test]
    fn closed_loop_reqreply_completes_and_conserves() {
        let spec = WorkloadSpec::reqreply(0.05, 4, ReqReplySpec::default());
        let mut net = Network::new(small_reqreply_cfg(), spec, 11);
        let done = net.run_cycles(500_000);
        assert!(done, "closed-loop run must drain");
        assert!(net.is_done());
        let report = net.report();
        let txn = report.txn.expect("closed-loop runs carry a txn summary");
        assert_eq!(txn.issued, 16 * 4);
        assert_eq!(txn.completed, txn.issued, "healthy network completes everything");
        assert_eq!(txn.failed, 0);
        assert_eq!(txn.shed, 0);
        assert_eq!(txn.in_flight, 0);
        assert_eq!(txn.violations, 0, "conservation must hold");
        assert!(txn.orphans.is_empty());
        // Requests + replies both traverse the network.
        assert!(report.stats.packets_injected >= 2 * txn.issued);
        // Open-loop runs carry no summary.
        let (open, _) = run(quiet_config(), WorkloadSpec::uniform(0.02, 2));
        assert!(open.txn.is_none());
    }

    /// Regression for the dependency-window leak: packets that die against a
    /// dead router (dropped at injection or mid-flight) must decrement the
    /// source's `outstanding` count, or window-gated sources wedge forever
    /// and the run never drains. The transactions aimed at the dead node
    /// must exhaust their retries and land in `failed` — conserved, not
    /// leaked.
    #[test]
    fn dead_router_mesh_frees_the_dependency_window_and_conserves() {
        let mut cfg = small_reqreply_cfg();
        cfg.fault_aware_routing = true;
        cfg.hard_faults = noc_fault::HardFaultScenario::dead_routers(4, 4, 2, 5, 0);
        let rr = ReqReplySpec {
            reply_timeout: 300,
            max_retries: 2,
            backoff_base: 16,
            backoff_cap: 64,
            ..ReqReplySpec::default()
        };
        let mut spec = WorkloadSpec::reqreply(0.1, 3, rr);
        spec.window = 2; // tight window: any outstanding leak wedges the source
        let mut net = Network::new(cfg, spec, 11);
        let done = net.run_cycles(500_000);
        assert!(done, "run must drain despite dead routers");
        assert!(net.stall().is_none(), "no watchdog stall: drops free the window");
        let report = net.report();
        assert!(report.stats.packets_dropped > 0, "dead routers must cost packets");
        let txn = report.txn.expect("txn summary");
        assert!(txn.failed > 0, "transactions against dead nodes must fail");
        assert!(txn.retries > 0, "failures only after bounded retries");
        assert_eq!(txn.violations, 0, "every loss is accounted: no conservation violation");
        assert!(txn.orphans.is_empty());
        assert_eq!(txn.in_flight, 0);
        assert_eq!(txn.issued, txn.completed + txn.failed + txn.shed);
        for (node, &o) in net.outstanding.iter().enumerate() {
            assert_eq!(o, 0, "node {node} leaked dependency-window slots");
        }
    }

    /// Sources idle while a server works on their reply have nothing in
    /// flight, so the stall watchdog must not trip even when the service
    /// latency far exceeds the watchdog window (satellite of PR 8's five
    /// watchdog cases).
    #[test]
    fn watchdog_tolerates_sources_awaiting_replies() {
        let mut cfg = quiet_config();
        cfg.width = 2;
        cfg.height = 2;
        cfg.stall_window = 50;
        let rr = ReqReplySpec {
            service_latency: 400, // 8× the watchdog window
            reply_timeout: 2000,
            ..ReqReplySpec::default()
        };
        let spec = WorkloadSpec::reqreply(1.0, 1, rr);
        let mut net = Network::new(cfg, spec, 3);
        let done = net.run_cycles(100_000);
        assert!(done, "run must drain");
        assert!(net.stall().is_none(), "awaiting-reply idle gaps must not trip the watchdog");
        let txn = net.report().txn.expect("txn summary");
        assert_eq!(txn.completed, txn.issued);
        assert_eq!(txn.violations, 0);
    }

    /// The seeded chaos hook orphans a transaction: the conservation
    /// auditor's counters break by exactly one and the orphan is named in
    /// the report.
    #[test]
    fn chaos_orphan_surfaces_in_the_run_report() {
        let rr = ReqReplySpec { chaos_orphan: Some(0), ..ReqReplySpec::default() };
        let spec = WorkloadSpec::reqreply(0.05, 2, rr);
        let mut net = Network::new(small_reqreply_cfg(), spec, 11);
        net.run_cycles(500_000);
        let txn = net.report().txn.expect("txn summary");
        assert_eq!(txn.violations, 1, "exactly the orphaned transaction is unaccounted");
        assert_eq!(txn.orphans, vec![0], "the orphan is named");
    }

    /// With a tracer installed the transaction lifecycle shows up in the
    /// event stream; without one the workload buffers nothing.
    #[test]
    fn tracer_carries_txn_lifecycle_events() {
        use noc_telemetry::{EventKind, TraceFilter};
        let spec = WorkloadSpec::reqreply(0.05, 2, ReqReplySpec::default());
        let mut net = Network::new(small_reqreply_cfg(), spec, 11);
        let tracer = Tracer::new(1 << 16, TraceFilter::all());
        net.install_probe(ProbeConfig { tracer: Some(tracer), ..ProbeConfig::default() });
        let done = net.run_cycles(500_000);
        assert!(done);
        let tracer = net.take_probe().tracer.expect("tracer installed");
        let issued = tracer.count_of(EventKind::TxnIssued);
        let completed = tracer.count_of(EventKind::TxnCompleted);
        assert_eq!(issued as u64, net.report().txn.expect("txn").issued);
        assert_eq!(completed, issued);
    }
}
