//! The cycle-accurate simulation kernel.
//!
//! One [`Network`] instance simulates an entire run: mesh of routers,
//! inter-router channels, network interfaces (NIs), workload injection,
//! fault injection with real ECC decoding, power/thermal/aging epochs, and
//! the control-policy hook.
//!
//! # Parts
//!
//! Each layer is a set of methods on the part it changes — the [`Fabric`]
//! (every place a flit can sit) or the [`Endpoints`] (packet birth and
//! death) — and borrows the rest of the network as one [`Cx`].
//!
//! # Cycle phase order (deterministic)
//!
//! This is the single statement of the order; [`Network::step_cycle`] is
//! its code:
//!
//! 0. **Hard faults** (`recovery`) — scheduled link/router failures and
//!    repairs take effect; on an edge the [`HealthRouter`] rebuilds its map,
//!    route tables and fail-stop view, and what the fault stranded is
//!    salvaged end to end or accounted as dropped.
//! 1. **Router phase** (`router_layer`) — powered routers perform switch
//!    allocation and move flits from input VCs into output channels or
//!    eject them at the NI; gated routers forward flits channel-to-channel
//!    through the bypass switch.
//! 2. **Delivery phase** — (a) `link_layer`: per non-empty channel into a
//!    powered router, the BST skip-scan picks a flit and it traverses the
//!    link (this is where link faults are sampled and per-hop ECC decodes
//!    and NACKs run) into an input VC or onward through the continuation
//!    latch; (b) `ni_layer`: NI injection queues feed local input ports.
//! 3. **Gating phase** (`router_layer`) — idle detection,
//!    proactive/reactive gate and wake transitions, occupancy accounting.
//! 4. **Workload phase** (`ni_layer`) — the traffic generator is polled and
//!    new packets enter the NI injection queues.
//! 5. **Epoch phase** (this file) — every `EPOCH_CYCLES`: energy is
//!    settled, the thermal grid steps, aging accumulates, and per-router
//!    error rates are refreshed.
//!
//! Between cycles the run loop consults the stall [`Watchdog`], and the
//! report it arms carries the fabric's text dump.
//!
//! # Occupancy index
//!
//! No phase finds out whether a router, link or NI holds flits by walking
//! its queues: `Router::occupancy`, `Links::inbound` / `next_occupied`
//! and `Nis::waiting` / `next_waiting` answer in O(1) from counts and
//! bitsets that the owning types update wherever a flit enters or leaves
//! (DESIGN.md §7.0). Quiet routers are still visited every cycle — their
//! round-robin pointers, idle/gate timers and step counters are cycle-domain
//! state — but the visit is constant-time. The index changes host time
//! only; debug builds recount it at the end of every [`Network::step_cycle`].
//!
//! Each `Router` extends it into a *readiness index*: one flat VC table
//! plus bitmasks of which VCs hold an SA-eligible flit, which output each
//! bound VC requests and which VCs are free, so switch/VC allocation is a
//! few mask operations per output and link delivery looks VCs up in the
//! table instead of polling `PORTS x vcs` queues (DESIGN.md §7.0).

mod fabric;
mod link_layer;
mod ni_layer;
mod recovery;
mod router_layer;

use crate::channel::Links;
use crate::config::{RouterDirective, SimConfig};
use crate::flit::Cycle;
use crate::health::HealthRouter;
use crate::ni::Nis;
use crate::probe::{Probe, ProbeArtifacts, ProbeConfig};
use crate::router::Router;
use crate::stats::{NetworkStats, RouterObservation, RunReport, StallReport, TxnSummary};
use crate::topology::{slot, Mesh, Port, PORTS};
use noc_ecc::EccSuite;
use noc_fault::{network_mttf, AgingState, FaultInjector, ThermalGrid};
use noc_power::{EnergyLedger, EnergyModel, LeakageModel, RouterLeakageSpec, CLOCK_PERIOD_NS};
use noc_telemetry::{Event, Profiler, Tracer};
use noc_traffic::{Workload, WorkloadSpec};
use std::collections::HashSet;

/// Cycles between power/thermal/aging epochs (Table 1 setup).
const EPOCH_CYCLES: u64 = 250;

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    cfg: SimConfig,
    now: Cycle,
    fabric: Fabric,
    errors: LinkErrors,
    ends: Endpoints,
    thermal: ThermalGrid,
    aging: Vec<AgingState>,
    ledger: EnergyLedger,
    stats: NetworkStats,
    /// Every telemetry sink (tracer, profiler, attribution, flight
    /// recorder, journeys) behind one set of event points; with nothing
    /// installed each point is a not-taken branch per sink.
    probe: Probe,
    /// Link/router health map, fault-aware route tables and the fail-stop
    /// view derived from them.
    health: HealthRouter,
    /// Current down/up state per scheduled hard fault (transition edges are
    /// detected against this).
    fault_state: Vec<bool>,
    watchdog: Watchdog,
    /// Set when the stall watchdog aborted the run.
    stall: Option<StallReport>,
}

/// Routers, channels and NIs of one mesh.
#[derive(Debug)]
struct Fabric {
    mesh: Mesh,
    routers: Vec<Router>,
    /// Outgoing channel per (router, direction) slot; `None` at mesh
    /// boundaries. Owns the link part of the occupancy index.
    links: Links,
    /// Network interfaces; owns the NI part of the occupancy index.
    nis: Nis,
}

/// What a traversal samples flips with and decodes with.
#[derive(Debug)]
struct LinkErrors {
    suite: EccSuite,
    injector: FaultInjector,
    /// Current per-bit error rate per (upstream) router.
    re: Vec<f64>,
}

/// Where packets are born and die.
#[derive(Debug)]
struct Endpoints {
    traffic: Box<dyn Workload>,
    /// Packets each source has in flight (the workload's dependency window).
    outstanding: Vec<usize>,
    next_packet_id: u64,
    next_flit_id: u64,
    /// Packets already accounted as dropped (guards double counting when a
    /// packet is disturbed by several faults or escalation paths).
    dropped_ids: HashSet<u64>,
}

/// The rest of the [`Network`], as one borrow: what a phase reads, samples
/// link errors with and reports to besides the fabric and the endpoints.
struct Cx<'a> {
    now: Cycle,
    cfg: &'a SimConfig,
    health: &'a HealthRouter,
    errors: &'a mut LinkErrors,
    stats: &'a mut NetworkStats,
    probe: &'a mut Probe,
}

/// The stall watchdog's progress rule: a run with packets in flight that
/// neither delivers nor drops one for a whole window has stalled.
#[derive(Debug)]
struct Watchdog {
    /// Cycles without progress that make a stall (at least 1).
    window: u64,
    /// Last cycle the watchdog observed forward progress.
    last_progress: Cycle,
    /// Progress score (delivered + dropped) at `last_progress`.
    last_score: u64,
}

impl Watchdog {
    /// Checks forward progress at `now`: `Some(in_flight)` when none was
    /// made for a full window while packets are in flight. Progress exactly
    /// at the window edge wins: the score is checked first.
    fn stalled(&mut self, now: Cycle, stats: &NetworkStats) -> Option<u64> {
        let score = stats.packets_delivered + stats.packets_dropped;
        let in_flight = stats.packets_injected.saturating_sub(score);
        if score != self.last_score || in_flight == 0 {
            self.last_score = score;
            self.last_progress = now;
            return None;
        }
        (now.saturating_sub(self.last_progress) >= self.window).then_some(in_flight)
    }
}

impl Network {
    /// Builds a network for `cfg` driven by the packet source `workload`
    /// describes (generated, closed-loop or a recorded trace), seeded with
    /// `traffic_seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig, workload: WorkloadSpec, traffic_seed: u64) -> Self {
        let traffic = workload.into_workload(cfg.width, cfg.height, traffic_seed);
        Self::with_workload(cfg, traffic)
    }

    /// Builds a network driven by `workload` (the probe tests drive one with
    /// a workload of their own).
    pub(crate) fn with_workload(cfg: SimConfig, workload: Box<dyn Workload>) -> Self {
        cfg.validate();
        let mesh = Mesh::new(cfg.width, cfg.height);
        let n = mesh.nodes();
        let routers = (0..n).map(|id| Router::new(id, cfg.vcs, cfg.vc_depth, cfg.default_scheme));
        let links = Links::new(&mesh, cfg.channel_capacity);
        let thermal = ThermalGrid::new(cfg.thermal, cfg.width, cfg.height);
        let base_re = cfg.varius.bit_error_rate(thermal.temp_c(0), cfg.aging.vdd, 0.0);
        Network {
            health: HealthRouter::new(mesh),
            fault_state: vec![false; cfg.hard_faults.faults.len()],
            watchdog: Watchdog { window: cfg.stall_window, last_progress: 0, last_score: 0 },
            stall: None,
            now: 0,
            fabric: Fabric { routers: routers.collect(), links, nis: Nis::new(n), mesh },
            errors: LinkErrors {
                suite: EccSuite::new(),
                injector: FaultInjector::new(cfg.seed),
                re: vec![base_re; n],
            },
            ends: Endpoints {
                traffic: workload,
                outstanding: vec![0; n],
                next_packet_id: 0,
                next_flit_id: 0,
                dropped_ids: HashSet::new(),
            },
            thermal,
            aging: vec![AgingState::new(); n],
            ledger: EnergyLedger::new(),
            stats: NetworkStats::default(),
            probe: Probe::default(),
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
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
        let traffic = &mut self.ends.traffic;
        self.probe = Probe::new(cfg, &self.fabric.mesh, traffic.name());
        traffic.set_txn_event_recording(self.probe.wants_txn_events());
    }

    /// Removes every installed sink, closing each at the current cycle.
    pub fn take_probe(&mut self) -> ProbeArtifacts {
        self.ends.traffic.set_txn_event_recording(false);
        std::mem::take(&mut self.probe).finish(self.now)
    }

    /// The installed tracer, if any (the recorder's own ring is none).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.probe.ring.as_ref().filter(|_| self.probe.traced)
    }

    /// Mutable access to the installed tracer (for control-layer events
    /// emitted between cycles).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.probe.ring.as_mut().filter(|_| self.probe.traced)
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

    /// The stall-watchdog diagnostic, if the run was aborted.
    pub fn stall(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    /// Forces a fixed per-bit transient error rate (Fig. 17b sweep).
    pub fn set_error_rate_override(&mut self, rate: Option<f64>) {
        self.errors.injector.set_rate_override(rate);
    }

    /// Whether every workload packet has been generated and either
    /// delivered or accounted as dropped.
    pub fn is_done(&self) -> bool {
        self.ends.traffic.is_exhausted()
            && self.stats.packets_delivered + self.stats.packets_dropped
                == self.stats.packets_injected
    }

    /// The parts a phase changes, and the [`Cx`] it reads and reports to.
    fn parts(&mut self) -> (&mut Fabric, &mut Endpoints, Cx<'_>) {
        let cx = Cx {
            now: self.now,
            cfg: &self.cfg,
            health: &self.health,
            errors: &mut self.errors,
            stats: &mut self.stats,
            probe: &mut self.probe,
        };
        (&mut self.fabric, &mut self.ends, cx)
    }

    /// Phase 5: settles energy, steps the thermal grid, accumulates aging and
    /// refreshes per-router error rates.
    fn epoch_phase(&mut self) {
        let epoch = EPOCH_CYCLES;
        let (energy, leakage) = (EnergyModel::default(), LeakageModel::default());
        let n = self.fabric.mesh.nodes();
        let mut powers = Vec::with_capacity(n);
        let spec = RouterLeakageSpec {
            buffer_slots: self.cfg.buffer_slots_per_router(),
            channel_stages: self.cfg.channel_stages_per_router(),
            has_bst: self.cfg.mfac,
            has_qtable: self.cfg.mfac,
        };
        for (r, router) in self.fabric.routers.iter_mut().enumerate() {
            let counters = std::mem::take(&mut router.counters);
            let dyn_pj = energy.dynamic_pj(&counters);
            let gated = router.is_gated_or_waking() || !self.health.router_up(r);
            let temp = self.thermal.temp_c(r);
            let static_mw = leakage.router_static_mw(&spec, router.directive.scheme, temp, gated);
            let dyn_mw = dyn_pj / (epoch as f64 * CLOCK_PERIOD_NS);
            self.ledger.add_dynamic_pj(dyn_pj);
            self.ledger.add_static_epoch(static_mw, epoch);
            let total = static_mw + dyn_mw;
            router.step.power_mw_sum += total;
            router.step.epochs += 1;
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
        for (r, re) in self.errors.re.iter_mut().enumerate() {
            *re = self.cfg.varius.bit_error_rate(
                self.thermal.temp_c(r),
                self.cfg.aging.vdd,
                self.aging[r].delay_degradation(&self.cfg.aging),
            );
        }
        self.probe.temp_epoch(n, |r| self.thermal.temp_c(r));
    }

    /// Advances the simulation by one cycle: the phase order of the module
    /// doc, each phase under its `noc-prof` span (`link.traverse` carries
    /// the `route.compute`/`ecc.*`/`retx.ladder`/`fault.inject`/`eject`
    /// leaves; the router phase opens `alloc.vc_sa` or `router.bypass` per
    /// router). With no profiler each span guard is a single branch.
    pub fn step_cycle(&mut self) {
        self.probe.span_enter("step_cycle");
        self.probe.span_enter("fault.hard");
        self.apply_hard_faults();
        self.probe.span_exit();
        let (fabric, ends, mut cx) = self.parts();
        fabric.router_phase(&mut cx, ends);
        cx.probe.span_enter("link.traverse");
        fabric.link_delivery(&mut cx, ends);
        fabric.ni_injection(&mut cx);
        cx.probe.span_exit();
        cx.probe.span_enter("power.gating");
        fabric.gating_phase(&mut cx);
        cx.probe.span_exit();
        cx.probe.span_enter("workload.inject");
        ends.workload_phase(fabric, &mut cx);
        cx.probe.span_exit();
        if cx.probe.wants_txn_events() {
            for ev in ends.traffic.drain_txn_events() {
                cx.probe.txn_event(&ev);
            }
        }
        self.now += 1;
        self.stats.cycles = self.now;
        if self.now.is_multiple_of(EPOCH_CYCLES) {
            self.probe.span_enter("epoch.update");
            self.epoch_phase();
            self.probe.span_exit();
        }
        self.probe.span_exit();
        debug_assert_eq!(self.occupancy_index_drift(), None, "cycle {}", self.now);
    }

    /// Compares the occupancy index with a from-scratch recount and checks
    /// the ownership invariant (`Fabric::occupancy_index_drift`). `None`
    /// means all hold; `Some(what)` names the first mismatch. Debug builds
    /// assert this at the end of every [`Network::step_cycle`].
    #[doc(hidden)]
    pub fn occupancy_index_drift(&self) -> Option<String> {
        self.fabric.occupancy_index_drift(self.now)
    }

    /// Runs `n` cycles (or fewer if the workload completes); returns whether
    /// the run is done.
    pub fn run_cycles(&mut self, n: u64) -> bool {
        for _ in 0..n {
            if self.is_done() || self.now >= self.cfg.max_cycles || self.stall.is_some() {
                break;
            }
            self.step_cycle();
            let Some(in_flight) = self.watchdog.stalled(self.now, &self.stats) else { continue };
            self.probe.event(Event::WatchdogStall { cycle: self.now, router: 0, state: in_flight });
            self.stall = Some(StallReport {
                cycle: self.now,
                window: self.cfg.stall_window,
                in_flight,
                blocked: self.fabric.snapshot_blocked(self.now, 16),
                dump: self.fabric.snapshot_dump(),
            });
        }
        self.is_done() || self.now >= self.cfg.max_cycles || self.stall.is_some()
    }

    /// Applies one directive per router (control-policy output).
    ///
    /// # Panics
    ///
    /// Panics if `directives.len()` differs from the router count.
    pub fn apply_directives(&mut self, directives: &[RouterDirective]) {
        let Fabric { routers, links, .. } = &mut self.fabric;
        assert_eq!(directives.len(), routers.len(), "one directive per router");
        for (r, d) in directives.iter().enumerate() {
            routers[r].directive = *d;
            for dir in Port::DIRECTIONS {
                links.set_relaxed(slot(r, dir), d.relaxed);
            }
        }
    }

    /// Charges the energy of `n` RL decisions (one per agent per time step).
    pub fn charge_rl_decisions(&mut self, n: u64) {
        self.ledger.add_dynamic_pj(EnergyModel::default().rl_decision_pj * n as f64);
    }

    /// Collects per-router observations for the elapsed control time step
    /// and resets the per-step accumulators.
    pub fn observations(&mut self) -> Vec<RouterObservation> {
        let slots = self.cfg.buffer_slots_per_router() as f64;
        let mut out = Vec::with_capacity(self.fabric.routers.len());
        for (r, router) in self.fabric.routers.iter_mut().enumerate() {
            let temp = self.thermal.temp_c(r);
            let step = std::mem::take(&mut router.step);
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
            injected_bit_flips: self.errors.injector.injected_bits(),
            faulty_flit_traversals: self.stats.faulty_traversals,
            stall: self.stall.clone(),
            txn: self.ends.traffic.txn_stats().map(|s| {
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
                    orphans: self.ends.traffic.txn_orphans(),
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::make_packet;
    use noc_ecc::EccScheme;
    use noc_fault::HardFaultTarget;
    use noc_telemetry::Tracer;

    pub(super) fn quiet_config() -> SimConfig {
        let mut cfg = SimConfig::default();
        // Disable faults so the basic flow tests are deterministic.
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        cfg
    }

    /// The parts of an idle network on `cfg`, built without a [`Network`],
    /// so a layer test runs one mechanic on exactly what it touches.
    pub(super) struct Rig {
        pub(super) fabric: Fabric,
        pub(super) ends: Endpoints,
        pub(super) cfg: SimConfig,
        pub(super) health: HealthRouter,
        pub(super) errors: LinkErrors,
        pub(super) stats: NetworkStats,
        pub(super) probe: Probe,
    }

    impl Rig {
        pub(super) fn new(cfg: SimConfig) -> Self {
            let mesh = Mesh::new(cfg.width, cfg.height);
            let n = mesh.nodes();
            let routers =
                (0..n).map(|id| Router::new(id, cfg.vcs, cfg.vc_depth, cfg.default_scheme));
            let idle = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
            Rig {
                fabric: Fabric {
                    routers: routers.collect(),
                    links: Links::new(&mesh, cfg.channel_capacity),
                    nis: Nis::new(n),
                    mesh,
                },
                ends: Endpoints {
                    traffic: idle.into_workload(cfg.width, cfg.height, 1),
                    outstanding: vec![0; n],
                    next_packet_id: 0,
                    next_flit_id: 0,
                    dropped_ids: HashSet::new(),
                },
                errors: LinkErrors {
                    suite: EccSuite::new(),
                    injector: FaultInjector::new(cfg.seed),
                    re: vec![0.0; n],
                },
                health: HealthRouter::new(mesh),
                stats: NetworkStats::default(),
                probe: Probe::default(),
                cfg,
            }
        }

        /// The fabric, the endpoints and the rest lent as a [`Cx`] at `now`.
        pub(super) fn parts(&mut self, now: Cycle) -> (&mut Fabric, &mut Endpoints, Cx<'_>) {
            let cx = Cx {
                now,
                cfg: &self.cfg,
                health: &self.health,
                errors: &mut self.errors,
                stats: &mut self.stats,
                probe: &mut self.probe,
            };
            (&mut self.fabric, &mut self.ends, cx)
        }
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
    fn stuffed_ni_and_purged_packets_leave_the_occupancy_index_consistent() {
        let mut cfg = quiet_config();
        cfg.width = 4;
        cfg.height = 4;
        let spec = WorkloadSpec { packets_per_node: 0, ..WorkloadSpec::uniform(0.0, 0) };
        let mut net = Network::new(cfg, spec, 1);
        // Hand-stuff two packets into node 0's NI, as the tests below do.
        net.stats.packets_injected = 2;
        net.ends.outstanding[0] = 2;
        net.fabric.nis.extend(0, make_packet(0, 0, 0, 3, 0));
        net.fabric.nis.extend(0, make_packet(1, 4, 0, 15, 0));
        assert!(net.fabric.nis.waiting(0) && !net.fabric.nis.waiting(1));
        assert_eq!(net.occupancy_index_drift(), None);
        // Step (every step re-checks the index in debug builds) until flits
        // sit in all three kinds of queue at once: NI, input VCs, channels.
        let in_network = |net: &Network| {
            let buffered: usize = net.fabric.routers.iter().map(Router::occupancy).sum();
            let on_links: usize = (0..16).map(|r| net.fabric.links.inbound(r)).sum();
            (buffered, on_links)
        };
        let spread = |net: &Network| {
            let (buffered, on_links) = in_network(net);
            buffered > 0 && on_links > 0 && net.fabric.nis.waiting(0)
        };
        for _ in 0..20 {
            if spread(&net) {
                break;
            }
            net.step_cycle();
        }
        assert!(spread(&net), "{:?} in the network", in_network(&net));
        // Purge both mid-flight, the way hard-fault salvage does.
        net.fabric.purge_packet(0);
        assert_eq!(net.occupancy_index_drift(), None);
        net.fabric.purge_packet(1);
        assert_eq!(net.occupancy_index_drift(), None);
        assert_eq!(in_network(&net), (0, 0));
        assert_eq!(net.fabric.links.next_occupied(0), None);
        assert_eq!(net.fabric.nis.next_waiting(0), None);
        // A purged network is quiescent and stays consistent.
        net.step_cycle();
        assert_eq!(net.occupancy_index_drift(), None);
    }

    /// What a packet holds of a router must not outlive it: a VC left bound,
    /// a reservation or a continuation record with no flit of the packet
    /// left to release it is named by the per-cycle drift check.
    #[test]
    fn drift_check_names_a_holding_whose_packet_is_gone() {
        let mut fabric = Rig::new(quiet_config()).fabric;
        let flits = make_packet(36, 144, 40, 52, 0);
        // The head binds a VC of router 48 and leaves; nothing follows it.
        fabric.routers[48].enqueue(2, 2, flits[0], Port::XPlus, 0);
        let _ = fabric.routers[48].pop_granted(2, 2, 0);
        let drift = fabric.occupancy_index_drift(0).expect("the leaked row is reported");
        assert_eq!(drift, "router 48 row 10: bound to packet 36, which is nowhere in the network");
        // A body flit still waiting in its source NI is enough to own it.
        fabric.nis.extend(40, [flits[1]]);
        assert_eq!(fabric.occupancy_index_drift(0), None);
        fabric.purge_packet(36);
        assert_eq!(fabric.occupancy_index_drift(0), None);

        // A reservation is owned by the head on the channel feeding the port.
        fabric.routers[48].reserve(0, 1, 36);
        let drift = fabric.occupancy_index_drift(0).expect("the orphaned reservation is reported");
        assert!(drift.starts_with("router 48 row 1: reserved for packet 36"), "{drift}");
        let ci = fabric.links.feeding(48, Port::XPlus).expect("router 49 feeds that port");
        fabric.links.push_delayed(ci, flits[0], 0, 0);
        assert_eq!(fabric.occupancy_index_drift(0), None);
        fabric.purge_packet(36);

        // A continuation record is owned like a bound VC.
        fabric.routers[48].note_continuation(Port::YPlus, &flits[0], Port::YMinus);
        let drift = fabric.occupancy_index_drift(0).expect("the leaked record is reported");
        assert!(drift.starts_with("router 48 input YPlus: a continuation record of"), "{drift}");
        fabric.purge_packet(36);
        assert_eq!(fabric.occupancy_index_drift(0), None);
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
        net.ends.outstanding[0] = 1;
        net.fabric.nis.extend(0, flits);
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

    /// CP's router (no MFACs: it wakes on the first flit in its channel)
    /// leaks less at idle with reactive gating than without.
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
        net.ends.outstanding[0] = 1;
        net.fabric.nis.extend(0, make_packet(0, 0, 0, 1, 0));

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
        let mut dog = Watchdog { window: 100, last_progress: 0, last_score: 0 };
        let mut stats = NetworkStats { packets_injected: 2, ..NetworkStats::default() };

        // One cycle short of the window: no stall.
        assert_eq!(dog.stalled(99, &stats), None);
        // A delivery exactly at the window edge resets instead of firing.
        stats.packets_delivered = 1;
        assert_eq!(dog.stalled(100, &stats), None, "progress at the threshold must win");
        assert_eq!(dog.last_progress, 100, "baseline resets to the progress cycle");
        assert_eq!(dog.last_score, 1);

        // The next window is measured from the reset point, not cycle 0.
        assert_eq!(dog.stalled(199, &stats), None);
        let in_flight = dog.stalled(200, &stats);
        assert_eq!(
            in_flight,
            Some(1),
            "a full silent window after the reset fires: 2 − 1 in flight"
        );
    }

    /// A drop counts as forward progress exactly like a delivery: the
    /// score is `delivered + dropped`.
    #[test]
    fn watchdog_counts_drops_as_progress() {
        let mut dog = Watchdog { window: 100, last_progress: 0, last_score: 0 };
        let mut stats = NetworkStats { packets_injected: 3, ..NetworkStats::default() };
        stats.packets_dropped = 1;
        assert_eq!(dog.stalled(100, &stats), None, "a drop is progress");
        assert_eq!(dog.last_score, 1);
        assert_eq!(dog.stalled(200, &stats), Some(2));
    }

    /// Idle tails — nothing in flight — never trip the watchdog no matter
    /// how stale the score is, and traffic appearing after a long idle tail
    /// gets a full fresh window before the watchdog can fire.
    #[test]
    fn watchdog_ignores_idle_tails() {
        let mut dog = Watchdog { window: 100, last_progress: 0, last_score: 0 };
        let mut stats = NetworkStats { packets_injected: 5, ..NetworkStats::default() };
        stats.packets_delivered = 3;
        stats.packets_dropped = 2;
        for now in [50, 150, 100_000, 1_000_000] {
            assert_eq!(dog.stalled(now, &stats), None, "idle tail tripped the watchdog at {now}");
        }

        // New traffic after the tail: the baseline is the last idle check,
        // so the stall needs a full window of in-flight silence from there.
        stats.packets_injected = 6;
        assert_eq!(dog.stalled(1_000_000 + 99, &stats), None);
        assert_eq!(dog.stalled(1_000_000 + 100, &stats), Some(1));
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
        for (node, &o) in net.ends.outstanding.iter().enumerate() {
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
