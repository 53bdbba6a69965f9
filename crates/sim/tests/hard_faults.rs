//! Hard-fault resilience: permanent link/router failures, fault-aware
//! rerouting, the bounded retransmission escalation ladder, and the stall
//! watchdog — exercised through the public `Network` API.

use noc_sim::{
    HardFault, HardFaultKind, HardFaultScenario, HardFaultTarget, Mesh, Network, Port, SimConfig,
};
use noc_traffic::WorkloadSpec;

fn quiet() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.varius.base_rate = 0.0;
    cfg.varius.min_rate = 0.0;
    cfg
}

/// IntelliNoC-flavoured substrate: MFAC channel storage, bypass, e2e CRC.
fn mfac() -> SimConfig {
    let mut cfg = quiet();
    cfg.channel_capacity = 8;
    cfg.bypass_enabled = true;
    cfg.mfac = true;
    cfg.e2e_crc = true;
    cfg
}

fn run(mut cfg: SimConfig, workload: WorkloadSpec, seed: u64) -> Network {
    cfg.seed = seed;
    let mut net = Network::new(cfg, workload, seed);
    assert!(net.run_cycles(2_000_000), "run must terminate (done or watchdog)");
    net
}

fn assert_accounted(net: &Network, label: &str) {
    let s = net.stats();
    assert_eq!(
        s.packets_delivered + s.packets_dropped,
        s.packets_injected,
        "{label}: {} delivered + {} dropped != {} injected (stall: {:?})",
        s.packets_delivered,
        s.packets_dropped,
        s.packets_injected,
        net.stall().map(|st| &st.blocked),
    );
}

fn link_fault(router: u32, dir: u8, at: u64) -> HardFaultScenario {
    HardFaultScenario {
        faults: vec![HardFault {
            at,
            target: HardFaultTarget::Link { router, dir },
            kind: HardFaultKind::FailStop,
        }],
    }
}

/// Acceptance criterion: any single permanent link failure at t=0 on the
/// 8×8 mesh under uniform-random traffic → rerouting delivers 100% of
/// packets. Checked exhaustively over every physical link, on both the
/// baseline substrate and the MFAC/bypass substrate.
#[test]
fn every_single_link_failure_delivers_all_packets() {
    let mesh = Mesh::new(8, 8);
    for r in 0..mesh.nodes() {
        for (di, dir) in [Port::XPlus, Port::YPlus].into_iter().enumerate() {
            if mesh.neighbor(r, dir).is_none() {
                continue;
            }
            let dir = if di == 0 { 0u8 } else { 2u8 };
            for base in [quiet(), mfac()] {
                let mut cfg = base;
                cfg.fault_aware_routing = true;
                cfg.hard_faults = link_fault(r as u32, dir, 0);
                let net = run(cfg, WorkloadSpec::uniform(0.02, 2), 7);
                let s = net.stats();
                assert!(net.stall().is_none(), "link {r}/{dir}: watchdog fired");
                assert_eq!(s.packets_dropped, 0, "link {r}/{dir}: dropped");
                assert_eq!(s.packets_delivered, s.packets_injected, "link {r}/{dir}: lost packets");
            }
        }
    }
}

/// With rerouting disabled the same scenario must terminate via the
/// drop/watchdog escalation instead of hanging forever.
#[test]
fn no_reroute_terminates_via_drop_or_watchdog() {
    let mut cfg = quiet();
    cfg.fault_aware_routing = false;
    cfg.stall_window = 5_000;
    // Interior link: XY routes will pile into it from both sides.
    cfg.hard_faults = link_fault(27, 0, 0);
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 4), 3);
    assert!(net.run_cycles(2_000_000), "watchdog must end the run");
    let s = net.stats();
    assert!(
        net.stall().is_some() || s.packets_dropped > 0,
        "expected a stall report or accounted drops, got neither"
    );
    if let Some(st) = net.stall() {
        assert!(st.in_flight > 0);
        // `blocked` names channel-front flits; with XY pinned the wedge can
        // also sit wholly inside router VCs, which the full dump covers.
        assert!(!st.dump.is_empty(), "stall report must carry a state dump");
        assert_eq!(st.window, 5_000);
    }
}

/// The watchdog's diagnostic text, byte for byte: link 27 X+ goes down at
/// cycle 1 000 for good (an intermittent outage that never repairs, so
/// nothing is purged) with rerouting off and MFAC storage on, and the XY
/// traffic piled behind it stalls the run. Both `blocked` and `dump` are
/// non-empty here, so the walk over channel slots and routers that builds
/// them is pinned.
#[test]
fn stall_report_text_is_pinned() {
    let mut cfg = quiet();
    cfg.fault_aware_routing = false;
    cfg.channel_capacity = 8;
    cfg.stall_window = 5_000;
    cfg.hard_faults = HardFaultScenario {
        faults: vec![HardFault {
            at: 1_000,
            target: HardFaultTarget::Link { router: 27, dir: 0 },
            kind: HardFaultKind::Intermittent { period: 1_000_000, down: 999_999 },
        }],
    };
    let mut net = Network::new(cfg, WorkloadSpec::uniform(0.05, 400), 3);
    assert!(net.run_cycles(2_000_000), "watchdog must end the run");
    let st = net.stall().expect("the run stalls");
    assert_eq!((st.cycle, st.in_flight), (14_374, 128));
    assert_eq!(st.blocked, [STALL_BLOCKED]);
    assert_eq!(st.dump, STALL_DUMP);
}

const STALL_BLOCKED: &str = "ch 27->28 (XPlus) occ=1 front: pkt=3100 kind=Tail vc=2 ready=true \
dest=20 | down on=true vcs=[pkt=Some(3060) res=false occ=0 route=XPlus] [pkt=None res=false \
occ=0 route=Local] [pkt=Some(3100) res=false occ=0 route=YMinus] [pkt=None res=false occ=0 \
route=XPlus]";

const STALL_DUMP: &str = "\
router 20: gate=On occ=0 ni=0 recv=1 out_ch=0 reserved_vcs=0 bound_vcs=1
router 24: gate=On occ=16 ni=8 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=4
router 25: gate=On occ=32 ni=40 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=8
router 26: gate=On occ=32 ni=44 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=8
router 27: gate=On occ=29 ni=48 recv=0 out_ch=1 reserved_vcs=0 bound_vcs=8
router 28: gate=On occ=32 ni=48 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=10
router 29: gate=On occ=32 ni=48 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=9
router 30: gate=On occ=32 ni=32 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=9
router 31: gate=On occ=16 ni=16 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=4
router 38: gate=On occ=0 ni=0 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=1
router 46: gate=On occ=0 ni=0 recv=0 out_ch=0 reserved_vcs=0 bound_vcs=1
router 54: gate=On occ=0 ni=0 recv=1 out_ch=0 reserved_vcs=0 bound_vcs=1
";

/// A router that dies mid-run takes its NI and in-flight packets with it;
/// everything else must be rerouted or salvaged, and packets to/from the
/// dead node become accounted drops — never silent losses or hangs.
#[test]
fn midrun_router_failure_accounts_every_packet() {
    for base in [quiet(), mfac()] {
        let mut cfg = base;
        cfg.fault_aware_routing = true;
        cfg.hard_faults = HardFaultScenario::dead_routers(8, 8, 1, 1, 300);
        let net = run(cfg, WorkloadSpec::uniform(0.02, 10), 1);
        assert!(net.stall().is_none(), "watchdog fired: {:?}", net.stall().map(|s| &s.blocked));
        assert_accounted(&net, "router-fail");
        assert!(net.stats().packets_dropped > 0, "dead NI must cost some packets");
    }
}

/// Two links dying mid-run while traffic is flowing: packets in flight at
/// the transition must be salvaged (e2e retransmission) or rerouted.
#[test]
fn midrun_link_failures_account_every_packet() {
    let mut cfg = quiet();
    cfg.fault_aware_routing = true;
    cfg.hard_faults = HardFaultScenario::dead_links(8, 8, 2, 5, 400);
    let net = run(cfg, WorkloadSpec::uniform(0.03, 10), 5);
    assert!(net.stall().is_none(), "watchdog fired: {:?}", net.stall().map(|s| &s.blocked));
    let s = net.stats();
    assert_eq!(s.packets_dropped, 0, "mesh stays connected: no drops expected");
    assert_eq!(s.packets_delivered, s.packets_injected);
    assert!(s.reroutes > 0, "detours must be taken");
}

/// Intermittent (flapping) outages stall traffic but never drop it: the
/// mesh keeps full delivery across repeated down/up transitions.
#[test]
fn flapping_links_deliver_everything() {
    let mut cfg = quiet();
    cfg.fault_aware_routing = true;
    cfg.hard_faults = HardFaultScenario::flapping_links(8, 8, 2, 9, 0, 200, 40);
    let net = run(cfg, WorkloadSpec::uniform(0.02, 10), 9);
    assert!(net.stall().is_none(), "watchdog fired: {:?}", net.stall().map(|s| &s.blocked));
    let s = net.stats();
    assert_eq!(s.packets_delivered + s.packets_dropped, s.packets_injected);
    assert_eq!(s.packets_dropped, 0, "flapping must not cause drops");
}

/// A link that flaps back between a packet's head and its tail must not
/// split the packet over two paths. `flapping_links_deliver_everything`
/// cannot see that: it runs `quiet()` — no bypass, no gating — so every flit
/// is bound to a VC whose row pins the route, and no flit is ever VC-less.
/// Here routers gate reactively and traffic rides the bypass and the
/// continuation latch across the rebuilds, so body flits holding no VC meet
/// a route table their head never saw.
#[test]
fn flap_between_head_and_tail_keeps_a_packet_on_one_path() {
    for seed in [9, 1, 2, 3] {
        let mut cfg = mfac();
        cfg.reactive_gating = true;
        cfg.fault_aware_routing = true;
        cfg.hard_faults = HardFaultScenario::flapping_links(8, 8, 2, seed, 0, 200, 40);
        let net = run(cfg, WorkloadSpec::uniform(0.02, 30), seed);
        assert!(net.stall().is_none(), "seed {seed}: {:?}", net.stall().map(|s| &s.blocked));
        let s = net.stats();
        assert_eq!(s.packets_delivered, s.packets_injected, "seed {seed}: flapping lost packets");
        assert_eq!(net.occupancy_index_drift(), None, "seed {seed}: state left behind");
    }
}

/// Escalation ladder under a brutal transient-error rate: hop retries hit
/// `max_retx`, escalate to e2e recovery, and finally to accounted drops —
/// the run terminates with every packet delivered or accounted.
#[test]
fn extreme_error_rates_terminate_with_full_accounting() {
    for rate in [0.05, 0.2, 0.5] {
        let mut cfg = quiet();
        cfg.max_retx = 3;
        cfg.stall_window = 20_000;
        cfg.seed = 11;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.01, 3), 11);
        net.set_error_rate_override(Some(rate));
        assert!(net.run_cycles(5_000_000), "rate {rate}: run must terminate");
        assert_accounted(&net, &format!("error rate {rate}"));
        let s = net.stats();
        assert!(
            s.hop_retx_events + s.e2e_retx_packets > 0,
            "rate {rate}: the ladder must actually engage"
        );
    }
}

/// Hard-fault runs are deterministic: same seed and scenario, same stats.
#[test]
fn fault_runs_are_deterministic() {
    let go = || {
        let mut cfg = quiet();
        cfg.fault_aware_routing = true;
        cfg.hard_faults = HardFaultScenario::dead_links(8, 8, 4, 21, 100)
            .merged(HardFaultScenario::flapping_links(8, 8, 1, 21, 0, 300, 60));
        run(cfg, WorkloadSpec::uniform(0.02, 8), 21)
    };
    let a = go();
    let b = go();
    assert_eq!(a.stats(), b.stats());
}

/// Pinned route tables: an FNV-1a digest of `route` for every
/// `(here, dest, in_port)` and of `reachable` for every `(src, dest)`,
/// taken on a healthy mesh, after faults A, after healing them, and after
/// faults B. Any change to when or how the tables are built moves it.
mod route_bytes {
    use noc_sim::{HealthRouter, Mesh, Port};

    const PINNED: [(usize, usize, u64); 2] =
        [(8, 8, 0x9ccc_0891_763e_2aab), (5, 3, 0x30eb_aa3b_b93d_a858)];

    fn fold(digest: &mut u64, byte: u8) {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }

    fn fold_tables(digest: &mut u64, h: &HealthRouter, mesh: &Mesh) {
        fold(digest, u8::from(h.degraded()));
        for here in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                fold(digest, u8::from(h.reachable(here, dest)));
                for in_port in Port::ALL {
                    let byte = h.route(here, dest, in_port).map_or(0xff, |p| p.index() as u8);
                    fold(digest, byte);
                }
            }
        }
    }

    /// Downs `links` links and `routers` routers drawn from `seed`.
    fn break_some(h: &mut HealthRouter, mesh: &Mesh, seed: u64, links: usize, routers: usize) {
        let mut x = seed;
        let mut draw = |n: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        for _ in 0..links {
            let r = draw(mesh.nodes());
            h.set_link(r, Port::DIRECTIONS[draw(4)], false);
        }
        for _ in 0..routers {
            h.set_router(draw(mesh.nodes()), false);
        }
        h.rebuild();
    }

    #[test]
    fn route_tables_are_pinned() {
        for (w, hgt, pinned) in PINNED {
            let mesh = Mesh::new(w, hgt);
            let mut h = HealthRouter::new(mesh);
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            fold_tables(&mut digest, &h, &mesh);
            break_some(&mut h, &mesh, 11, 3, 1);
            assert!(h.degraded());
            fold_tables(&mut digest, &h, &mesh);
            for r in 0..mesh.nodes() {
                h.set_router(r, true);
                for dir in Port::DIRECTIONS {
                    h.set_link(r, dir, true);
                }
            }
            h.rebuild();
            assert!(!h.degraded());
            fold_tables(&mut digest, &h, &mesh);
            break_some(&mut h, &mesh, 29, 4, 0);
            assert!(h.degraded());
            fold_tables(&mut digest, &h, &mesh);
            assert_eq!(digest, pinned, "{w}x{hgt}: digest {digest:#018x}");
        }
    }
}

mod rerouting_properties {
    use super::*;
    use noc_sim::HealthRouter;
    use proptest::prelude::*;

    /// Follows the health router hop by hop; panics on dead links/routers
    /// or cycles. Returns hops taken, or None when the route is refused.
    fn walk(h: &HealthRouter, mesh: &Mesh, src: usize, dest: usize) -> Option<usize> {
        let mut here = src;
        let mut in_port = Port::Local;
        let mut steps = 0;
        loop {
            let p = h.route(here, dest, in_port)?;
            if p == Port::Local {
                assert_eq!(here, dest, "Local before reaching the destination");
                return Some(steps);
            }
            assert!(h.link_up(here, p), "route uses dead link {here}->{p:?}");
            let next = mesh.neighbor(here, p).expect("route fell off the mesh");
            assert!(h.router_up(next), "route enters dead router {next}");
            in_port = p.opposite();
            here = next;
            steps += 1;
            assert!(steps <= 4 * mesh.nodes(), "route cycles: {src}->{dest}");
        }
    }

    proptest! {
        /// On any residual topology (random link kills), every route the
        /// health map produces from a fresh source is acyclic and ends at
        /// the destination; unreachable pairs are refused, never looped.
        #[test]
        fn routes_never_cycle_under_random_link_failures(
            seed in 0u64..500,
            kills in 0usize..14,
        ) {
            let mesh = Mesh::new(6, 6);
            let mut h = HealthRouter::new(mesh);
            // Deterministic pseudo-random link kills from the seed.
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            for _ in 0..kills {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (x >> 33) as usize % mesh.nodes();
                let dir = if (x >> 13) & 1 == 0 { Port::XPlus } else { Port::YPlus };
                if mesh.neighbor(r, dir).is_some() {
                    h.set_link(r, dir, false);
                }
            }
            h.rebuild();
            for src in 0..mesh.nodes() {
                for dest in 0..mesh.nodes() {
                    let hops = walk(&h, &mesh, src, dest);
                    prop_assert!(
                        hops.is_some() == h.reachable(src, dest),
                        "route presence must match reachability {}->{}", src, dest
                    );
                }
            }
        }

        /// Mid-path states: from any (node, arrival-port) the table either
        /// continues to the destination without cycling or refuses.
        #[test]
        fn continuations_never_cycle(seed in 0u64..200) {
            let mesh = Mesh::new(5, 5);
            let mut h = HealthRouter::new(mesh);
            let mut x = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(9);
            for _ in 0..6 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (x >> 33) as usize % mesh.nodes();
                let dir = if (x >> 13) & 1 == 0 { Port::XPlus } else { Port::YPlus };
                if mesh.neighbor(r, dir).is_some() {
                    h.set_link(r, dir, false);
                }
            }
            h.rebuild();
            for here in 0..mesh.nodes() {
                for dest in 0..mesh.nodes() {
                    for in_port in [Port::XPlus, Port::XMinus, Port::YPlus, Port::YMinus, Port::Local] {
                        let mut at = here;
                        let mut port = in_port;
                        let mut steps = 0;
                        while let Some(p) = h.route(at, dest, port) {
                            if p == Port::Local {
                                prop_assert_eq!(at, dest);
                                break;
                            }
                            prop_assert!(h.link_up(at, p));
                            at = mesh.neighbor(at, p).expect("on mesh");
                            port = p.opposite();
                            steps += 1;
                            prop_assert!(steps <= 4 * mesh.nodes(), "cycle from ({}, {:?})", here, in_port);
                        }
                    }
                }
            }
        }
    }
}
