//! Names and units of every metric, in the order `BENCHMARK.json` lists
//! them. `BENCHMARK.json` adds which direction is better and, for the
//! end-to-end metrics, the bound; a test keeps the two in step.

/// `(name, unit)` of the end-to-end metrics, reported with `--trace 0`.
/// "sim" metrics are in the cycle domain and repeat exactly per seed; the
/// rest are host measurements.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
    ("delivered_share", "ratio"),
    ("sim_latency_cycles", "cycles"),
    ("sim_energy_pj_per_flit", "pJ"),
    ("intellinoc_rel_latency", "ratio"),
    ("intellinoc_rel_energy_eff", "ratio"),
];

/// `(name, unit)` of the per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 47] = [
    // Per-cycle fixed cost -> sim_cycles_per_s on idle_16x16.
    ("sim.step_cycle.calls", "count"),
    ("sim.step_cycle.self_s", "s"),
    ("sim.alloc_vc_sa.calls", "count"),
    ("sim.alloc_vc_sa.flits", "count"),
    ("sim.alloc_vc_sa.self_s", "s"),
    ("sim.alloc_vc_sa.useful_ratio", "ratio"),
    ("sim.router_bypass.calls", "count"),
    ("sim.router_bypass.self_s", "s"),
    ("sim.power_gating.self_s", "s"),
    ("sim.workload_inject.self_s", "s"),
    ("sim.fault_hard.self_s", "s"),
    ("sim.epoch_update.self_s", "s"),
    // Per-flit and per-packet cost -> sim_cycles_per_s on saturated_8x8.
    ("sim.link_traverse.flits", "count"),
    ("sim.link_traverse.allocs", "count"),
    ("sim.link_traverse.self_s", "s"),
    ("sim.route_compute.calls", "count"),
    ("sim.route_compute.self_s", "s"),
    ("sim.route_compute.calls_per_flit_hop", "ratio"),
    ("sim.fault_inject.calls", "count"),
    ("sim.fault_inject.self_s", "s"),
    ("sim.fault_inject.hit_ratio", "ratio"),
    ("sim.eject.calls", "count"),
    ("sim.eject.self_s", "s"),
    ("host.allocs_per_kcycle", "1/kcycle"),
    ("host.alloc_bytes_per_kcycle", "B/kcycle"),
    // ECC -> sim_cycles_per_s on faulty_8x8 only.
    ("sim.ecc_encode.calls", "count"),
    ("sim.ecc_decode.calls", "count"),
    ("sim.ecc.self_s", "s"),
    // The aging model's extrapolation (geometric mean over the designs, and
    // IntelliNoC over SECDED, Fig. 16). Cycle-domain and exact per seed, but
    // it hangs on the most-aged router of a short run and differs by up to
    // 50 % between seeds, so it carries no bound.
    ("fault.mttf_hours", "h"),
    ("fault.intellinoc_rel_mttf", "ratio"),
    // RL -> setup_s on paper_parsec_8x8.
    ("core.rl_decide.calls", "count"),
    ("core.rl_decide.self_s", "s"),
    // Parts of the whole, timed pass.
    ("core.designs.secded.wall_s", "s"),
    ("core.designs.eb.wall_s", "s"),
    ("core.designs.cp.wall_s", "s"),
    ("core.designs.cpd.wall_s", "s"),
    ("core.designs.intellinoc.wall_s", "s"),
    ("core.runner.overhead_us_per_unit", "us"),
    ("core.runner.journal_us_per_unit", "us"),
    // Host.
    ("host.wall_s", "s"),
    ("host.wall_min_s", "s"),
    ("host.wall_max_s", "s"),
    ("host.calib_s", "s"),
    ("host.ns_per_router_cycle", "ns"),
    ("host.flit_hops_per_s", "1/s"),
    ("host.untraced_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];
