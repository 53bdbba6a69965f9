//! Sampling hooks that project live [`Network`] state into a labeled
//! [`MetricsRegistry`](noc_telemetry::MetricsRegistry).
//!
//! The control loop calls [`declare_network_metrics`] once and then
//! [`export_network_metrics`] at the end of every control step; the
//! registry is rendered to Prometheus text exposition and published
//! outside the simulator. The export is a pure read of simulation state
//! (counters are set to their current absolute totals), so enabling or
//! disabling it cannot change a single simulated byte.

use crate::latency::LatencyHistogram;
use crate::network::Network;
use noc_telemetry::MetricsRegistry;

/// The metric families the simulator exports, as `(name, kind keyword,
/// help)` triples — the single source of truth for declaration, export,
/// and the docs table.
pub(crate) const NETWORK_METRICS: &[(&str, &str, &str)] = &[
    ("noc_packets_total", "counter", "Packets by lifecycle event (injected/delivered/dropped)."),
    ("noc_retransmitted_flits_total", "counter", "Flits re-sent by per-hop or end-to-end retry."),
    ("noc_retx_events_total", "counter", "Retransmission events by scope (hop/e2e)."),
    ("noc_corrected_bits_total", "counter", "Bit errors corrected by per-hop ECC."),
    ("noc_faulty_traversals_total", "counter", "Link traversals carrying injected bit flips."),
    ("noc_corrupted_packets_total", "counter", "Packets delivered with undetected corruption."),
    ("noc_reroutes_total", "counter", "Fault-aware detour hops around hard faults."),
    ("noc_gated_router_cycles_total", "counter", "Router-cycles spent power-gated."),
    ("noc_sim_cycle", "gauge", "Current simulated cycle."),
    ("noc_avg_latency_cycles", "gauge", "Mean end-to-end packet latency so far (cycles)."),
    ("noc_power_mw", "gauge", "Mean power over the run so far, by component (mW)."),
    ("noc_temperature_celsius", "gauge", "Die temperature, by stat (mean/max)."),
    ("noc_mean_aging_factor", "gauge", "Mean aging-induced delay factor across routers."),
    ("noc_mttf_hours", "gauge", "Extrapolated network MTTF (0 until any router ages)."),
    ("noc_packet_latency_cycles", "histogram", "End-to-end packet latency distribution."),
];

/// Transaction-layer families for closed-loop (request–reply) workloads,
/// kept OUT of [`NETWORK_METRICS`]: they are declared and exported only
/// when the run actually carries transaction accounting, so open-loop
/// expositions never render empty `noc_txn_*` families.
pub(crate) const TXN_METRICS: &[(&str, &str, &str)] = &[
    (
        "noc_txn_transactions_total",
        "counter",
        "Transactions by terminal event (issued/completed/failed/shed).",
    ),
    ("noc_txn_timeouts_total", "counter", "Attempt timeouts (several per retried transaction)."),
    ("noc_txn_retries_total", "counter", "Retry attempts issued after a timeout."),
    ("noc_txn_in_flight", "gauge", "Transactions currently awaiting their reply."),
    (
        "noc_txn_conservation_violations",
        "gauge",
        "Summed per-node conservation error |issued - accounted|; nonzero means leaked transactions.",
    ),
];

/// Declares every simulator metric family in `reg`. Idempotent; call once
/// per run before the first [`export_network_metrics`].
///
/// # Errors
///
/// Propagates registry validation errors (impossible for the fixed names
/// above unless the registry already holds a same-name family of another
/// kind).
pub fn declare_network_metrics(reg: &mut MetricsRegistry) -> Result<(), String> {
    declare(reg, NETWORK_METRICS)
}

/// Declares `families`; idempotent.
fn declare(reg: &mut MetricsRegistry, families: &[(&str, &str, &str)]) -> Result<(), String> {
    for &(name, kind, help) in families {
        match kind {
            "counter" => reg.declare_counter(name, help)?,
            "gauge" => reg.declare_gauge(name, help)?,
            "histogram" => {
                reg.declare_histogram(name, help, &LatencyHistogram::exposition_bounds())?;
            }
            _ => unreachable!("unknown kind keyword {kind} for {name}"),
        }
    }
    Ok(())
}

/// Samples the network's current aggregate state into `reg`.
///
/// `labels` (e.g. `design`, `workload`) are attached to every series so
/// multi-run hubs stay distinguishable. Counters are set to their current
/// absolute totals — the registry mirrors simulation state rather than
/// owning it, which keeps the export stateless and replayable.
///
/// # Errors
///
/// Propagates registry errors (malformed caller-supplied label names).
pub fn export_network_metrics(
    reg: &mut MetricsRegistry,
    net: &Network,
    labels: &[(&str, &str)],
) -> Result<(), String> {
    let report = net.report();
    let s = &report.stats;
    let with = |key: &'static str, value: &'static str| -> Vec<(&str, &str)> {
        let mut l = labels.to_vec();
        l.push((key, value));
        l
    };

    let event = |e| with("event", e);
    reg.counter_set("noc_packets_total", &event("injected"), s.packets_injected as f64)?;
    reg.counter_set("noc_packets_total", &event("delivered"), s.packets_delivered as f64)?;
    reg.counter_set("noc_packets_total", &event("dropped"), s.packets_dropped as f64)?;
    reg.counter_set("noc_retransmitted_flits_total", labels, s.retransmitted_flits as f64)?;
    let scope = |e| with("scope", e);
    reg.counter_set("noc_retx_events_total", &scope("hop"), s.hop_retx_events as f64)?;
    reg.counter_set("noc_retx_events_total", &scope("e2e"), s.e2e_retx_packets as f64)?;
    reg.counter_set("noc_corrected_bits_total", labels, s.corrected_bits as f64)?;
    reg.counter_set("noc_faulty_traversals_total", labels, s.faulty_traversals as f64)?;
    reg.counter_set("noc_corrupted_packets_total", labels, s.corrupted_packets as f64)?;
    reg.counter_set("noc_reroutes_total", labels, s.reroutes as f64)?;
    reg.counter_set("noc_gated_router_cycles_total", labels, s.gated_router_cycles as f64)?;

    reg.gauge_set("noc_sim_cycle", labels, net.now() as f64)?;
    reg.gauge_set("noc_avg_latency_cycles", labels, s.avg_latency())?;
    reg.gauge_set("noc_power_mw", &with("component", "dynamic"), report.power.dynamic_mw)?;
    reg.gauge_set("noc_power_mw", &with("component", "static"), report.power.static_mw)?;
    reg.gauge_set("noc_temperature_celsius", &with("stat", "mean"), report.mean_temp_c)?;
    reg.gauge_set("noc_temperature_celsius", &with("stat", "max"), report.max_temp_c)?;
    reg.gauge_set("noc_mean_aging_factor", labels, report.mean_aging_factor)?;
    reg.gauge_set("noc_mttf_hours", labels, report.mttf_hours.unwrap_or(0.0))?;

    let h = &s.latency_hist;
    reg.histogram_set(
        "noc_packet_latency_cycles",
        labels,
        &h.cumulative_counts(),
        s.latency_sum as f64,
        h.count(),
    )?;

    if let Some(txn) = &report.txn {
        declare(reg, TXN_METRICS)?; // lazily, on the first closed-loop export
        reg.counter_set("noc_txn_transactions_total", &event("issued"), txn.issued as f64)?;
        reg.counter_set("noc_txn_transactions_total", &event("completed"), txn.completed as f64)?;
        reg.counter_set("noc_txn_transactions_total", &event("failed"), txn.failed as f64)?;
        reg.counter_set("noc_txn_transactions_total", &event("shed"), txn.shed as f64)?;
        reg.counter_set("noc_txn_timeouts_total", labels, txn.timeouts as f64)?;
        reg.counter_set("noc_txn_retries_total", labels, txn.retries as f64)?;
        reg.gauge_set("noc_txn_in_flight", labels, txn.in_flight as f64)?;
        reg.gauge_set("noc_txn_conservation_violations", labels, txn.violations as f64)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::render_exposition;
    use noc_traffic::WorkloadSpec;

    #[test]
    fn declare_then_export_renders_all_families() {
        let mut cfg = crate::SimConfig::default();
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 5), 7);
        assert!(net.run_cycles(500_000), "run did not finish");

        let mut reg = MetricsRegistry::new();
        declare_network_metrics(&mut reg).unwrap();
        declare_network_metrics(&mut reg).unwrap(); // idempotent
        export_network_metrics(&mut reg, &net, &[("design", "baseline")]).unwrap();

        let text = render_exposition(&reg);
        for &(name, _, _) in NETWORK_METRICS {
            assert!(text.contains(name), "family `{name}` missing from exposition");
        }
        assert!(text.contains("noc_packets_total{design=\"baseline\",event=\"delivered\"} 320"));
        assert!(text.contains("noc_packet_latency_cycles_count{design=\"baseline\"} 320"));
        // Open-loop runs must not leak transaction families into the text.
        assert!(!text.contains("noc_txn_"), "open-loop exposition carries txn families");
    }

    #[test]
    fn closed_loop_export_renders_txn_families() {
        let mut cfg = crate::SimConfig::default();
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        cfg.width = 4;
        cfg.height = 4;
        let spec = WorkloadSpec::reqreply(0.05, 2, noc_traffic::ReqReplySpec::default());
        let mut net = Network::new(cfg, spec, 7);
        assert!(net.run_cycles(500_000), "run did not finish");

        let mut reg = MetricsRegistry::new();
        declare_network_metrics(&mut reg).unwrap();
        export_network_metrics(&mut reg, &net, &[("design", "baseline")]).unwrap();

        let text = render_exposition(&reg);
        for &(name, _, _) in TXN_METRICS {
            assert!(text.contains(name), "family `{name}` missing from exposition");
        }
        assert!(
            text.contains("noc_txn_transactions_total{design=\"baseline\",event=\"completed\"} 32")
        );
        assert!(text.contains("noc_txn_conservation_violations{design=\"baseline\"} 0"));
    }

    #[test]
    fn export_is_a_pure_read() {
        let mut cfg = crate::SimConfig::default();
        cfg.varius.base_rate = 0.0;
        cfg.varius.min_rate = 0.0;
        let mut net = Network::new(cfg, WorkloadSpec::uniform(0.02, 3), 7);
        assert!(net.run_cycles(500_000));
        let before = format!("{:?}", net.report());
        let mut reg = MetricsRegistry::new();
        declare_network_metrics(&mut reg).unwrap();
        export_network_metrics(&mut reg, &net, &[]).unwrap();
        export_network_metrics(&mut reg, &net, &[]).unwrap();
        let after = format!("{:?}", net.report());
        assert_eq!(before, after, "export must not perturb simulation state");
    }
}
