//! Smoke tests for the figure harness: a miniature campaign produces
//! well-formed, normalizable results for every figure's metric.

use intellinoc::figures::{run_cells, Campaign, CampaignResults};
use intellinoc::{geomean, Design, ExperimentOutcome};
use noc_traffic::ParsecBenchmark;

/// Two benchmarks at 8 packets per node, IntelliNoC not pre-trained.
fn mini_campaign() -> CampaignResults {
    let benches = [ParsecBenchmark::Swaptions, ParsecBenchmark::Dedup];
    let campaign = Campaign { packets_per_node: 8, ..Campaign::default() };
    let cells: Vec<_> = campaign
        .cells(&Design::ALL, &benches)
        .into_iter()
        .map(|(key, cfg, _)| (key, cfg, None))
        .collect();
    let report = run_cells(&cells, &[], 1).expect("engine");
    CampaignResults::new(&benches, &report.records.iter().collect::<Vec<_>>()).expect("clean grid")
}

#[test]
fn mini_campaign_covers_all_designs_and_metrics() {
    let results = mini_campaign();
    assert_eq!(results.rows.len(), 2);
    for row in &results.rows {
        assert_eq!(row.designs.len(), 5);
        for (design, m) in &row.designs {
            assert!(m.speedup.is_finite() && m.speedup > 0.0, "{design}");
            assert!(m.latency.is_finite() && m.latency > 0.0, "{design}");
            assert!(m.static_power.is_finite(), "{design}");
            assert!(m.energy_efficiency.is_finite(), "{design}");
            assert!(m.mttf.is_finite(), "{design}");
        }
    }
    // Geometric means over the rows stay finite for every design.
    for d in Design::ALL {
        assert!(geomean(&results.rows, d, |m| m.latency).is_finite(), "{d}");
    }
}

/// The campaign's outcomes are `run_units` payloads, so they must survive
/// the JSON round trip a runner journal puts them through.
#[test]
fn campaign_results_roundtrip_through_json() {
    let results = mini_campaign();
    let json = serde_json::to_string(&results.raw).expect("serialize");
    let back: Vec<(ParsecBenchmark, Vec<ExperimentOutcome>)> =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.len(), results.raw.len());
    assert_eq!(
        back[0].1[0].report.stats.packets_delivered,
        results.raw[0].1[0].report.stats.packets_delivered
    );
    assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
}

#[test]
fn baseline_columns_normalize_to_unity() {
    let results = mini_campaign();
    for row in &results.rows {
        let (d, m) = &row.designs[0];
        assert_eq!(*d, Design::Secded);
        assert!((m.speedup - 1.0).abs() < 1e-9);
        assert!((m.latency - 1.0).abs() < 1e-9);
        assert!((m.energy_efficiency - 1.0).abs() < 1e-6);
    }
}

#[test]
fn area_table_is_complete() {
    let model = noc_power::AreaModel::default();
    for d in Design::ALL {
        let b = model.router_area(&d.area_spec());
        assert!(b.total() > 10_000.0, "{d} area implausibly small");
        assert!(b.crossbar > 0.0 && b.control > 0.0, "{d}");
    }
}
