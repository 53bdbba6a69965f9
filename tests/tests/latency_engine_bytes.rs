//! Characterization of the latency sinks, recorded at commit `db3a9eb`
//! (attribution and journey tracing still two engines): the exact bytes the
//! journey log and the `inspect` artifacts render for a fault campaign that
//! exercises every span cause — hop NACKs (SECDED), end-to-end re-sends
//! (CP), reroute markers around dead links — at every combination of
//! `journeys_every ∈ {0, 1, 7}` × `attribution ∈ {off, on}`, plus one
//! closed-loop log (transaction tags and legs) and the slowest-journeys
//! section of a flight-recorder bundle. A refactor of how packet latency is
//! accounted passes only if every one of those bytes stayed where it was.
//!
//! The second test is **sink independence**: what one sink renders never
//! depends on whether the other is installed, or on the sampling rate the
//! other runs at. It holds trivially while the sinks are separate engines
//! and becomes load-bearing once they share one in-flight table.

use intellinoc::{
    render_inspect_report, run_experiment_instrumented, Design, ExperimentConfig,
    ExperimentOutcome, TelemetryArtifacts,
};
use noc_fault::HardFaultScenario;
use noc_sim::{journey_sampled, link_stats_csv, shared_recorder, JourneyLog};
use noc_telemetry::LatencyBreakdown;
use noc_traffic::{ReqReplySpec, WorkloadSpec};
use std::sync::OnceLock;

/// FNV-1a, 64 bit: the digest every pin below is stated in.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// `tests/tests/journeys.rs`'s fault campaign, with both sinks selectable.
fn faulty_config(design: Design, journeys_every: u64, attribution: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(design, WorkloadSpec::uniform(0.02, 40)).with_seed(71);
    cfg.error_rate_override = Some(2e-4);
    cfg.hard_faults = HardFaultScenario::dead_links(8, 8, 3, 71, 400);
    cfg.fault_aware_routing = true;
    cfg.max_cycles = 400_000;
    cfg.telemetry.attribution = attribution;
    cfg.telemetry.journeys_every = journeys_every;
    cfg
}

/// Digests of the two journey renderings: JSONL and tail report.
fn journey_digests(log: &JourneyLog) -> [u64; 2] {
    [fnv1a(&log.to_jsonl()), fnv1a(&log.tail_report(5))]
}

/// Digests of the `inspect` renderings: report, `links.csv`, four heatmaps.
fn inspect_digests(outcome: &ExperimentOutcome, artifacts: &TelemetryArtifacts) -> [u64; 6] {
    let att = artifacts.attribution.as_ref().expect("attribution on");
    assert_eq!(att.grids.len(), 4, "utilization, retx, gate residency, temperature");
    let mut out = [0u64; 6];
    out[0] = fnv1a(&render_inspect_report(outcome, artifacts));
    out[1] = fnv1a(&link_stats_csv(&att.links));
    for (slot, grid) in out[2..].iter_mut().zip(&att.grids) {
        *slot = fnv1a(&grid.to_csv());
    }
    out
}

/// One cell of the design × sampling × attribution grid.
struct Cell {
    design: Design,
    every: u64,
    attribution: bool,
    outcome: ExperimentOutcome,
    artifacts: TelemetryArtifacts,
}

/// The twelve runs both tests read, made once.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut cells = Vec::new();
        for design in [Design::Secded, Design::Cp] {
            for every in [0u64, 1, 7] {
                for attribution in [false, true] {
                    let (outcome, _, artifacts) =
                        run_experiment_instrumented(faulty_config(design, every, attribution));
                    assert!(outcome.finished, "{} must finish", design.label());
                    cells.push(Cell { design, every, attribution, outcome, artifacts });
                }
            }
        }
        cells
    })
}

#[test]
fn journey_and_inspect_bytes_are_pinned() {
    // (design, journeys at every 1, journeys at every 7, inspect artifacts)
    let pins = [
        (
            Design::Secded,
            [0x0d7e_81fb_07b9_18a3, 0xa826_86fb_23be_e2ab],
            [0xf9f4_2619_6ba3_451e, 0x1f28_c2e9_94f2_1608],
            [
                0x74b7_e8b1_8f20_e00d,
                0x1f84_5e24_8e1c_01a5,
                0x6831_3e94_4595_d9d5,
                0xf2e0_ef71_5953_812c,
                0x5f5f_f499_9887_6125,
                0x2206_cddd_29af_5ba8,
            ],
        ),
        (
            Design::Cp,
            [0x641d_b553_0239_8bf3, 0x86de_7e0d_79c2_8907],
            [0x0e46_9d40_bbc8_428f, 0x8149_f5d0_78fb_c369],
            [
                0x36c2_48c1_3069_10a7,
                0x03dd_fd73_d323_8e39,
                0xc12a_21be_1779_937f,
                0x839c_bd5d_1b52_c2ca,
                0xdc1a_ed00_a25c_baa6,
                0x7553_eee9_4d26_f849,
            ],
        ),
    ];
    for cell in cells() {
        let (_, every_1, every_7, inspect) =
            pins.iter().find(|p| p.0 == cell.design).expect("pinned design");
        let tag = format!("{} every={} att={}", cell.design.label(), cell.every, cell.attribution);
        match (cell.every, &cell.artifacts.journeys) {
            (0, None) => {}
            (1, Some(log)) => {
                // The campaign reaches the causes it is here for.
                let jsonl = log.to_jsonl();
                let retx = if cell.design == Design::Cp { "wasted_gen" } else { "hop_retx" };
                assert!(jsonl.contains(retx) && jsonl.contains("reroute"), "{tag}: no {retx}");
                assert_eq!(journey_digests(log), *every_1, "journeys, {tag}");
            }
            (7, Some(log)) => assert_eq!(journey_digests(log), *every_7, "journeys, {tag}"),
            _ => panic!("{tag}: journey log present iff tracing is on"),
        }
        assert_eq!(cell.artifacts.attribution.is_some(), cell.attribution, "{tag}");
        if cell.attribution {
            assert_eq!(inspect_digests(&cell.outcome, &cell.artifacts), *inspect, "inspect, {tag}");
        }
    }
}

#[test]
fn each_sink_renders_the_same_bytes_whatever_the_other_does() {
    for design in [Design::Secded, Design::Cp] {
        let of = |every: u64, attribution: bool| {
            cells()
                .iter()
                .find(|c| c.design == design && c.every == every && c.attribution == attribution)
                .expect("cell ran")
        };
        // Journey bytes: attribution on vs off.
        for every in [1u64, 7] {
            let (off, on) = (of(every, false), of(every, true));
            let (off, on) = (off.artifacts.journeys.as_ref(), on.artifacts.journeys.as_ref());
            let (off, on) = (off.expect("tracing on"), on.expect("tracing on"));
            assert_eq!(off.to_jsonl(), on.to_jsonl(), "{} every={every}", design.label());
            assert_eq!(off.tail_report(5), on.tail_report(5));
        }
        // Attribution bytes: tracing off, every packet, 1 in 7.
        let base = of(0, true);
        for every in [1u64, 7] {
            let traced = of(every, true);
            assert_eq!(
                render_inspect_report(&base.outcome, &base.artifacts),
                render_inspect_report(&traced.outcome, &traced.artifacts),
                "{} every={every}",
                design.label()
            );
            assert_eq!(
                inspect_digests(&base.outcome, &base.artifacts),
                inspect_digests(&traced.outcome, &traced.artifacts)
            );
            let (b, t) = (&base.artifacts.attribution, &traced.artifacts.attribution);
            assert_eq!(
                format!("{:?}", b.as_ref().unwrap().breakdown),
                format!("{:?}", t.as_ref().unwrap().breakdown)
            );
        }
        // Every packet traced: one journey per delivered packet, in delivery
        // order, and the breakdown is their components summed.
        let all = of(1, true);
        let delivered = all.outcome.report.stats.packets_delivered;
        let every_packet = all.artifacts.journeys.as_ref().expect("tracing on");
        assert_eq!(every_packet.packets.len() as u64, delivered);
        let mut summed = LatencyBreakdown::default();
        for j in &every_packet.packets {
            assert_eq!(j.components().total(), j.latency, "packet {}", j.packet);
            summed.record(j.src, j.dest, j.latency, &j.components());
        }
        let att = all.artifacts.attribution.as_ref().expect("attribution on");
        assert_eq!(format!("{:?}", att.breakdown), format!("{summed:?}"), "{}", design.label());
        // At 1 in 7 with attribution on, the table tracks every packet but
        // only the hashed sample leaves a journey.
        let cell = of(7, true);
        let att = cell.artifacts.attribution.as_ref().expect("attribution on");
        let log = cell.artifacts.journeys.as_ref().expect("tracing on");
        assert_eq!(att.breakdown.packets, delivered, "every delivered packet is attributed");
        let sampled: Vec<u64> = every_packet
            .packets
            .iter()
            .map(|j| j.packet)
            .filter(|&p| journey_sampled(71, p, 7))
            .collect();
        let traced: Vec<u64> = log.packets.iter().map(|p| p.packet).collect();
        assert_eq!(traced, sampled, "{}: the log holds exactly the hashed sample", design.label());
        assert!(traced.len() as u64 * 3 < delivered, "1 in 7 is a small share of {delivered}");
        assert!(!traced.is_empty());
    }
}

#[test]
fn closed_loop_journey_bytes_are_pinned() {
    let workload = WorkloadSpec::reqreply(0.02, 30, ReqReplySpec::default());
    let mut cfg = ExperimentConfig::new(Design::Secded, workload).with_seed(5);
    cfg.max_cycles = 400_000;
    cfg.telemetry.journeys_every = 1;
    let (_, _, artifacts) = run_experiment_instrumented(cfg);
    let log = artifacts.journeys.expect("tracing on");
    assert!(log.packets.iter().any(|p| p.txn.is_some()), "packets carry txn tags");
    assert!(!log.txns.is_empty(), "transaction legs recorded");
    assert_eq!(journey_digests(&log), [0x6e16_df90_8843_810e, 0x9576_5ad1_c64b_4bab]);
}

#[test]
fn flight_recorder_journeys_section_is_pinned() {
    let recorder = shared_recorder(8);
    let mut cfg = faulty_config(Design::Cp, 1, false);
    cfg.telemetry.blackbox = Some(recorder.clone());
    let (_, _, artifacts) = run_experiment_instrumented(cfg);
    let rec = recorder.lock().expect("recorder lock");
    let section: String =
        rec.journeys().iter().map(|(latency, line)| format!("{latency} {line}\n")).collect();
    assert_eq!(rec.journeys().len(), 8, "the ring keeps the eight slowest journeys");
    assert_eq!(fnv1a(&section), 0x9801_4ec8_54ce_54d9);
    // The ring holds the log's own records.
    let log = artifacts.journeys.expect("tracing on");
    for (_, line) in rec.journeys() {
        assert!(log.packets.iter().any(|p| p.to_jsonl_line() == *line));
    }
}
