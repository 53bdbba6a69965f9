//! Layer drivers: each a loop around one public function of one crate, on
//! seeded inputs. The value is the best of five batches, normalised by the
//! calibration kernel run before and after the driver, like every other
//! host time here. A function that is not public has no driver: visibility
//! is not widened for a number.
//!
//! They belong to no workload, so they are their own step (`layers`) and
//! not part of the per-workload `--trace 1` metrics.

use crate::calib::{normalise, Calib};
use crate::json::{obj, string};
use crate::workloads::STEADY_ERROR_RATE;
use intellinoc::{
    cpd_decide, http_request, intellinoc_rl_config, run_experiment_instrumented, run_units,
    ChaosOptions, Daemon, Design, ExperimentConfig, JobSpec, RewardKind, RlControl, RunnerConfig,
    ServeConfig, SubmitRequest, TelemetryOptions, UnitVerdict,
};
use noc_ecc::{Crc, Dected, FlitCodec, Secded};
use noc_fault::{
    AgingModel, AgingState, FaultInjector, HardFaultScenario, ThermalGrid, ThermalModel,
    VariusModel,
};
use noc_rl::{Discretizer, QAgent, QLearningConfig, QTable, StateKey, FEATURE_COUNT};
use noc_sim::{
    declare_network_metrics, export_network_metrics, parse_rules, render_exposition,
    shared_recorder, AlertEngine, Event, HealthRouter, Mesh, MetricsHub, MetricsRegistry, Network,
    Port, Profiler, RouterObservation, SimConfig, TimelineSample, TraceFilter, Tracer,
};
use noc_traffic::{
    ParsecBenchmark, ReqReplySpec, ReqReplyWorkload, TrafficGen, Workload, WorkloadSpec,
};
use serde::Content;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

/// One driver's result.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Name, `<crate>.<module>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Normalised time per call in `unit`, or a ratio.
    pub value: f64,
}

struct Drivers {
    calib: Calib,
    calib_s: f64,
    seed: u64,
    out: Vec<LayerMetric>,
}

fn unit_scale(unit: &str) -> f64 {
    match unit {
        "ns" => 1e9,
        "us" => 1e6,
        "ms" => 1e3,
        other => panic!("no scale for unit {other}"),
    }
}

impl Drivers {
    /// Best-of-five raw seconds per call of `f`, `calls` calls per batch.
    fn best(calls: u64, mut f: impl FnMut()) -> f64 {
        (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..calls {
                    f();
                }
                start.elapsed().as_secs_f64() / calls as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Normalises raw seconds by the kernel run since the last driver.
    fn normalised(&mut self, raw_s: f64) -> f64 {
        let after = self.calib.run();
        let norm = normalise(raw_s, self.calib_s, after);
        self.calib_s = after;
        norm
    }

    /// Times `calls` calls of `f` per batch and records the time per call.
    fn time(&mut self, name: &'static str, unit: &'static str, calls: u64, f: impl FnMut()) {
        let raw = Self::best(calls, f);
        let value = self.normalised(raw) * unit_scale(unit);
        self.out.push(LayerMetric { name, unit, value });
    }

    /// A seeded 128-bit word per driver.
    fn word(&self, salt: u64) -> u128 {
        let mut x = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (u128::from(next()) << 64) | u128::from(next())
    }
}

fn ecc(d: &mut Drivers) {
    let data = d.word(1);
    let (crc, secded, dected) = (Crc::flit(), Secded::flit(), Dected::flit());
    d.time("ecc.crc.encode_ns", "ns", 200_000, || {
        black_box(crc.encode(black_box(data)));
    });
    let cw = crc.encode(data);
    d.time("ecc.crc.decode_ns", "ns", 200_000, || {
        black_box(crc.decode(black_box(&cw)));
    });
    d.time("ecc.secded.encode_ns", "ns", 100_000, || {
        black_box(secded.encode(black_box(data)));
    });
    let cw = secded.encode(data);
    d.time("ecc.secded.decode_clean_ns", "ns", 100_000, || {
        black_box(secded.decode(black_box(&cw)));
    });
    let mut cw1 = cw;
    cw1.flip_bit(50);
    d.time("ecc.secded.decode_1err_ns", "ns", 100_000, || {
        black_box(secded.decode(black_box(&cw1)));
    });
    d.time("ecc.dected.encode_ns", "ns", 50_000, || {
        black_box(dected.encode(black_box(data)));
    });
    let cw = dected.encode(data);
    d.time("ecc.dected.decode_clean_ns", "ns", 50_000, || {
        black_box(dected.decode(black_box(&cw)));
    });
    let mut cw2 = cw;
    cw2.flip_bit(50);
    cw2.flip_bit(120);
    d.time("ecc.dected.decode_2err_ns", "ns", 20_000, || {
        black_box(dected.decode(black_box(&cw2)));
    });
}

fn fault(d: &mut Drivers) {
    let seed = d.seed;
    let mut inj = FaultInjector::new(seed);
    d.time("fault.injector.sample_natural_ns", "ns", 500_000, || {
        black_box(inj.sample_flip_count(145, black_box(1e-9)));
    });
    d.time("fault.injector.sample_1e-4_ns", "ns", 500_000, || {
        black_box(inj.sample_flip_count(145, black_box(1e-4)));
    });
    let mut grid = ThermalGrid::new(ThermalModel::default(), 8, 8);
    let powers: Vec<f64> = (0..64).map(|i| 20.0 + (i % 7) as f64).collect();
    d.time("fault.thermal.step_us", "us", 20_000, || grid.step(black_box(&powers), 1_000));
    let (model, mut state) = (AgingModel::default(), AgingState::new());
    d.time("fault.aging.accumulate_ns", "ns", 500_000, || {
        state.accumulate(&model, black_box(71.0), black_box(0.3), 1_000);
    });
    let varius = VariusModel::default();
    d.time("fault.varius.ber_ns", "ns", 500_000, || {
        black_box(varius.bit_error_rate(black_box(71.0), black_box(1.0), black_box(0.01)));
    });
    d.time("fault.hard.scenario_gen_us", "us", 5_000, || {
        black_box(
            HardFaultScenario::dead_links(8, 8, 4, black_box(seed), 0)
                .merged(HardFaultScenario::dead_routers(8, 8, 1, seed ^ 9, 5_000)),
        );
    });
}

/// Polls every node of an 8x8 mesh once per cycle, as the simulator does.
fn poll_loop(workload: &mut dyn Workload) -> impl FnMut() + '_ {
    let (mut cycle, mut node) = (0u64, 0usize);
    move || {
        black_box(workload.poll(cycle, node, 0));
        node += 1;
        if node == 64 {
            node = 0;
            cycle += 1;
        }
    }
}

fn traffic(d: &mut Drivers) {
    let seed = d.seed;
    const PPN: u64 = u64::MAX / 1024;
    let mut idle = TrafficGen::new(WorkloadSpec::uniform(0.002, PPN), 8, 8, seed);
    d.time("traffic.gen.poll_idle_ns", "ns", 1_000_000, poll_loop(&mut idle));
    let mut busy = TrafficGen::new(WorkloadSpec::uniform(0.1, PPN), 8, 8, seed);
    d.time("traffic.gen.poll_busy_ns", "ns", 1_000_000, poll_loop(&mut busy));
    let mut parsec = TrafficGen::new(ParsecBenchmark::Canneal.workload(PPN), 8, 8, seed);
    d.time("traffic.parsec.poll_ns", "ns", 1_000_000, poll_loop(&mut parsec));
    // Requests are never answered here, so each client fills its window of
    // open transactions and from then on polls measure the bookkeeping of a
    // full window.
    let mut reqreply = ReqReplyWorkload::new(
        WorkloadSpec::reqreply(0.02, PPN, ReqReplySpec::default()),
        ReqReplySpec::default(),
        8,
        8,
        seed,
    );
    d.time("traffic.reqreply.poll_ns", "ns", 500_000, poll_loop(&mut reqreply));
}

fn observations(n: usize) -> Vec<RouterObservation> {
    (0..n)
        .map(|router| {
            let mut features = [0.3; 16];
            features[0] = (router % 5) as f64 / 5.0;
            features[15] = 71.0;
            RouterObservation {
                router,
                features,
                avg_latency: 40.0 + router as f64,
                ejected_packets: 12,
                avg_power_mw: 25.0,
                aging_factor: 1.01,
                temperature_c: 71.0,
                error_hist: [100, (router % 3) as u64, 0, 0],
                retransmissions: 1,
                gated_fraction: 0.2,
            }
        })
        .collect()
}

fn rl_and_control(d: &mut Drivers) {
    let seed = d.seed;
    let mut agent = QAgent::new(QLearningConfig::default(), seed);
    let mut i = 0u64;
    d.time("rl.agent.step_ns", "ns", 500_000, || {
        i = (i + 1) % 64;
        black_box(agent.step(StateKey(i), black_box(-5.5)));
    });
    let disc = Discretizer::paper_default();
    let mut features = vec![0.3; FEATURE_COUNT];
    features[FEATURE_COUNT - 1] = 71.0;
    d.time("rl.discretizer.key_ns", "ns", 500_000, || {
        black_box(disc.key(black_box(&features)));
    });
    let cfg = QLearningConfig::default();
    let mut table = QTable::new(cfg.actions, cfg.capacity);
    let mut s = 0u64;
    d.time("rl.qtable.nudge_ns", "ns", 500_000, || {
        s = (s + 17) % 256;
        table.nudge(StateKey(s), (s % 5) as usize, black_box(-5.0), 0.1);
    });
    let obs = observations(64);
    let mut control = RlControl::new(64, intellinoc_rl_config(), seed, RewardKind::LogSpace);
    d.time("core.controller.decide_us", "us", 2_000, || {
        black_box(control.decide(black_box(&obs)));
    });
    let mut streaks = vec![0u32; 64];
    d.time("core.controller.cpd_decide_us", "us", 50_000, || {
        black_box(cpd_decide(black_box(&obs), &mut streaks));
    });
}

fn sim(d: &mut Drivers) {
    let seed = d.seed;
    let mesh = Mesh::new(8, 8);
    let mut k = seed as usize;
    d.time("sim.topology.xy_route_ns", "ns", 1_000_000, || {
        k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        black_box(mesh.xy_route((k >> 8) % 64, (k >> 24) % 64));
    });
    let mut health = HealthRouter::new(mesh);
    health.set_link(9, Port::XPlus, false);
    health.set_link(27, Port::YPlus, false);
    health.set_router(44, false);
    health.rebuild();
    d.time("sim.health.route_ns", "ns", 1_000_000, || {
        k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        black_box(health.route((k >> 8) % 64, (k >> 24) % 64, Port::Local));
    });
    d.time("sim.health.rebuild_us", "us", 200, || health.rebuild());

    let cfg16 = SimConfig { width: 16, height: 16, ..SimConfig::default() };
    d.time("sim.network.new_ms", "ms", 20, || {
        black_box(Network::new(SimConfig::default(), WorkloadSpec::uniform(0.02, 10), seed));
    });
    d.time("sim.network.new_16_ms", "ms", 5, || {
        black_box(Network::new(cfg16.clone(), WorkloadSpec::uniform(0.02, 10), seed));
    });
    let mut warmed = Network::new(SimConfig::default(), WorkloadSpec::uniform(0.05, 60), seed);
    warmed.run_cycles(4_000);
    d.time("sim.network.report_us", "us", 2_000, || {
        black_box(warmed.report());
    });
    d.time("sim.network.observations_us", "us", 2_000, || {
        black_box(warmed.observations());
    });
    // Per router-cycle, so the two mesh sizes compare.
    let mut empty8 = Network::new(SimConfig::default(), WorkloadSpec::uniform(0.0, 0), seed);
    d.time("sim.network.step_empty_8_ns", "ns", 20_000, || empty8.step_cycle());
    let mut empty16 = Network::new(cfg16, WorkloadSpec::uniform(0.0, 0), seed);
    d.time("sim.network.step_empty_16_ns", "ns", 5_000, || empty16.step_cycle());
    for (name, nodes) in
        [("sim.network.step_empty_8_ns", 64.0), ("sim.network.step_empty_16_ns", 256.0)]
    {
        let m = d.out.iter_mut().find(|m| m.name == name).expect("recorded just above");
        m.value /= nodes;
    }
}

/// The fixed unit of the enabled-cost ratios: SECDED under uniform 0.03
/// traffic, cut off at 20 000 cycles.
fn cost_unit(seed: u64, telemetry: TelemetryOptions) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Design::Secded, WorkloadSpec::uniform(0.03, 1_000_000))
        .with_seed(seed);
    cfg.max_cycles = 20_000;
    cfg.error_rate_override = Some(STEADY_ERROR_RATE);
    cfg.telemetry = telemetry;
    cfg
}

fn telemetry(d: &mut Drivers) -> Result<(), String> {
    let seed = d.seed;
    let mut tracer = Tracer::new(1 << 16, TraceFilter::default());
    let mut cycle = 0u64;
    d.time("telemetry.tracer.record_ns", "ns", 1_000_000, || {
        cycle += 1;
        tracer.record(Event::HopTraversed {
            cycle,
            router: (cycle % 64) as u32,
            packet: cycle,
            flit: cycle,
        });
    });
    let mut prof = Profiler::new();
    d.time("telemetry.prof.span_ns", "ns", 500_000, || {
        prof.span_enter("step_cycle");
        prof.span_count(1, 0);
        prof.span_exit();
    });

    let mut net = Network::new(SimConfig::default(), WorkloadSpec::uniform(0.05, 60), seed);
    net.run_cycles(4_000);
    let mut reg = MetricsRegistry::new();
    declare_network_metrics(&mut reg)?;
    let labels = [("design", "SECDED"), ("workload", "uniform")];
    export_network_metrics(&mut reg, &net, &labels)?;
    d.time("telemetry.registry.export_us", "us", 2_000, || {
        export_network_metrics(&mut reg, black_box(&net), &labels).expect("static metric names");
    });
    d.time("telemetry.exposition.render_us", "us", 2_000, || {
        black_box(render_exposition(black_box(&reg)));
    });
    let mut engine = AlertEngine::new(parse_rules(
        "noc_avg_latency_cycles>100;noc_txn_conservation_violations>0:critical",
    )?);
    d.time("telemetry.alerts.evaluate_us", "us", 5_000, || {
        cycle += 1;
        black_box(engine.evaluate(black_box(&reg), cycle));
    });
    let recorder = shared_recorder(0);
    d.time("telemetry.blackbox.push_us", "us", 100_000, || {
        cycle += 1;
        let sample = TimelineSample {
            cycle,
            avg_latency: 40.0,
            p99_latency: 90.0,
            dynamic_power_mw: 900.0,
            static_power_mw: 600.0,
            mean_temp_c: 71.0,
            max_temp_c: 75.0,
            tile_temps_c: vec![71.0; 64],
            mean_aging_factor: 1.01,
            mode_histogram: [0; 5],
            hop_retx: 0,
            e2e_retx: 0,
            packets_injected: 64,
            packets_delivered: 64,
            packets_dropped: 0,
            reroutes: 0,
            injected_bits: 0,
            trace_drops: 0,
        };
        recorder.lock().expect("recorder is only used here").push_timeline(sample);
    });
    let journeys = {
        let mut cfg =
            ExperimentConfig::new(Design::Secded, WorkloadSpec::uniform(0.03, 40)).with_seed(seed);
        cfg.telemetry.journeys_every = 1;
        run_experiment_instrumented(cfg).2.journeys.ok_or("journey tracing produced no log")?
    };
    d.time("telemetry.journeys.to_jsonl_ms", "ms", 5, || {
        black_box(journeys.to_jsonl());
    });

    // Enabled cost of each sink: wall of the fixed unit with the sink on
    // over its wall with everything off, best of three each. The two are
    // run in turn, so a slow phase of the box falls on both.
    let wall = |telemetry: &TelemetryOptions| -> f64 {
        let cfg = cost_unit(seed, telemetry.clone());
        let start = Instant::now();
        black_box(run_experiment_instrumented(cfg));
        start.elapsed().as_secs_f64()
    };
    let off = TelemetryOptions::default;
    let sinks: [(&'static str, TelemetryOptions); 7] = [
        ("telemetry.cost.tracer", TelemetryOptions { trace: true, ..off() }),
        ("telemetry.cost.attribution", TelemetryOptions { attribution: true, ..off() }),
        ("telemetry.cost.journeys_1", TelemetryOptions { journeys_every: 1, ..off() }),
        ("telemetry.cost.journeys_64", TelemetryOptions { journeys_every: 64, ..off() }),
        (
            "telemetry.cost.blackbox",
            TelemetryOptions { blackbox: Some(shared_recorder(0)), ..off() },
        ),
        ("telemetry.cost.metrics", {
            let mut t = off();
            t.metrics.hub = Some(Arc::new(MetricsHub::new()));
            t
        }),
        ("telemetry.cost.profiler", TelemetryOptions { profile: true, ..off() }),
    ];
    for (name, telemetry) in sinks {
        let (mut base, mut with) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            base = base.min(wall(&off()));
            with = with.min(wall(&telemetry));
        }
        d.out.push(LayerMetric { name, unit: "ratio", value: with / base });
    }
    // Keep the calibration chain current for the drivers that follow.
    d.calib_s = d.calib.run();
    Ok(())
}

fn outer(d: &mut Drivers, out_dir: &Path) -> Result<(), String> {
    let seed = d.seed;
    let keys: Vec<String> = (0..200).map(|i| format!("empty/{i}")).collect();
    let raw = Drivers::best(1, || {
        run_units::<u64, _>(
            seed,
            &keys,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            |ctx| UnitVerdict::Ok(ctx.seed),
        )
        .expect("distinct keys and no journal cannot fail");
    });
    let value = d.normalised(raw) * 1e6 / keys.len() as f64;
    d.out.push(LayerMetric { name: "core.runner.empty_unit_us", unit: "us", value });

    // Submit -> accepted through an in-process daemon, the WAL fsync
    // included. Jobs are submitted paused and cancelled, so none runs.
    let state_dir = out_dir.join("serve-state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let daemon =
        Daemon::start(ServeConfig { state_dir: state_dir.clone(), ..ServeConfig::default() })?;
    let addr = daemon.local_addr().to_string();
    let mut best = f64::INFINITY;
    for i in 0..20 {
        let request = SubmitRequest {
            tenant: format!("bench-{i}"),
            priority: 0,
            paused: true,
            spec: JobSpec {
                name: format!("layers-{i}"),
                designs: vec!["secded".to_owned()],
                rates: vec![0.01],
                ppn: 1,
                seed,
                max_cycles: 10_000,
                reqreply: None,
                journeys_every: 0,
            },
        };
        let body = serde_json::to_string(&request).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let (status, reply) = http_request(&addr, "POST", "/api/jobs", Some(&body))?;
        best = best.min(start.elapsed().as_secs_f64());
        if status != 202 {
            return Err(format!("daemon answered {status} to a submit: {reply}"));
        }
        let id = serde_json::from_str::<Content>(&reply)
            .ok()
            .and_then(|c| c.get("id").and_then(Content::as_str).map(str::to_owned))
            .ok_or_else(|| format!("submit reply has no id: {reply}"))?;
        http_request(&addr, "POST", &format!("/api/jobs/{id}/cancel"), None)?;
    }
    daemon.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&state_dir);
    let value = d.normalised(best) * 1e3;
    d.out.push(LayerMetric { name: "core.serve.submit_ms", unit: "ms", value });
    Ok(())
}

/// Runs every layer driver.
///
/// # Errors
///
/// The daemon failing to start or answer, or a static declaration the
/// telemetry registry rejects.
pub fn run_layers(seed: u64, out_dir: &Path) -> Result<Vec<LayerMetric>, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut calib = Calib::new();
    let calib_s = calib.run();
    let mut d = Drivers { calib, calib_s, seed, out: Vec::new() };
    ecc(&mut d);
    fault(&mut d);
    traffic(&mut d);
    rl_and_control(&mut d);
    sim(&mut d);
    telemetry(&mut d)?;
    outer(&mut d, out_dir)?;
    Ok(d.out)
}

/// The drivers' results as a JSON object, name -> `{value, unit}`.
pub fn to_json(metrics: &[LayerMetric]) -> Content {
    obj(metrics
        .iter()
        .map(|m| (m.name, obj([("value", Content::F64(m.value)), ("unit", string(m.unit))]))))
}
