//! Subcommand implementations for the `intellinoc` CLI.

use crate::args::Args;
use intellinoc::{
    compare_bench, dump_bundle, load_sweep_cells, record_bench, render_inspect_report,
    run_experiment, run_experiment_instrumented, run_grid, BenchBaseline, BenchSpec, BenchWorkload,
    CampaignConfig, CampaignRunReport, ChaosKill, ChaosOptions, Daemon, Design, ExperimentConfig,
    ExperimentOutcome, FleetProgress, GateOptions, MetricsOptions, RunnerConfig, RunnerReport,
    ServeConfig, TelemetryArtifacts, TelemetryOptions, UnitSinks,
};
use noc_sim::{
    parse_bundle, parse_rules, render_report, runner_events_jsonl, shared_recorder, AlertEdge,
    BundleCause, EventKind, JourneyLog, Profiler, RunnerEvent, SpanTree, TraceFilter,
    DEFAULT_BLACKBOX_CAPACITY,
};
use noc_traffic::{
    capture_trace, read_trace, write_trace, ParsecBenchmark, ReqReplySpec, WorkloadSpec,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Terminal disposition of a subcommand, mapped to a process exit code by
/// `main`: `Done` → 0, `Partial` → 2 (and `Err` → 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdOutcome {
    /// Every unit of work completed cleanly.
    Done,
    /// The command produced a usable but partial report: some experiment
    /// units failed, timed out, or were skipped.
    Partial,
}

/// Result type of every subcommand.
pub type CmdResult = Result<CmdOutcome, String>;

/// Spans `profile` lists by self wall-clock.
const PROFILE_TOP: usize = 10;

/// Slowest packets a journey tail report walks, both in `run`'s and in the
/// `journeys` analyzer's (so the two reports of one log are equal).
const JOURNEYS_TOP: usize = 5;

/// Parses a design name as accepted on the command line.
///
/// # Errors
///
/// Returns a message naming the unknown design.
pub fn parse_design(s: &str) -> Result<Design, String> {
    Design::parse(s)
}

/// Parses a benchmark by full name or figure label.
///
/// # Errors
///
/// Returns a message naming the unknown benchmark.
pub fn parse_benchmark(s: &str) -> Result<ParsecBenchmark, String> {
    ParsecBenchmark::TEST_SET
        .into_iter()
        .chain([ParsecBenchmark::Blackscholes])
        .find(|b| b.name() == s || b.label() == s)
        .ok_or_else(|| format!("unknown benchmark: {s} (try `intellinoc list`)"))
}

/// Parses the closed-loop request–reply protocol knobs. Returns `Some`
/// when `--workload reqreply` is selected; each knob defaults to the
/// [`ReqReplySpec`] default when its flag is absent.
fn reqreply_from(args: &Args) -> Result<Option<ReqReplySpec>, String> {
    match args.get("workload") {
        None | Some("uniform") => Ok(None),
        Some("reqreply") => {
            let d = ReqReplySpec::default();
            Ok(Some(ReqReplySpec {
                service_latency: args.get_or("service-latency", d.service_latency)?,
                reply_packets: args.get_or("reply-packets", d.reply_packets)?,
                reply_timeout: args.get_or("reply-timeout", d.reply_timeout)?,
                max_retries: args.get_or("max-req-retries", d.max_retries)?,
                backoff_base: args.get_or("req-backoff-base", d.backoff_base)?,
                backoff_cap: args.get_or("req-backoff-cap", d.backoff_cap)?,
                shed_threshold: args.get_or("shed-threshold", d.shed_threshold)?,
                chaos_orphan: match args.get("chaos-orphan") {
                    Some(v) => Some(v.parse().map_err(|_| format!("invalid --chaos-orphan: {v}"))?),
                    None => None,
                },
            }))
        }
        Some(other) => Err(format!("unknown --workload: {other} (try uniform|reqreply)")),
    }
}

fn workload_from(args: &Args, ppn: u64) -> Result<WorkloadSpec, String> {
    let reqreply = reqreply_from(args)?;
    if let Some(b) = args.get("benchmark") {
        if reqreply.is_some() {
            return Err("--workload reqreply drives --rate traffic, not --benchmark".into());
        }
        Ok(parse_benchmark(b)?.workload(ppn))
    } else if let Some(r) = args.get("rate") {
        let rate: f64 = r.parse().map_err(|_| format!("invalid --rate: {r}"))?;
        Ok(match reqreply {
            Some(rr) => WorkloadSpec::reqreply(rate, ppn, rr),
            None => WorkloadSpec::uniform(rate, ppn),
        })
    } else {
        Err("need --benchmark <name> or --rate <packets/node/cycle>".into())
    }
}

/// Builds the execution-engine configuration and chaos switches shared by
/// the grid commands from the command line.
///
/// # Errors
///
/// Returns a message naming the malformed option, or `--resume` without a
/// `--journal` path.
pub fn runner_config_from(args: &Args) -> Result<(RunnerConfig, ChaosOptions), String> {
    let cfg = RunnerConfig {
        jobs: args.get_or("jobs", 1usize)?,
        journal: args.get("journal").map(PathBuf::from),
        resume: args.has_flag("resume"),
        max_units: match args.get("max-units") {
            Some(v) => Some(v.parse().map_err(|_| format!("invalid --max-units: {v}"))?),
            None => None,
        },
        observer: None,
        blackbox: args.get("blackbox-dir").map(PathBuf::from),
    };
    if cfg.resume && cfg.journal.is_none() {
        return Err("--resume requires --journal <path>".into());
    }
    let chaos = ChaosOptions {
        panic_units: args.get("force-panic").map(str::to_owned),
        timeout_units: args.get("force-timeout").map(str::to_owned),
    };
    Ok((cfg, chaos))
}

/// Parses `--error-rate`: a per-bit probability, so finite and in [0, 1].
/// `NaN` in particular would reach the fault injector as a rate no
/// comparison is ever true for.
fn error_rate_from(args: &Args) -> Result<Option<f64>, String> {
    let Some(r) = args.get("error-rate") else { return Ok(None) };
    match r.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(Some(rate)),
        _ => Err(format!("invalid --error-rate: {r} (need a probability in [0, 1])")),
    }
}

/// Journey-tracing sampling period from the command line: `--journeys-every
/// N` explicitly, else 1 (trace every packet) when any journey artifact
/// sink is requested, else 0 (off).
fn journeys_every_from(args: &Args) -> Result<u64, String> {
    let every = args.get_or("journeys-every", 0u64)?;
    if every > 0 {
        return Ok(every);
    }
    let implied = ["journeys-out", "perfetto-out", "journey-report-out", "journey-csv-out"]
        .iter()
        .any(|k| args.get(k).is_some());
    Ok(u64::from(implied))
}

/// The journey sink for grid commands: `--journeys-dir DIR` turns per-unit
/// journey tracing on (sampling 1-in-`--journeys-every` packets, default
/// every packet) and collects one `journeys-<key>.jsonl` per unit in DIR.
fn journeys_dir_from(args: &Args) -> Result<Option<(PathBuf, u64)>, String> {
    let Some(dir) = args.get("journeys-dir") else { return Ok(None) };
    let every = args.get_or("journeys-every", 1u64)?;
    if every == 0 {
        return Err("--journeys-every 0 disables tracing; drop --journeys-dir instead".into());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    Ok(Some((PathBuf::from(dir), every)))
}

/// Whether the command line asks for span profiling.
fn profile_wanted(args: &Args) -> bool {
    args.has_flag("profile")
        || ["profile-out", "prof-out", "flame-out"].iter().any(|k| args.get(k).is_some())
}

/// Writes the span-tree artifacts: the deterministic cycle-domain table
/// (`--prof-out`) and the collapsed-stack flamegraph (`--flame-out`,
/// inferno/speedscope-loadable).
fn emit_span_tree(args: &Args, label: &str, tree: &SpanTree) -> Result<(), String> {
    if let Some(path) = args.get("prof-out") {
        std::fs::write(path, tree.tree_table()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{label}: cycle-domain span table ({} spans) written to {path}", tree.len());
    }
    if let Some(path) = args.get("flame-out") {
        std::fs::write(path, tree.flamegraph()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{label}: collapsed-stack flamegraph ({} stacks) written to {path}", tree.len());
    }
    Ok(())
}

/// What a grid command (`sweep`, `campaign`, `bench record`, `profile`)
/// still owes after [`run_grid_command`] and its own rendering:
/// [`GridEpilogue::finish`].
struct GridEpilogue {
    label: &'static str,
    /// The fleet profiler every unit merged into, when profiling was on.
    prof: Option<Profiler>,
}

/// Runs `cells` as the grid command `label` — the prologue the grid
/// commands share: runner options and chaos switches, the `--progress`
/// line, the fleet profiler (`profiled`), the per-unit journey directory
/// (`--journeys-dir`), then [`run_grid`].
fn run_grid_command(
    args: &Args,
    label: &'static str,
    cells: &[(String, ExperimentConfig)],
    profiled: bool,
) -> Result<(RunnerReport<ExperimentOutcome>, GridEpilogue), String> {
    let (mut rcfg, chaos) = runner_config_from(args)?;
    if args.has_flag("progress") {
        let progress =
            move |p: &FleetProgress| {
                eprintln!(
                "{label}: {}/{} done ({}) key={} wall={:.0}ms p50={:.0}ms p95={:.0}ms eta={:.1}s",
                p.done, p.total, p.status.label(), p.key, p.wall_ms, p.p50_ms, p.p95_ms, p.eta_s
            );
            };
        rcfg.observer = Some(Arc::new(progress));
    }
    let sink = profiled.then(|| Mutex::new(Profiler::new()));
    let journeys = journeys_dir_from(args)?;
    let sinks = UnitSinks {
        prof: sink.as_ref(),
        journeys: journeys.as_ref().map(|(dir, every)| (dir.as_path(), *every)),
    };
    let report = run_grid(cells, &rcfg, &chaos, sinks)?;
    if let Some((dir, _)) = &journeys {
        eprintln!("{label}: journey logs collected in {}", dir.display());
    }
    let prof = sink.map(|sink| sink.into_inner().expect("profiler sink lock"));
    Ok((report, GridEpilogue { label, prof }))
}

impl GridEpilogue {
    /// The epilogue the grid commands share, once the command has rendered
    /// `report`: the span-tree artifacts (`--prof-out`, `--flame-out`), the
    /// lifecycle-event JSONL (`--runner-log`, with a trailing profile health
    /// note when profiling ran), the wall-clock profile table (`--profile`
    /// to stdout, `--profile-out` to a file), the status summary line, and
    /// the exit code: partial unless every unit finished `ok`.
    fn finish(self, args: &Args, report: &RunnerReport<ExperimentOutcome>) -> CmdResult {
        let GridEpilogue { label, prof } = self;
        if let Some(p) = &prof {
            emit_span_tree(args, label, p.span_tree())?;
        }
        if let Some(path) = args.get("runner-log") {
            let mut events = report.events.clone();
            if let Some(p) = &prof {
                events.push(RunnerEvent::ProfileNote {
                    key: label.to_owned(),
                    span_truncations: p.span_tree().truncated_enters(),
                    unbalanced_exits: p.span_tree().unbalanced_exits(),
                    recorder_drops: report.recorder_drops,
                });
            }
            std::fs::write(path, runner_events_jsonl(&events))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{label}: {} runner events written to {path}", events.len());
        }
        if args.has_flag("profile") || args.get("profile-out").is_some() {
            let table = prof.unwrap_or_default().table() + &report.wall_clock_table();
            match args.get("profile-out") {
                Some(path) => {
                    std::fs::write(path, table).map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("{label}: profile table written to {path}");
                }
                None => print!("{table}"),
            }
        }
        eprintln!("{label}: {}", report.summary());
        Ok(if report.is_clean() { CmdOutcome::Done } else { CmdOutcome::Partial })
    }
}

fn print_outcome(o: &ExperimentOutcome, json: bool) -> Result<(), String> {
    if json {
        let s = serde_json::to_string_pretty(o).map_err(|e| e.to_string())?;
        println!("{s}");
        return Ok(());
    }
    let r = &o.report;
    println!("design            : {}", o.design.label());
    println!("workload          : {}", o.workload);
    println!("execution time    : {} cycles", r.exec_cycles);
    println!(
        "packets           : {} delivered / {} injected",
        r.stats.packets_delivered, r.stats.packets_injected
    );
    println!(
        "latency           : avg {:.1}  p50 {:.0}  p99 {:.0}  max {} cycles",
        r.avg_latency(),
        r.stats.latency_percentile(0.50),
        r.stats.latency_percentile(0.99),
        r.stats.latency_max
    );
    println!(
        "power             : {:.1} mW static + {:.1} mW dynamic",
        r.power.static_mw, r.power.dynamic_mw
    );
    println!("energy-efficiency : {:.4} 1/uJ (Eq. 8)", r.energy_efficiency() * 1e6);
    println!(
        "reliability       : {} retx flits, {} corrected bits, {} corrupted pkts",
        r.stats.retransmitted_flits, r.stats.corrected_bits, r.stats.corrupted_packets
    );
    if let Some(t) = &r.txn {
        println!(
            "transactions      : {} issued = {} completed + {} failed + {} shed + {} in-flight",
            t.issued, t.completed, t.failed, t.shed, t.in_flight
        );
        println!(
            "txn protocol      : {} timeouts, {} retries, {} conservation violations",
            t.timeouts, t.retries, t.violations
        );
        if !t.orphans.is_empty() {
            println!("ORPHANED TXNS     : {:?}", t.orphans);
        }
    }
    println!("thermals          : mean {:.1} C, max {:.1} C", r.mean_temp_c, r.max_temp_c);
    match r.mttf_hours {
        Some(h) => println!("MTTF              : {h:.3e} hours"),
        None => println!("MTTF              : n/a (no aging accumulated)"),
    }
    if o.design.uses_rl() {
        let fr = o.mode_fractions();
        println!(
            "operation modes   : relax {:.2} crc {:.2} secded {:.2} dected {:.2} relaxed-tx {:.2}",
            fr[0], fr[1], fr[2], fr[3], fr[4]
        );
        println!("Q-table entries   : {:.1} per router (cap 350)", o.mean_qtable_entries);
    }
    Ok(())
}

/// Builds the run's telemetry switches from the command line.
///
/// Tracing turns on with `--trace`, `--trace-out`, or `--trace-filter`;
/// profiling with `--profile`.
pub fn telemetry_from(args: &Args) -> Result<TelemetryOptions, String> {
    let trace_filter = match args.get("trace-filter") {
        Some(spec) => TraceFilter::parse(spec)?,
        None => TraceFilter::default(),
    };
    Ok(TelemetryOptions {
        trace: args.has_flag("trace")
            || args.get("trace-out").is_some()
            || args.get("trace-filter").is_some(),
        trace_filter,
        profile: profile_wanted(args),
        journeys_every: journeys_every_from(args)?,
        metrics: MetricsOptions { hub: None, file: args.get("metrics-out").map(str::to_owned) },
        alert_rules: match args.get("alert-rules") {
            Some(spec) => parse_rules(spec)?,
            None => Vec::new(),
        },
        // Attribution and the decision log have no sink here: `inspect`,
        // the one command that renders them, switches them on itself.
        ..TelemetryOptions::default()
    })
}

/// Writes the collected telemetry artifacts to the configured sinks.
fn emit_telemetry(args: &Args, artifacts: &TelemetryArtifacts) -> Result<(), String> {
    // Structured alert transitions, one JSONL object per firing/resolved
    // edge (stderr, like the runner's lifecycle events).
    for event in &artifacts.alerts {
        eprintln!("{}", event.to_json());
    }
    if let Some(tracer) = &artifacts.tracer {
        let body = match args.get("trace-out") {
            Some(path) if path.ends_with(".csv") => Some((path, tracer.to_csv())),
            Some(path) => Some((path, tracer.to_jsonl())),
            None => None,
        };
        if let Some((path, body)) = body {
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "trace: {} events written to {path} ({} recorded, {} evicted)",
                tracer.len(),
                tracer.recorded(),
                tracer.evicted()
            );
        } else {
            eprintln!(
                "trace: {} events retained ({} recorded, {} evicted); by kind:",
                tracer.len(),
                tracer.recorded(),
                tracer.evicted()
            );
            for kind in EventKind::ALL {
                let n = tracer.count_of(kind);
                if n > 0 {
                    eprintln!("  {:<16} {n}", kind.name());
                }
            }
        }
    }
    if let Some(profiler) = &artifacts.profiler {
        match args.get("profile-out") {
            Some(path) => {
                std::fs::write(path, profiler.table())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("profile: table written to {path}");
            }
            None => print!("{}", profiler.table()),
        }
        emit_span_tree(args, "profile", profiler.span_tree())?;
    }
    if let Some(log) = &artifacts.journeys {
        eprintln!(
            "journeys: {} packet journeys, {} transactions traced (1 in {})",
            log.packets.len(),
            log.txns.len(),
            log.every
        );
        if let Some(path) = args.get("journeys-out") {
            std::fs::write(path, log.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("journeys: journey log written to {path}");
        }
        if let Some(path) = args.get("perfetto-out") {
            std::fs::write(path, log.perfetto_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("journeys: Perfetto trace written to {path}");
        }
        if let Some(path) = args.get("journey-csv-out") {
            std::fs::write(path, log.tail_contribution_csv())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("journeys: tail-contribution CSV written to {path}");
        }
        match args.get("journey-report-out") {
            Some(path) => {
                std::fs::write(path, log.tail_report(JOURNEYS_TOP))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("journeys: tail report written to {path}");
            }
            None => print!("{}", log.tail_report(JOURNEYS_TOP)),
        }
    }
    Ok(())
}

/// `intellinoc run`.
pub fn run(args: &Args) -> CmdResult {
    let design = parse_design(args.get("design").ok_or("need --design")?)?;
    let ppn = args.get_or("ppn", 150u64)?;
    let workload = workload_from(args, ppn)?;
    let mut cfg = ExperimentConfig::new(design, workload)
        .with_seed(args.get_or("seed", 1u64)?)
        .with_time_step(args.get_or("time-step", 1_000u64)?);
    cfg.error_rate_override = error_rate_from(args)?;
    cfg.telemetry = telemetry_from(args)?;
    // The flight recorder: a fixed ring of recent telemetry that becomes a
    // post-mortem bundle if the books do not balance, a critical alert fires
    // or the run stalls.
    let bb_dir = args.get("blackbox-dir").map(PathBuf::from);
    let recorder = bb_dir.as_ref().map(|_| shared_recorder(DEFAULT_BLACKBOX_CAPACITY));
    cfg.telemetry.blackbox = recorder.clone();
    let seed = cfg.seed;
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
    print_outcome(&outcome, args.has_flag("json"))?;
    emit_telemetry(args, &artifacts)?;
    // The transaction-conservation auditor reads the closed loop's books
    // off the report: on some node issued != completed + failed + shed +
    // in flight.
    let unbalanced = outcome.report.txn.as_ref().filter(|t| t.violations > 0);
    if let Some(t) = unbalanced {
        eprintln!(
            "transaction-conservation auditor: {} violations, orphaned txns {:?}",
            t.violations, t.orphans
        );
    }
    let (Some(dir), Some(rec)) = (bb_dir.as_deref(), recorder.as_ref()) else {
        return Ok(CmdOutcome::Done);
    };
    // One bundle per run, for the first of: unbalanced books, a critical
    // alert, a stall. The first two carry the books, naming the orphaned
    // transaction ids so the post-mortem is actionable.
    let mut books: Vec<(&str, String)> = Vec::new();
    if let Some(t) = &outcome.report.txn {
        books.push(("txn-summary", serde_json::to_string(t).unwrap_or_default()));
        if !t.orphans.is_empty() {
            books.push(("orphaned-txns", serde_json::to_string(&t.orphans).unwrap_or_default()));
        }
    }
    let critical = artifacts.alerts.iter().find(|e| e.critical && e.edge == AlertEdge::Firing);
    let (cause, detail, extras) = if let Some(t) = unbalanced {
        let detail = format!(
            "transaction books out of balance at cycle {}: {} violations",
            outcome.report.exec_cycles, t.violations
        );
        (BundleCause::Conservation, detail, books)
    } else if let Some(ev) = critical {
        let detail = format!(
            "critical alert `{}` fired at cycle {} (value {}, threshold {})",
            ev.rule, ev.cycle, ev.value, ev.threshold
        );
        (BundleCause::Alert, detail, books)
    } else if let Some(stall) = &outcome.report.stall {
        let detail =
            format!("stall watchdog aborted the run at cycle {}", outcome.report.exec_cycles);
        (
            BundleCause::Stall,
            detail,
            vec![("stall-report", serde_json::to_string(stall).unwrap_or_default())],
        )
    } else {
        return Ok(CmdOutcome::Done);
    };
    let key = format!("run/{}", design.label());
    let path = dump_bundle(dir, rec, cause, &key, seed, &detail, &extras)?;
    eprintln!("blackbox: {} bundle written to {}", cause.label(), path.display());
    Ok(CmdOutcome::Done)
}

/// `intellinoc inspect` — run one design with full attribution and RL
/// introspection enabled, then render the trace-analysis report and any
/// requested artifact files.
pub fn inspect(args: &Args) -> CmdResult {
    let design = match args.get("design") {
        Some(d) => parse_design(d)?,
        None => Design::IntelliNoc,
    };
    let ppn = args.get_or("ppn", 50u64)?;
    let workload = workload_from(args, ppn)?;
    let mut cfg = ExperimentConfig::new(design, workload)
        .with_seed(args.get_or("seed", 1u64)?)
        .with_time_step(args.get_or("time-step", 1_000u64)?);
    cfg.error_rate_override = error_rate_from(args)?;
    cfg.telemetry = telemetry_from(args)?;
    cfg.telemetry.attribution = true;
    cfg.telemetry.decisions = design.uses_rl();
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);

    let report = render_inspect_report(&outcome, &artifacts);
    match args.get("report-out") {
        Some(path) => {
            std::fs::write(path, &report).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("inspect: report written to {path}");
        }
        None => print!("{report}"),
    }
    if let (Some(dir), Some(att)) = (args.get("heatmap-dir"), &artifacts.attribution) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for grid in &att.grids {
            let path = format!("{dir}/{}.csv", grid.name);
            std::fs::write(&path, grid.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        let links = format!("{dir}/links.csv");
        std::fs::write(&links, noc_sim::link_stats_csv(&att.links))
            .map_err(|e| format!("writing {links}: {e}"))?;
        eprintln!("inspect: {} heatmaps + links.csv written to {dir}", att.grids.len());
    }
    if let Some(log) = &artifacts.decisions {
        if let Some(path) = args.get("decisions-out") {
            std::fs::write(path, log.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("inspect: {} decision records written to {path}", log.len());
        }
        if let Some(path) = args.get("convergence-out") {
            std::fs::write(path, log.convergence_csv())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("inspect: {} convergence samples written to {path}", log.convergence.len());
        }
    }
    emit_telemetry(args, &artifacts)?;
    Ok(CmdOutcome::Done)
}

/// `intellinoc sweep` — one experiment unit per injection rate, executed by
/// the `noc-runner` engine (`--jobs`, `--journal`/`--resume`, deadlines).
pub fn sweep(args: &Args) -> CmdResult {
    let design = parse_design(args.get("design").ok_or("need --design")?)?;
    let rates: Vec<f64> = args
        .get("rates")
        .ok_or("need --rates r1,r2,...")?
        .split(',')
        .map(|r| r.trim().parse().map_err(|_| format!("invalid rate: {r}")))
        .collect::<Result<_, _>>()?;
    let cells = load_sweep_cells(
        design,
        &rates,
        args.get_or("ppn", 100u64)?,
        args.get_or("seed", 1u64)?,
        reqreply_from(args)?.as_ref(),
    );
    let (report, epilogue) = run_grid_command(args, "sweep", &cells, profile_wanted(args))?;
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "rate", "exec_cyc", "avg_lat", "p99_lat", "deliv%", "power_mW", "status"
    );
    for (rate, rec) in rates.iter().zip(&report.records) {
        match rec.payload.as_ref().map(|o| &o.report) {
            Some(r) => println!(
                "{:>8.4} {:>10} {:>8.1} {:>8.0} {:>8.1} {:>10.1} {:>10}",
                rate,
                r.exec_cycles,
                r.avg_latency(),
                r.stats.latency_percentile(0.99),
                100.0 * r.stats.delivery_ratio(),
                r.power.total_mw(),
                rec.status.label()
            ),
            None => println!(
                "{:>8} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
                rate,
                "-",
                "-",
                "-",
                "-",
                "-",
                rec.status.label()
            ),
        }
    }
    epilogue.finish(args, &report)
}

/// `intellinoc trace capture|replay`.
pub fn trace(args: &Args) -> CmdResult {
    match args.positional.first().map(String::as_str) {
        Some("capture") => {
            let path = args.positional.get(1).ok_or("need an output path")?;
            let ppn = args.get_or("ppn", 50u64)?;
            let workload = workload_from(args, ppn)?;
            let records = capture_trace(workload, 8, 8, args.get_or("seed", 1u64)?, 10_000_000);
            let f = File::create(path).map_err(|e| e.to_string())?;
            write_trace(BufWriter::new(f), &records).map_err(|e| e.to_string())?;
            println!("captured {} records to {path}", records.len());
            Ok(CmdOutcome::Done)
        }
        Some("replay") => {
            let path = args.positional.get(1).ok_or("need an input path")?;
            let design = parse_design(args.get("design").ok_or("need --design")?)?;
            let f = File::open(path).map_err(|e| e.to_string())?;
            let records = read_trace(BufReader::new(f)).map_err(|e| e.to_string())?;
            let nodes = design.sim_config().nodes();
            let spec =
                WorkloadSpec::replay(path, records, nodes).map_err(|e| format!("{path}: {e}"))?;
            let seed = args.get_or("seed", 1u64)?;
            let outcome = run_experiment(ExperimentConfig::new(design, spec).with_seed(seed));
            let r = &outcome.report;
            println!(
                "replayed {} packets on {}: exec={} cycles, avg latency {:.1}, {}",
                r.stats.packets_delivered,
                design.label(),
                r.exec_cycles,
                r.avg_latency(),
                if outcome.finished { "complete" } else { "INCOMPLETE" }
            );
            Ok(CmdOutcome::Done)
        }
        _ => Err("usage: intellinoc trace <capture|replay> <path> [options]".into()),
    }
}

/// `intellinoc campaign` — the deterministic fault-resilience campaign.
pub fn campaign(args: &Args) -> CmdResult {
    let mut cfg = CampaignConfig {
        rate: args.get_or("rate", 0.02f64)?,
        ppn: args.get_or("ppn", 30u64)?,
        seed: args.get_or("seed", 1u64)?,
        fault_aware_routing: !args.has_flag("no-reroute"),
        max_cycles: args.get_or("max-cycles", 400_000u64)?,
        ..CampaignConfig::default()
    };
    if let Some(spec) = args.get("dead-links") {
        cfg.dead_links = spec
            .split(',')
            .map(|n| n.trim().parse().map_err(|_| format!("invalid --dead-links entry: {n}")))
            .collect::<Result<_, _>>()?;
    }
    cfg.router_fail_at = match args.get("router-fail") {
        Some(at) => Some(at.parse().map_err(|_| format!("invalid --router-fail: {at}"))?),
        None if args.has_flag("no-router-fail") => None,
        None => cfg.router_fail_at,
    };
    cfg.flapping = args.get_or("flapping", cfg.flapping)?;
    cfg.reqreply = reqreply_from(args)?;
    let (runner, epilogue) =
        run_grid_command(args, "campaign", &cfg.cells(), profile_wanted(args))?;
    let report = CampaignRunReport { config: cfg, runner };
    if args.has_flag("json") {
        let s = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{s}");
    } else {
        println!(
            "{:<11} {:<20} {:>8} {:>8} {:>7} {:>9} {:>8} {:>8} {:>8} {:>7} {:>10}",
            "design",
            "scenario",
            "injected",
            "deliver",
            "drop",
            "deliv%",
            "avg_lat",
            "p99_lat",
            "reroute",
            "stalled",
            "status"
        );
        for (design, scenario, rec) in report.rows() {
            match &rec.payload {
                Some(o) => {
                    let s = &o.report.stats;
                    println!(
                        "{:<11} {:<20} {:>8} {:>8} {:>7} {:>9.3} {:>8.1} {:>8.0} {:>8} {:>7} {:>10}",
                        design,
                        scenario,
                        s.packets_injected,
                        s.packets_delivered,
                        s.packets_dropped,
                        100.0 * s.delivery_ratio(),
                        s.avg_latency(),
                        s.latency_percentile(0.99),
                        s.reroutes,
                        if o.report.stall.is_some() { "YES" } else { "-" },
                        rec.status.label()
                    );
                }
                None => println!(
                    "{:<11} {:<20} {:>8} {:>8} {:>7} {:>9} {:>8} {:>8} {:>8} {:>7} {:>10}",
                    design,
                    scenario,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    rec.status.label()
                ),
            }
        }
    }
    if let Some(path) = args.get("csv-out") {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("campaign: {} rows written to {path}", report.runner.records.len());
    }
    // The transaction-conservation auditor is a hard gate: any closed-loop
    // cell whose books do not balance fails the whole campaign (exit 1),
    // after the CSV has been written for post-mortem inspection.
    let violations = report.conservation_violations();
    if !violations.is_empty() {
        return Err(format!(
            "transaction-conservation auditor: issued != completed + failed + shed + in_flight \
             in {}",
            violations.join(", ")
        ));
    }
    if report.config.reqreply.is_some() {
        eprintln!("campaign: transaction-conservation auditor clean");
    }
    if let Some(threshold) = args.get("assert-delivery") {
        let threshold: f64 =
            threshold.parse().map_err(|_| format!("invalid --assert-delivery: {threshold}"))?;
        let min = report.min_delivery_rate();
        if min < threshold {
            return Err(format!("delivery rate {min:.4} fell below the required {threshold:.4}"));
        }
        eprintln!("campaign: min delivery rate {min:.4} >= {threshold:.4}");
    }
    epilogue.finish(args, &report.runner)
}

/// Builds the bench grid spec from the command line: a named preset
/// (`--grid designs|ci`) optionally overridden field by field.
fn bench_spec_from(args: &Args) -> Result<BenchSpec, String> {
    let mut spec = match args.get("grid").unwrap_or("designs") {
        "designs" => BenchSpec::designs_grid(),
        "ci" => BenchSpec::ci_grid(),
        other => return Err(format!("unknown --grid preset: {other} (try designs|ci)")),
    };
    if let Some(designs) = args.get("designs") {
        spec.designs =
            designs.split(',').map(|d| parse_design(d.trim())).collect::<Result<_, _>>()?;
    }
    if let Some(rates) = args.get("rates") {
        spec.rates = rates
            .split(',')
            .map(|r| {
                r.trim().parse().map(BenchWorkload::Rate).map_err(|_| format!("invalid rate: {r}"))
            })
            .collect::<Result<_, _>>()?;
    }
    spec.seeds = args.get_or("seeds", spec.seeds)?;
    spec.ppn = args.get_or("ppn", spec.ppn)?;
    spec.master_seed = args.get_or("seed", spec.master_seed)?;
    if let Some(rr) = reqreply_from(args)? {
        spec.reqreply = Some(rr);
    }
    spec.validate()?;
    Ok(spec)
}

/// `intellinoc bench record` — run the grid and write `BENCH_<name>.json`.
fn bench_record_cmd(args: &Args) -> CmdResult {
    let name = args.get("name").unwrap_or("designs").to_owned();
    let spec = bench_spec_from(args)?;
    let cells = spec.cells();
    eprintln!(
        "bench record: {} designs x {} rates x {} seeds = {} units",
        spec.designs.len(),
        spec.rates.len(),
        spec.seeds,
        cells.len()
    );
    let (report, epilogue) = run_grid_command(args, "bench", &cells, profile_wanted(args))?;
    let baseline = BenchBaseline::from_report(&name, &spec, &report)?;
    let out = args.get("out").map(str::to_owned).unwrap_or_else(|| format!("BENCH_{name}.json"));
    std::fs::write(&out, baseline.to_json()?).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("bench record: {} cells written to {out}", baseline.cells.len());
    println!("{:<24} {:>12} {:>12} {:>14}", "cell", "avg_lat", "p99_lat", "energy_pJ/flit");
    for c in &baseline.cells {
        println!(
            "{:<24} {:>7.2}±{:<4.2} {:>7.2}±{:<4.2} {:>9.3}±{:<4.3}",
            c.id(),
            c.avg_latency.mean,
            c.avg_latency.ci95,
            c.p99_latency.mean,
            c.p99_latency.ci95,
            c.energy_per_flit_pj.mean,
            c.energy_per_flit_pj.ci95,
        );
    }
    epilogue.finish(args, &report)
}

/// `intellinoc bench compare` — re-run the baseline's grid and gate with
/// the CI-separation rule. Exit 0 pass, 1 error, 2 regression.
fn bench_compare_cmd(args: &Args) -> CmdResult {
    let path = args.get("baseline").ok_or("need --baseline BENCH_<name>.json")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline = BenchBaseline::from_json(&json)?;
    let (rcfg, chaos) = runner_config_from(args)?;
    eprintln!(
        "bench compare: re-running `{}` ({} units) against {path}",
        baseline.name,
        baseline.spec.designs.len() * baseline.spec.rates.len() * baseline.spec.seeds as usize
    );
    let fresh = record_bench(&baseline.name, &baseline.spec, &rcfg, &chaos, UnitSinks::default())?;
    if let Some(out) = args.get("fresh-out") {
        std::fs::write(out, fresh.to_json()?).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("bench compare: fresh recording written to {out}");
    }
    let opts = GateOptions { force_regress: args.has_flag("force-regress") };
    let cmp = compare_bench(&baseline, &fresh, &opts)?;
    if args.has_flag("json") {
        let s = serde_json::to_string_pretty(&cmp).map_err(|e| e.to_string())?;
        println!("{s}");
    } else {
        print!("{}", cmp.table());
    }
    Ok(if cmp.has_regressions() { CmdOutcome::Partial } else { CmdOutcome::Done })
}

/// `intellinoc bench <record|compare>`.
pub fn bench(args: &Args) -> CmdResult {
    match args.positional.first().map(String::as_str) {
        Some("record") => bench_record_cmd(args),
        Some("compare") => bench_compare_cmd(args),
        _ => Err("usage: intellinoc bench <record|compare> [options]".into()),
    }
}

/// `intellinoc profile` — run a bench grid with span profiling enabled on
/// every unit, merge the per-unit span trees across workers, and report
/// where `step_cycle` spends its time: the deterministic cycle-domain tree,
/// the top-N spans by self wall-clock, and the flamegraph/table artifacts.
pub fn profile(args: &Args) -> CmdResult {
    let spec = bench_spec_from(args)?;
    let cells = spec.cells();
    eprintln!(
        "profile: {} designs x {} rates x {} seeds = {} units",
        spec.designs.len(),
        spec.rates.len(),
        spec.seeds,
        cells.len()
    );
    let (report, epilogue) = run_grid_command(args, "profile", &cells, true)?;
    let tree = epilogue.prof.as_ref().expect("profile always profiles").span_tree();
    print!("{}", tree.tree_table());
    println!();
    println!("top {PROFILE_TOP} spans by self wall-clock (nondeterministic):");
    for (path, self_ns, s) in tree.top_self(PROFILE_TOP) {
        println!(
            "  {:<44} {:>12.3} ms {:>10} calls {:>12} flits",
            path,
            self_ns as f64 / 1e6,
            s.calls,
            s.flits
        );
    }
    epilogue.finish(args, &report)
}

/// `intellinoc postmortem <bundle.jsonl>` — render a flight-recorder
/// post-mortem bundle as a deterministic markdown report (byte-identical
/// across renders of the same bundle).
pub fn postmortem(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or("usage: intellinoc postmortem <bundle.jsonl> [--out report.md]")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bundle = parse_bundle(&text)?;
    let report = render_report(&bundle);
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &report).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("postmortem: report written to {out}");
        }
        None => print!("{report}"),
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc journeys <journeys.jsonl>` — analyze a recorded journey log:
/// render the deterministic tail-latency critical-path report (stdout or
/// `--out`), and export the per-(router, cause) tail-contribution CSV and
/// the Perfetto trace-event JSON on request. Byte-identical across renders
/// of the same log.
pub fn journeys(args: &Args) -> CmdResult {
    let path = args.positional.first().ok_or(
        "usage: intellinoc journeys <journeys.jsonl> [--out report.md] \
         [--csv-out contrib.csv] [--perfetto-out trace.json]",
    )?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let log = JourneyLog::from_jsonl(&text)?;
    let report = log.tail_report(JOURNEYS_TOP);
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &report).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("journeys: tail report written to {out}");
        }
        None => print!("{report}"),
    }
    if let Some(out) = args.get("csv-out") {
        std::fs::write(out, log.tail_contribution_csv())
            .map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("journeys: tail-contribution CSV written to {out}");
    }
    if let Some(out) = args.get("perfetto-out") {
        std::fs::write(out, log.perfetto_json()).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("journeys: Perfetto trace written to {out}");
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc list`.
pub fn list() -> CmdResult {
    println!("designs:");
    for d in Design::ALL {
        println!("  {}", d.label().to_ascii_lowercase());
    }
    println!("benchmarks (PARSEC test set + training):");
    for b in ParsecBenchmark::TEST_SET.into_iter().chain([ParsecBenchmark::Blackscholes]) {
        println!("  {} ({})", b.name(), b.label());
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc serve` — the crash-survivable experiment daemon
/// (DESIGN.md §14).
pub fn serve(args: &Args) -> CmdResult {
    let state_dir = PathBuf::from(args.get("state-dir").ok_or("need --state-dir")?);
    let (resume, chaos_kill) = (args.has_flag("resume"), args.get("chaos-kill"));
    if state_dir.join("wal.jsonl").exists() && !resume && chaos_kill.is_none() {
        return Err(format!(
            "state dir {} already has a WAL; pass --resume to recover it",
            state_dir.display()
        ));
    }
    let chaos = match chaos_kill {
        Some(s) => Some(Arc::new(ChaosKill::parse(s)?)),
        None => None,
    };
    let cfg = ServeConfig {
        state_dir,
        addr: args.get("addr").unwrap_or("127.0.0.1:9900").to_owned(),
        jobs: args.get_or("jobs", 0usize)?,
        chunk_units: args.get_or("chunk-units", intellinoc::DEFAULT_CHUNK_UNITS)?,
        chaos,
    };
    let daemon = Daemon::start(cfg)?;
    let addr = daemon.local_addr();
    if let Some(port_file) = args.get("port-file") {
        // tmp + rename so watchers never read a half-written address.
        let tmp = format!("{port_file}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, port_file))
            .map_err(|e| format!("write {port_file}: {e}"))?;
    }
    eprintln!("serve: listening on {addr} (drain with POST /api/drain; kill -9 is recoverable)");
    // Block until a drain completes. Pure std cannot observe SIGTERM, so
    // the drain endpoint is the graceful path and the WAL covers the rest.
    while !daemon.wait_until_drained(std::time::Duration::from_secs(3600)) {}
    Ok(CmdOutcome::Done)
}
