//! Subcommand implementations for the `intellinoc` CLI.

use crate::args::Args;
use intellinoc::figures::{
    evaluate, figure_cells, print_headline, write_campaign_csv, write_raw_csv, Campaign, Figure,
    FIGURES,
};
use intellinoc::{
    check_fault_counts, check_ppn, check_rate, compare_bench, dump_bundle, load_sweep_cells,
    render_inspect_report, run_experiment, run_experiment_instrumented, run_grid, BenchBaseline,
    BenchSpec, BenchWorkload, CampaignConfig, CampaignRunReport, ChaosKill, ChaosOptions, Daemon,
    Design, ExperimentConfig, ExperimentOutcome, GateOptions, RunnerConfig, RunnerReport,
    ServeConfig, TelemetryArtifacts, TelemetryOptions, UnitSinks,
};
use noc_sim::{
    parse_bundle, parse_rules, render_report, shared_recorder, AlertEdge, BundleCause, EventKind,
    JourneyLog, Profiler, SpanTree, TraceFilter, DEFAULT_BLACKBOX_CAPACITY,
};
use noc_traffic::{
    capture_trace, read_trace, write_trace, ParsecBenchmark, ReqReplySpec, WorkloadSpec,
};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Standard output that a closed reader does not fail: a write that finds
/// the pipe closed (`BrokenPipe`, as under `| head`) is dropped, so the
/// command still finishes, its `--out-dir` files included, and exits with
/// the status it would have had. Commands print with `write!(Stdout, …)`
/// and `writeln!(Stdout, …)`, whose `Err` names any other write error.
struct Stdout;

impl Stdout {
    /// What `write!` and `writeln!` call.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), String> {
        match io::stdout().write_fmt(args) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
            _ => Ok(()),
        }
    }
}

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

/// Parses `--ppn` (default `default`) under [`check_ppn`].
fn ppn_from(args: &Args, default: u64) -> Result<u64, String> {
    check_ppn(args.get_or("ppn", default)?).map_err(|e| format!("invalid --ppn: {e}"))
}

/// The workload of a single run: `--benchmark` or `--rate` traffic, `--ppn`
/// packets per node (default `default_ppn`).
fn workload_from(args: &Args, default_ppn: u64) -> Result<WorkloadSpec, String> {
    let ppn = ppn_from(args, default_ppn)?;
    let reqreply = reqreply_from(args)?;
    if let Some(b) = args.get("benchmark") {
        if reqreply.is_some() {
            return Err("--workload reqreply drives --rate traffic, not --benchmark".into());
        }
        Ok(parse_benchmark(b)?.workload(ppn))
    } else if let Some(r) = args.get("rate") {
        let rate = check_rate(r.parse().map_err(|_| format!("invalid --rate: {r}"))?)?;
        Ok(match reqreply {
            Some(rr) => WorkloadSpec::reqreply(rate, ppn, rr),
            None => WorkloadSpec::uniform(rate, ppn),
        })
    } else {
        Err("need --benchmark <name> or --rate <packets/node/cycle>".into())
    }
}

/// `--out-dir DIR`: the one directory a command writes its artifacts
/// under, each under a fixed name (DESIGN.md §16).
struct OutDir {
    dir: PathBuf,
    /// The command, as stderr lines name it.
    label: &'static str,
}

impl OutDir {
    /// `--out-dir`, created if missing; `None` without the flag.
    fn from(args: &Args, label: &'static str) -> Result<Option<OutDir>, String> {
        let Some(dir) = args.get("out-dir") else { return Ok(None) };
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        Ok(Some(OutDir { dir: PathBuf::from(dir), label }))
    }

    /// The subdirectory `name`, created if missing.
    fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Writes `body` as `name` and says so on stderr.
    fn write(&self, name: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
        let path = self.dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{}: wrote {}", self.label, path.display());
        Ok(())
    }
}

/// Builds the execution-engine configuration and chaos switches shared by
/// the grid commands from the command line. `--out-dir` arms the flight
/// recorder: dying units dump their bundles there.
///
/// # Errors
///
/// Returns a message naming the malformed option, or `--resume` without a
/// `--journal` path.
fn runner_config_from(args: &Args) -> Result<(RunnerConfig, ChaosOptions), String> {
    let cfg = RunnerConfig {
        jobs: args.get_or("jobs", 1usize)?,
        journal: args.get("journal").map(PathBuf::from),
        resume: args.has_flag("resume"),
        max_units: match args.get("max-units") {
            Some(v) => Some(v.parse().map_err(|_| format!("invalid --max-units: {v}"))?),
            None => None,
        },
        blackbox: args.get("out-dir").map(PathBuf::from),
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

/// `--journeys-every N` (0, the default, is off), on every command that
/// simulates: the logs go under `--out-dir`, so tracing needs one.
fn journeys_every(args: &Args) -> Result<u64, String> {
    let every = args.get_or("journeys-every", 0u64)?;
    if every > 0 && args.get("out-dir").is_none() {
        return Err("--journeys-every needs --out-dir DIR".into());
    }
    Ok(every)
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

/// Parses `--time-step` (default 1 000 cycles): at least one cycle, or the
/// control loop would never advance.
fn time_step_from(args: &Args) -> Result<u64, String> {
    match args.get_or("time-step", 1_000u64)? {
        0 => Err("invalid --time-step: 0 (need at least 1 cycle)".into()),
        step => Ok(step),
    }
}

/// The profile files: the wall-clock `table`, the deterministic span table
/// and the collapsed-stack flamegraph (inferno/speedscope-loadable) under
/// `--out-dir`; the table alone on stdout without it.
fn emit_profile(out: Option<&OutDir>, table: &str, tree: &SpanTree) -> Result<(), String> {
    let Some(out) = out else {
        write!(Stdout, "{table}")?;
        return Ok(());
    };
    out.write("profile.txt", table)?;
    out.write("spans.txt", tree.tree_table())?;
    out.write("flame.folded", tree.flamegraph())
}

/// What a grid command (`sweep`, `campaign`, `bench`) still owes after
/// [`run_grid_command`]: [`GridEpilogue::finish`].
struct GridEpilogue {
    label: &'static str,
    out: Option<OutDir>,
    /// The fleet profiler every unit merged into, when profiling was on.
    prof: Option<Profiler>,
}

/// Runs `cells` as the grid command `label` — the prologue the grid
/// commands share: runner options and chaos switches, the fleet profiler
/// (`--profile`), the per-unit journey logs (`--journeys-every N`, into
/// `journeys/` under `--out-dir`), then [`run_grid`].
fn run_grid_command(
    args: &Args,
    label: &'static str,
    cells: &[(String, ExperimentConfig)],
) -> Result<(RunnerReport<ExperimentOutcome>, GridEpilogue), String> {
    let (rcfg, chaos) = runner_config_from(args)?;
    let out = OutDir::from(args, label)?;
    let sink = args.has_flag("profile").then(|| Mutex::new(Profiler::new()));
    let every = journeys_every(args)?;
    let journeys = match &out {
        Some(out) if every > 0 => Some(out.subdir("journeys")?),
        _ => None,
    };
    let sinks =
        UnitSinks { prof: sink.as_ref(), journeys: journeys.as_deref().map(|d| (d, every)) };
    let report = run_grid(cells, &rcfg, &chaos, sinks)?;
    let prof = sink.map(|sink| sink.into_inner().expect("profiler sink lock"));
    Ok((report, GridEpilogue { label, out, prof }))
}

impl GridEpilogue {
    /// The epilogue the grid commands share, once the command has rendered
    /// `report` (`bench`: before it folds, which fails on a unit not `ok`):
    /// the runner log (`runner.jsonl`, with a trailing profile health
    /// note when profiling ran), the profile files, the status summary line,
    /// and the exit code: partial unless every unit finished `ok`.
    fn finish(&self, report: &RunnerReport<ExperimentOutcome>) -> CmdResult {
        let &GridEpilogue { label, ref out, ref prof } = self;
        if let Some(out) = out {
            let mut log = report.runner_log();
            if let Some(p) = prof {
                let tree = p.span_tree();
                log += &format!(
                    "{{\"event\":\"profile-note\",\"key\":\"{label}\",\"span_truncations\":{},\
                     \"unbalanced_exits\":{}}}\n",
                    tree.truncated_enters(),
                    tree.unbalanced_exits()
                );
            }
            out.write("runner.jsonl", log)?;
        }
        if let Some(p) = prof {
            emit_profile(out.as_ref(), &(p.table() + &report.wall_clock_table()), p.span_tree())?;
        }
        eprintln!("{label}: {}", report.summary());
        Ok(if report.is_clean() { CmdOutcome::Done } else { CmdOutcome::Partial })
    }
}

fn print_outcome(o: &ExperimentOutcome, json: bool) -> Result<(), String> {
    if json {
        let s = serde_json::to_string_pretty(o).map_err(|e| e.to_string())?;
        writeln!(Stdout, "{s}")?;
        return Ok(());
    }
    let r = &o.report;
    writeln!(Stdout, "design            : {}", o.design.label())?;
    writeln!(Stdout, "workload          : {}", o.workload)?;
    writeln!(Stdout, "execution time    : {} cycles", r.exec_cycles)?;
    writeln!(
        Stdout,
        "packets           : {} delivered / {} injected",
        r.stats.packets_delivered, r.stats.packets_injected
    )?;
    writeln!(
        Stdout,
        "latency           : avg {:.1}  p50 {:.0}  p99 {:.0}  max {} cycles",
        r.avg_latency(),
        r.stats.latency_percentile(0.50),
        r.stats.latency_percentile(0.99),
        r.stats.latency_max
    )?;
    writeln!(
        Stdout,
        "power             : {:.1} mW static + {:.1} mW dynamic",
        r.power.static_mw, r.power.dynamic_mw
    )?;
    writeln!(Stdout, "energy-efficiency : {:.4} 1/uJ (Eq. 8)", r.energy_efficiency() * 1e6)?;
    writeln!(
        Stdout,
        "reliability       : {} retx flits, {} corrected bits, {} corrupted pkts",
        r.stats.retransmitted_flits, r.stats.corrected_bits, r.stats.corrupted_packets
    )?;
    if let Some(t) = &r.txn {
        writeln!(
            Stdout,
            "transactions      : {} issued = {} completed + {} failed + {} shed + {} in-flight",
            t.issued, t.completed, t.failed, t.shed, t.in_flight
        )?;
        writeln!(
            Stdout,
            "txn protocol      : {} timeouts, {} retries, {} conservation violations",
            t.timeouts, t.retries, t.violations
        )?;
        if !t.orphans.is_empty() {
            writeln!(Stdout, "ORPHANED TXNS     : {:?}", t.orphans)?;
        }
    }
    writeln!(Stdout, "thermals          : mean {:.1} C, max {:.1} C", r.mean_temp_c, r.max_temp_c)?;
    match r.mttf_hours {
        Some(h) => writeln!(Stdout, "MTTF              : {h:.3e} hours")?,
        None => writeln!(Stdout, "MTTF              : n/a (no aging accumulated)")?,
    }
    if o.design.uses_rl() {
        let fr = o.mode_fractions();
        writeln!(
            Stdout,
            "operation modes   : relax {:.2} crc {:.2} secded {:.2} dected {:.2} relaxed-tx {:.2}",
            fr[0], fr[1], fr[2], fr[3], fr[4]
        )?;
        writeln!(Stdout, "Q-table entries   : {:.1} per router (cap 350)", o.mean_qtable_entries)?;
    }
    Ok(())
}

/// Builds the run's telemetry switches from the command line.
///
/// Tracing turns on with `--trace` or `--trace-filter` (whose router ids
/// must lie in `design`'s mesh), profiling with `--profile`, journey
/// tracing with `--journeys-every N` (which needs `--out-dir`).
fn telemetry_from(args: &Args, design: Design) -> Result<TelemetryOptions, String> {
    let trace_filter = match args.get("trace-filter") {
        Some(spec) => TraceFilter::parse(spec, design.sim_config().nodes() as u32)?,
        None => TraceFilter::default(),
    };
    Ok(TelemetryOptions {
        trace: args.has_flag("trace") || args.get("trace-filter").is_some(),
        trace_filter,
        profile: args.has_flag("profile"),
        journeys_every: journeys_every(args)?,
        alert_rules: match args.get("alert-rules") {
            Some(spec) => parse_rules(spec)?,
            None => Vec::new(),
        },
        // Attribution and the decision log have no sink here: `inspect`,
        // the one command that renders them, switches them on itself.
        ..TelemetryOptions::default()
    })
}

/// Writes the collected telemetry artifacts: under `--out-dir` the trace,
/// the profile files and the journey log; on stderr the alert transitions,
/// the trace's counts and the journeys' counts; on stdout the profile table
/// (without `--out-dir`).
fn emit_telemetry(out: Option<&OutDir>, artifacts: &TelemetryArtifacts) -> Result<(), String> {
    // Structured alert transitions, one JSONL object per firing/resolved
    // edge (stderr, like the runner's lifecycle events).
    for event in &artifacts.alerts {
        eprintln!("{}", event.to_json());
    }
    if let Some(tracer) = &artifacts.tracer {
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
        if let Some(out) = out {
            out.write("trace.jsonl", tracer.to_jsonl())?;
        }
    }
    if let Some(profiler) = &artifacts.profiler {
        emit_profile(out, &profiler.table(), profiler.span_tree())?;
    }
    if let Some(log) = &artifacts.journeys {
        eprintln!(
            "journeys: {} packet journeys, {} transactions traced (1 in {})",
            log.packets.len(),
            log.txns.len(),
            log.every
        );
        if let Some(out) = out {
            out.write("journeys.jsonl", log.to_jsonl())?;
        }
    }
    Ok(())
}

/// `intellinoc run`.
pub fn run(args: &Args) -> CmdResult {
    let design = Design::parse(args.get("design").ok_or("need --design")?)?;
    let workload = workload_from(args, 150)?;
    let mut cfg = ExperimentConfig::new(design, workload)
        .with_seed(args.get_or("seed", 1u64)?)
        .with_time_step(time_step_from(args)?);
    cfg.error_rate_override = error_rate_from(args)?;
    let out = OutDir::from(args, "run")?;
    cfg.telemetry = telemetry_from(args, design)?;
    let (outcome, artifacts) = run_recorded(cfg, out.as_ref())?;
    print_outcome(&outcome, args.has_flag("json"))?;
    emit_telemetry(out.as_ref(), &artifacts)?;
    // The transaction-conservation auditor reads the closed loop's books
    // off the report: on some node issued != completed + failed + shed +
    // in flight.
    if let Some(t) = outcome.report.txn.as_ref().filter(|t| t.violations > 0) {
        eprintln!(
            "transaction-conservation auditor: {} violations, orphaned txns {:?}",
            t.violations, t.orphans
        );
    }
    Ok(CmdOutcome::Done)
}

/// Runs `cfg`, with the flight recorder armed under `--out-dir`: a fixed
/// ring of recent telemetry that becomes one post-mortem bundle, keyed
/// `<command>/<design>`, for the first of: transaction books out of
/// balance, a critical alert, a stall. The first two carry the books,
/// naming the orphaned transaction ids so the post-mortem is actionable.
fn run_recorded(
    mut cfg: ExperimentConfig,
    out: Option<&OutDir>,
) -> Result<(ExperimentOutcome, TelemetryArtifacts), String> {
    let recorder = out.map(|_| shared_recorder(DEFAULT_BLACKBOX_CAPACITY));
    cfg.telemetry.blackbox = recorder.clone();
    let (design, seed) = (cfg.design, cfg.seed);
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
    let (Some(out), Some(rec)) = (out, &recorder) else { return Ok((outcome, artifacts)) };
    let report = &outcome.report;
    let mut books: Vec<(&str, String)> = Vec::new();
    if let Some(t) = &report.txn {
        books.push(("txn-summary", serde_json::to_string(t).unwrap_or_default()));
        if !t.orphans.is_empty() {
            books.push(("orphaned-txns", serde_json::to_string(&t.orphans).unwrap_or_default()));
        }
    }
    let unbalanced = report.txn.as_ref().filter(|t| t.violations > 0);
    let critical = artifacts.alerts.iter().find(|e| e.critical && e.edge == AlertEdge::Firing);
    let (cause, detail, extras) = if let Some(t) = unbalanced {
        let detail = format!(
            "transaction books out of balance at cycle {}: {} violations",
            report.exec_cycles, t.violations
        );
        (BundleCause::Conservation, detail, books)
    } else if let Some(ev) = critical {
        let detail = format!(
            "critical alert `{}` fired at cycle {} (value {}, threshold {})",
            ev.rule, ev.cycle, ev.value, ev.threshold
        );
        (BundleCause::Alert, detail, books)
    } else if let Some(stall) = &report.stall {
        let detail = format!("stall watchdog aborted the run at cycle {}", report.exec_cycles);
        (
            BundleCause::Stall,
            detail,
            vec![("stall-report", serde_json::to_string(stall).unwrap_or_default())],
        )
    } else {
        return Ok((outcome, artifacts));
    };
    let key = format!("{}/{}", out.label, design.label());
    let path = dump_bundle(&out.dir, rec, cause, &key, seed, &detail, &extras)?;
    eprintln!("blackbox: {} bundle written to {}", cause.label(), path.display());
    Ok((outcome, artifacts))
}

/// `intellinoc inspect` — run one design with full attribution and RL
/// introspection enabled, then render the trace-analysis report (stdout,
/// or `report.md` under `--out-dir` next to the heatmaps and the decision
/// log) and run's telemetry artifacts.
pub fn inspect(args: &Args) -> CmdResult {
    let design = match args.get("design") {
        Some(d) => Design::parse(d)?,
        None => Design::IntelliNoc,
    };
    let workload = workload_from(args, 50)?;
    let mut cfg = ExperimentConfig::new(design, workload)
        .with_seed(args.get_or("seed", 1u64)?)
        .with_time_step(time_step_from(args)?);
    cfg.error_rate_override = error_rate_from(args)?;
    let out = OutDir::from(args, "inspect")?;
    cfg.telemetry = telemetry_from(args, design)?;
    cfg.telemetry.attribution = true;
    cfg.telemetry.decisions = design.uses_rl();
    let (outcome, artifacts) = run_recorded(cfg, out.as_ref())?;

    let report = render_inspect_report(&outcome, &artifacts);
    match &out {
        None => write!(Stdout, "{report}")?,
        Some(out) => {
            out.write("report.md", report)?;
            if let Some(att) = &artifacts.attribution {
                out.subdir("heatmaps")?;
                for grid in &att.grids {
                    out.write(&format!("heatmaps/{}.csv", grid.name), grid.to_csv())?;
                }
                out.write("heatmaps/links.csv", noc_sim::link_stats_csv(&att.links))?;
            }
            if let Some(log) = &artifacts.decisions {
                out.write("decisions.jsonl", log.to_jsonl())?;
                out.write("convergence.csv", log.convergence_csv())?;
            }
        }
    }
    emit_telemetry(out.as_ref(), &artifacts)?;
    Ok(CmdOutcome::Done)
}

/// `intellinoc sweep` — one experiment unit per injection rate, executed by
/// the `noc-runner` engine (`--jobs`, `--journal`/`--resume`, deadlines).
pub fn sweep(args: &Args) -> CmdResult {
    let design = Design::parse(args.get("design").ok_or("need --design")?)?;
    let rates: Vec<f64> = args
        .get("rates")
        .ok_or("need --rates r1,r2,...")?
        .split(',')
        .map(|r| check_rate(r.trim().parse().map_err(|_| format!("invalid rate: {r}"))?))
        .collect::<Result<_, _>>()?;
    let cells = load_sweep_cells(
        design,
        &rates,
        ppn_from(args, 100)?,
        args.get_or("seed", 1u64)?,
        reqreply_from(args)?.as_ref(),
    );
    let (report, epilogue) = run_grid_command(args, "sweep", &cells)?;
    writeln!(
        Stdout,
        "{:>8} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "rate", "exec_cyc", "avg_lat", "p99_lat", "deliv%", "power_mW", "status"
    )?;
    for (rate, rec) in rates.iter().zip(&report.records) {
        match rec.payload.as_ref().map(|o| &o.report) {
            Some(r) => writeln!(
                Stdout,
                "{:>8.4} {:>10} {:>8.1} {:>8.0} {:>8.1} {:>10.1} {:>10}",
                rate,
                r.exec_cycles,
                r.avg_latency(),
                r.stats.latency_percentile(0.99),
                100.0 * r.stats.delivery_ratio(),
                r.power.total_mw(),
                rec.status.label()
            )?,
            None => writeln!(
                Stdout,
                "{:>8} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
                rate,
                "-",
                "-",
                "-",
                "-",
                "-",
                rec.status.label()
            )?,
        }
    }
    epilogue.finish(&report)
}

/// `intellinoc trace capture|replay`.
pub fn trace(args: &Args) -> CmdResult {
    match args.positional.first().map(String::as_str) {
        Some("capture") => {
            let path = args.positional.get(1).ok_or("need an output path")?;
            let workload = workload_from(args, 50)?;
            let records = capture_trace(workload, 8, 8, args.get_or("seed", 1u64)?, 10_000_000);
            let f = File::create(path).map_err(|e| e.to_string())?;
            write_trace(BufWriter::new(f), &records).map_err(|e| e.to_string())?;
            writeln!(Stdout, "captured {} records to {path}", records.len())?;
            Ok(CmdOutcome::Done)
        }
        Some("replay") => {
            let path = args.positional.get(1).ok_or("need an input path")?;
            let design = Design::parse(args.get("design").ok_or("need --design")?)?;
            let f = File::open(path).map_err(|e| e.to_string())?;
            let mut records = read_trace(BufReader::new(f)).map_err(|e| e.to_string())?;
            let nodes = design.sim_config().nodes();
            let mut cfg = ExperimentConfig::new(design, WorkloadSpec::uniform(0.0, 0))
                .with_seed(args.get_or("seed", 1u64)?);
            // A record at or past the cycle budget can never inject; replaying
            // it would only simulate idle cycles up to the budget.
            let recorded = records.len();
            records.retain(|r| r.cycle < cfg.max_cycles);
            let late = recorded - records.len();
            cfg.workload =
                WorkloadSpec::replay(path, records, nodes).map_err(|e| format!("{path}: {e}"))?;
            if late > 0 {
                eprintln!(
                    "trace replay: left out {late} records at or past the {}-cycle budget",
                    cfg.max_cycles
                );
            }
            let outcome = run_experiment(cfg);
            let finished = outcome.finished && late == 0;
            let r = &outcome.report;
            writeln!(
                Stdout,
                "replayed {} packets on {}: exec={} cycles, avg latency {:.1}, {}",
                r.stats.packets_delivered,
                design.label(),
                r.exec_cycles,
                r.avg_latency(),
                if finished { "complete" } else { "INCOMPLETE" }
            )?;
            Ok(if finished { CmdOutcome::Done } else { CmdOutcome::Partial })
        }
        _ => Err("usage: intellinoc trace <capture|replay> <path> [options]".into()),
    }
}

/// `intellinoc campaign` — the deterministic fault-resilience campaign.
pub fn campaign(args: &Args) -> CmdResult {
    let mut cfg = CampaignConfig {
        rate: check_rate(args.get_or("rate", 0.02f64)?)?,
        ppn: ppn_from(args, 30)?,
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
    check_fault_counts(&cfg)?;
    cfg.reqreply = reqreply_from(args)?;
    let assert_delivery = match args.get("assert-delivery") {
        Some(t) => Some(t.parse().ok().filter(|v| (0.0..=1.0).contains(v)).ok_or_else(|| {
            format!("--assert-delivery takes a delivery rate in [0, 1], got {t}")
        })?),
        None => None,
    };
    let (runner, epilogue) = run_grid_command(args, "campaign", &cfg.cells())?;
    let report = CampaignRunReport { config: cfg, runner };
    if args.has_flag("json") {
        let s = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        writeln!(Stdout, "{s}")?;
    } else {
        write!(Stdout, "{}", report.table())?;
    }
    if let Some(out) = &epilogue.out {
        out.write("campaign.csv", report.to_csv())?;
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
    if let Some(threshold) = assert_delivery {
        let min = report.min_delivery_rate();
        if min < threshold {
            return Err(format!("delivery rate {min:.4} fell below the required {threshold:.4}"));
        }
        eprintln!("campaign: min delivery rate {min:.4} >= {threshold:.4}");
    }
    epilogue.finish(&report.runner)
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
            designs.split(',').map(|d| Design::parse(d.trim())).collect::<Result<_, _>>()?;
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
    spec.ppn = ppn_from(args, spec.ppn)?;
    spec.master_seed = args.get_or("seed", spec.master_seed)?;
    if let Some(rr) = reqreply_from(args)? {
        spec.reqreply = Some(rr);
    }
    spec.validate()?;
    Ok(spec)
}

/// `intellinoc bench record` — run the grid and write `BENCH_<name>.json`
/// (under `--out-dir`, else in the working directory).
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
    let (report, epilogue) = run_grid_command(args, "bench", &cells)?;
    epilogue.finish(&report)?;
    let baseline = BenchBaseline::from_report(&name, &spec, &report)?;
    let cwd = OutDir { dir: PathBuf::new(), label: "bench" };
    let out = epilogue.out.as_ref().unwrap_or(&cwd);
    out.write(&format!("BENCH_{name}.json"), baseline.to_json()?)?;
    writeln!(
        Stdout,
        "{:<24} {:>12} {:>12} {:>14}",
        "cell", "avg_lat", "p99_lat", "energy_pJ/flit"
    )?;
    for c in &baseline.cells {
        writeln!(
            Stdout,
            "{:<24} {:>7.2}±{:<4.2} {:>7.2}±{:<4.2} {:>9.3}±{:<4.3}",
            c.id(),
            c.avg_latency.mean,
            c.avg_latency.ci95,
            c.p99_latency.mean,
            c.p99_latency.ci95,
            c.energy_per_flit_pj.mean,
            c.energy_per_flit_pj.ci95,
        )?;
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc bench compare` — re-run the baseline's grid (its fresh
/// recording is `fresh.json` under `--out-dir`) and gate with the
/// CI-separation rule. Exit 0 pass, 1 error, 2 regression or a unit that
/// did not finish `ok`.
fn bench_compare_cmd(args: &Args) -> CmdResult {
    let path = args.get("baseline").ok_or("need --baseline BENCH_<name>.json")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline = BenchBaseline::from_json(&json)?;
    let cells = baseline.spec.cells();
    eprintln!(
        "bench compare: re-running `{}` ({} units) against {path}",
        baseline.name,
        cells.len()
    );
    let (report, epilogue) = run_grid_command(args, "bench", &cells)?;
    epilogue.finish(&report)?;
    let fresh = BenchBaseline::from_report(&baseline.name, &baseline.spec, &report)?;
    if let Some(out) = &epilogue.out {
        out.write("fresh.json", fresh.to_json()?)?;
    }
    let opts = GateOptions { force_regress: args.has_flag("force-regress") };
    let cmp = compare_bench(&baseline, &fresh, &opts)?;
    if args.has_flag("json") {
        let s = serde_json::to_string_pretty(&cmp).map_err(|e| e.to_string())?;
        writeln!(Stdout, "{s}")?;
    } else {
        write!(Stdout, "{}", cmp.table())?;
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

/// `intellinoc postmortem <bundle.jsonl>` — render a flight-recorder
/// post-mortem bundle as a deterministic markdown report (byte-identical
/// across renders of the same bundle): stdout, or `postmortem.md` under
/// `--out-dir`.
pub fn postmortem(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or("usage: intellinoc postmortem <bundle.jsonl> [--out-dir DIR]")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report = render_report(&parse_bundle(&text)?);
    match OutDir::from(args, "postmortem")? {
        Some(out) => out.write("postmortem.md", report)?,
        None => write!(Stdout, "{report}")?,
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc journeys <journeys.jsonl>` — analyze a recorded journey log:
/// the deterministic tail-latency critical-path report, walking the five
/// slowest journeys, on stdout or, under `--out-dir`, as `tail-report.md`.
/// Byte-identical across renders of the same log.
pub fn journeys(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or("usage: intellinoc journeys <journeys.jsonl> [--out-dir DIR]")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let log = JourneyLog::from_jsonl(&text)?;
    let report = log.tail_report(5);
    match OutDir::from(args, "journeys")? {
        Some(out) => out.write("tail-report.md", report)?,
        None => write!(Stdout, "{report}")?,
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc list`.
pub fn list() -> CmdResult {
    writeln!(Stdout, "designs:")?;
    for d in Design::ALL {
        writeln!(Stdout, "  {}", d.label().to_ascii_lowercase())?;
    }
    writeln!(Stdout, "benchmarks (PARSEC test set + training):")?;
    for b in ParsecBenchmark::TEST_SET.into_iter().chain([ParsecBenchmark::Blackscholes]) {
        writeln!(Stdout, "  {} ({})", b.name(), b.label())?;
    }
    writeln!(Stdout, "figures (intellinoc figures <name>... | all):")?;
    for f in FIGURES {
        writeln!(Stdout, "  {:<24} {}", f.name, f.about)?;
    }
    Ok(CmdOutcome::Done)
}

/// `intellinoc figures <name>... | all` — the paper's evaluation: every run
/// the named [`FIGURES`] entries read is declared, trained and run once
/// (`--jobs N` workers, byte-identical output at any N), then each table is
/// printed and, under `--out-dir`, written as `<name>.txt`. `all` is every
/// entry in table order, closed by the headline comparison and, under
/// `--out-dir`, the campaign CSVs.
pub fn figures(args: &Args) -> CmdResult {
    let all = args.positional == ["all"];
    let selected: Vec<&Figure> = if all {
        FIGURES.iter().collect()
    } else {
        let figure = |n: &String| {
            let unknown = || format!("unknown figure `{n}` (try `intellinoc list`)");
            FIGURES.iter().find(|f| f.name == n).ok_or_else(unknown)
        };
        args.positional.iter().map(figure).collect::<Result<_, _>>()?
    };
    if selected.is_empty() {
        return Err("usage: intellinoc figures <name>... | all [--jobs N] [--out-dir DIR]".into());
    }
    let jobs = args.get_or("jobs", 1usize)?;
    let out = OutDir::from(args, "figures")?;
    let campaign = Campaign::default();
    let report = evaluate(&figure_cells(&selected, &campaign)?, jobs)?;
    for fig in selected {
        // Rendered into memory first: a unit that fails leaves no
        // half-written table, on stdout or on disk.
        let mut table = Vec::new();
        fig.write(&campaign, &report, &mut table).map_err(|e| format!("{}: {e}", fig.name))?;
        write!(Stdout, "{}", String::from_utf8_lossy(&table))?;
        if let Some(out) = &out {
            out.write(&format!("{}.txt", fig.name), &table)?;
        }
    }
    if all {
        let results = campaign.results(&report).map_err(|e| format!("headline: {e}"))?;
        let mut headline = Vec::new();
        print_headline(&results, &mut headline).expect("in-memory write");
        write!(Stdout, "{}", String::from_utf8_lossy(&headline))?;
        if let Some(out) = &out {
            let (mut normalized, mut raw) = (Vec::new(), Vec::new());
            write_campaign_csv(&mut normalized, &results).expect("in-memory write");
            write_raw_csv(&mut raw, &results).expect("in-memory write");
            out.write("intellinoc-normalized.csv", normalized)?;
            out.write("intellinoc-raw.csv", raw)?;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_and_labels_roundtrip() {
        for b in ParsecBenchmark::TEST_SET {
            assert_eq!(parse_benchmark(b.name()).unwrap(), b);
            assert_eq!(parse_benchmark(b.label()).unwrap(), b);
        }
        assert_eq!(parse_benchmark("blackscholes").unwrap(), ParsecBenchmark::Blackscholes);
        assert!(parse_benchmark("spec2006").is_err());
    }
}
