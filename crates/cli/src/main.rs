//! `intellinoc` — command-line front end for the IntelliNoC reproduction.
//!
//! ```text
//! intellinoc run      --design intellinoc --benchmark canneal [--ppn 150] [--out-dir DIR]
//! intellinoc inspect  --benchmark canneal [--out-dir DIR]
//! intellinoc sweep    --design secded --rates 0.01,0.02,0.04 [--ppn 100] [--jobs 4]
//! intellinoc trace capture <out.jsonl> --benchmark dedup [--ppn 50]
//! intellinoc trace replay <in.jsonl> --design cp
//! intellinoc campaign --dead-links 0,1,2,4,8 [--no-reroute] [--out-dir DIR]
//!                     [--jobs 4] [--journal camp.jsonl [--resume]]
//! intellinoc bench record  [--grid designs|ci] [--seeds N] [--profile] [--out-dir DIR]
//! intellinoc bench compare --baseline BENCH_x.json [--force-regress] [--out-dir DIR]
//! intellinoc serve    --state-dir DIR [--addr H:P] [--port-file F] [--resume]
//!                     [--jobs N] [--chunk-units N] [--chaos-kill point:k]
//! intellinoc postmortem <bundle.jsonl> [--out-dir DIR]
//! intellinoc journeys <journeys.jsonl> [--out-dir DIR]
//! intellinoc figures  <name>... | all [--jobs N] [--out-dir DIR]
//! intellinoc list
//! ```
//!
//! A command that writes files writes them under one `--out-dir DIR`, each
//! under a fixed name (DESIGN.md §16); without it, it writes nothing but
//! stdout and stderr (`bench record` writes its `BENCH_<name>.json` in the
//! working directory).
//!
//! Grid commands (`campaign`, `sweep`) run on the `noc-runner` execution
//! engine. `figures` renders the design comparison normalized to SECDED
//! (the paper's figures and Table 2) from the `intellinoc-bench` library.
//! A closed stdout drops the output, not the command.
//! Exit codes: 0 clean, 1 usage/config error, 2 partial results.
//! An option or flag the command never read (a typo, or a flag it does not
//! take) draws a `warning:` line on stderr; the exit code does not change.

use intellinoc_cli::args::Args;
use intellinoc_cli::commands::{self, CmdOutcome};

fn main() {
    let args = Args::from_env();
    let code = match args.command.as_deref() {
        Some("run") => commands::run(&args),
        Some("inspect") => commands::inspect(&args),
        Some("sweep") => commands::sweep(&args),
        Some("trace") => commands::trace(&args),
        Some("campaign") => commands::campaign(&args),
        Some("bench") => commands::bench(&args),
        Some("serve") => commands::serve(&args),
        Some("postmortem") => commands::postmortem(&args),
        Some("journeys") => commands::journeys(&args),
        Some("figures") => commands::figures(&args),
        Some("list") => commands::list(),
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            usage();
            Err("bad usage".into())
        }
        None => {
            usage();
            Ok(CmdOutcome::Done)
        }
    };
    if let (Ok(_), Some(command)) = (&code, &args.command) {
        for name in args.unconsulted() {
            eprintln!("warning: --{name} was not used by {command}");
        }
    }
    // Exit codes: 0 clean, 1 usage/config error, 2 partial results (some
    // experiment units failed, timed out, or were skipped — the printed
    // report is still valid for the units that completed).
    match code {
        Ok(CmdOutcome::Done) => {}
        Ok(CmdOutcome::Partial) => std::process::exit(2),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() {
    eprintln!("IntelliNoC reproduction CLI (ISCA'19, Wang et al.)");
    eprintln!();
    eprintln!("USAGE: intellinoc <command> [options]");
    eprintln!();
    eprintln!("COMMANDS:");
    eprintln!("  run      simulate one design on one workload");
    eprintln!("           --design <secded|eb|cp|cpd|intellinoc>");
    eprintln!("           --benchmark <name> | --rate <packets/node/cycle>");
    eprintln!("           [--ppn N] [--seed S] [--error-rate R] [--time-step T] [--json]");
    eprintln!("           [--trace] [--trace-filter router=N,kind=K] [--profile]");
    eprintln!("           [--alert-rules \"metric>value[:for=N][:critical];...\"]");
    eprintln!("           [--out-dir DIR] [+ closed-loop options]");
    eprintln!("  inspect  run with full attribution and render a trace-analysis report");
    eprintln!("           --benchmark <name> | --rate R  [--design <d>] [--ppn N] [--seed S]");
    eprintln!("           [--out-dir DIR] [+ run's telemetry flags]");
    eprintln!("  sweep    latency-vs-load curve for one design");
    eprintln!("           --design <d> --rates r1,r2,... [--ppn N] [+ runner options]");
    eprintln!("  trace    capture <out> --benchmark <name> | replay <in> --design <d>");
    eprintln!("  campaign deterministic hard-fault resilience campaign, all designs");
    eprintln!("           [--rate R] [--ppn N] [--seed S] [--dead-links 0,1,2,4,8]");
    eprintln!("           [--router-fail CYCLE | --no-router-fail] [--flapping N]");
    eprintln!("           [--no-reroute] [--max-cycles N] [--json]");
    eprintln!("           [--assert-delivery T] [+ runner options] [+ closed-loop options]");
    eprintln!("           closed-loop cells are audited: conservation violations exit 1");
    eprintln!("  bench    multi-seed baseline recording and regression gating");
    eprintln!("           record  [--grid designs|ci] [--designs d1,d2] [--rates r1,r2]");
    eprintln!("                   [--seeds N] [--ppn N] [--seed S] [--name X]");
    eprintln!("           compare --baseline BENCH_X.json [--json]");
    eprintln!("                   [--force-regress (chaos: prove the gate)]");
    eprintln!("           both accept runner options; compare exits 2 on regression");
    eprintln!("  serve    crash-survivable multi-tenant experiment daemon (DESIGN.md \u{a7}14)");
    eprintln!("           --state-dir DIR (WAL + journals + reports; --resume to recover)");
    eprintln!("           [--addr H:P (default 127.0.0.1:9900)] [--port-file F]");
    eprintln!("           [--jobs N] [--chunk-units N (cancel/pause granularity)]");
    eprintln!("           [--chaos-kill point:k (test abort at the k-th hit of point)]");
    eprintln!("           POST /api/drain stops it (running chunks get 10 s)");
    eprintln!("  postmortem  render a flight-recorder bundle as deterministic markdown");
    eprintln!("           <bundle.jsonl> [--out-dir DIR]");
    eprintln!("  journeys analyze a recorded journey log: the tail-latency critical-path");
    eprintln!("           report <journeys.jsonl> [--out-dir DIR]");
    eprintln!("  figures  the paper's evaluation, normalized to SECDED (Figs. 9-18, Table 2)");
    eprintln!("           <name>... | all [--jobs N] [--out-dir DIR]");
    eprintln!("           (all: every figure, then the headline comparison)");
    eprintln!("  list     known designs, benchmarks and figures");
    eprintln!();
    eprintln!("OUTPUT (--out-dir DIR: one directory, fixed file names; DESIGN.md \u{a7}16):");
    eprintln!("  run/inspect   postmortem-<key>.jsonl (flight recorder: conservation /");
    eprintln!("                critical alert / stall), trace.jsonl (--trace),");
    eprintln!("                journeys.jsonl (--journeys-every N),");
    eprintln!("                profile.txt spans.txt flame.folded (--profile)");
    eprintln!("  inspect       + report.md heatmaps/<grid>.csv heatmaps/links.csv");
    eprintln!("                  decisions.jsonl convergence.csv");
    eprintln!("  grids         runner.jsonl, postmortem-<key>.jsonl (dying units),");
    eprintln!("                journeys/ (--journeys-every N), the --profile files;");
    eprintln!("                campaign.csv, BENCH_<name>.json, fresh.json");
    eprintln!("  journeys      tail-report.md");
    eprintln!("  figures       <name>.txt; all: + intellinoc-{{normalized,raw}}.csv");
    eprintln!("  postmortem    postmortem.md");
    eprintln!("  Without it: reports on stdout, nothing written (bench record writes");
    eprintln!("  BENCH_<name>.json in the working directory).");
    eprintln!();
    eprintln!("JOURNEY TRACING (per-packet hop spans; DESIGN.md \u{a7}18):");
    eprintln!("  --journeys-every N    trace 1-in-N packets; needs --out-dir (run/inspect:");
    eprintln!("                        journeys.jsonl; grids: journeys-<key>.jsonl per unit);");
    eprintln!("                        analyze a log with `journeys`");
    eprintln!("  serve: jobs submitted with \"journeys_every\": N expose their logs at");
    eprintln!("               GET /api/jobs/<id>/journeys");
    eprintln!();
    eprintln!("CLOSED-LOOP OPTIONS (run, sweep, campaign, bench — request-reply protocol):");
    eprintln!("  --workload reqreply   destinations reply; sources gate on completions and");
    eprintln!("                        the run's transaction books are audited");
    eprintln!("  --reply-timeout N     cycles before a client retries its request (2000)");
    eprintln!("  --max-req-retries N   retry budget per transaction before failed (3)");
    eprintln!("  --req-backoff-base N / --req-backoff-cap N   capped-exponential retry");
    eprintln!("                        backoff in cycles (32 / 1024)");
    eprintln!("  --shed-threshold F    recent-timeout-rate above which sources shed load (0.5)");
    eprintln!("  --service-latency N   server think time before the reply (8)");
    eprintln!("  --reply-packets N     reply size in packets (1)");
    eprintln!("  --chaos-orphan ID     chaos: silently lose txn ID to prove the auditor fires");
    eprintln!();
    eprintln!("RUNNER OPTIONS (campaign, sweep, bench — the noc-runner engine):");
    eprintln!("  --jobs N              worker threads (default 1; results identical at any N)");
    eprintln!("  --journal F.jsonl     journal terminal unit records (enables --resume)");
    eprintln!("  --resume              reuse journaled records, run only the rest");
    eprintln!("  --max-units N         dispatch at most N units, skip the tail");
    eprintln!("  --force-panic M / --force-timeout M   chaos-test units whose key contains M");
    eprintln!("  --profile             fleet wall-clock + span profile (stdout, or the");
    eprintln!("                        profile files under --out-dir)");
    eprintln!();
    eprintln!("EXIT CODES: 0 clean, 1 usage/config error, 2 partial results");
    eprintln!("An option the command does not read draws a warning on stderr.");
}
