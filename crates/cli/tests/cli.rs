//! The CLI, driven through the binary: exit codes, the option rules and
//! their messages, each command's artifacts, journals a parent build wrote,
//! and the `serve` daemon through kill -9 and every chaos kill point.

mod common;

use common::{intellinoc, ok, read, scratch, BIN};
use intellinoc::Design;

#[test]
fn run_command_executes_end_to_end() {
    ok(".", "run --design eb --rate 0.02 --ppn 5 --seed 3 --json");
}

#[test]
fn run_command_rejects_missing_workload() {
    let (code, _, err) = intellinoc(".", "run --design eb");
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("--benchmark"), "{err}");
}

#[test]
fn error_rate_must_be_a_probability() {
    // `NaN` used to hang the run (no comparison against it is ever true);
    // out-of-range rates used to be clamped without a word.
    for bad in ["NaN", "nan", "inf", "-inf", "-1", "2", "1e-4x"] {
        for cmd in ["run --design eb", "inspect"] {
            let line = format!("{cmd} --rate 0.02 --ppn 2 --seed 3 --error-rate {bad}");
            let (code, _, err) = intellinoc(".", &line);
            assert_eq!(code, 1, "{line}: {err}");
            assert!(err.contains("--error-rate") && err.contains(bad), "{line}: {err}");
        }
    }
    for rate in ["0", "1e-4", "1"] {
        ok(
            ".",
            &format!("run --design eb --rate 0.02 --ppn 2 --seed 3 --json --error-rate {rate}"),
        );
    }
}

/// The binary turns a hostile `--error-rate` into a usage error: exit 1
/// with stderr naming the flag, not a hang (`NaN` used to spin the fault
/// sampler forever).
#[test]
fn a_hostile_error_rate_exits_1_naming_the_flag() {
    for rate in ["NaN", "inf", "-1", "2"] {
        let line = format!("run --design secded --rate 0.02 --ppn 4 --seed 3 --error-rate {rate}");
        let (code, _, stderr) = intellinoc(".", &line);
        assert_eq!(code, 1, "{line}: {stderr}");
        assert!(stderr.contains("--error-rate"), "{line}: {stderr}");
    }
}

/// A zero `--time-step` never advances the control loop (`run` and
/// `inspect` used to hang on it): exit 1 naming the flag.
#[test]
fn a_zero_time_step_exits_1_naming_the_flag() {
    for cmd in ["run --design secded", "inspect"] {
        let line = format!("{cmd} --rate 0.02 --ppn 2 --time-step 0");
        let (code, _, stderr) = intellinoc(".", &line);
        assert_eq!(code, 1, "{line}: {stderr}");
        assert!(stderr.contains("--time-step"), "{line}: {stderr}");
    }
}

/// Every command that takes a rate holds it to `BenchSpec`'s one rule,
/// finite in (0, 1]: a rate of 0 or `NaN` injects nothing, and its runs
/// used to spin to their cycle budget (`sweep`, `campaign`) or report zero
/// packets as a success (`run`, `inspect`). A packet budget of 0 per node
/// injects nothing either, and is refused by every command that takes one.
#[test]
fn a_rate_outside_0_1_exits_1_with_the_rate_rule() {
    let mut cases = Vec::new();
    for rate in ["0", "nan"] {
        for cmd in [
            format!("run --design secded --rate {rate} --ppn 2"),
            format!("inspect --rate {rate} --ppn 2"),
            format!("sweep --design secded --rates 0.01,{rate} --ppn 2"),
            format!("campaign --rate {rate} --ppn 2"),
        ] {
            cases.push((cmd, "rate must be finite in (0, 1], got "));
        }
    }
    let trace = std::env::temp_dir().join(format!("intellinoc-ppn0-{}.jsonl", std::process::id()));
    for cmd in [
        "run --design secded --rate 0.02 --ppn 0".to_owned(),
        "inspect --rate 0.02 --ppn 0".to_owned(),
        "sweep --design secded --rates 0.01 --ppn 0".to_owned(),
        format!("trace capture {} --benchmark dedup --ppn 0", trace.display()),
        "campaign --ppn 0".to_owned(),
        "bench record --designs secded --rates 0.05 --seeds 1 --ppn 0".to_owned(),
    ] {
        cases.push((cmd, "invalid --ppn: packets per node must be at least 1, got 0"));
    }
    for (cmd, rule) in cases {
        let (code, _, stderr) = intellinoc(".", &cmd);
        assert_eq!(code, 1, "{cmd}: {stderr}");
        assert!(stderr.contains(rule), "{cmd}: {stderr}");
    }
    assert!(!trace.exists(), "a refused capture writes no trace");
}

/// A campaign refuses a fault count above the 8×8 mesh's 112 links, which
/// it used to run as every link faulty under the count it was asked for.
#[test]
fn a_fault_count_above_the_mesh_links_exits_1_naming_the_flag() {
    for (flags, named) in [
        ("--dead-links 0,113", "--dead-links entry 113 exceeds the 112 links of the 8x8 mesh"),
        ("--flapping 500", "--flapping 500 exceeds the 112 links of the 8x8 mesh"),
    ] {
        let cmd = format!("campaign --ppn 2 {flags}");
        let (code, _, stderr) = intellinoc(".", &cmd);
        assert_eq!(code, 1, "{cmd}: {stderr}");
        assert!(stderr.contains(named), "{cmd}: {stderr}");
    }
}

#[test]
fn sweep_command_executes() {
    ok(".", "sweep --design secded --rates 0.01,0.02 --ppn 5");
}

#[test]
fn sweep_accepts_runner_flags_and_rejects_bare_resume() {
    ok(".", "sweep --design secded --rates 0.01,0.02 --ppn 4 --jobs 2");
    let (code, _, err) = intellinoc(".", "sweep --design secded --rates 0.01 --ppn 4 --resume");
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("--journal"), "{err}");
}

/// An option no command reads — a removed flag, a typo — is named on
/// stderr instead of being dropped; the exit code does not change.
#[test]
fn unused_options_are_reported_not_silently_ignored() {
    let (code, _, stderr) = intellinoc(
        ".",
        "run --design secded --rate 0.01 --ppn 2 --metrics-addr 127.0.0.1:0 --max-cycle 10",
    );
    assert_eq!(code, 0, "{stderr}");
    for name in ["metrics-addr", "max-cycle"] {
        let line = format!("warning: --{name} was not used by run");
        assert!(stderr.contains(&line), "no `{line}` in:\n{stderr}");
    }
    assert_eq!(stderr.matches("warning:").count(), 2, "{stderr}");
}

/// A journal the parent build wrote (its records still carry `attempts`)
/// resumes to the merged report of a fresh run, every unit reused from it:
/// the serialized report and the rendered table are byte-identical.
#[test]
fn a_parent_written_journal_resumes_to_the_fresh_report() {
    use intellinoc::{load_sweep_cells, run_grid, ChaosOptions, RunnerConfig, UnitSinks};

    let dir = scratch("parent-journal");
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/parent_sweep_journal.jsonl");
    let journal = dir.join("j.jsonl");
    let cells = load_sweep_cells(Design::Secded, &[0.01, 0.02, 0.04], 2, 7, None);
    let grid = |rcfg: &RunnerConfig| {
        run_grid(&cells, rcfg, &ChaosOptions::default(), UnitSinks::default()).unwrap()
    };
    std::fs::copy(fixture, &journal).unwrap();
    let resume =
        RunnerConfig { journal: Some(journal.clone()), resume: true, ..Default::default() };
    let resumed = grid(&resume);
    assert!(resumed.records.iter().all(|r| r.from_journal), "every unit comes from the journal");
    let json = |r| serde_json::to_string(r).unwrap();
    assert_eq!(json(&resumed), json(&grid(&RunnerConfig::serial())));

    std::fs::copy(fixture, &journal).unwrap();
    let sweep = "sweep --design secded --rates 0.01,0.02,0.04 --ppn 2 --seed 7";
    let (code, fresh, _) = intellinoc(".", sweep);
    assert_eq!(code, 0);
    let (code, resumed, stderr) =
        intellinoc(".", &format!("{sweep} --journal {} --resume", journal.display()));
    assert_eq!((code, resumed.as_str()), (0, fresh.as_str()), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A parent-written journal missing two units resumes twice: the first
/// resume runs them and appends sealed records to the unsealed log, the
/// second reads both kinds back and reuses every unit. Both merged reports
/// equal a fresh run's.
#[test]
fn a_parent_written_journal_resumed_twice_reuses_what_the_first_resume_appended() {
    use intellinoc::{load_sweep_cells, run_grid, ChaosOptions, RunnerConfig, UnitSinks};

    let dir = scratch("parent-resume2");
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/parent_sweep_journal.jsonl");
    let journal = dir.join("j.jsonl");
    let text = std::fs::read_to_string(fixture).unwrap();
    let kept: String = text.lines().take(2).map(|l| l.to_owned() + "\n").collect();
    std::fs::write(&journal, kept).unwrap();

    let cells = load_sweep_cells(Design::Secded, &[0.01, 0.02, 0.04], 2, 7, None);
    let grid = |rcfg: &RunnerConfig| {
        run_grid(&cells, rcfg, &ChaosOptions::default(), UnitSinks::default()).unwrap()
    };
    let fresh = grid(&RunnerConfig::serial());
    let json = |r| serde_json::to_string(r).unwrap();
    let fresh = json(&fresh);
    let resume =
        RunnerConfig { journal: Some(journal.clone()), resume: true, ..Default::default() };
    let first = grid(&resume);
    let reused: Vec<bool> = first.records.iter().map(|r| r.from_journal).collect();
    assert_eq!(reused, [true, false, false]);
    assert_eq!(json(&first), fresh);
    let second = grid(&resume);
    assert!(second.records.iter().all(|r| r.from_journal), "every unit comes from the journal");
    assert_eq!(json(&second), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_with_chaos_panic_reports_partial_outcome() {
    let (code, _, err) = intellinoc(
        ".",
        "campaign --rate 0.01 --ppn 4 --seed 3 --dead-links 0 --no-router-fail --flapping 0 \
         --max-cycles 60000 --jobs 2 --force-panic fault-free/EB",
    );
    assert_eq!(code, 2, "{err}");
}

#[test]
fn area_and_list_always_succeed() {
    ok(".", "list");
}

/// The conservation auditor reads the run's books: an orphaned transaction
/// is named on stderr and, with the flight recorder armed, dumped as a
/// `conservation` bundle whose post-mortem lists the orphan (`inspect`
/// arms the same recorder); a clean closed-loop run dumps nothing.
#[test]
fn unbalanced_books_dump_a_conservation_bundle_and_clean_ones_none() {
    let dir = scratch("cli-auditor");
    let run = "run --design secded --workload reqreply --rate 0.02 --ppn 4 --seed 3";
    let clean = dir.join("clean");
    let (code, _, stderr) = intellinoc(".", &format!("{run} --out-dir {}", clean.display()));
    assert_eq!(code, 0, "{stderr}");
    assert!(!stderr.contains("auditor"), "{stderr}");
    assert!(!clean.join("postmortem-run_SECDED.jsonl").exists(), "a clean run writes no bundle");

    let bb = dir.join("orphan");
    let (code, _, stderr) =
        intellinoc(".", &format!("{run} --chaos-orphan 0 --out-dir {}", bb.display()));
    assert_eq!(code, 0, "{stderr}");
    let line = "transaction-conservation auditor: 1 violations, orphaned txns [0]";
    assert!(stderr.contains(line), "no `{line}` in:\n{stderr}");
    let bundle = bb.join("postmortem-run_SECDED.jsonl");
    let text = std::fs::read_to_string(&bundle).expect("conservation bundle");
    let head = text.lines().next().unwrap();
    assert!(head.contains(r#""cause":"conservation""#), "{head}");
    let (code, report, stderr) = intellinoc(".", &format!("postmortem {}", bundle.display()));
    assert_eq!(code, 0, "{stderr}");
    assert!(report.contains("orphaned-txns"), "{report}");

    let inspected = dir.join("inspect");
    let line = format!("{run} --chaos-orphan 0 --out-dir {}", inspected.display());
    let (code, _, stderr) = intellinoc(".", &line.replacen("run", "inspect", 1));
    assert_eq!(code, 0, "{stderr}");
    let text = std::fs::read_to_string(inspected.join("postmortem-inspect_SECDED.jsonl"))
        .expect("inspect's conservation bundle");
    let head = text.lines().next().unwrap();
    assert!(head.contains(r#""cause":"conservation""#), "{head}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inspect_command_writes_every_artifact() {
    let dir = scratch("cli-inspect-test");
    ok(&dir, "inspect --rate 0.02 --ppn 5 --seed 9 --time-step 200 --out-dir .");
    let report = read(&dir, "report.md");
    assert!(report.contains("## Latency attribution"));
    assert!(report.contains("## RL decisions"));
    let links = read(&dir, "heatmaps/links.csv");
    assert_eq!(links.lines().count(), 113, "header + 112 links");
    for grid in ["router_utilization", "router_retx", "router_gate_residency", "router_temperature"]
    {
        let g = read(&dir, &format!("heatmaps/{grid}.csv"));
        assert_eq!(g.lines().count(), 8, "{grid} is an 8x8 grid");
    }
    let decisions = read(&dir, "decisions.jsonl");
    assert!(decisions.lines().count() >= 64, "at least one decision per router");
    let conv = read(&dir, "convergence.csv");
    assert!(conv.starts_with("cycle,decisions,explorations,updates"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two `inspect` runs at one seed write the same report, decision log,
/// convergence samples and heatmaps, byte for byte.
#[test]
fn inspect_artifacts_repeat_byte_for_byte() {
    let dir = scratch("cli-inspect");
    let (a, b) = (dir.join("a"), dir.join("b"));
    for out in [&a, &b] {
        let line = format!("inspect --rate 0.02 --ppn 10 --seed 3 --out-dir {}", out.display());
        let (code, _, stderr) = intellinoc(".", &line);
        assert_eq!(code, 0, "{stderr}");
    }
    let heatmaps: Vec<String> = std::fs::read_dir(a.join("heatmaps"))
        .expect("heatmaps written")
        .map(|e| format!("heatmaps/{}", e.expect("dir entry").file_name().to_string_lossy()))
        .collect();
    assert_eq!(heatmaps.len(), 5, "four grids and links.csv: {heatmaps:?}");
    let fixed = ["report.md", "decisions.jsonl", "convergence.csv"].map(String::from);
    for name in fixed.iter().chain(&heatmaps) {
        let read = |dir: &std::path::Path| std::fs::read(dir.join(name)).expect("artifact");
        assert!(read(&a) == read(&b), "{name} differs between two runs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inspect_on_static_design_skips_rl_sections() {
    let dir = scratch("cli-inspect-static");
    ok(&dir, "inspect --design secded --rate 0.02 --ppn 3 --seed 2 --out-dir .");
    let report = read(&dir, "report.md");
    assert!(report.contains("## Latency attribution"));
    assert!(!report.contains("## RL decisions"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A profiled grid with `--workload reqreply` used to parse the closed-loop
/// flags and then profile open-loop traffic. Same seed: the closed-loop
/// cycle-domain span table is reproducible and differs from the open-loop
/// one.
#[test]
fn profile_honours_the_closed_loop_workload() {
    let dir = scratch("cli-profile-reqreply");
    let table = |name: &str, workload: &str| {
        ok(
            &dir,
            &format!(
                "bench record --designs secded --rates 0.02 --seeds 1 --ppn 4 --seed 5 \
                 {workload} --profile --out-dir {name}"
            ),
        );
        read(&dir, &format!("{name}/spans.txt"))
    };
    let open = table("open", "");
    let closed = table("closed", "--workload reqreply --reply-timeout 600");
    assert_eq!(closed, table("closed2", "--workload reqreply --reply-timeout 600"));
    assert_ne!(open, closed, "--workload reqreply must change what is profiled");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trace `examples/trace_roundtrip.rs` replays, captured and replayed
/// through the binary: every design, each under its own controller (CPD's
/// heuristic, IntelliNoC's agents), drains it and exits 0; a replay that did
/// not drain would print `INCOMPLETE` and exit 2.
#[test]
fn trace_capture_then_replay() {
    let dir = scratch("cli-test");
    let path = dir.join("t.jsonl");
    let path = path.to_str().unwrap();
    let (code, _, stderr) =
        intellinoc(".", &format!("trace capture {path} --benchmark ferret --ppn 60 --seed 77"));
    assert_eq!(code, 0, "{stderr}");
    for design in ["secded", "eb", "cp", "cpd", "intellinoc"] {
        let (code, stdout, stderr) =
            intellinoc(".", &format!("trace replay {path} --design {design} --seed 77"));
        assert_eq!(code, 0, "{design}: {stderr}");
        assert!(stdout.trim_end().ends_with(", complete"), "{design}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The replay line of a captured ferret trace on each design whose network
/// runs without a controller, pinned byte for byte. The capture stream itself
/// is pinned by `noc-traffic`'s `stream_bytes` test.
#[test]
fn trace_replay_prints_the_pinned_line_per_design() {
    let dir = scratch("cli-replay-pin");
    let path = dir.join("ferret.jsonl");
    let path = path.to_str().unwrap();
    let (code, stdout, stderr) =
        intellinoc(".", &format!("trace capture {path} --benchmark ferret --ppn 20 --seed 4"));
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, format!("captured 1280 records to {path}\n"));
    for (design, want) in [
        ("secded", "replayed 1280 packets on SECDED: exec=1627 cycles, avg latency 61.9, complete"),
        ("eb", "replayed 1280 packets on EB: exec=1622 cycles, avg latency 31.2, complete"),
        ("cp", "replayed 1280 packets on CP: exec=1655 cycles, avg latency 44.1, complete"),
    ] {
        let (code, stdout, stderr) =
            intellinoc(".", &format!("trace replay {path} --design {design}"));
        assert_eq!(code, 0, "{design}: {stderr}");
        assert_eq!(stdout, format!("{want}\n"), "{design}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace naming a node outside the 8x8 mesh is refused with exit 1 and
/// its first such record, instead of panicking.
#[test]
fn trace_replay_refuses_records_outside_the_mesh() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/hostile_trace.jsonl");
    let (code, _, stderr) = intellinoc(".", &format!("trace replay {fixture} --design secded"));
    assert_eq!(code, 1, "{stderr}");
    let want = "record 1 is outside the mesh of 64 nodes: TraceRecord { cycle: 0, src: 0, dest: 64";
    assert!(stderr.contains(want), "no `{want}` in:\n{stderr}");
}

/// A record at or past the 2 000 000-cycle budget can never inject: the
/// replay leaves it out, names the count on stderr, and still reports the
/// replay as incomplete (exit 2) without simulating up to the budget.
#[test]
fn trace_replay_leaves_out_records_past_the_cycle_budget() {
    let dir = scratch("cli-late");
    let path = dir.join("late.jsonl");
    std::fs::write(
        &path,
        "{\"cycle\":0,\"src\":0,\"dest\":63,\"size_flits\":4}\n\
         {\"cycle\":3000000,\"src\":1,\"dest\":62,\"size_flits\":4}\n",
    )
    .unwrap();
    let start = std::time::Instant::now();
    let (code, stdout, stderr) =
        intellinoc(".", &format!("trace replay {} --design secded", path.display()));
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.starts_with("replayed 1 packets on SECDED"), "{stdout}");
    assert!(stdout.trim_end().ends_with(", INCOMPLETE"), "{stdout}");
    let note = "left out 1 records at or past the 2000000-cycle budget";
    assert!(stderr.contains(note), "no `{note}` in:\n{stderr}");
    assert!(start.elapsed().as_secs() < 10, "the replay simulated up to the budget");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the spawned daemon on drop so a failing test leaves no orphan.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `intellinoc serve` on a free port over `state_dir`, with `extra`
/// arguments; its stderr goes to `<port_file>.log`.
fn spawn_serve(
    state_dir: &std::path::Path,
    port_file: &std::path::Path,
    extra: &[&str],
) -> KillOnDrop {
    let log = std::fs::File::create(port_file.with_extension("log")).expect("create daemon log");
    let mut cmd = std::process::Command::new(BIN);
    cmd.arg("serve")
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(port_file)
        .arg("--chunk-units")
        .arg("1")
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(log);
    KillOnDrop(cmd.spawn().expect("spawn intellinoc serve"))
}

/// Whether the daemon exits within a minute.
fn exits(child: &mut KillOnDrop) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while std::time::Instant::now() < deadline {
        if let Ok(Some(_)) = child.0.try_wait() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    false
}

fn wait_port_file(path: &std::path::Path) -> String {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            let addr = addr.trim().to_owned();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(std::time::Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[test]
fn serve_survives_kill_nine_and_resumes_to_reference_report() {
    use intellinoc::{http_request, reference_report_csv, JobSpec, JobStatus, SubmitRequest};

    let dir = scratch("cli-serve");
    let state = dir.join("state");
    let port_file = dir.join("port");

    let spec = JobSpec {
        name: "kill9".to_owned(),
        designs: vec!["secded".to_owned(), "eb".to_owned()],
        rates: vec![0.005, 0.01],
        ppn: 2,
        seed: 7,
        max_cycles: 50_000,
        reqreply: None,
        journeys_every: 0,
    };

    let child = spawn_serve(&state, &port_file, &[]);
    let addr = wait_port_file(&port_file);
    let body = serde_json::to_string(&SubmitRequest {
        tenant: "alice".to_owned(),
        priority: 0,
        paused: false,
        spec: spec.clone(),
    })
    .unwrap();
    let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).unwrap();
    assert_eq!(code, 202, "{resp}");
    let id = serde_json::from_str::<intellinoc::SubmitResponse>(&resp).unwrap().id;

    // Let the job start making progress, then kill -9 mid-flight.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Ok((200, body)) = http_request(&addr, "GET", &format!("/api/jobs/{id}"), None) {
            let status: JobStatus = serde_json::from_str(&body).unwrap();
            if status.units_done >= 1 {
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "job made no progress");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    drop(child); // SIGKILL — no destructors, no graceful shutdown

    // Restart over the same state dir: the WAL replays the accepted job
    // and the journal resumes it to a byte-identical report.
    let _ = std::fs::remove_file(&port_file);
    let child = spawn_serve(&state, &port_file, &["--resume"]);
    let addr = wait_port_file(&port_file);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if let Ok((200, body)) = http_request(&addr, "GET", &format!("/api/jobs/{id}"), None) {
            let status: JobStatus = serde_json::from_str(&body).unwrap();
            if status.state == "done" {
                break;
            }
            assert_ne!(status.state, "failed", "{status:?}");
        }
        assert!(std::time::Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let (code, csv) = http_request(&addr, "GET", &format!("/api/jobs/{id}/report"), None).unwrap();
    assert_eq!(code, 200);
    assert_eq!(csv, reference_report_csv(&spec).unwrap());

    let (code, _) = http_request(&addr, "POST", "/api/drain", None).unwrap();
    assert_eq!(code, 200);
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The grid CI's `serve-smoke` job submits: 2 designs × 2 rates, 2 packets
/// per node.
fn smoke_spec(name: &str) -> intellinoc::JobSpec {
    intellinoc::JobSpec {
        name: name.to_owned(),
        designs: vec!["secded".to_owned(), "eb".to_owned()],
        rates: vec![0.005, 0.01],
        ppn: 2,
        seed: 7,
        max_cycles: 50_000,
        reqreply: None,
        journeys_every: 0,
    }
}

/// The smoke grid's report, recorded at commit `756e023`. The report does
/// not carry the job name, so every daemon run of the grid must serve these
/// bytes, however often it crashed and resumed.
const SERVE_SMOKE_CSV: &str = include_str!("fixtures/serve_smoke.csv");

#[test]
fn serve_smoke_reference_report_is_pinned() {
    assert_eq!(intellinoc::reference_report_csv(&smoke_spec("smoke")).unwrap(), SERVE_SMOKE_CSV);
}

/// Submits the smoke grid twice (tenants `alice` and `bob`); `false` as
/// soon as the daemon's death shows through the socket.
fn submit_smoke_jobs(addr: &str) -> bool {
    for (j, tenant) in ["alice", "bob"].into_iter().enumerate() {
        let body = serde_json::to_string(&intellinoc::SubmitRequest {
            tenant: tenant.to_owned(),
            priority: j as i64,
            paused: false,
            spec: smoke_spec(&format!("smoke-{j}")),
        })
        .unwrap();
        match intellinoc::http_request(addr, "POST", "/api/jobs", Some(&body)) {
            Ok((200 | 202, _)) => {}
            Ok((code, resp)) => panic!("submission rejected: HTTP {code}: {resp}"),
            Err(_) => return false,
        }
    }
    true
}

/// Every chaos kill point, armed at its first and then its second hit. A
/// killed daemon restarts with `--resume` and the client resubmits both
/// jobs (resubmits are idempotent); a pool panic is absorbed in-process by
/// the supervisor. Each time both jobs finish, none is lost or counted
/// twice, and both reports equal the pinned smoke report.
#[test]
fn serve_recovers_from_every_chaos_kill_point() {
    use intellinoc::{http_request, ChaosPoint, JobsSummary};

    let root = scratch("cli-chaos");
    for point in ChaosPoint::ALL {
        for after in [1, 2] {
            let kill = format!("{}:{after}", point.label());
            let dir = root.join(format!("{}-{after}", point.label()));
            std::fs::create_dir_all(&dir).unwrap();
            let state = dir.join("state");
            let port = dir.join("port-1");
            let mut child = spawn_serve(&state, &port, &["--chaos-kill", &kill]);
            let mut addr = wait_port_file(&port);
            let submitted = submit_smoke_jobs(&addr);
            if point == ChaosPoint::PoolPanic {
                assert!(submitted, "{kill}: a pool panic killed the daemon (see {dir:?})");
            } else {
                assert!(exits(&mut child), "{kill}: the daemon outlived its kill point");
                let port = dir.join("port-2");
                child = spawn_serve(&state, &port, &["--resume"]);
                addr = wait_port_file(&port);
                assert!(submit_smoke_jobs(&addr), "{kill}: the resumed daemon died");
            }

            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
            let summary = loop {
                let (_, body) = http_request(&addr, "GET", "/api/jobs", None).unwrap();
                let summary: JobsSummary = serde_json::from_str(&body).unwrap();
                if summary.queued == 0 && summary.running == 0 {
                    break summary;
                }
                assert!(std::time::Instant::now() < deadline, "{kill}: jobs stuck: {summary:?}");
                std::thread::sleep(std::time::Duration::from_millis(20));
            };
            assert_eq!(summary.accepted, 2, "{kill}: {summary:?}");
            assert_eq!(
                summary.done + summary.failed + summary.cancelled,
                summary.accepted,
                "{kill}: {summary:?}"
            );
            for job in &summary.jobs {
                assert_eq!(job.state, "done", "{kill}: {job:?}");
                let (code, csv) =
                    http_request(&addr, "GET", &format!("/api/jobs/{}/report", job.id), None)
                        .unwrap();
                assert_eq!((code, csv.as_str()), (200, SERVE_SMOKE_CSV), "{kill}: {}", job.id);
            }
            if point == ChaosPoint::PoolPanic {
                let (_, metrics) = http_request(&addr, "GET", "/metrics", None).unwrap();
                let restarts = metrics
                    .lines()
                    .find_map(|l| l.strip_prefix("noc_serve_restarts_total "))
                    .and_then(|v| v.parse::<f64>().ok());
                assert!(restarts >= Some(1.0), "{kill}: no restart counted:\n{metrics}");
            }
            let (code, _) = http_request(&addr, "POST", "/api/drain", None).unwrap();
            assert_eq!(code, 200, "{kill}");
            assert!(exits(&mut child), "{kill}: the daemon did not drain");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `--tenant-quota` went with tenant quotas: serve still starts, drains
/// and exits 0, naming the option it did not read.
#[test]
fn serve_warns_about_a_removed_option_and_still_drains() {
    let dir = scratch("cli-quota");
    let port = dir.join("port");
    let mut child = spawn_serve(&dir.join("state"), &port, &["--tenant-quota", "1"]);
    let addr = wait_port_file(&port);
    let (code, _) = intellinoc::http_request(&addr, "POST", "/api/drain", None).unwrap();
    assert_eq!(code, 200);
    let status = child.0.wait().unwrap();
    let stderr = std::fs::read_to_string(port.with_extension("log")).unwrap();
    assert!(status.success(), "{stderr}");
    assert!(stderr.contains("warning: --tenant-quota was not used by serve"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
