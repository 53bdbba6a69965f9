//! The grid commands under the execution engine, driven through the binary:
//! serial against parallel runs, a journal resumed at another worker count,
//! forced timeouts, closed-loop campaigns whose auditor trips or whose
//! timed-out cell leaves a post-mortem bundle, and bench grids whose dying
//! units still reach the runner log. Exit codes: 0 clean, 1 a usage error, a
//! tripped auditor or a bench grid that cannot fold, 2 partial results.

mod common;

use common::{intellinoc, read, scratch};
use noc_sim::parse_bundle;
use std::path::PathBuf;

/// The open-loop fault campaign: 2 scenarios × 5 designs.
const CAMPAIGN: &str = "campaign --ppn 4 --seed 3 --rate 0.01 --dead-links 0,1 \
    --no-router-fail --flapping 0 --max-cycles 60000";

/// The closed-loop campaign over two dead links, 2 scenarios × 5 designs.
const CLOSED_LOOP: &str = "campaign --workload reqreply --rate 0.01 --ppn 3 --seed 3 \
    --dead-links 0,1 --no-router-fail --flapping 0";

/// The sweep of three rates.
const SWEEP: &str = "sweep --design secded --rates 0.01,0.02,0.04 --ppn 8";

/// A forced timeout at four workers: the healthy cells complete, the exit
/// code is partial, and the timed-out cell keeps its row. The journal
/// resumed at two workers re-runs nothing and reproduces the CSV byte for
/// byte.
#[test]
fn a_forced_timeout_exits_partial_and_its_journal_resumes_byte_for_byte() {
    let dir = scratch("grid-smoke-resume");
    let grid = format!("{CAMPAIGN} --force-timeout fault-free/SECDED --journal j.jsonl");
    let (code, _, _) = intellinoc(&dir, &format!("{grid} --jobs 4 --out-dir partial"));
    assert_eq!(code, 2, "a partial grid exits 2");
    let partial = read(&dir, "partial/campaign.csv");
    assert!(partial.lines().any(|l| l.ends_with(",timed-out")), "{partial}");
    let (code, _, _) = intellinoc(&dir, &format!("{grid} --jobs 2 --resume --out-dir resumed"));
    assert_eq!(code, 2, "the resumed grid is still partial");
    assert_eq!(read(&dir, "resumed/campaign.csv"), partial);
    // The resumed log names each unit once, as resumed, with its CSV status.
    let statuses: Vec<String> = partial
        .lines()
        .skip(1)
        .map(|row| format!("\"status\":\"{}\"}}", row.rsplit(',').next().unwrap()))
        .collect();
    let log = read(&dir, "resumed/runner.jsonl");
    let resumed: Vec<&str> = log.lines().collect();
    assert_eq!(resumed.len(), statuses.len(), "{log}");
    for (line, status) in resumed.iter().zip(&statuses) {
        assert!(line.starts_with("{\"event\":\"unit-resumed\""), "{line}");
        assert!(line.ends_with(status.as_str()), "{line} vs {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without chaos the serial and the four-worker campaigns write equal CSVs
/// and equal runner logs.
#[test]
fn serial_and_parallel_campaign_csvs_are_equal() {
    let dir = scratch("grid-smoke-campaign-jobs");
    for (jobs, out) in [(1, "serial"), (4, "parallel")] {
        let (code, _, _) = intellinoc(&dir, &format!("{CAMPAIGN} --jobs {jobs} --out-dir {out}"));
        assert_eq!(code, 0, "--jobs {jobs}");
    }
    for file in ["campaign.csv", "runner.jsonl"] {
        assert_eq!(read(&dir, &format!("parallel/{file}")), read(&dir, &format!("serial/{file}")));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep's table is the same at one and two workers; a forced timeout
/// on one rate exits partial and that rate keeps its row.
#[test]
fn sweep_tables_match_across_workers_and_a_timeout_keeps_its_row() {
    let dir = scratch("grid-smoke-sweep");
    let (code, one, _) = intellinoc(&dir, &format!("{SWEEP} --jobs 1"));
    assert_eq!(code, 0);
    let (code, two, _) = intellinoc(&dir, &format!("{SWEEP} --jobs 2"));
    assert_eq!(code, 0);
    assert_eq!(two, one);
    let (code, table, _) = intellinoc(&dir, &format!("{SWEEP} --force-timeout r0.02"));
    assert_eq!(code, 2, "a partial sweep exits 2");
    let timed_out = |l: &str| l.trim_start().starts_with("0.0200 ") && l.ends_with(" timed-out");
    assert!(table.lines().any(timed_out), "{table}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The closed-loop smoke campaign (router death at cycle 300, two dead
/// links, one flapping link) at four workers renders the serial run's
/// pinned CSV, transaction columns included.
#[test]
fn parallel_closed_loop_campaign_matches_the_serial_fixture() {
    let dir = scratch("grid-smoke-closedloop-jobs");
    let (code, _, _) = intellinoc(
        &dir,
        "campaign --workload reqreply --rate 0.01 --ppn 3 --seed 3 --dead-links 0,1 \
         --router-fail 300 --flapping 1 --max-cycles 200000 --reply-timeout 400 \
         --max-req-retries 2 --req-backoff-base 16 --req-backoff-cap 128 --jobs 4 --out-dir o",
    );
    assert_eq!(code, 0);
    assert_eq!(read(&dir, "o/campaign.csv"), include_str!("fixtures/closedloop_smoke.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Orphaning transaction 0 in every cell trips the auditor (exit 1), and
/// the CSV is still written, its cells `ok`.
#[test]
fn an_orphaning_closed_loop_campaign_exits_1_and_still_writes_its_csv() {
    let dir = scratch("grid-smoke-closedloop-orphan");
    let line = format!("{CLOSED_LOOP} --max-cycles 200000 --chaos-orphan 0 --out-dir o");
    let (code, _, _) = intellinoc(&dir, &line);
    assert_eq!(code, 1, "the auditor trips");
    let csv = read(&dir, "o/campaign.csv");
    assert!(csv.lines().any(|l| l.ends_with(",ok")), "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forced timeout in a closed-loop campaign exits partial, not 1 (the
/// timed-out cell has no payload to audit), and leaves exactly one
/// post-mortem bundle, of cause `timeout`.
#[test]
fn a_closed_loop_forced_timeout_leaves_one_bundle() {
    let dir = scratch("grid-smoke-closedloop-timeout");
    let line =
        format!("{CLOSED_LOOP} --max-cycles 60000 --force-timeout fault-free/SECDED --out-dir bb");
    let (code, _, _) = intellinoc(&dir, &line);
    assert_eq!(code, 2, "a partial grid exits 2");
    let bundles: Vec<PathBuf> = std::fs::read_dir(dir.join("bb"))
        .expect("bundle dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("postmortem-")))
        .collect();
    assert_eq!(bundles.len(), 1, "{bundles:?}");
    let name = bundles[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(name.ends_with(".jsonl"), "{name}");
    let text = std::fs::read_to_string(&bundles[0]).expect("read bundle");
    assert_eq!(parse_bundle(&text).expect("bundle parses").cause, "timeout");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bench grid with dying units cannot fold into a baseline, so `record`
/// and `compare` exit 1, but only after the grid epilogue: `runner.jsonl`
/// holds a `postmortem-dumped` line for each dying unit, naming its bundle.
#[test]
fn a_bench_grid_with_dying_units_exits_1_after_its_runner_log() {
    let dir = scratch("grid-smoke-bench-panic");
    let (code, _, _) = intellinoc(&dir, "bench record --grid ci --name ci --out-dir base");
    assert_eq!(code, 0, "the clean baseline");
    for (out, line) in [
        ("record", "bench record --grid ci --name ci"),
        ("compare", "bench compare --baseline base/BENCH_ci.json"),
    ] {
        let (code, _, _) =
            intellinoc(&dir, &format!("{line} --force-panic SECDED --out-dir {out}"));
        assert_eq!(code, 1, "{line}: no baseline folds from a failed unit");
        let log = read(&dir, &format!("{out}/runner.jsonl"));
        for seed in 0..3 {
            let key = format!("bench/SECDED/r0.1/s{seed}");
            let dumped = format!(
                "{{\"event\":\"postmortem-dumped\",\"key\":\"{key}\",\"cause\":\"panic\",\
                 \"path\":\"{out}/postmortem-bench_SECDED_r0.1_s{seed}.jsonl\"}}"
            );
            assert!(log.lines().any(|l| l == dumped), "{line}: no `{dumped}` in\n{log}");
            let bundle = read(&dir, &format!("{out}/postmortem-bench_SECDED_r0.1_s{seed}.jsonl"));
            assert_eq!(parse_bundle(&bundle).expect("bundle parses").key, key);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
