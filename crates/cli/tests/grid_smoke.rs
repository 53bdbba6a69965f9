//! The grid commands under the execution engine, driven through the binary:
//! serial against parallel runs, a journal resumed at another worker count,
//! forced timeouts, and closed-loop campaigns whose auditor trips or whose
//! timed-out cell leaves a post-mortem bundle. Exit codes: 0 clean, 1 a
//! usage error or a tripped auditor, 2 partial results.

use noc_sim::parse_bundle;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intellinoc-grid-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `intellinoc` binary with `line` split on whitespace, in `cwd`;
/// returns its exit code and stdout.
fn intellinoc(cwd: &Path, line: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_intellinoc"))
        .args(line.split_whitespace())
        .current_dir(cwd)
        .output()
        .expect("spawn intellinoc");
    (out.status.code().expect("exit code"), String::from_utf8(out.stdout).expect("utf8 stdout"))
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

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
    let dir = scratch("resume");
    let grid = format!("{CAMPAIGN} --force-timeout fault-free/SECDED --journal j.jsonl");
    let (code, _) = intellinoc(&dir, &format!("{grid} --jobs 4 --csv-out partial.csv"));
    assert_eq!(code, 2, "a partial grid exits 2");
    let partial = read(&dir, "partial.csv");
    assert!(partial.lines().any(|l| l.ends_with(",timed-out")), "{partial}");
    let (code, _) = intellinoc(&dir, &format!("{grid} --jobs 2 --resume --csv-out resumed.csv"));
    assert_eq!(code, 2, "the resumed grid is still partial");
    assert_eq!(read(&dir, "resumed.csv"), partial);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without chaos the serial and the four-worker campaign CSVs are equal.
#[test]
fn serial_and_parallel_campaign_csvs_are_equal() {
    let dir = scratch("campaign-jobs");
    for (jobs, csv) in [(1, "serial.csv"), (4, "parallel.csv")] {
        let (code, _) = intellinoc(&dir, &format!("{CAMPAIGN} --jobs {jobs} --csv-out {csv}"));
        assert_eq!(code, 0, "--jobs {jobs}");
    }
    assert_eq!(read(&dir, "parallel.csv"), read(&dir, "serial.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep's table is the same at one and two workers; a forced timeout
/// on one rate exits partial and that rate keeps its row.
#[test]
fn sweep_tables_match_across_workers_and_a_timeout_keeps_its_row() {
    let dir = scratch("sweep");
    let (code, one) = intellinoc(&dir, &format!("{SWEEP} --jobs 1"));
    assert_eq!(code, 0);
    let (code, two) = intellinoc(&dir, &format!("{SWEEP} --jobs 2"));
    assert_eq!(code, 0);
    assert_eq!(two, one);
    let (code, table) = intellinoc(&dir, &format!("{SWEEP} --force-timeout r0.02"));
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
    let dir = scratch("closedloop-jobs");
    let (code, _) = intellinoc(
        &dir,
        "campaign --workload reqreply --rate 0.01 --ppn 3 --seed 3 --dead-links 0,1 \
         --router-fail 300 --flapping 1 --max-cycles 200000 --reply-timeout 400 \
         --max-req-retries 2 --req-backoff-base 16 --req-backoff-cap 128 --jobs 4 --csv-out c.csv",
    );
    assert_eq!(code, 0);
    assert_eq!(read(&dir, "c.csv"), include_str!("fixtures/closedloop_smoke.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Orphaning transaction 0 in every cell trips the auditor (exit 1), and
/// the CSV is still written, its cells `ok`.
#[test]
fn an_orphaning_closed_loop_campaign_exits_1_and_still_writes_its_csv() {
    let dir = scratch("closedloop-orphan");
    let line = format!("{CLOSED_LOOP} --max-cycles 200000 --chaos-orphan 0 --csv-out o.csv");
    let (code, _) = intellinoc(&dir, &line);
    assert_eq!(code, 1, "the auditor trips");
    let csv = read(&dir, "o.csv");
    assert!(csv.lines().any(|l| l.ends_with(",ok")), "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forced timeout in a closed-loop campaign exits partial, not 1 (the
/// timed-out cell has no payload to audit), and leaves exactly one
/// post-mortem bundle, of cause `timeout`.
#[test]
fn a_closed_loop_forced_timeout_leaves_one_bundle() {
    let dir = scratch("closedloop-timeout");
    let line = format!(
        "{CLOSED_LOOP} --max-cycles 60000 --force-timeout fault-free/SECDED --blackbox-dir bb \
         --csv-out t.csv"
    );
    let (code, _) = intellinoc(&dir, &line);
    assert_eq!(code, 2, "a partial grid exits 2");
    let bundles: Vec<PathBuf> = std::fs::read_dir(dir.join("bb"))
        .expect("bundle dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(bundles.len(), 1, "{bundles:?}");
    let name = bundles[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(name.starts_with("postmortem-") && name.ends_with(".jsonl"), "{name}");
    let text = std::fs::read_to_string(&bundles[0]).expect("read bundle");
    assert_eq!(parse_bundle(&text).expect("bundle parses").cause, "timeout");
    let _ = std::fs::remove_dir_all(&dir);
}
