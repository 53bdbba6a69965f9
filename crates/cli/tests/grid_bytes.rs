//! Characterization of the grid commands, recorded at commit `5129914`: the
//! exact bytes one tiny grid of each kind renders — campaign (open and
//! closed loop), sweep, bench record, serve — including the rows of a
//! timed-out (partial payload), a failed and a skipped (no payload) cell,
//! plus each grid's run keys and the key-derived seeds of its first and
//! last cell. Every simulated number in the fixtures depends on those seeds,
//! so a refactor of how grids build, run or render their cells passes these
//! tests only if keys, seeds, column sets, float formats and row order all
//! stayed where they were.

mod common;

use common::{intellinoc, read, scratch};
use intellinoc::{derive_seed, reference_report_csv, JobSpec};
use std::path::Path;

/// The runner log under `dir` split in two: the lifecycle events, as lines,
/// and the `(key, cause)` of each post-mortem dump (`--out-dir` arms the
/// flight recorder, so each dying unit dumps a bundle).
fn runner_log(dir: &Path) -> (String, Vec<(String, String)>) {
    let log = read(dir, "runner.jsonl");
    let (dumps, lifecycle): (Vec<&str>, Vec<&str>) =
        log.lines().partition(|l| l.starts_with("{\"event\":\"postmortem-dumped\""));
    let field = |line: &str, name: &str| {
        let at = line.find(&format!("\"{name}\":\"")).expect(name) + name.len() + 4;
        line[at..].split('"').next().expect(name).to_owned()
    };
    let dumps = dumps.iter().map(|l| (field(l, "key"), field(l, "cause"))).collect();
    (lifecycle.iter().map(|l| format!("{l}\n")).collect(), dumps)
}

/// The 2-scenario × 5-design campaign every campaign test below runs: one
/// forced timeout (partial payload), one forced panic and one cell past the
/// unit cap (no payload).
const CAMPAIGN: &str = "campaign --ppn 4 --seed 3 --rate 0.01 --dead-links 0,1 --no-router-fail \
    --flapping 0 --max-cycles 60000 --force-panic dead-links-1/EB \
    --force-timeout fault-free/SECDED --max-units 9";

#[test]
fn campaign_csv_table_and_keys_are_pinned() {
    let dir = scratch("grid-bytes-campaign");
    // The runner log is read off the records, so two workers write the
    // serial run's log, byte for byte, into an out-dir of the same name.
    let mut serial_log = None;
    for jobs in ["", " --jobs 2"] {
        let _ = std::fs::remove_dir_all(dir.join("o"));
        let (code, stdout, _) = intellinoc(&dir, &format!("{CAMPAIGN}{jobs} --out-dir o"));
        assert_eq!(code, 2, "a partial grid exits 2");
        assert_eq!(read(&dir, "o/campaign.csv"), include_str!("fixtures/campaign.csv"));
        assert_eq!(stdout, include_str!("fixtures/campaign.txt"));
        // Lifecycle events name every key, in canonical order.
        let (lifecycle, dumps) = runner_log(&dir.join("o"));
        assert_eq!(lifecycle, include_str!("fixtures/campaign_runner_log.jsonl"), "{jobs}");
        let dumped = |key: &str, cause: &str| (format!("campaign/{key}/r0.01"), cause.to_owned());
        assert_eq!(
            dumps,
            [dumped("fault-free/SECDED", "timeout"), dumped("dead-links-1/EB", "panic")],
            "{jobs}"
        );
        let log = read(&dir, "o/runner.jsonl");
        assert_eq!(serial_log.get_or_insert_with(|| log.clone()), &log, "{jobs}");
    }
    assert_eq!(derive_seed(3, "campaign/fault-free/SECDED/r0.01"), 0xb11a_d863_5ed2_8db6);
    assert_eq!(derive_seed(3, "campaign/dead-links-1/IntelliNoC/r0.01"), 0xa363_aafc_7b7a_f022);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_campaign_csv_is_pinned() {
    let dir = scratch("grid-bytes-closed");
    let (code, _, _) = intellinoc(
        &dir,
        &format!(
            "{CAMPAIGN} --workload reqreply --reply-timeout 400 --max-req-retries 2 --out-dir o"
        ),
    );
    assert_eq!(code, 2);
    assert_eq!(read(&dir, "o/campaign.csv"), include_str!("fixtures/campaign_closed_loop.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_table_and_keys_are_pinned() {
    let dir = scratch("grid-bytes-sweep");
    let (code, stdout, _) = intellinoc(
        &dir,
        "sweep --design secded --rates 0.01,0.02,0.04,0.08 --ppn 8 --seed 5 \
         --force-timeout r0.02 --force-panic r0.04 --max-units 3 --out-dir o",
    );
    assert_eq!(code, 2);
    assert_eq!(stdout, include_str!("fixtures/sweep.txt"));
    let (lifecycle, dumps) = runner_log(&dir.join("o"));
    assert_eq!(lifecycle, include_str!("fixtures/sweep_runner_log.jsonl"));
    let dumped = |key: &str, cause: &str| (key.to_owned(), cause.to_owned());
    assert_eq!(
        dumps,
        [dumped("sweep/SECDED/r0.02", "timeout"), dumped("sweep/SECDED/r0.04", "panic")]
    );
    assert_eq!(derive_seed(5, "sweep/SECDED/r0.01"), 0x375d_d3db_ecf1_16e9);
    assert_eq!(derive_seed(5, "sweep/SECDED/r0.08"), 0x2e1f_eb59_4f76_a0b6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_baseline_and_keys_are_pinned() {
    let dir = scratch("grid-bytes-bench");
    let (code, stdout, _) = intellinoc(
        &dir,
        "bench record --designs secded,intellinoc --rates 0.05 --seeds 2 --ppn 8 --seed 11 \
         --name pin --out-dir o --journal j.jsonl",
    );
    assert_eq!(code, 0);
    // `BENCH_pin.json` is `BenchBaseline::to_json`, byte for byte.
    assert_eq!(read(&dir, "o/BENCH_pin.json"), include_str!("fixtures/bench_pin.json"));
    assert_eq!(
        stdout,
        "cell                          avg_lat      p99_lat energy_pJ/flit\n\
         SECDED@0.05                49.83±25.33  138.52±169.92    63.685±5.161\n\
         IntelliNoC@0.05            40.49±1.04   82.17±27.88    41.493±0.163\n"
    );
    // The serial journal holds one line per unit after its header, in
    // canonical (design-major, rate, seed) order.
    let journal = read(&dir, "j.jsonl");
    let keys: Vec<&str> = journal
        .lines()
        .skip(1)
        .map(|l| l.strip_prefix("{\"key\":\"").and_then(|l| l.split('"').next()).expect("key"))
        .collect();
    assert_eq!(
        keys,
        [
            "bench/SECDED/r0.05/s0",
            "bench/SECDED/r0.05/s1",
            "bench/IntelliNoC/r0.05/s0",
            "bench/IntelliNoC/r0.05/s1",
        ]
    );
    assert_eq!(derive_seed(11, "bench/SECDED/r0.05/s0"), 0x03ce_285b_6346_b316);
    assert_eq!(derive_seed(11, "bench/IntelliNoC/r0.05/s1"), 0x307b_8479_c8fe_2737);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_reference_report_is_pinned() {
    // 2 designs × 2 rates; the 600-cycle budget cuts both low-rate cells
    // off with packets in flight (timed-out rows with partial metrics).
    let spec = JobSpec {
        name: "pin".to_owned(),
        designs: vec!["secded".to_owned(), "intellinoc".to_owned()],
        rates: vec![0.005, 0.02],
        ppn: 3,
        seed: 7,
        max_cycles: 600,
        reqreply: None,
        journeys_every: 0,
    };
    // The report's first column is the run key.
    assert_eq!(reference_report_csv(&spec).unwrap(), include_str!("fixtures/serve.csv"));
    assert_eq!(derive_seed(7, "serve/SECDED/r0.005"), 0x203c_7711_e6a9_c9c6);
    assert_eq!(derive_seed(7, "serve/IntelliNoC/r0.02"), 0xb9cb_eb2b_c3c0_998d);
}

/// CI's closed-loop smoke campaign (hard faults mid-run, tight retry
/// budget), recorded at commit `2d449dd`: the serial CSV, byte for byte,
/// and a clean auditor (exit 0).
#[test]
fn closed_loop_smoke_campaign_csv_is_pinned() {
    let dir = scratch("grid-bytes-closedloop-smoke");
    let (code, _, _) = intellinoc(
        &dir,
        "campaign --workload reqreply --rate 0.01 --ppn 3 --seed 3 --dead-links 0,1 \
         --router-fail 300 --flapping 1 --max-cycles 200000 --reply-timeout 400 \
         --max-req-retries 2 --req-backoff-base 16 --req-backoff-cap 128 --out-dir o",
    );
    assert_eq!(code, 0);
    assert_eq!(read(&dir, "o/campaign.csv"), include_str!("fixtures/closedloop_smoke.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A closed-loop run that orphans transaction 0, recorded at commit
/// `2d449dd`: its `--json` report, and
/// the transaction books its post-mortem bundle carries (the `txn-summary`
/// and `orphaned-txns` records; the head line, which names the cause, is
/// left out). Arming the flight recorder changes neither.
#[test]
fn an_orphaned_run_reports_and_bundles_the_pinned_books() {
    let dir = scratch("grid-bytes-orphan");
    let run = "run --design secded --workload reqreply --rate 0.02 --ppn 4 --seed 3 \
               --chaos-orphan 0 --json";
    for line in [run.to_owned(), format!("{run} --out-dir bb")] {
        let (code, stdout, _) = intellinoc(&dir, &line);
        assert_eq!(code, 0, "{line}");
        assert_eq!(stdout, include_str!("fixtures/orphan_run.json"), "{line}");
    }
    let bundles: Vec<_> = std::fs::read_dir(dir.join("bb"))
        .expect("bundle dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("postmortem-")))
        .collect();
    assert_eq!(bundles.len(), 1);
    let bundle = std::fs::read_to_string(&bundles[0]).unwrap();
    let books: String = bundle
        .lines()
        .filter(|l| {
            l.starts_with("{\"record\":\"txn-summary\"")
                || l.starts_with("{\"record\":\"orphaned-txns\"")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(books, include_str!("fixtures/orphan_bundle_extras.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
}
