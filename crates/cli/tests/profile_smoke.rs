//! The span profiler, driven through the binary: a profiled grid writes the
//! same cycle-domain span table every time, and one `--grid designs` run
//! writes both the committed `PROFILE_designs.txt` and `BENCH_designs.json`;
//! the flamegraph parses as `frames weight` lines that split `step_cycle`;
//! `--workload reqreply` profiles closed-loop traffic; profiling perturbs no
//! campaign byte and notes its span warnings in the runner log. The last
//! test keeps every wall-clock read of the simulator behind the probe.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("intellinoc-profile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `intellinoc` binary with `line` split on whitespace, in `cwd`,
/// and requires exit 0.
fn ok(cwd: &Path, line: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_intellinoc"))
        .args(line.split_whitespace())
        .current_dir(cwd)
        .output()
        .expect("spawn intellinoc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{line}: {err}");
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// The `ci` grid, open and closed loop: each span table is the same on a
/// second run, the two differ (the workload flag used to be parsed and
/// dropped, which made them identical), and the flamegraph is non-empty
/// `frames weight` lines with at least eight `step_cycle` sub-spans.
#[test]
fn ci_grid_span_tables_repeat_and_the_flamegraph_parses() {
    let dir = scratch("ci");
    let grid = "bench record --grid ci --name ci --profile --jobs 2";
    ok(&dir, &format!("{grid} --out-dir a"));
    ok(&dir, &format!("{grid} --out-dir b"));
    assert_eq!(read(&dir, "a/spans.txt"), read(&dir, "b/spans.txt"), "span table differs");
    ok(&dir, &format!("{grid} --workload reqreply --out-dir rr"));
    ok(&dir, &format!("{grid} --workload reqreply --out-dir rr_b"));
    let closed = read(&dir, "rr/spans.txt");
    assert_eq!(closed, read(&dir, "rr_b/spans.txt"), "closed-loop span table differs");
    assert_ne!(read(&dir, "a/spans.txt"), closed, "reqreply profiled open-loop traffic");

    let flame = String::from_utf8(read(&dir, "a/flame.folded")).expect("UTF-8 flamegraph");
    assert!(!flame.is_empty(), "empty flamegraph");
    for line in flame.lines() {
        let (frames, weight) = line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed: {line}"));
        assert!(!frames.is_empty() && weight.parse::<u64>().is_ok(), "malformed: {line}");
    }
    let subspans = flame.lines().filter(|l| l.starts_with("step_cycle;")).count();
    assert!(subspans >= 8, "only {subspans} step_cycle sub-spans");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One profiled run of the full designs grid (75 units) writes both
/// committed files: the span table (span names, nesting and every exact
/// counter, whatever the clock-sampling schedule timed) and the bench
/// baseline, byte for byte.
#[test]
fn designs_grid_writes_the_committed_span_table() {
    let dir = scratch("designs");
    ok(&dir, "bench record --grid designs --profile --jobs 2 --out-dir d");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (written, committed) in
        [("d/spans.txt", "PROFILE_designs.txt"), ("d/BENCH_designs.json", "BENCH_designs.json")]
    {
        let want = std::fs::read(format!("{root}/{committed}")).expect("read the committed file");
        let got = read(&dir, written);
        assert!(got == want, "{committed} moved:\n{}", String::from_utf8_lossy(&got));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Profiling must not perturb the simulation: the same campaign with and
/// without profiling writes the same CSV, and the runner log of the
/// profiled one carries the profiler's span warnings.
#[test]
fn profiling_perturbs_no_campaign_byte() {
    let dir = scratch("campaign");
    let campaign = "campaign --ppn 4 --seed 3 --rate 0.01 --dead-links 0,1 --no-router-fail \
                    --flapping 0 --max-cycles 60000";
    ok(&dir, &format!("{campaign} --out-dir plain"));
    ok(&dir, &format!("{campaign} --profile --out-dir prof"));
    let csv = read(&dir, "plain/campaign.csv");
    assert_eq!(csv, read(&dir, "prof/campaign.csv"), "profiling moved the campaign");
    let log = String::from_utf8(read(&dir, "prof/runner.jsonl")).expect("UTF-8 runner log");
    assert!(log.contains(r#""event":"profile-note""#), "no profile-note in the runner log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `.rs` file under `dir`, recursively, as `(path, text)`.
fn sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.clone(), std::fs::read_to_string(&path).expect("read source")));
        }
    }
    out
}

/// Every wall-clock read of the simulator happens behind the probe, where
/// the profiler decides per span path whether to take it.
#[test]
fn the_simulator_reads_the_clock_only_in_the_probe() {
    let src = sources(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../sim/src")));
    assert!(src.len() > 10, "found the simulator's sources");
    let reads: Vec<String> = src
        .iter()
        .filter(|(path, _)| !path.ends_with("probe.rs"))
        .flat_map(|(path, text)| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let hits = text.lines().filter(|l| l.contains("Instant::now"));
            hits.map(move |l| format!("{name}: {}", l.trim())).collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(reads, Vec::<String>::new());
}
