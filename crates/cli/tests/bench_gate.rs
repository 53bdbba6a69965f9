//! The bench gate, driven through the binary: the small CI grid records
//! and self-compares clean (exit 0), `--force-regress` makes the gate fire
//! (exit 2), the committed `BENCH_designs.json` re-runs with every delta at
//! zero, a hostile baseline is refused before any grid runs (exit 1), and
//! `--out-dir` leaves a run's report byte-identical.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intellinoc-bench-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `intellinoc` binary with `line` split on whitespace, in `cwd`:
/// (exit code, stdout, stderr).
fn intellinoc(cwd: &Path, line: &str) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_intellinoc"))
        .args(line.split_whitespace())
        .current_dir(cwd)
        .output()
        .expect("spawn intellinoc");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code().expect("exit code"), text(out.stdout), text(out.stderr))
}

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_designs.json");

#[test]
fn ci_grid_self_compares_clean_and_the_forced_gate_fires() {
    let dir = scratch("ci");
    let (code, _, err) = intellinoc(&dir, "bench record --grid ci --name ci --jobs 2");
    assert_eq!(code, 0, "{err}");
    let (code, out, err) = intellinoc(&dir, "bench compare --baseline BENCH_ci.json --jobs 2");
    assert_eq!(code, 0, "{err}");
    assert!(out.ends_with("12 rows: 0 regressed, 0 improved, 12 unchanged\n"), "{out}");
    let forced = "bench compare --baseline BENCH_ci.json --force-regress --jobs 2";
    let (code, out, err) = intellinoc(&dir, forced);
    assert_eq!(code, 2, "a regression exits 2, not 0 or 1: {err}");
    assert!(out.contains("REGRESSED"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed baseline re-runs bit for bit: 90 rows, each delta +0.000.
#[test]
fn committed_baseline_compares_unchanged() {
    let dir = scratch("designs");
    let (code, out, err) =
        intellinoc(&dir, &format!("bench compare --baseline {COMMITTED} --jobs 2"));
    assert_eq!(code, 0, "{err}");
    let rows: Vec<&str> = out.lines().skip(1).take_while(|l| !l.contains(" rows: ")).collect();
    assert_eq!(rows.len(), 90, "{out}");
    assert!(rows.iter().all(|r| r.ends_with("   +0.000") && r.contains(" pass ")), "{out}");
    assert!(out.ends_with("90 rows: 0 regressed, 0 improved, 90 unchanged\n"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each hostile spec is refused when the baseline is read (exit 1, naming
/// the rule), before a unit is built: a seed count that used to abort the
/// process allocating cells, a zero packet budget that used to run and
/// report regressions, rates outside (0, 1], a PARSEC profile on a
/// closed-loop grid.
#[test]
fn a_hostile_baseline_spec_is_refused() {
    let dir = scratch("hostile");
    let committed = std::fs::read_to_string(COMMITTED).expect("committed baseline");
    let rates = "\"rates\": [\n      0.1";
    let cases: [(&[(&str, &str)], &str); 5] = [
        (
            &[("\"seeds\": 5", "\"seeds\": 4294967295")],
            "grid of 64424509425 units at ppn 64: needs 1 to 4096 units",
        ),
        (&[("\"ppn\": 64", "\"ppn\": 0")], "grid of 75 units at ppn 0"),
        (&[(rates, "\"rates\": [\n      0")], "rate must be finite in (0, 1], got 0"),
        (&[(rates, "\"rates\": [\n      1.5")], "rate must be finite in (0, 1], got 1.5"),
        (
            &[
                (rates, "\"rates\": [\n      \"Canneal\""),
                ("\"reqreply\": null", "\"reqreply\": {}"),
            ],
            "not canneal",
        ),
    ];
    for (i, (edits, named)) in cases.into_iter().enumerate() {
        let mut json = committed.clone();
        for (from, to) in edits {
            assert!(json.contains(from), "{from}");
            json = json.replacen(from, to, 1);
        }
        let path = dir.join(format!("hostile{i}.json"));
        std::fs::write(&path, json).expect("write");
        let line = format!("bench compare --baseline {}", path.display());
        let (code, _, err) = intellinoc(&dir, &line);
        assert_eq!(code, 1, "{named}: {err}");
        assert!(err.contains("baseline spec") && err.contains(named), "{named}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--out-dir` arms only the flight recorder, which must not perturb the
/// simulation: the same run with and without it prints byte-identical
/// reports, and it writes no metrics exposition file.
#[test]
fn metrics_out_leaves_the_report_unchanged() {
    let dir = scratch("metrics");
    let run = "run --design intellinoc --rate 0.02 --ppn 10 --seed 3 --json";
    let (code, with, err) = intellinoc(&dir, &format!("{run} --out-dir out"));
    assert_eq!(code, 0, "{err}");
    let (code, without, err) = intellinoc(&dir, run);
    assert_eq!(code, 0, "{err}");
    assert_eq!(with, without);
    assert!(!dir.join("out/metrics.prom").exists(), "no metrics.prom under --out-dir");
    let _ = std::fs::remove_dir_all(&dir);
}
