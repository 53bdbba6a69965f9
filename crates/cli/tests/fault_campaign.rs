//! The hard-fault campaign, driven through the binary: fault-aware rerouting
//! keeps every design at full delivery around two dead links, and the same
//! seed writes the same CSV; a link that flaps back loses no packet; the
//! default grid (every scenario family × every design) finishes all 35
//! cells; a row says when its fault never fired, and a run that injected
//! nothing reports no delivery rate.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("intellinoc-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `intellinoc campaign` with `flags` split on whitespace, in `cwd`:
/// (exit code, stdout, stderr).
fn run(cwd: &Path, flags: &str) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_intellinoc"))
        .arg("campaign")
        .args(flags.split_whitespace())
        .current_dir(cwd)
        .output()
        .expect("spawn intellinoc");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// [`run`], requiring exit 0 (an `--assert-delivery` miss exits 1, a
/// stalled or panicked cell 2); returns stderr.
fn campaign(cwd: &Path, flags: &str) -> String {
    let (code, _, err) = run(cwd, flags);
    assert_eq!(code, Some(0), "campaign {flags}: {err}");
    err
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// Two dead links on the 8×8 mesh: every design keeps delivery at 100 %,
/// and a second run with the same seed reproduces the CSV byte for byte.
#[test]
fn two_dead_links_deliver_everything_and_repeat() {
    let dir = scratch("dead");
    let grid = "--ppn 6 --seed 1 --dead-links 0,2 --no-router-fail --flapping 0 \
                --assert-delivery 0.999";
    let err = campaign(&dir, &format!("{grid} --out-dir a"));
    assert!(err.contains("10 ok, 0 failed, 0 timed-out, 0 skipped"), "{err}");
    campaign(&dir, &format!("{grid} --out-dir b"));
    let csv = read(&dir, "a/campaign.csv");
    assert_eq!(csv, read(&dir, "b/campaign.csv"), "same seed, different campaign CSV");
    assert_eq!(String::from_utf8(csv).expect("UTF-8 CSV").lines().count(), 1 + 2 * 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A link that flaps back is a transient fault: with two flapping links at
/// the default load every design delivers every packet (the bypass designs
/// used to lose two of 1 920 to a route change between a packet's head and
/// its tail).
#[test]
fn flapping_links_lose_no_packet() {
    let dir = scratch("flap");
    let err =
        campaign(&dir, "--dead-links 0 --no-router-fail --flapping 2 --assert-delivery 0.999");
    assert!(err.contains("10 ok, 0 failed, 0 timed-out, 0 skipped"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default campaign, every scenario family: 35 cells, all `ok`.
#[test]
fn default_campaign_finishes_every_cell() {
    let dir = scratch("default");
    let err = campaign(&dir, "");
    assert!(err.contains("35 ok, 0 failed, 0 timed-out, 0 skipped"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The table's and the CSV's rows whose scenario starts with `scenario`,
/// split into fields.
fn rows<'a>(table: &'a str, csv: &'a str, scenario: &str) -> [Vec<Vec<&'a str>>; 2] {
    let pick = |text: &'a str, split: fn(&'a str) -> Vec<&'a str>| {
        let rows: Vec<Vec<&str>> =
            text.lines().map(split).filter(|f| f[1].starts_with(scenario)).collect();
        assert_eq!(rows.len(), 5, "one row per design:\n{text}");
        rows
    };
    [pick(table, |l| l.split_whitespace().collect()), pick(csv, |l| l.split(',').collect())]
}

/// A router failure scheduled past the end of a run never fires: on a
/// grid where every run ends by cycle 600, `--router-fail 999999999` rows
/// say so in the table and the CSV, and `--router-fail 100` rows, whose
/// router dies, keep their name.
#[test]
fn a_router_failure_past_the_end_of_the_run_is_named_as_never_fired() {
    let dir = scratch("never-fired");
    for (at, name) in
        [("999999999", "router-fail-at-999999999-never-fired"), ("100", "router-fail-at-100")]
    {
        let flags = format!("--ppn 2 --dead-links 0 --router-fail {at} --flapping 0 --out-dir o");
        let (code, table, err) = run(&dir, &flags);
        assert_eq!(code, Some(0), "{err}");
        let csv = String::from_utf8(read(&dir, "o/campaign.csv")).expect("UTF-8 CSV");
        for rows in rows(&table, &csv, "router-fail") {
            assert!(rows.iter().all(|f| f[1] == name), "{at}: {rows:?}");
        }
        let cycles = csv.lines().skip(1).map(|l| l.split(',').nth(12).expect("cycles column"));
        assert!(cycles.map(|c| c.parse::<u64>().expect("cycles")).all(|c| c > 100 && c <= 600));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that injected nothing (a zero-cycle budget) has no delivery rate:
/// the table shows a dash and the CSV an empty field, not 100 %.
#[test]
fn a_run_that_injected_nothing_reports_no_delivery_rate() {
    let dir = scratch("empty");
    let flags = "--ppn 2 --dead-links 0 --no-router-fail --flapping 0 --max-cycles 0 --out-dir o";
    let (code, table, err) = run(&dir, flags);
    assert_eq!(code, Some(2), "five timed-out runs are a partial grid: {err}");
    let csv = String::from_utf8(read(&dir, "o/campaign.csv")).expect("UTF-8 CSV");
    let [table_rows, csv_rows] = rows(&table, &csv, "fault-free");
    for f in &table_rows {
        assert_eq!((f[2], f[5], f[10]), ("0", "-", "timed-out"), "{table}");
    }
    for f in &csv_rows {
        assert_eq!((f[2], f[5], f[17]), ("0", "", "timed-out"), "{csv}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
