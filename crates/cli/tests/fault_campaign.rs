//! The hard-fault campaign, driven through the binary: fault-aware rerouting
//! keeps every design at full delivery around two dead links, and the same
//! seed writes the same CSV; a link that flaps back loses no packet; the
//! default grid (every scenario family × every design) finishes all 35
//! cells.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("intellinoc-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `intellinoc campaign` with `flags` split on whitespace, in `cwd`,
/// requires exit 0 (an `--assert-delivery` miss exits 1, a stalled or
/// panicked cell 2) and returns stderr.
fn campaign(cwd: &Path, flags: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_intellinoc"))
        .arg("campaign")
        .args(flags.split_whitespace())
        .current_dir(cwd)
        .output()
        .expect("spawn intellinoc");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "campaign {flags}: {err}");
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
