//! Post-mortem bundles, driven through the binary: a campaign whose one
//! cell is forced past its deadline exits with the partial-results code and
//! leaves a bundle for that cell, the bundle's counters and event tail are
//! pinned, `postmortem` renders it to the same bytes twice, and the flight
//! recorder leaves the campaign's table as it was without it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intellinoc-postmortem-{tag}-{}", std::process::id()));
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
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code().expect("exit code"), text(out.stdout), text(out.stderr))
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// FNV-1a, 64 bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Two scenarios × five designs with one chaos-forced timeout.
const CAMPAIGN: &str = "campaign --ppn 4 --seed 3 --rate 0.01 --dead-links 0,1 --no-router-fail \
    --flapping 0 --max-cycles 60000 --force-timeout fault-free/SECDED";

#[test]
fn a_timed_out_cell_leaves_a_pinned_bundle_that_renders_stably() {
    let dir = scratch("timeout");
    let (code, table, err) = intellinoc(&dir, &format!("{CAMPAIGN} --out-dir bb"));
    assert_eq!(code, 2, "a partial grid exits 2: {err}");
    let mut bundles: Vec<String> = std::fs::read_dir(dir.join("bb"))
        .expect("bundle dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("postmortem-") && n.ends_with(".jsonl"))
        .collect();
    bundles.sort();
    assert_eq!(bundles, ["postmortem-campaign_fault-free_SECDED_r0.01.jsonl"]);
    let bundle = format!("bb/{}", bundles[0]);

    // The recorder's counters and the event tail it was handed.
    let text = String::from_utf8(read(&dir, &bundle)).expect("UTF-8 bundle");
    let section: String = text
        .lines()
        .filter(|l| {
            l.starts_with("{\"record\":\"counters\"") || l.starts_with("{\"record\":\"event\"")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(section.lines().count() > 1, "the bundle carries events:\n{text}");
    assert_eq!(fnv1a(&section), 0x8a90_5cf8_b296_0bc7, "the bundle's event section moved");

    // Rendering is a pure function of the bundle's bytes.
    for out in ["pm1", "pm2"] {
        let (code, _, err) = intellinoc(&dir, &format!("postmortem {bundle} --out-dir {out}"));
        assert_eq!(code, 0, "postmortem: {err}");
    }
    let report = read(&dir, "pm1/postmortem.md");
    assert_eq!(report, read(&dir, "pm2/postmortem.md"), "two renders of one bundle differ");
    assert!(report.starts_with(b"# Post-mortem: timeout"), "{}", String::from_utf8_lossy(&report));

    // The black box does not perturb the grid.
    let (code, plain, err) = intellinoc(&dir, CAMPAIGN);
    assert_eq!(code, 2, "{err}");
    assert_eq!(table, plain, "the recorder moved the campaign's table");
    let _ = std::fs::remove_dir_all(&dir);
}
