//! The flight recorder behind the CLI's `run`, driven through the binary: a
//! critical alert rule breached mid-run dumps a post-mortem bundle into
//! `--out-dir`, and an advisory one dumps nothing.

mod common;

use common::{ok, read, scratch};
use noc_sim::{parse_bundle, render_report};
use std::path::Path;

/// The `.jsonl` files under `dir`, sorted.
fn bundle_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .filter(|n| n.ends_with(".jsonl"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// The CLI `run` path: a critical rule breached mid-run triggers a
/// flight-recorder bundle dump into `--out-dir`, and the bundle
/// renders deterministically. A non-critical rule must not dump.
#[test]
fn cli_run_dumps_critical_alert_bundle() {
    let dir = scratch("blackbox-cli");
    let run = "run --design secded --rate 0.01 --ppn 4 --seed 3 --alert-rules";
    ok(&dir, &format!("{run} noc_packets_total>10:critical --out-dir critical"));
    let critical = dir.join("critical");
    let files = bundle_files(&critical);
    assert_eq!(files, vec!["postmortem-run_SECDED.jsonl"], "critical alert must dump a bundle");
    let text = read(&critical, &files[0]);
    let bundle = parse_bundle(&text).unwrap();
    let r1 = render_report(&bundle);
    assert_eq!(r1, render_report(&parse_bundle(&text).unwrap()));
    assert!(r1.contains("alert"), "bundle cause must be the alert:\n{r1}");

    // The same run with the rule downgraded to advisory leaves no bundle.
    ok(&dir, &format!("{run} noc_packets_total>10 --out-dir advisory"));
    assert!(
        bundle_files(&dir.join("advisory")).is_empty(),
        "non-critical alerts must not dump bundles"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
