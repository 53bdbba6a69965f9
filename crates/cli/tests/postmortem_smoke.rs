//! Post-mortem bundles, driven through the binary: a campaign whose one
//! cell is forced past its deadline exits with the partial-results code and
//! leaves a bundle for that cell, the bundle's counters and event tail are
//! pinned, `postmortem` renders it to the same bytes twice, and the flight
//! recorder leaves the campaign's table as it was without it.

mod common;

use common::{intellinoc, read, scratch};

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
    let dir = scratch("postmortem-timeout");
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
    let text = read(&dir, &bundle);
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
    assert!(report.starts_with("# Post-mortem: timeout"), "{report}");

    // The black box does not perturb the grid.
    let (code, plain, err) = intellinoc(&dir, CAMPAIGN);
    assert_eq!(code, 2, "{err}");
    assert_eq!(table, plain, "the recorder moved the campaign's table");
    let _ = std::fs::remove_dir_all(&dir);
}
