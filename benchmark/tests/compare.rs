//! `compare` flags a synthetic 20 % slowdown and passes a 2 % one.

use intellinoc_benchmark::compare::{compare_files, judge, Better, Sample, Verdict};
use std::path::{Path, PathBuf};

fn tight(value: f64) -> Sample {
    Sample { value, q1: value * 0.99, q3: value * 1.01 }
}

#[test]
fn a_twenty_percent_slowdown_is_worse_and_two_percent_is_within() {
    let bound = 0.10;
    assert_eq!(judge(tight(10_000.0), tight(8_000.0), Better::Higher, bound), Verdict::Worse);
    assert_eq!(judge(tight(10_000.0), tight(9_800.0), Better::Higher, bound), Verdict::Within);
    assert_eq!(judge(tight(10_000.0), tight(12_000.0), Better::Higher, bound), Verdict::Better);
    assert_eq!(judge(tight(1.0), tight(1.2), Better::Lower, bound), Verdict::Worse);
    assert_eq!(judge(tight(1.0), tight(1.02), Better::Lower, bound), Verdict::Within);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_the_ranges_part() {
    let wide = |value: f64| Sample { value, q1: value * 0.85, q3: value * 1.15 };
    // Overlapping ranges: the runs cannot tell, whatever the medians say.
    assert_eq!(judge(wide(10_000.0), wide(9_800.0), Better::Higher, 0.10), Verdict::Unresolved);
    assert_eq!(judge(wide(10_000.0), wide(8_500.0), Better::Higher, 0.10), Verdict::Unresolved);
    // Every run of B reads worse (or better) than every run of A.
    assert_eq!(judge(wide(10_000.0), wide(6_000.0), Better::Higher, 0.10), Verdict::Worse);
    assert_eq!(judge(wide(10_000.0), wide(16_000.0), Better::Higher, 0.10), Verdict::Better);
}

fn result_file(dir: &Path, name: &str, speed: f64) -> PathBuf {
    let metric = |v: f64| {
        format!(r#"{{"value": {v}, "unit": "x", "q1": {}, "q3": {}}}"#, v * 0.99, v * 1.01)
    };
    let text = format!(
        r#"{{"workloads": {{"saturated_8x8": {{"end_to_end": {{"sim_digest": "00ff", "metrics": {{
            "sim_cycles_per_s": {}, "setup_s": {}}}}}}}}}}}"#,
        metric(speed),
        metric(0.5)
    );
    let path = dir.join(name);
    std::fs::write(&path, text).expect("the target tmpdir is writable");
    path
}

#[test]
fn compare_files_counts_the_worse_rows() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let contract = dir.join("contract.json");
    std::fs::write(
        &contract,
        r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.1}]}"#,
    )
    .expect("the target tmpdir is writable");
    let base = result_file(dir, "a.json", 10_000.0);
    let slow = result_file(dir, "slow.json", 8_000.0);
    let near = result_file(dir, "near.json", 9_800.0);

    let (table, worse) = compare_files(&contract, &base, &slow).expect("well-formed files");
    assert_eq!(worse, 1, "{table}");
    assert!(table.contains("worse") && table.contains("sim_digest identical"), "{table}");
    let (table, worse) = compare_files(&contract, &base, &near).expect("well-formed files");
    assert_eq!(worse, 0, "{table}");

    let err = compare_files(&contract, &base, &dir.join("absent.json")).unwrap_err();
    assert!(err.contains("absent.json"), "{err}");
}
