//! The paper's evaluation through the one binary: `intellinoc figures`
//! prints what `results/` archives and writes only what it names,
//! `intellinoc list` names every figure, and a reader that closes stdout
//! early costs the output, not the command.

mod common;

use common::{intellinoc, read, scratch, BIN};
use intellinoc::figures::FIGURES;
use std::process::{Command, Stdio};

/// The archived Table 2, which runs nothing.
const TABLE2: &str = include_str!("../../../results/table2_area.txt");

/// `figures table2_area` prints exactly the archived table, and under
/// `--out-dir` writes that one file and nothing else.
#[test]
fn table2_prints_the_archived_table_and_writes_only_its_file() {
    let dir = scratch("figures-table2");
    let (code, stdout, stderr) = intellinoc(&dir, "figures table2_area");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, TABLE2);
    let (code, stdout, stderr) = intellinoc(&dir, "figures table2_area --out-dir d");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, TABLE2);
    let written: Vec<_> = std::fs::read_dir(dir.join("d"))
        .expect("read out-dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(written, ["table2_area.txt"]);
    assert_eq!(read(&dir, "d/table2_area.txt"), TABLE2);
    assert!(stderr.contains("figures: wrote d/table2_area.txt"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A name that is no figure exits 1 naming it, and runs nothing.
#[test]
fn an_unknown_figure_exits_1_naming_it() {
    let dir = scratch("figures-unknown");
    let (code, stdout, stderr) = intellinoc(&dir, "figures table2_area fig99_nothing");
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("error: unknown figure `fig99_nothing`"), "{stderr}");
    let (code, _, stderr) = intellinoc(&dir, "figures");
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("usage: intellinoc figures"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `list` names every figure with what it shows, after the designs and
/// benchmarks.
#[test]
fn list_names_every_figure() {
    let dir = scratch("figures-list");
    let (code, stdout, stderr) = intellinoc(&dir, "list");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(FIGURES.len(), 20);
    let at = stdout.find("figures").expect("a figures section");
    assert!(at > stdout.find("benchmarks").expect("a benchmarks section"), "{stdout}");
    for f in FIGURES {
        let line = format!("  {:<24} {}\n", f.name, f.about);
        assert!(stdout[at..].contains(&line), "no `{line}` in:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stdout closed before the first write: the output is dropped, the
/// command still finishes, its `--out-dir` files included, and exits 0
/// without a panic.
#[test]
fn a_closed_stdout_is_not_a_crash() {
    let dir = scratch("figures-closed");
    for line in [
        "list",
        "run --design secded --rate 0.01 --ppn 2 --json",
        "campaign --ppn 2 --dead-links 0 --no-router-fail --flapping 0 --out-dir c",
        "figures table2_area --out-dir d",
    ] {
        let mut child = Command::new(BIN)
            .args(line.split_whitespace())
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn intellinoc");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for intellinoc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    }
    assert!(dir.join("c/campaign.csv").exists());
    assert_eq!(read(&dir, "d/table2_area.txt"), TABLE2);
    let _ = std::fs::remove_dir_all(&dir);
}
