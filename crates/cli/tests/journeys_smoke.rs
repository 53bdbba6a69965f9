//! Journey tracing, driven through the binary: a traced run writes the same
//! journey log every time and prints what the untraced run prints; the
//! analyzer writes one file, the same tail report every time; tracing needs
//! `--out-dir` on every command; tracing perturbs no campaign byte and
//! collects the same logs at any worker count; closed-loop transaction legs
//! survive the analyzer; `run` and `inspect` write the same journey bytes; a
//! hostile log is refused naming its line. The last test keeps the
//! simulator at one packet clock: one in-flight table, no second tracker.

mod common;

use common::{intellinoc, ok, read, scratch};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every file of `dir` by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().into_string().expect("UTF-8 name"), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

const TRACED: &str = "run --design secded --rate 0.02 --ppn 10 --seed 3";

/// A traced run writes the same log every time and prints what the untraced
/// run prints; the offline analyzer is a pure function of the log bytes and
/// writes one file.
#[test]
fn traced_run_is_deterministic_and_the_analyzer_reproduces_its_report() {
    let dir = scratch("journeys-run");
    let (code, untraced, err) = intellinoc(&dir, &format!("{TRACED} --out-dir off"));
    assert_eq!(code, 0, "{err}");
    for n in [1, 2] {
        let (code, out, err) =
            intellinoc(&dir, &format!("{TRACED} --journeys-every 1 --out-dir r{n}"));
        assert_eq!(code, 0, "{err}");
        assert_eq!(out, untraced, "tracing changed run's stdout");
    }
    assert_eq!(read(&dir, "r1/journeys.jsonl"), read(&dir, "r2/journeys.jsonl"));
    ok(&dir, "journeys r1/journeys.jsonl --out-dir a1");
    ok(&dir, "journeys r1/journeys.jsonl --out-dir a2");
    let a1 = files(&dir.join("a1"));
    assert_eq!(a1.keys().collect::<Vec<_>>(), ["tail-report.md"], "the analyzer's one file");
    assert_eq!(a1, files(&dir.join("a2")));
    let (code, stdout, err) = intellinoc(&dir, "journeys r1/journeys.jsonl");
    assert_eq!(code, 0, "{err}");
    assert_eq!(stdout.as_bytes(), a1["tail-report.md"], "stdout is the file's bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

const INSPECTED: &str = "inspect --design secded --rate 0.02 --ppn 10 --seed 3";

/// Journey tracing follows one rule on every command: without `--out-dir`
/// there is nowhere to write the log, so `--journeys-every` exits 1 before
/// anything runs. With it, `inspect` prints what it prints untraced and
/// `run --json` still prints one JSON document.
#[test]
fn journey_tracing_needs_an_out_dir_and_leaves_stdout_alone() {
    let dir = scratch("journeys-rule");
    for command in [TRACED, INSPECTED, "sweep --design secded --rates 0.01 --ppn 4"] {
        let (code, out, err) = intellinoc(&dir, &format!("{command} --journeys-every 1"));
        assert_eq!(code, 1, "{command}: {err}");
        assert!(out.is_empty(), "{command}: {out}");
        assert!(err.contains("--journeys-every needs --out-dir DIR"), "{command}: {err}");
    }
    let (code, untraced, err) = intellinoc(&dir, &format!("{INSPECTED} --out-dir i0"));
    assert_eq!(code, 0, "{err}");
    let (code, out, err) =
        intellinoc(&dir, &format!("{INSPECTED} --journeys-every 1 --out-dir i1"));
    assert_eq!(code, 0, "{err}");
    assert_eq!(out, untraced, "tracing changed inspect's stdout");
    assert!(dir.join("i1/journeys.jsonl").is_file());
    let (code, out, err) =
        intellinoc(&dir, &format!("{TRACED} --json --journeys-every 1 --out-dir d"));
    assert_eq!(code, 0, "{err}");
    let doc: serde::Content = serde_json::from_str(&out).expect("stdout is one JSON document");
    assert!(doc.get("report").is_some(), "{out}");
    assert!(dir.join("d/journeys.jsonl").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_journeys_perturb_nothing_and_match_across_workers() {
    let dir = scratch("journeys-campaign");
    let campaign = "campaign --ppn 4 --seed 3 --rate 0.01 --dead-links 0,1 --no-router-fail \
                    --flapping 0 --max-cycles 60000";
    ok(&dir, &format!("{campaign} --out-dir off"));
    ok(&dir, &format!("{campaign} --journeys-every 1 --out-dir serial"));
    ok(&dir, &format!("{campaign} --journeys-every 1 --out-dir parallel --jobs 4"));
    let csv = read(&dir, "off/campaign.csv");
    assert_eq!(csv, read(&dir, "serial/campaign.csv"), "tracing moved a byte");
    assert_eq!(csv, read(&dir, "parallel/campaign.csv"));
    let serial = files(&dir.join("serial/journeys"));
    assert!(!serial.is_empty(), "one journey log per unit");
    assert_eq!(serial, files(&dir.join("parallel/journeys")), "serial vs --jobs 4 journey logs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_journeys_keep_their_transaction_legs() {
    let dir = scratch("journeys-txn");
    ok(
        &dir,
        "run --design secded --workload reqreply --rate 0.02 --ppn 4 --seed 3 --journeys-every 1 \
         --out-dir run",
    );
    let log = read(&dir, "run/journeys.jsonl");
    assert!(log.contains("\"txn\":"), "packets carry their transaction tags");
    ok(&dir, "journeys run/journeys.jsonl --out-dir txn");
    let report = read(&dir, "txn/tail-report.md");
    assert!(report.contains("transaction"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run` traces journeys alone; `inspect` forces attribution on next to
/// them. The one latency engine writes the same journey bytes either way.
#[test]
fn run_and_inspect_write_the_same_journey_bytes() {
    let dir = scratch("journeys-sinks");
    let args = "--design secded --rate 0.02 --ppn 10 --seed 3 --error-rate 5e-4 --journeys-every 3";
    ok(&dir, &format!("run {args} --out-dir a"));
    ok(&dir, &format!("inspect {args} --out-dir b"));
    let a = read(&dir, "a/journeys.jsonl");
    assert_eq!(a, read(&dir, "b/journeys.jsonl"));
    assert!(a.contains("hop_retx"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A span that runs backwards is refused at parse, naming its line, instead
/// of overflowing the analyzer.
#[test]
fn hostile_journeys_file_is_refused_naming_its_line() {
    let dir = scratch("journeys-hostile");
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/hostile_journeys.jsonl");
    let (code, _, err) = intellinoc(&dir, &format!("journeys {fixture}"));
    assert_ne!(code, 0, "a hostile log must fail");
    assert!(err.contains("journeys line 3:"), "{err}");
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

/// One packet clock: no second tracker, no two-closure fan-out in the probe,
/// and one in-flight table — the only collection of `PacketClock`s is the
/// id-indexed window's slot deque.
#[test]
fn the_simulator_keeps_one_in_flight_table() {
    let src = sources(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../sim/src")));
    assert!(src.len() > 10, "found the simulator's sources");
    for (path, text) in &src {
        for gone in ["fn engines", "JourneyTracker", "tracks: HashMap"] {
            assert!(!text.contains(gone), "{} mentions {gone}", path.display());
        }
    }
    let tables: Vec<String> = src
        .iter()
        .flat_map(|(path, text)| {
            let containers = ["HashMap<", "BTreeMap<", "Vec<", "VecDeque<"];
            let table = move |l: &&str| {
                l.contains("PacketClock>") && containers.iter().any(|c| l.contains(c))
            };
            text.lines().filter(table).map(move |l| {
                format!("{}: {}", path.file_name().unwrap().to_string_lossy(), l.trim())
            })
        })
        .collect();
    assert_eq!(tables, ["attribution.rs: slots: VecDeque<Option<PacketClock>>,"]);
}
