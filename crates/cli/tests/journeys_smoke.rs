//! Journey tracing, driven through the binary: a traced run writes the same
//! journey log, Perfetto trace, tail report and tail-contribution CSV every
//! time; the Perfetto trace is valid JSON with every track's slices in time
//! order; the offline analyzer reproduces the run's report from the log;
//! tracing perturbs no campaign byte and collects the same logs at any
//! worker count; closed-loop transaction legs survive the analyzer; `run`
//! and `inspect` write the same journey bytes; a hostile log is refused
//! naming its line. The last test keeps the simulator at one packet clock:
//! one in-flight table, no second tracker.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intellinoc-journeys-{tag}-{}", std::process::id()));
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

/// Runs `line` and requires exit 0.
fn ok(cwd: &Path, line: &str) {
    let (code, _, err) = intellinoc(cwd, line);
    assert_eq!(code, 0, "{line}: {err}");
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

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

/// The Perfetto export is valid JSON, has slices, and each `(pid, tid)`
/// track's slice timestamps never go backwards. Returns the slice count.
fn check_perfetto(bytes: &[u8]) -> usize {
    let text = std::str::from_utf8(bytes).expect("UTF-8 trace");
    let doc: serde::Content = serde_json::from_str(text).expect("Perfetto trace is valid JSON");
    let events = doc.get("traceEvents").and_then(serde::Content::as_seq).expect("traceEvents");
    let mut last: HashMap<(u64, u64), f64> = HashMap::new();
    let mut slices = 0;
    for e in events.iter().filter(|e| e.get("ph").and_then(serde::Content::as_str) == Some("X")) {
        let field = |k| e.get(k).unwrap_or_else(|| panic!("slice without {k}"));
        let track = (field("pid").as_u64().expect("pid"), field("tid").as_u64().expect("tid"));
        let ts = field("ts").as_f64().expect("ts");
        let prev = last.entry(track).or_insert(0.0);
        assert!(ts >= *prev, "track {track:?} went backwards: {ts} after {prev}");
        *prev = ts;
        slices += 1;
    }
    assert!(slices > 0, "no slice events");
    slices
}

const TRACED: &str = "run --design secded --rate 0.02 --ppn 10 --seed 3";

#[test]
fn traced_run_is_deterministic_and_the_analyzer_reproduces_its_report() {
    let dir = scratch("run");
    for n in [1, 2] {
        let outs = format!(
            "--journeys-out j{n}.jsonl --perfetto-out p{n}.json \
             --journey-report-out t{n}.md --journey-csv-out c{n}.csv"
        );
        ok(&dir, &format!("{TRACED} {outs}"));
    }
    for (a, b) in [("j1.jsonl", "j2.jsonl"), ("p1.json", "p2.json"), ("t1.md", "t2.md")] {
        assert_eq!(read(&dir, a), read(&dir, b), "{a} vs {b}");
    }
    assert_eq!(read(&dir, "c1.csv"), read(&dir, "c2.csv"));
    check_perfetto(&read(&dir, "p1.json"));
    // The offline analyzer is a pure function of the log bytes, and the
    // traced run's tail report is the analyzer's (same top-k).
    ok(&dir, "journeys j1.jsonl --out off1.md --csv-out offc.csv");
    ok(&dir, "journeys j1.jsonl --out off2.md");
    assert_eq!(read(&dir, "off1.md"), read(&dir, "off2.md"));
    assert_eq!(read(&dir, "t1.md"), read(&dir, "off1.md"));
    assert_eq!(read(&dir, "c1.csv"), read(&dir, "offc.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_journeys_perturb_nothing_and_match_across_workers() {
    let dir = scratch("campaign");
    let campaign = "campaign --ppn 4 --seed 3 --rate 0.01 --dead-links 0,1 --no-router-fail \
                    --flapping 0 --max-cycles 60000";
    ok(&dir, &format!("{campaign} --csv-out jc-off.csv"));
    ok(&dir, &format!("{campaign} --csv-out jc-on.csv --journeys-dir jd-serial"));
    ok(&dir, &format!("{campaign} --csv-out jc-par.csv --journeys-dir jd-parallel --jobs 4"));
    assert_eq!(read(&dir, "jc-off.csv"), read(&dir, "jc-on.csv"), "tracing moved a byte");
    assert_eq!(read(&dir, "jc-on.csv"), read(&dir, "jc-par.csv"));
    let serial = files(&dir.join("jd-serial"));
    assert!(!serial.is_empty(), "one journey log per unit");
    assert_eq!(serial, files(&dir.join("jd-parallel")), "serial vs --jobs 4 journey logs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_journeys_keep_their_transaction_legs() {
    let dir = scratch("txn");
    ok(&dir, "run --design secded --workload reqreply --rate 0.02 --ppn 4 --seed 3 --journeys-out txn.jsonl");
    let log = String::from_utf8(read(&dir, "txn.jsonl")).expect("UTF-8 log");
    assert!(log.contains("\"txn\":"), "packets carry their transaction tags");
    ok(&dir, "journeys txn.jsonl --out txn.md");
    let report = String::from_utf8(read(&dir, "txn.md")).expect("UTF-8 report");
    assert!(report.contains("transaction"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run` traces journeys alone; `inspect` forces attribution on next to
/// them. The one latency engine writes the same journey bytes either way.
#[test]
fn run_and_inspect_write_the_same_journey_bytes() {
    let dir = scratch("sinks");
    let args = "--design secded --rate 0.02 --ppn 10 --seed 3 --error-rate 5e-4 --journeys-every 3";
    ok(&dir, &format!("run {args} --journeys-out a.jsonl"));
    ok(&dir, &format!("inspect {args} --journeys-out b.jsonl"));
    let a = read(&dir, "a.jsonl");
    assert_eq!(a, read(&dir, "b.jsonl"));
    assert!(String::from_utf8(a).expect("UTF-8 log").contains("hop_retx"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A span that runs backwards is refused at parse, naming its line, instead
/// of overflowing the analyzer.
#[test]
fn hostile_journeys_file_is_refused_naming_its_line() {
    let dir = scratch("hostile");
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
