//! Journey tracing, driven through the binary: a traced run writes the same
//! journey log and prints the same tail report every time; the analyzer
//! renders the same tail report, tail-contribution CSV and Perfetto trace
//! from the log every time, and its tail report is the run's; the Perfetto
//! trace is valid JSON with every track's slices in time order;
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
    let mut stdout = Vec::new();
    for n in [1, 2] {
        let (code, out, err) =
            intellinoc(&dir, &format!("{TRACED} --journeys-every 1 --out-dir r{n}"));
        assert_eq!(code, 0, "{err}");
        stdout.push(out);
    }
    assert_eq!(stdout[0], stdout[1], "run's stdout differs");
    assert_eq!(read(&dir, "r1/journeys.jsonl"), read(&dir, "r2/journeys.jsonl"));
    // The offline analyzer is a pure function of the log bytes, and the
    // traced run's tail report (the end of its stdout) is the analyzer's
    // (same top-k).
    ok(&dir, "journeys r1/journeys.jsonl --out-dir a1");
    ok(&dir, "journeys r1/journeys.jsonl --out-dir a2");
    for name in ["tail-report.md", "tail-contrib.csv", "perfetto.json"] {
        assert_eq!(read(&dir, &format!("a1/{name}")), read(&dir, &format!("a2/{name}")), "{name}");
    }
    check_perfetto(&read(&dir, "a1/perfetto.json"));
    let report = String::from_utf8(read(&dir, "a1/tail-report.md")).expect("UTF-8 report");
    assert!(
        stdout[0].ends_with(&report),
        "run's tail report:\n{}\nanalyzer's:\n{report}",
        stdout[0]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_journeys_perturb_nothing_and_match_across_workers() {
    let dir = scratch("campaign");
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
    let dir = scratch("txn");
    ok(
        &dir,
        "run --design secded --workload reqreply --rate 0.02 --ppn 4 --seed 3 --journeys-every 1 \
         --out-dir run",
    );
    let log = String::from_utf8(read(&dir, "run/journeys.jsonl")).expect("UTF-8 log");
    assert!(log.contains("\"txn\":"), "packets carry their transaction tags");
    ok(&dir, "journeys run/journeys.jsonl --out-dir txn");
    let report = String::from_utf8(read(&dir, "txn/tail-report.md")).expect("UTF-8 report");
    assert!(report.contains("transaction"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run` traces journeys alone; `inspect` forces attribution on next to
/// them. The one latency engine writes the same journey bytes either way.
#[test]
fn run_and_inspect_write_the_same_journey_bytes() {
    let dir = scratch("sinks");
    let args = "--design secded --rate 0.02 --ppn 10 --seed 3 --error-rate 5e-4 --journeys-every 3";
    ok(&dir, &format!("run {args} --out-dir a"));
    ok(&dir, &format!("inspect {args} --out-dir b"));
    let a = read(&dir, "a/journeys.jsonl");
    assert_eq!(a, read(&dir, "b/journeys.jsonl"));
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
