//! Hostile input: each parser of text that reaches the daemon or the runner
//! from outside (serve submissions, committed baselines, journals, the alert
//! DSL, `--trace-filter`, a metrics exposition scraped for diffing) answers
//! malformed text with an error, never a panic.
//!
//! JSON readers are fed strings over a JSON-significant palette (token soup,
//! and objects of the type's keys with palette values) and byte flips and
//! truncations of a valid document; a document that parses must
//! re-serialize and re-parse to the same bytes, so what is accepted can be
//! written to a WAL or journal and read back. The HTTP server answers every
//! request, whatever its head and body, and goes on serving. A runner
//! journal or a serve WAL cut short or with bytes flipped resumes to the
//! fresh results or is refused naming the file.

use intellinoc::{
    http_request, load_sweep_cells, reference_report_csv, run_experiment, run_grid, BenchBaseline,
    ChaosOptions, Daemon, Design, ExperimentConfig, ExperimentOutcome, JobSpec, JobsSummary,
    RunStatus, RunnerConfig, RunnerReport, ServeConfig, SubmitRequest, UnitRecord, UnitSinks,
};
use noc_sim::{declare_network_metrics, export_network_metrics, Network, SimConfig};
use noc_telemetry::{
    parse_exposition, parse_rules, registry_samples, render_exposition, EventKind, HttpHandler,
    HttpRequest, HttpResponse, HttpServer, MetricsRegistry, TraceFilter,
};
use noc_traffic::{ReqReplySpec, WorkloadSpec};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Structure, literals, escapes and numbers at and past every range edge,
/// whitespace-separated (a space is a token too).
const JSON_TOKENS: &str = r#"{ } [ ] , : " \ null true false 0 7 -1 0.5 -0 1e999 -1e999
    18446744073709551616 -9223372036854775809 "x" "\u0000" "\ud800" "é" [] {}"#;

const JOB_KEYS: &str = "name designs rates ppn seed max_cycles reqreply journeys_every";
const BASELINE_KEYS: &str = "name format_version spec cells designs rates rate Canneal bogus";
const REQREPLY_KEYS: &str = "service_latency reply_packets reply_timeout max_retries backoff_base
    backoff_cap shed_threshold chaos_orphan";
const RECORD_KEYS: &str = "key status payload error timeout";

fn tokens(palette: &'static str) -> Vec<&'static str> {
    palette.split_whitespace().chain([" "]).collect()
}

/// Concatenations of palette tokens.
fn token_soup(palette: &'static str) -> impl Strategy<Value = String> {
    soup(tokens(palette))
}

fn soup(tokens: Vec<&'static str>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..tokens.len(), 0..48)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

/// Objects whose keys are drawn from `keys` and values from the palette.
fn palette_object(keys: &'static str) -> impl Strategy<Value = String> {
    let (keys, values) = (tokens(keys), tokens(JSON_TOKENS));
    prop::collection::vec((0..keys.len(), 0..values.len()), 0..10).prop_map(move |pairs| {
        let entries: Vec<String> =
            pairs.into_iter().map(|(k, v)| format!("\"{}\":{}", keys[k], values[v])).collect();
        format!("{{{}}}", entries.join(","))
    })
}

/// Arrays or objects nested up to 200 000 deep (up to 1 MB, the size of
/// the largest request body the daemon reads).
fn deep_nesting() -> impl Strategy<Value = String> {
    (any::<bool>(), 1usize..200_000)
        .prop_map(|(arrays, depth)| if arrays { "[" } else { "{\"a\":" }.repeat(depth))
}

/// `doc` with one to three bits flipped (ASCII stays ASCII), then maybe
/// truncated.
fn flipped(doc: String) -> impl Strategy<Value = String> {
    assert!(doc.is_ascii());
    (prop::collection::vec((any::<usize>(), 0u8..7), 1..4), any::<usize>(), any::<bool>()).prop_map(
        move |(flips, cut, truncate)| {
            let mut bytes = doc.clone().into_bytes();
            for (at, bit) in flips {
                let i = at % bytes.len();
                bytes[i] ^= 1 << bit;
            }
            if truncate {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            String::from_utf8(bytes).expect("ASCII")
        },
    )
}

fn json_input(keys: &'static str, doc: String) -> impl Strategy<Value = String> {
    prop_oneof![token_soup(JSON_TOKENS), palette_object(keys), flipped(doc), deep_nesting()]
}

/// The input read as `T` and written back, or `None` if it was rejected.
fn json<T: Serialize + Deserialize>(input: &str) -> Option<String> {
    serde_json::from_str::<T>(input).ok().map(|v| serde_json::to_string(&v).expect("serializes"))
}

/// `read` (which renders what it accepted) does not panic on `input`, and
/// reads its own rendering back to the same bytes.
fn check_roundtrip(input: &str, read: fn(&str) -> Option<String>) -> Result<(), TestCaseError> {
    let first = catch_unwind(|| read(input));
    prop_assert!(first.is_ok(), "panicked on {:?}", input);
    if let Ok(Some(rendered)) = first {
        let again = read(&rendered);
        prop_assert!(again.as_ref() == Some(&rendered), "{:?} read back as {:?}", input, again);
    }
    Ok(())
}

fn job_doc() -> String {
    r#"{"name":"grid-1","designs":["secded","intellinoc"],"rates":[0.01,0.25],"ppn":4,"seed":7,"max_cycles":50000,"reqreply":{"reply_timeout":700,"shed_threshold":0.25},"journeys_every":3}"#.to_owned()
}

/// The committed baseline with a PARSEC workload on its axis and in its
/// first 0.5 cell, so flips reach the string form of a workload too.
fn baseline_doc() -> String {
    let doc = include_str!("../../BENCH_designs.json");
    let doc = doc.replacen("      0.5\n", "      \"Canneal\"\n", 1);
    let doc = doc.replacen("\"rate\": 0.5,", "\"rate\": \"Canneal\",", 1);
    assert!(BenchBaseline::from_json(&doc).is_ok() && doc.contains("\"rate\": \"Canneal\""));
    doc
}

fn reqreply_doc() -> String {
    let rr = ReqReplySpec { chaos_orphan: Some(3), reply_packets: 2, ..ReqReplySpec::default() };
    serde_json::to_string(&rr).expect("serializes")
}

/// A journal line of a real (tiny) run.
fn journal_line() -> String {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let cfg = ExperimentConfig::new(Design::Secded, WorkloadSpec::uniform(0.02, 2));
        let record = UnitRecord {
            key: "fig/canneal/SECDED".to_owned(),
            status: RunStatus::Ok,
            payload: Some(run_experiment(cfg.with_seed(3))),
            error: None,
            timeout: None,
            wall_ms: 0.0,
            from_journal: false,
            bundle: None,
        };
        serde_json::to_string(&record).expect("serializes")
    })
    .clone()
}

const ALERT_TOKENS: &str = r#"noc_serve_queue_depth a _ : { } = " , ; < > <= >= 0 1.5 -1 1e999
    NaN inf for= for=0 for=3 critical é \"#;
const ALERT_RULES: &str =
    r#"noc_serve_queue_depth>=8:for=3;noc_txn_conservation_violations{design="SECDED"}>0:critical"#;

/// Exposition syntax: comments, names with histogram suffixes, label
/// blocks, quotes and escapes, and every special value (a newline is a
/// token too, so soups span lines).
const EXPOSITION_TOKENS: &str = r#"# HELP TYPE counter gauge histogram noc_packets_total _bucket _sum
    _count { } = " \ \" \\ \n , le design "SECDED" +Inf -Inf Inf NaN 0 -1 1.5 1e999 0x1f é"#;

/// The exposition of a real (tiny) run, labelled with a value that needs
/// every escape and holds both braces.
fn exposition() -> String {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut net = Network::new(SimConfig::default(), WorkloadSpec::uniform(0.05, 4), 3);
        net.run_cycles(3_000);
        let mut reg = MetricsRegistry::new();
        declare_network_metrics(&mut reg).expect("static names");
        export_network_metrics(&mut reg, &net, &[("design", "SECDED"), ("w", "a\"b\\c}{\nd")])
            .expect("static names");
        let text = render_exposition(&reg);
        assert_eq!(parse_exposition(&text), Ok(registry_samples(&reg)));
        text
    })
    .clone()
}

/// A server answering every request it accepts with the length of the
/// body it was handed.
fn body_len_server() -> HttpServer {
    let handler: HttpHandler = Arc::new(|req: &HttpRequest| {
        HttpResponse::text(200, format!("body_len={}", req.body.len()))
    });
    HttpServer::bind("127.0.0.1:0", handler).expect("bind")
}

/// Sends `request` to `addr`, half-closes and reads the whole answer: its
/// status and body.
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(request).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("the server answers");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    (status, text.split_once("\r\n\r\n").map_or(String::new(), |(_, b)| b.to_owned()))
}

/// An HTTP request: `pad` bytes of filler headers, a `Content-Length` of
/// `declared` (none if `None`) and `body`.
fn request(method: &str, pad: usize, declared: Option<usize>, body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} /x HTTP/1.0\r\n");
    for i in 0..pad.div_ceil(64) {
        head.push_str(&format!("X-Pad-{i}: {}\r\n", "p".repeat(54)));
    }
    if let Some(n) = declared {
        head.push_str(&format!("Content-Length: {n}\r\n"));
    }
    let mut out = format!("{head}\r\n").into_bytes();
    out.extend_from_slice(body);
    out
}

const FILTER_TOKENS: &str =
    "router kind = , 3 -1 4294967296 retx mode inject hop ecc gate q bogus é";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn job_spec_json_never_panics(input in json_input(JOB_KEYS, job_doc())) {
        check_roundtrip(&input, json::<JobSpec>)?;
    }

    #[test]
    fn bench_baseline_json_never_panics(
        input in json_input(BASELINE_KEYS, baseline_doc()),
    ) {
        check_roundtrip(&input, |s| BenchBaseline::from_json(s).ok().map(|b| b.to_json().unwrap()))?;
    }

    #[test]
    fn reqreply_spec_json_never_panics(input in json_input(REQREPLY_KEYS, reqreply_doc())) {
        check_roundtrip(&input, json::<ReqReplySpec>)?;
    }

    #[test]
    fn journal_line_never_panics(input in json_input(RECORD_KEYS, journal_line())) {
        check_roundtrip(&input, json::<UnitRecord<ExperimentOutcome>>)?;
    }

    #[test]
    fn alert_rules_never_panic(
        input in prop_oneof![token_soup(ALERT_TOKENS), flipped(ALERT_RULES.to_owned())],
    ) {
        let parsed = catch_unwind(|| parse_rules(&input));
        prop_assert!(parsed.is_ok(), "panicked on {:?}", input);
        if let Ok(Ok(rules)) = parsed {
            prop_assert!(rules.iter().all(|r| r.sustain >= 1 && r.threshold.is_finite()));
        }
    }

    #[test]
    fn exposition_never_panics(
        input in prop_oneof![
            soup(tokens(EXPOSITION_TOKENS).into_iter().chain(["\n"]).collect()),
            flipped(exposition()),
        ],
    ) {
        prop_assert!(catch_unwind(|| parse_exposition(&input)).is_ok(), "panicked on {:?}", input);
    }

    #[test]
    fn trace_filter_never_panics(
        input in prop_oneof![token_soup(FILTER_TOKENS), flipped("router=3,kind=retx,kind=mode".to_owned())],
    ) {
        let parsed = catch_unwind(|| TraceFilter::parse(&input, 64));
        prop_assert!(parsed.is_ok(), "panicked on {:?}", input);
        if let Ok(Ok(filter)) = parsed {
            prop_assert!(catch_unwind(|| EventKind::ALL.map(|k| filter.admits(3, k))).is_ok());
        }
    }

    /// Heads under and past the 16 KiB limit, bodies declared shorter,
    /// longer or as long as what is sent, or past the 1 MiB limit, or not
    /// at all: an oversized request gets 413, a body cut short by the
    /// client's half-close 400, and a 200 means the handler saw exactly
    /// `Content-Length` bytes. The server answers a well-formed request
    /// after every case.
    #[test]
    fn http_requests_get_a_fitting_answer(
        method in 0usize..3,
        big_head in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..600),
        declare in 0usize..5,
        off in 1usize..200,
    ) {
        let sent = body.len();
        let declared = match declare {
            0 => None,
            1 => Some(sent),
            2 => Some(sent + off),
            3 => Some(sent.saturating_sub(off)),
            _ => Some(2_000_000),
        };
        let pad = if big_head { 20 * 1024 } else { off };
        let method = ["GET", "POST", "PUT"][method];
        let server = body_len_server();
        let addr = server.local_addr();
        let (status, answer) = exchange(addr, &request(method, pad, declared, &body));
        let want = if big_head || declared > Some(1 << 20) {
            413
        } else if declared > Some(sent) {
            400
        } else {
            200
        };
        prop_assert!(status == want, "status {} (want {}): {:?}", status, want, answer);
        if status == 200 {
            prop_assert_eq!(answer, format!("body_len={}", declared.unwrap_or(0)));
        }
        let well_formed = exchange(addr, &request("GET", 0, None, b""));
        prop_assert_eq!(well_formed, (200, "body_len=0".to_owned()));
    }
}

/// `bytes` cut at `cut` (modulo its length + 1), or with each `(at, mask)`
/// byte XOR-ed.
fn damaged(bytes: &[u8], truncate: bool, cut: usize, flips: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    if truncate {
        bytes.truncate(cut % (bytes.len() + 1));
    } else {
        for &(at, mask) in flips {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
    }
    bytes
}

/// The tiny grid the journal property resumes: two sweep cells.
fn journal_cells() -> Vec<(String, ExperimentConfig)> {
    load_sweep_cells(Design::Secded, &[0.01, 0.02], 2, 7, None)
}

/// Runs the tiny grid, journaled at `journal` (resuming from it when
/// `resume`): the merged report as JSON, or the engine's error.
fn journaled_grid(journal: &Path, resume: bool) -> Result<String, String> {
    let rcfg =
        RunnerConfig { journal: Some(journal.to_path_buf()), resume, ..RunnerConfig::serial() };
    run_grid(&journal_cells(), &rcfg, &ChaosOptions::default(), UnitSinks::default())
        .map(|r: RunnerReport<ExperimentOutcome>| serde_json::to_string(&r).expect("serializes"))
}

/// The journal a complete run of the tiny grid writes, and its report.
fn written_journal() -> &'static (Vec<u8>, String) {
    static JOURNAL: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("intellinoc-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("written.jsonl");
        let _ = std::fs::remove_file(&path);
        let report = journaled_grid(&path, false).expect("a fresh grid runs");
        let bytes = std::fs::read(&path).expect("the journal was written");
        (bytes, report)
    })
}

/// The one-unit serve job the WAL property submits, under `name`.
fn wal_spec(name: &str) -> JobSpec {
    JobSpec {
        name: name.to_owned(),
        designs: vec!["secded".to_owned()],
        rates: vec![0.005],
        ppn: 1,
        seed: 11,
        max_cycles: 50_000,
        reqreply: None,
        journeys_every: 0,
    }
}

fn jobs_summary(addr: &str) -> JobsSummary {
    let (code, body) = http_request(addr, "GET", "/api/jobs", None).expect("GET /api/jobs");
    assert_eq!(code, 200, "{body}");
    serde_json::from_str(&body).expect("a jobs summary")
}

/// Polls until no job is queued or running.
fn wait_idle(addr: &str) -> JobsSummary {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let summary = jobs_summary(addr);
        if summary.queued == 0 && summary.running == 0 {
            return summary;
        }
        assert!(Instant::now() < deadline, "daemon never went idle: {summary:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A daemon's state directory after two one-unit jobs ran, where the
/// second's terminal record, journal and report are gone (a crash before it
/// ran), so every restart runs it again from the spec its WAL record holds.
fn written_state_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("intellinoc-hostile-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon =
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
                .expect("a fresh daemon starts");
        let addr = daemon.local_addr().to_string();
        for name in ["first", "second"] {
            let body = serde_json::to_string(&SubmitRequest {
                tenant: "alice".to_owned(),
                priority: 0,
                paused: false,
                spec: wal_spec(name),
            })
            .expect("serializes");
            let (code, resp) = http_request(&addr, "POST", "/api/jobs", Some(&body)).expect("POST");
            assert_eq!(code, 202, "{resp}");
        }
        wait_idle(&addr);
        assert!(daemon.shutdown(Duration::from_secs(10)));
        let wal = dir.join("wal.jsonl");
        let second_done = |l: &&str| l.contains(r#""action":"terminal","id":"j-000002""#);
        let text = std::fs::read_to_string(&wal).expect("the WAL");
        let kept: String =
            text.lines().filter(|l| !second_done(l)).map(|l| l.to_owned() + "\n").collect();
        assert!(kept.len() < text.len(), "no terminal record of j-000002 in {text}");
        std::fs::write(&wal, kept).expect("rewrite the WAL");
        std::fs::remove_file(dir.join("journals/j-000002.jsonl")).expect("its journal");
        std::fs::remove_file(dir.join("reports/j-000002.csv")).expect("its report");
        dir
    })
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A journal cut at any offset, or with one to three bytes flipped,
    /// resumes without a panic to exactly the report of a fresh run, or is
    /// refused with an error naming the file.
    #[test]
    fn a_damaged_journal_resumes_to_the_fresh_report_or_is_refused(
        truncate in any::<bool>(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        let (written, fresh) = written_journal();
        let bytes = damaged(written, truncate, cut, &flips);
        let dir = std::env::temp_dir().join(format!("intellinoc-hostile-{}", std::process::id()));
        let path = dir.join("damaged.jsonl");
        std::fs::write(&path, &bytes).expect("write the damaged journal");
        let resumed = catch_unwind(AssertUnwindSafe(|| journaled_grid(&path, true)));
        let shown = String::from_utf8_lossy(&bytes);
        prop_assert!(resumed.is_ok(), "resume panicked on {:?}", shown);
        match resumed.unwrap() {
            Ok(report) => prop_assert!(&report == fresh, "{:?} resumed to {}", shown, report),
            Err(e) => prop_assert!(e.contains(&path.display().to_string()), "{}", e),
        }
    }

    /// A daemon restarted on a WAL cut at any offset, or with one to three
    /// bytes flipped, starts without a panic and finishes every job it
    /// recovers with the report of an uninterrupted run of that job's
    /// spec, or refuses to start with an error naming the WAL.
    #[test]
    fn a_damaged_wal_recovers_the_written_jobs_or_is_refused(
        truncate in any::<bool>(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        let written = written_state_dir();
        let dir = written.with_extension("damaged");
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(written, &dir);
        let wal = dir.join("wal.jsonl");
        let bytes = damaged(&std::fs::read(&wal).expect("the WAL"), truncate, cut, &flips);
        std::fs::write(&wal, &bytes).expect("write the damaged WAL");
        let started = catch_unwind(AssertUnwindSafe(|| {
            Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
        }));
        prop_assert!(started.is_ok(), "start panicked on {:?}", String::from_utf8_lossy(&bytes));
        match started.unwrap() {
            Ok(daemon) => {
                let addr = daemon.local_addr().to_string();
                for job in &wait_idle(&addr).jobs {
                    prop_assert!(["first", "second"].contains(&job.name.as_str()), "{:?}", job);
                    prop_assert_eq!(job.state.as_str(), "done");
                    let path = format!("/api/jobs/{}/report", job.id);
                    let (code, csv) = http_request(&addr, "GET", &path, None).expect("GET report");
                    prop_assert_eq!(code, 200);
                    prop_assert_eq!(csv, reference_report_csv(&wal_spec(&job.name)).unwrap());
                }
                prop_assert!(daemon.shutdown(Duration::from_secs(10)));
            }
            Err(e) => prop_assert!(e.contains(&wal.display().to_string()), "{}", e),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
