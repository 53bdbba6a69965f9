//! Pins of the JSON readers and writers behind stored formats: `JobSpec`
//! (serve submissions and WAL), `BenchSpec` / `BenchCell` (committed
//! `BENCH_*.json` baselines), `ReqReplySpec` (inside both), and
//! `UnitRecord` / `RunnerReport` (runner journals and merged reports).
//!
//! Each reader is pinned by the `Debug` of `serde_json::from_str` on a table
//! drawn from one complete document: the document, `{}`, and per key (in
//! document order) the key absent, `null` and a wrong type, then an unknown
//! extra key and the non-object values. Each writer is pinned by
//! `serde_json::to_string` of one fixed value. A change to how these types
//! are read or written passes only if every value and every error message
//! stays the same.

use intellinoc::{
    BenchCell, BenchSpec, BenchWorkload, Design, JobSpec, MetricStats, RunStatus, RunnerReport,
    TimeoutReport, UnitRecord,
};
use noc_traffic::ReqReplySpec;
use serde::{Content, Deserialize};
use std::fmt::Debug;

const REQREPLY: &str = r#"{"service_latency":9,"reply_packets":2,"reply_timeout":700,"max_retries":1,"backoff_base":16,"backoff_cap":512,"shed_threshold":0.25,"chaos_orphan":42}"#;

const STATS: &str = r#"{"mean":1.5,"stddev":0.5,"ci95":0.25,"n":3}"#;

const TIMEOUT: &str = r#"{"deadline_cycles":900,"cycles_run":900,"in_flight":3,"stall":null}"#;

fn job_spec() -> String {
    format!(
        r#"{{"name":"grid-1","designs":["secded","intellinoc"],"rates":[0.01,0.25],"ppn":4,"seed":7,"max_cycles":50000,"reqreply":{REQREPLY},"journeys_every":3}}"#
    )
}

fn bench_spec() -> String {
    format!(
        r#"{{"designs":["Secded","IntelliNoc"],"rates":[0.1,0.3],"seeds":2,"ppn":32,"master_seed":2019,"reqreply":{REQREPLY}}}"#
    )
}

fn bench_cell() -> String {
    format!(
        r#"{{"design":"SECDED","rate":0.1,"avg_latency":{STATS},"p99_latency":{STATS},"energy_per_flit_pj":{STATS},"mttf_hours":{STATS},"txn_p50_latency":{STATS},"txn_p99_latency":{STATS}}}"#
    )
}

fn unit_record() -> String {
    format!(
        r#"{{"key":"u/1","status":"timed-out","payload":5,"error":"boom","timeout":{TIMEOUT}}}"#
    )
}

fn runner_report() -> String {
    format!(r#"{{"records":[{}]}}"#, unit_record())
}

/// A value of another JSON kind than `value`. A `reqreply` object stays an
/// object (with a wrong-typed field), so no non-object `ReqReplySpec` is read.
fn wrong_type(key: &str, value: &Content) -> Content {
    match value {
        Content::Str(_) => Content::U64(7),
        Content::U64(_) | Content::I64(_) | Content::F64(_) | Content::Bool(_) => {
            Content::Str("x".into())
        }
        Content::Seq(_) | Content::Null => Content::Bool(true),
        Content::Map(_) if key == "reqreply" => {
            Content::Map(vec![("reply_packets".into(), Content::Str("x".into()))])
        }
        Content::Map(_) => Content::Seq(Vec::new()),
    }
}

/// The input table drawn from `doc` (see the module docs).
fn inputs(doc: &str, non_objects: bool) -> Vec<String> {
    let Content::Map(entries) = serde_json::from_str::<Content>(doc).expect("valid document")
    else {
        panic!("document is an object")
    };
    let render = |e: Vec<(String, Content)>| serde_json::to_string(&Content::Map(e)).unwrap();
    let mut out = vec![render(entries.clone()), "{}".to_owned()];
    for (i, (key, value)) in entries.iter().enumerate() {
        let mut absent = entries.clone();
        absent.remove(i);
        out.push(render(absent));
        for v in [Content::Null, wrong_type(key, value)] {
            let mut e = entries.clone();
            e[i].1 = v;
            out.push(render(e));
        }
    }
    let mut extra = entries;
    extra.push(("zz_unknown".into(), Content::U64(1)));
    out.push(render(extra));
    if non_objects {
        out.extend(["false", "7", "\"x\"", "[]", "null"].map(str::to_owned));
    }
    out
}

fn parse_lines<T: Deserialize + Debug>(name: &str, doc: &str, non_objects: bool) -> String {
    inputs(doc, non_objects)
        .iter()
        .map(|input| format!("{name} {input} => {:?}\n", serde_json::from_str::<T>(input)))
        .collect()
}

/// Line-by-line comparison, so a failure names the first line that moved.
fn assert_pinned(rendered: &str, fixture: &str) {
    for (i, (got, want)) in rendered.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the pin moved", i + 1);
    }
    assert_eq!(rendered.lines().count(), fixture.lines().count(), "pin line count");
}

#[test]
fn json_readers_are_pinned() {
    let rendered = [
        parse_lines::<JobSpec>("JobSpec", &job_spec(), true),
        parse_lines::<BenchSpec>("BenchSpec", &bench_spec(), true),
        parse_lines::<BenchCell>("BenchCell", &bench_cell(), true),
        parse_lines::<ReqReplySpec>("ReqReplySpec", REQREPLY, false),
        parse_lines::<UnitRecord<u64>>("UnitRecord", &unit_record(), true),
        parse_lines::<RunnerReport<u64>>("RunnerReport", &runner_report(), true),
    ]
    .concat();
    assert_pinned(&rendered, include_str!("fixtures/serde_parse.txt"));
}

#[test]
fn json_writers_are_pinned() {
    let rr = ReqReplySpec {
        service_latency: 9,
        reply_packets: 2,
        chaos_orphan: Some(42),
        ..ReqReplySpec::default()
    };
    let stats = MetricStats::from_samples(&[1.0, 2.0, 4.0]);
    let zero = MetricStats::from_samples(&[]);
    let record = |key: &str, status, payload| UnitRecord {
        key: key.to_owned(),
        status,
        payload,
        error: None,
        timeout: Some(TimeoutReport {
            deadline_cycles: 900,
            cycles_run: 900,
            in_flight: 3,
            stall: None,
        }),
        wall_ms: 12.5,
        from_journal: true,
    };
    let lines = [
        serde_json::to_string(&rr),
        serde_json::to_string(&JobSpec {
            name: "grid-1".into(),
            designs: vec!["secded".into(), "intellinoc".into()],
            rates: vec![0.01, 0.25],
            ppn: 4,
            seed: 7,
            max_cycles: 50_000,
            reqreply: Some(rr.clone()),
            journeys_every: 3,
        }),
        serde_json::to_string(&BenchSpec {
            designs: vec![Design::Secded, Design::IntelliNoc],
            rates: vec![BenchWorkload::Rate(0.1), BenchWorkload::Rate(0.3)],
            seeds: 2,
            ppn: 32,
            master_seed: 2019,
            reqreply: None,
        }),
        serde_json::to_string(&BenchCell {
            design: "SECDED".into(),
            rate: BenchWorkload::Rate(0.1),
            avg_latency: stats.clone(),
            p99_latency: stats.clone(),
            energy_per_flit_pj: stats.clone(),
            mttf_hours: stats,
            txn_p50_latency: zero.clone(),
            txn_p99_latency: zero,
        }),
        serde_json::to_string(&record("u/1", RunStatus::TimedOut, Some(5u64))),
        serde_json::to_string(&RunnerReport {
            records: vec![
                record("u/0", RunStatus::Ok, Some(1u64)),
                record("u/1", RunStatus::Failed, None),
            ],
            events: Vec::new(),
            recorder_drops: 9,
        }),
    ];
    let rendered: String = lines.into_iter().map(|l| l.expect("serializes") + "\n").collect();
    assert_pinned(&rendered, include_str!("fixtures/serde_write.txt"));
}
