//! Integration tests for `intellinoc serve` (DESIGN.md §14): the
//! crash-survivable multi-tenant experiment daemon, exercised in-process
//! through its real HTTP surface and its on-disk state directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use intellinoc::{
    http_request, reference_report_csv, Daemon, JobSpec, JobStatus, JobsSummary, ServeConfig,
    SubmitRequest, SubmitResponse,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intellinoc-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_spec(name: &str) -> JobSpec {
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

fn submit(addr: &str, tenant: &str, priority: i64, paused: bool, spec: JobSpec) -> (u16, String) {
    let body =
        serde_json::to_string(&SubmitRequest { tenant: tenant.to_owned(), priority, paused, spec })
            .unwrap();
    http_request(addr, "POST", "/api/jobs", Some(&body)).unwrap()
}

fn jobs_summary(addr: &str) -> JobsSummary {
    let (code, body) = http_request(addr, "GET", "/api/jobs", None).unwrap();
    assert_eq!(code, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}

/// Polls until no job is queued or running (the daemon is idle).
fn wait_idle(addr: &str) -> JobsSummary {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let summary = jobs_summary(addr);
        if summary.queued == 0 && summary.running == 0 {
            return summary;
        }
        assert!(Instant::now() < deadline, "daemon never went idle: {summary:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn fetch_report(addr: &str, id: &str) -> String {
    let (code, csv) = http_request(addr, "GET", &format!("/api/jobs/{id}/report"), None).unwrap();
    assert_eq!(code, 200, "{csv}");
    csv
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

#[test]
fn multi_tenant_jobs_complete_with_exact_accounting_and_reference_reports() {
    let dir = tmp_dir("multi");
    let daemon =
        Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() }).unwrap();
    let addr = daemon.local_addr().to_string();

    // Three jobs across two tenants at mixed priorities.
    let mut ids = Vec::new();
    for (tenant, priority, name) in
        [("alice", 0, "grid-a"), ("bob", 5, "grid-b"), ("alice", 2, "grid-c")]
    {
        let (code, body) = submit(&addr, tenant, priority, false, tiny_spec(name));
        assert_eq!(code, 202, "{body}");
        let resp: SubmitResponse = serde_json::from_str(&body).unwrap();
        ids.push((resp.id, name));
    }

    let summary = wait_idle(&addr);
    assert_eq!(summary.accepted, 3);
    assert_eq!(
        summary.done + summary.failed + summary.cancelled,
        summary.accepted,
        "accounting invariant violated: {summary:?}"
    );
    assert_eq!(summary.done, 3, "{summary:?}");

    // Every report is byte-identical to an uninterrupted serial run of
    // the same spec through the engine.
    for (id, name) in &ids {
        assert_eq!(fetch_report(&addr, id), reference_report_csv(&tiny_spec(name)).unwrap());
    }

    let (_, metrics) = http_request(&addr, "GET", "/metrics", None).unwrap();
    for family in [
        "noc_serve_jobs",
        "noc_serve_accepted_total 3",
        "noc_serve_units_done_total 3",
        "noc_serve_http_requests_total",
        "noc_serve_draining 0",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }

    assert!(daemon.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

fn job_status(addr: &str, id: &str) -> JobStatus {
    let (code, body) = http_request(addr, "GET", &format!("/api/jobs/{id}"), None).unwrap();
    assert_eq!(code, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}

/// Pausing a running job hands the one scheduler thread to the next job:
/// at its next chunk boundary the paused job goes back to the queue
/// instead of holding the scheduler until it is resumed.
#[test]
fn pausing_a_running_job_lets_the_next_job_run() {
    let dir = tmp_dir("pause");
    let daemon = Daemon::start(ServeConfig {
        state_dir: dir.clone(),
        chunk_units: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr().to_string();

    // 12 units, one per chunk.
    let long = JobSpec {
        designs: vec!["secded".to_owned(), "eb".to_owned()],
        rates: vec![0.005, 0.006, 0.007, 0.008, 0.009, 0.01],
        ppn: 20,
        seed: 7,
        ..tiny_spec("long")
    };
    let (code, body) = submit(&addr, "alice", 0, false, long.clone());
    assert_eq!(code, 202, "{body}");
    let long_id = serde_json::from_str::<SubmitResponse>(&body).unwrap().id;
    let deadline = Instant::now() + Duration::from_secs(60);
    while job_status(&addr, &long_id).units_done == 0 {
        assert!(Instant::now() < deadline, "the long job made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (code, body) =
        http_request(&addr, "POST", &format!("/api/jobs/{long_id}/pause"), None).unwrap();
    assert_eq!(code, 200, "{body}");

    let (code, body) = submit(&addr, "bob", 0, false, tiny_spec("short"));
    assert_eq!(code, 202, "{body}");
    let short_id = serde_json::from_str::<SubmitResponse>(&body).unwrap().id;
    let deadline = Instant::now() + Duration::from_secs(60);
    while job_status(&addr, &short_id).state != "done" {
        let held = job_status(&addr, &long_id);
        assert!(Instant::now() < deadline, "the paused job held the scheduler: {held:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let held = job_status(&addr, &long_id);
    assert_eq!((held.state.as_str(), held.paused), ("queued", true), "{held:?}");
    assert!(held.units_done < held.units_total, "{held:?}");

    let (code, body) =
        http_request(&addr, "POST", &format!("/api/jobs/{long_id}/resume"), None).unwrap();
    assert_eq!(code, 200, "{body}");
    let summary = wait_idle(&addr);
    assert_eq!((summary.accepted, summary.done), (2, 2), "{summary:?}");
    assert_eq!(fetch_report(&addr, &long_id), reference_report_csv(&long).unwrap());

    assert!(daemon.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_truncated_at_trailing_offsets_recovers_without_losing_jobs() {
    // Build a finished state directory: two done jobs, WAL ending in
    // their terminal records.
    let dir = tmp_dir("waltorn");
    let daemon =
        Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() }).unwrap();
    let addr = daemon.local_addr().to_string();
    for name in ["first", "second"] {
        let (code, body) = submit(&addr, "alice", 0, false, tiny_spec(name));
        assert_eq!(code, 202, "{body}");
    }
    wait_idle(&addr);
    assert!(daemon.shutdown(Duration::from_secs(10)));

    let wal = std::fs::read(dir.join("wal.jsonl")).unwrap();
    let wal_text = String::from_utf8(wal.clone()).unwrap();
    assert!(wal_text.ends_with('\n'));
    // Start of the final record: the only tear a fsync-per-record WAL can
    // physically leave is within its trailing line.
    let last_start = wal_text[..wal_text.len() - 1].rfind('\n').unwrap() + 1;

    // Truncate at the clean boundary, mid-record, one byte in, and one
    // byte short of complete.
    for offset in [last_start, last_start + 1, (last_start + wal.len()) / 2, wal.len() - 1] {
        let copy = tmp_dir(&format!("waltorn-{offset}"));
        copy_dir(&dir, &copy);
        std::fs::write(copy.join("wal.jsonl"), &wal[..offset]).unwrap();

        let daemon =
            Daemon::start(ServeConfig { state_dir: copy.clone(), ..ServeConfig::default() })
                .unwrap();
        let addr = daemon.local_addr().to_string();
        let summary = wait_idle(&addr);
        assert_eq!(summary.accepted, 2, "offset {offset}: {summary:?}");
        assert_eq!(summary.done, 2, "offset {offset}: {summary:?}");

        // Reports converge to the uninterrupted reference bytes even when
        // the terminal record was torn away and the job re-finalized.
        let (code, body) = http_request(&addr, "GET", "/api/jobs", None).unwrap();
        assert_eq!(code, 200);
        let summary: JobsSummary = serde_json::from_str(&body).unwrap();
        for job in &summary.jobs {
            assert_eq!(job.state, "done", "offset {offset}: {job:?}");
            assert_eq!(
                fetch_report(&addr, &job.id),
                reference_report_csv(&tiny_spec(&job.name)).unwrap(),
                "offset {offset}"
            );
        }

        // A job acknowledged after the tear must survive the next restart:
        // its record starts on its own line, not spliced onto the torn one.
        let (code, body) = submit(&addr, "alice", 0, false, tiny_spec("third"));
        assert_eq!(code, 202, "offset {offset}: {body}");
        wait_idle(&addr);
        assert!(daemon.shutdown(Duration::from_secs(10)));
        let daemon =
            Daemon::start(ServeConfig { state_dir: copy.clone(), ..ServeConfig::default() })
                .unwrap_or_else(|e| panic!("offset {offset}: second restart: {e}"));
        let summary = wait_idle(&daemon.local_addr().to_string());
        assert_eq!(summary.accepted, 3, "offset {offset}: {summary:?}");
        assert_eq!(summary.done, 3, "offset {offset}: {summary:?}");

        assert!(daemon.shutdown(Duration::from_secs(10)));
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn WAL append (what `ChaosPoint::MidWal` leaves: half a record, no
/// newline) must not corrupt the records acknowledged after the restart
/// that dropped it — the WAL truncates to its valid prefix before
/// appending, like the runner journal.
#[test]
fn torn_wal_tail_survives_two_restarts() {
    let dir = tmp_dir("waltwice");
    let start = || {
        Daemon::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() })
            .unwrap_or_else(|e| panic!("daemon start: {e}"))
    };
    let daemon = start();
    let (code, body) = submit(&daemon.local_addr().to_string(), "alice", 0, false, tiny_spec("a"));
    assert_eq!(code, 202, "{body}");
    wait_idle(&daemon.local_addr().to_string());
    assert!(daemon.shutdown(Duration::from_secs(10)));

    // Kill mid-append: half of a submit record reaches the disk.
    let wal_path = dir.join("wal.jsonl");
    let wal = std::fs::read_to_string(&wal_path).unwrap();
    let record = wal.lines().nth(1).unwrap();
    std::fs::write(&wal_path, format!("{wal}{}", &record[..record.len() / 2])).unwrap();

    // First restart drops the torn tail; two more jobs are acknowledged.
    let daemon = start();
    let addr = daemon.local_addr().to_string();
    assert_eq!(jobs_summary(&addr).accepted, 1);
    for name in ["b", "c"] {
        let (code, body) = submit(&addr, "alice", 0, false, tiny_spec(name));
        assert_eq!(code, 202, "{body}");
    }
    wait_idle(&addr);
    assert!(daemon.shutdown(Duration::from_secs(10)));

    // Second restart: every acknowledged job is still there.
    let daemon = start();
    let summary = wait_idle(&daemon.local_addr().to_string());
    assert_eq!(summary.accepted, 3, "{summary:?}");
    assert_eq!(summary.done, 3, "{summary:?}");
    assert!(daemon.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}
