//! Cross-crate tests of the `noc-runner` execution engine driving the real
//! campaign and sweep grids: determinism across execution modes, panic
//! containment, deadline classification, and journaled resume.

use intellinoc::{
    derive_seed, load_sweep_cells, run_grid, CampaignConfig, CampaignRunReport, ChaosOptions,
    Design, RunStatus, RunnerConfig, UnitSinks, CHAOS_DEADLINE_CYCLES,
};
use std::path::PathBuf;

fn tiny_campaign() -> CampaignConfig {
    CampaignConfig {
        rate: 0.01,
        ppn: 4,
        seed: 3,
        dead_links: vec![0, 1],
        router_fail_at: None,
        flapping: 0,
        fault_aware_routing: true,
        max_cycles: 60_000,
        reqreply: None,
    }
}

/// `cfg`'s campaign as the CLI runs it: its cells through [`run_grid`].
fn run_campaign(
    cfg: &CampaignConfig,
    rcfg: &RunnerConfig,
    chaos: &ChaosOptions,
) -> CampaignRunReport {
    let runner = run_grid(&cfg.cells(), rcfg, chaos, UnitSinks::default()).unwrap();
    CampaignRunReport { config: cfg.clone(), runner }
}

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("intellinoc-runner-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Satellite 1: per-unit seeds derive from the stable run key, so serial,
/// `--jobs 4`, and journal-resumed executions of the same campaign produce
/// byte-identical merged reports (JSON and CSV).
#[test]
fn campaign_serial_parallel_and_resumed_reports_are_byte_identical() {
    let cfg = tiny_campaign();
    let chaos = ChaosOptions::default();

    let serial = run_campaign(&cfg, &RunnerConfig::serial(), &chaos);
    assert!(serial.runner.is_clean());

    let parallel = run_campaign(&cfg, &RunnerConfig::serial().with_jobs(4), &chaos);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "parallel merged report must match the serial one byte-for-byte"
    );
    assert_eq!(serial.to_csv(), parallel.to_csv());

    // Satellite 4: interrupt the campaign mid-grid via the unit cap, then
    // resume from the journal; the final merge equals the clean serial run.
    let journal = temp_journal("campaign-resume.jsonl");
    let interrupted = RunnerConfig {
        journal: Some(journal.clone()),
        max_units: Some(3),
        ..RunnerConfig::serial()
    };
    let partial = run_campaign(&cfg, &interrupted, &chaos);
    assert_eq!(partial.runner.counts().ok, 3);
    assert_eq!(partial.runner.counts().skipped, serial.runner.records.len() - 3);

    let resume = RunnerConfig {
        journal: Some(journal.clone()),
        resume: true,
        jobs: 4,
        ..RunnerConfig::serial()
    };
    let resumed = run_campaign(&cfg, &resume, &chaos);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&resumed).unwrap(),
        "resumed merged report must match the uninterrupted serial one"
    );
    assert_eq!(serial.to_csv(), resumed.to_csv());
    assert_eq!(resumed.runner.records.iter().filter(|r| r.from_journal).count(), 3);
    let _ = std::fs::remove_file(&journal);
}

/// The per-unit seed is a pure function of `(master_seed, key)` — the same
/// cell gets the same seed no matter how the grid around it is shaped.
#[test]
fn cell_seeds_survive_grid_reshapes() {
    let key = "campaign/dead-links-1/IntelliNoC/r0.01";
    let narrow = derive_seed(3, key);
    // Reshaping the grid (more scenarios, different order) cannot move the
    // cell's seed, because the key, not the position, feeds the derivation.
    assert_eq!(narrow, derive_seed(3, key));
    assert_ne!(narrow, derive_seed(4, key));
    assert_ne!(narrow, derive_seed(3, "campaign/dead-links-1/IntelliNoC/r0.02"));
}

/// Satellite 3: a panicking unit is contained — it becomes a `failed`
/// record with the panic message, and every sibling completes.
#[test]
fn panicking_campaign_cell_is_contained() {
    let cfg = tiny_campaign();
    let chaos =
        ChaosOptions { panic_units: Some("dead-links-1/CPD".to_owned()), timeout_units: None };
    for jobs in [1, 4] {
        let report = run_campaign(&cfg, &RunnerConfig::serial().with_jobs(jobs), &chaos);
        let c = report.runner.counts();
        assert_eq!(c.failed, 1, "jobs={jobs}");
        assert_eq!(c.ok, 2 * Design::ALL.len() - 1, "jobs={jobs}");
        let failed = report
            .runner
            .records
            .iter()
            .find(|r| r.status == RunStatus::Failed)
            .expect("one failed record");
        assert!(failed.key.contains("dead-links-1/CPD"));
        assert!(failed.error.as_deref().unwrap().contains("forced panic"));
        assert!(failed.payload.is_none());
    }
}

/// Satellite 2 / deadline path: a chaos-marked unit runs under the forced
/// 64-cycle deadline, times out with traffic in flight, and carries a
/// structured [`intellinoc::TimeoutReport`]; siblings are unaffected.
#[test]
fn deadline_exceeded_cell_reports_timed_out_with_diagnostics() {
    let cfg = tiny_campaign();
    let chaos =
        ChaosOptions { panic_units: None, timeout_units: Some("fault-free/SECDED".to_owned()) };
    let report = run_campaign(&cfg, &RunnerConfig::serial(), &chaos);
    let c = report.runner.counts();
    assert_eq!(c.timed_out, 1);
    assert_eq!(c.ok, 2 * Design::ALL.len() - 1);
    let timed = report
        .runner
        .records
        .iter()
        .find(|r| r.status == RunStatus::TimedOut)
        .expect("one timed-out record");
    let t = timed.timeout.as_ref().expect("timeout diagnostic attached");
    assert_eq!(t.deadline_cycles, CHAOS_DEADLINE_CYCLES);
    assert!(t.cycles_run <= CHAOS_DEADLINE_CYCLES);
    assert!(t.in_flight > 0, "a 64-cycle run must leave packets in flight");
    // Partial statistics ride along for the merged report.
    assert!(timed.payload.is_some());
}

/// Acceptance scenario: a campaign with one panicking unit AND one
/// deadline-exceeding unit completes every healthy unit and reports a
/// partial (non-clean) grid — and the CSV still has one row per cell.
#[test]
fn campaign_with_panic_and_timeout_completes_all_healthy_units() {
    let cfg = tiny_campaign();
    let chaos = ChaosOptions {
        panic_units: Some("fault-free/EB".to_owned()),
        timeout_units: Some("dead-links-1/CP/".to_owned()),
    };
    let report = run_campaign(&cfg, &RunnerConfig::serial().with_jobs(2), &chaos);
    let c = report.runner.counts();
    assert_eq!(c.failed, 1);
    assert_eq!(c.timed_out, 1);
    assert_eq!(c.ok, 2 * Design::ALL.len() - 2);
    assert!(!report.runner.is_clean(), "the grid must be reported partial");
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), 1 + report.runner.records.len());
    assert!(csv.contains(",failed\n"));
    assert!(csv.contains(",timed-out\n"));
}

/// The sweep grid goes through the same engine: parallel equals serial, and
/// journaled resume reconstructs the identical report.
#[test]
fn sweep_resumes_from_journal_byte_identically() {
    let cells = load_sweep_cells(Design::Eb, &[0.01, 0.02, 0.03], 4, 11, None);
    let sweep = |rcfg: &RunnerConfig| {
        run_grid(&cells, rcfg, &ChaosOptions::default(), UnitSinks::default()).unwrap()
    };
    let serial = sweep(&RunnerConfig::serial());
    assert!(serial.is_clean());

    let journal = temp_journal("sweep-resume.jsonl");
    let interrupted = RunnerConfig {
        journal: Some(journal.clone()),
        max_units: Some(1),
        ..RunnerConfig::serial()
    };
    let partial = sweep(&interrupted);
    assert_eq!(partial.counts().ok, 1);

    let resume =
        RunnerConfig { journal: Some(journal.clone()), resume: true, ..RunnerConfig::serial() };
    let resumed = sweep(&resume);
    assert_eq!(serde_json::to_string(&serial).unwrap(), serde_json::to_string(&resumed).unwrap());
    let _ = std::fs::remove_file(&journal);
}

/// Torn-journal tolerance, exhaustively: `kill -9` can truncate the
/// journal at ANY byte offset (fsync boundaries are per line, but the test
/// is stronger). For every prefix of a complete journal — mid-header,
/// record boundaries, mid-record — a resumed run must succeed, re-run only
/// what the surviving prefix lacks, and merge to a byte-identical report.
#[test]
fn journal_truncated_at_every_byte_offset_resumes_byte_identically() {
    use intellinoc::{run_units, UnitVerdict};

    let keys: Vec<String> = (0..6).map(|i| format!("torn/u{i}")).collect();
    let exec = |ctx: &intellinoc::UnitCtx| UnitVerdict::Ok(ctx.seed ^ 0xabc);

    let clean =
        run_units(9, &keys, &RunnerConfig::serial(), &ChaosOptions::default(), exec).unwrap();
    let reference = serde_json::to_string(&clean).unwrap();

    // A complete journal of the full grid, as the bytes a crash truncates.
    let journal = temp_journal("torn-every-offset.jsonl");
    let journaled = RunnerConfig { journal: Some(journal.clone()), ..RunnerConfig::serial() };
    run_units(9, &keys, &journaled, &ChaosOptions::default(), exec).unwrap();
    let bytes = std::fs::read(&journal).unwrap();
    assert!(bytes.len() > 200, "journal should hold a header plus six records");

    let torn = temp_journal("torn-prefix.jsonl");
    for offset in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..offset]).unwrap();
        let resume =
            RunnerConfig { journal: Some(torn.clone()), resume: true, ..RunnerConfig::serial() };
        let resumed = run_units(9, &keys, &resume, &ChaosOptions::default(), exec)
            .unwrap_or_else(|e| panic!("resume failed at truncation offset {offset}: {e}"));
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            reference,
            "merged report diverged at truncation offset {offset}"
        );
        // The resume must also have repaired the file (truncating the torn
        // tail before appending), so a second resume reads it cleanly.
        let again = run_units(9, &keys, &resume, &ChaosOptions::default(), exec)
            .unwrap_or_else(|e| panic!("re-resume failed at truncation offset {offset}: {e}"));
        assert_eq!(
            serde_json::to_string(&again).unwrap(),
            reference,
            "second resume diverged at truncation offset {offset}"
        );
    }

    // A torn tail with garbage (a partially flushed record) is equally
    // survivable as long as it is the trailing line.
    std::fs::write(&torn, [&bytes[..], b"{\"key\":\"torn/u3\",\"sta"].concat()).unwrap();
    let resume =
        RunnerConfig { journal: Some(torn.clone()), resume: true, ..RunnerConfig::serial() };
    let resumed = run_units(9, &keys, &resume, &ChaosOptions::default(), exec).unwrap();
    assert_eq!(serde_json::to_string(&resumed).unwrap(), reference);

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&torn);
}
