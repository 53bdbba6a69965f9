//! Removed names stay removed: one table of every name a simplification
//! deleted, with the change that deleted it, the part of the source tree it
//! must not come back to, and the lines allowed to name it anyway. A match
//! anywhere else fails the test, naming the file, the line and the change.
//! This file names every entry, so it is not scanned.

use std::path::{Path, PathBuf};
use Match::{End, Flag, Impl, Text, Word};

/// How a name is looked for in a line.
#[derive(Clone, Copy)]
enum Match {
    /// Anywhere (`grep`).
    Text,
    /// As a whole word: no identifier character on either side (`grep -w`).
    Word,
    /// With no identifier character after it (`grep 'name\b'`).
    End,
    /// As a whole command-line flag: no identifier character and no `-`
    /// after it (`--out` but not `--out-dir`).
    Flag,
    /// As the trait of an `impl`: `impl[<…>] [serde::]name for` (a
    /// hand-written serde impl).
    Impl,
}

/// One removed name.
struct Removed {
    name: &'static str,
    /// The change that removed it, as CHANGES.md titles it.
    removed_by: &'static str,
    how: Match,
    /// Files or directories, relative to the repository root.
    scope: &'static [&'static str],
    /// Lines allowed to name it: `(file, text the line also holds)`, where
    /// an empty file is any file.
    except: &'static [(&'static str, &'static str)],
}

const fn removed(
    name: &'static str,
    removed_by: &'static str,
    how: Match,
    scope: &'static [&'static str],
) -> Removed {
    Removed { name, removed_by, how, scope, except: &[] }
}

// The changes, by their CHANGES.md titles.
const PACKET_PATH: &str = "one path per packet";
const SIMCONFIG: &str = "SimConfig keeps only what a caller varies";
const ECC: &str = "noc-ecc implements each flit code once, at flit width";
const TRAFFIC: &str = "noc-traffic draws requests once";
const SERDE: &str = "one derived JSON reader per type";
const PARTS: &str = "a `Network` made of parts";
const ONE_PATH: &str = "one path per answer";
const SERVE: &str = "`serve` keeps what its traffic uses";
const MFAC: &str = "one `mfac` switch for the IntelliNoC router";
const CONSUMERS: &str = "consumer audit, round one";
const ONE_STREAM: &str = "one event stream";
const ONE_COPY: &str = "one copy per telemetry fact";
const HARNESS: &str = "one evaluation harness";
const GRID: &str = "one experiment grid";
const CONTROL_LOOP: &str = "one control loop";
const TRACE_WORKLOAD: &str = "a recorded trace is a workload";
const CELL_LIST: &str = "every study is a cell list";
const OUT_DIR: &str = "one `--out-dir` per command";
const ONE_OUTPUT: &str = "one output per journey log";
const ROUND_TWO: &str = "consumer audit, round two";
const DECLARED_ONCE: &str = "`figures` declares its runs once";
const ONE_ACCOUNT: &str = "one account per grid";
const ONE_FRONT_END: &str = "one front end";
const ONE_LIBRARY: &str = "one library, one binary";

/// Everything but the benchmark, which keeps its own names.
const SOURCES: &[&str] = &["crates", "tests", "examples"];
/// The crates and the examples.
const CRATES: &[&str] = &["crates", "examples"];
/// The grid modules and the CLI, which render grids.
const GRID_RENDERERS: &[&str] = &[
    "crates/core/src/campaign.rs",
    "crates/core/src/sweeps.rs",
    "crates/core/src/bench.rs",
    "crates/cli/src",
];
/// The evaluation's studies.
const STUDIES: &[&str] = &["crates/core/src/figures/studies.rs"];
/// The whole evaluation: the studies and the figure table.
const EVALUATION: &[&str] = &["crates/core/src/figures.rs", "crates/core/src/figures"];
/// The evaluation with its test, and the workspace tests.
const EVALUATION_AND_TESTS: &[&str] = &[
    "crates/core/src/figures.rs",
    "crates/core/src/figures",
    "crates/core/tests/unfinished_runs.rs",
    "tests",
];
/// The CLI and the examples.
const FRONT_ENDS: &[&str] = &["crates/cli/src", "examples"];

const REMOVED: &[Removed] = &[
    // SimConfig keeps only what a caller varies: the fixed scalars are
    // constants at their reader, the supply voltage is `aging.vdd`, the
    // energy and leakage models are their defaults, the designs come from
    // `Design::ALL`.
    removed("wakeup_latency", SIMCONFIG, Word, SOURCES),
    removed("idle_gate_threshold", SIMCONFIG, Word, SOURCES),
    removed("forced_wake_occupancy", SIMCONFIG, Word, SOURCES),
    removed("forced_idle_threshold", SIMCONFIG, Word, SOURCES),
    removed("retx_latency", SIMCONFIG, Word, SOURCES),
    removed("epoch_cycles", SIMCONFIG, Word, SOURCES),
    removed("design_config", SIMCONFIG, Word, SOURCES),
    removed("cfg.vdd", SIMCONFIG, End, SOURCES),
    removed("cfg.energy", SIMCONFIG, End, SOURCES),
    removed("cfg.leakage", SIMCONFIG, End, SOURCES),
    // noc-ecc implements each flit code once, at flit width: no CRC spec
    // table, no generic BCH codec, no SECDED width parameter, and one
    // faulty-traversal count (the network's stats).
    removed("CrcSpec", ECC, Word, SOURCES),
    removed("CRC8_ATM", ECC, Word, SOURCES),
    removed("CRC32_MPEG2", ECC, Word, SOURCES),
    removed("BchCodec", ECC, Word, SOURCES),
    removed("bch_generic", ECC, Word, SOURCES),
    removed("faulty_flits", ECC, Word, SOURCES),
    removed("Secded::new", ECC, Text, SOURCES),
    // noc-traffic draws requests in one place, `Workload` has no packet
    // counters, `QAgent` always learns, and the fault model has no formula
    // the simulator does not run.
    removed("total_packets", TRAFFIC, Word, SOURCES),
    removed("pick_dest", TRAFFIC, Word, SOURCES),
    removed("set_learning", TRAFFIC, Word, SOURCES),
    removed("set_epsilon", TRAFFIC, Word, SOURCES),
    removed("reset_episode", TRAFFIC, Word, SOURCES),
    removed("relaxed_bit_error_rate", TRAFFIC, Word, SOURCES),
    removed("flit_fault_probability", TRAFFIC, Word, SOURCES),
    removed("first_activation", TRAFFIC, Word, SOURCES),
    removed("wearout", TRAFFIC, Word, SOURCES),
    // One derived JSON reader per type: only the journal's four status
    // labels and `BenchWorkload` (a number is a rate, a string a PARSEC
    // benchmark) keep hand-written impls.
    Removed {
        except: &[("", "for RunStatus"), ("", "for BenchWorkload")],
        ..removed("Serialize", SERDE, Impl, SOURCES)
    },
    Removed {
        except: &[("", "for RunStatus"), ("", "for BenchWorkload")],
        ..removed("Deserialize", SERDE, Impl, SOURCES)
    },
    // A network made of parts: the (node, direction) slot layout is decided
    // in topology.rs alone, and the link layer hands a head past its hop
    // budget back to its caller instead of calling recovery.
    Removed {
        except: &[("crates/sim/src/topology.rs", "")],
        ..removed("* DIRS +", PARTS, Text, &["crates/sim/src"])
    },
    Removed {
        except: &[("crates/sim/src/topology.rs", "")],
        ..removed("/ DIRS", PARTS, End, &["crates/sim/src"])
    },
    Removed {
        except: &[("crates/sim/src/topology.rs", "")],
        ..removed("% DIRS", PARTS, End, &["crates/sim/src"])
    },
    removed("salvage_or_drop", PARTS, Text, &["crates/sim/src/network/link_layer.rs"]),
    // One path per answer: the conservation auditor reads the run report's
    // books, not an alert rule; `figures` is the one design comparison; the
    // flags nothing read stay deleted.
    removed("CONSERVATION_RULE", ONE_PATH, Text, CRATES),
    removed("journeys-top", ONE_PATH, Text, CRATES),
    removed("timeline-out", ONE_PATH, Text, CRATES),
    removed("deadline-cycles", ONE_PATH, Text, CRATES),
    removed("pretrain-episodes", ONE_PATH, Text, CRATES),
    removed("parsec_campaign", ONE_PATH, Text, CRATES),
    removed("Some(\"compare\")", ONE_PATH, Text, &["crates/cli/src/main.rs"]),
    removed("Some(\"area\")", ONE_PATH, Text, &["crates/cli/src/main.rs"]),
    // `serve` keeps what its traffic uses: the chaos harness is a test,
    // and tenant quotas, hub alerts, `/api/health` and the drain knob stay
    // deleted. cli.rs passes `--tenant-quota` to check the unused-option
    // warning.
    removed("run_chaos_harness", SERVE, Text, CRATES),
    removed("ChaosHarnessConfig", SERVE, Text, CRATES),
    removed("chaos-seed", SERVE, Text, CRATES),
    removed("tenant_quota", SERVE, Text, CRATES),
    Removed {
        except: &[("crates/cli/tests/cli.rs", "tenant-quota")],
        ..removed("tenant-quota", SERVE, Text, CRATES)
    },
    removed("drain-deadline", SERVE, Text, CRATES),
    removed("alerts_firing", SERVE, Text, CRATES),
    removed("api/health", SERVE, Text, CRATES),
    // IntelliNoC's router is one `mfac` switch: no field sets its re-read,
    // its wake ride-through, its wake threshold, its BST or its Q-table
    // alone, and the proactive-gate drain state is gone.
    removed("gate_pending", PACKET_PATH, Text, &["crates"]),
    removed("mfac_retx", MFAC, Word, SOURCES),
    removed("bypass_during_wake", MFAC, Word, SOURCES),
    removed("wake_occupancy", MFAC, Word, SOURCES),
    removed("cfg.has_bst", MFAC, End, SOURCES),
    removed("cfg.has_qtable", MFAC, End, SOURCES),
    // Consumer audit, round one: the retry ladder, the live scrape endpoint
    // outside `serve` and the single-value knobs stay deleted. The retry
    // field is looked for as its flag, `--max-retries`: `max_retries` is
    // also the closed-loop `ReqReplySpec::max_retries` (`--max-req-retries`),
    // which stays. cli.rs passes `--metrics-addr` to check the unused-option
    // warning.
    removed("max-retries", CONSUMERS, Text, SOURCES),
    removed("retry_backoff", CONSUMERS, Text, SOURCES),
    removed("Retryable", CONSUMERS, Text, SOURCES),
    removed("UnitRetried", CONSUMERS, Text, SOURCES),
    removed("MetricsServer", CONSUMERS, Text, SOURCES),
    Removed {
        except: &[("crates/cli/tests/cli.rs", "metrics-addr")],
        ..removed("metrics-addr", CONSUMERS, Text, SOURCES)
    },
    removed("runtime_metrics", CONSUMERS, Text, SOURCES),
    removed("trace_capacity", CONSUMERS, Text, SOURCES),
    removed("every_steps", CONSUMERS, Text, SOURCES),
    removed("PhaseCounters", CONSUMERS, Text, SOURCES),
    removed("route_computed", CONSUMERS, Text, SOURCES),
    // One event stream: the tracer's ring is the only one, and the flight
    // recorder copies its tail once, when the probe closes.
    removed("push_event", ONE_STREAM, Word, SOURCES),
    removed("flush_events", ONE_STREAM, Word, SOURCES),
    // One copy per telemetry fact: the probe hands the recorder its span
    // table and slowest journeys once, the runner report renders its own
    // wall-clock rows, the tracer alone counts its drops, and the span
    // counters render only in the span table. prof.rs checks that a
    // profiled exposition has no `noc_prof_` family.
    removed("push_journey", ONE_COPY, Word, SOURCES),
    removed("snapshot_spans", ONE_COPY, Word, SOURCES),
    removed("add_run", ONE_COPY, Word, SOURCES),
    removed("set_trace_drops", ONE_COPY, Word, SOURCES),
    removed("trace_drops()", ONE_COPY, Text, SOURCES),
    removed("RunRow", ONE_COPY, Word, SOURCES),
    removed("fill_profiler", ONE_COPY, Word, SOURCES),
    removed("export_prof_metrics", ONE_COPY, Word, SOURCES),
    removed("trace ring drops", ONE_COPY, Text, SOURCES),
    Removed {
        except: &[("tests/tests/prof.rs", "noc_prof_")],
        ..removed("noc_prof_", ONE_COPY, Text, SOURCES)
    },
    // One evaluation harness: behaviour is set by arguments, never by the
    // environment.
    removed("env::var", HARNESS, Text, CRATES),
    // One experiment grid: no per-kind row type, and no renderer takes a
    // run key apart — a cell's identity comes from the cell list by index.
    removed("CampaignRow", GRID, Text, GRID_RENDERERS),
    removed("LoadPoint", GRID, Text, GRID_RENDERERS),
    removed("ServePoint", GRID, Text, GRID_RENDERERS),
    removed("BenchRunMetrics", GRID, Text, GRID_RENDERERS),
    removed("split('/')", GRID, Text, GRID_RENDERERS),
    // One control loop: the removed drivers stay removed, the studies build
    // no network, no agent bank and never take an unchecked outcome, and
    // the evaluation pre-trains nothing outside the runner.
    removed("run_to_completion", CONTROL_LOOP, Text, CRATES),
    removed("mesh_scaling", CONTROL_LOOP, Text, CRATES),
    removed("ScalePoint", CONTROL_LOOP, Text, CRATES),
    removed("run_experiment(", CONTROL_LOOP, Text, STUDIES),
    removed("Network::new", CONTROL_LOOP, Text, STUDIES),
    removed("RlControl::new", CONTROL_LOOP, Text, STUDIES),
    removed("pretrain_intellinoc", CONTROL_LOOP, Text, EVALUATION),
    // Every study is a cell list: no second driver, no unchecked run, no
    // per-table walk of the agent bank.
    removed("run_experiment_with", CELL_LIST, Text, CRATES),
    removed("run_checked", CELL_LIST, Text, CRATES),
    removed("for_each_table", CELL_LIST, Text, CRATES),
    // A recorded trace is a workload: the CLI and the examples build and
    // step no network of their own.
    removed("Network::", TRACE_WORKLOAD, Text, FRONT_ENDS),
    removed("run_cycles", TRACE_WORKLOAD, Text, FRONT_ENDS),
    removed("with_workload", TRACE_WORKLOAD, Text, FRONT_ENDS),
    // One `--out-dir` per command: each artifact has a fixed name under
    // it, so no command takes a path flag per artifact; `profile` is
    // `bench record --profile`; the trace has no CSV form; the runner
    // sums no recorder drops.
    removed("trace-out", OUT_DIR, Text, SOURCES),
    removed("metrics-out", OUT_DIR, Text, SOURCES),
    removed("blackbox-dir", OUT_DIR, Text, SOURCES),
    removed("profile-out", OUT_DIR, Text, SOURCES),
    removed("prof-out", OUT_DIR, Text, SOURCES),
    removed("flame-out", OUT_DIR, Text, SOURCES),
    removed("journeys-out", OUT_DIR, Text, SOURCES),
    removed("perfetto-out", OUT_DIR, Text, SOURCES),
    removed("journey-report-out", OUT_DIR, Text, SOURCES),
    removed("journey-csv-out", OUT_DIR, Text, SOURCES),
    removed("report-out", OUT_DIR, Text, SOURCES),
    removed("heatmap-dir", OUT_DIR, Text, SOURCES),
    removed("decisions-out", OUT_DIR, Text, SOURCES),
    removed("convergence-out", OUT_DIR, Text, SOURCES),
    removed("csv-out", OUT_DIR, Text, SOURCES),
    removed("journeys-dir", OUT_DIR, Text, SOURCES),
    removed("runner-log", OUT_DIR, Text, SOURCES),
    removed("--out", OUT_DIR, Flag, SOURCES),
    removed("get(\"out\")", OUT_DIR, Text, SOURCES),
    removed("fresh-out", OUT_DIR, Text, SOURCES),
    removed("Some(\"profile\")", OUT_DIR, Text, &["crates/cli/src/main.rs"]),
    removed("commands::profile", OUT_DIR, Text, SOURCES),
    removed("tracer.to_csv", OUT_DIR, Text, SOURCES),
    removed("fn to_csv", OUT_DIR, Text, &["crates/telemetry/src/tracer.rs"]),
    removed("write_csv", OUT_DIR, Word, SOURCES),
    removed("CSV_HEADER", OUT_DIR, Word, SOURCES),
    removed("recorder_drops", OUT_DIR, Word, SOURCES),
    // One output per journey log: the tail report. The Perfetto export and
    // the tail-contribution CSV had no reader.
    removed("perfetto_json", ONE_OUTPUT, Text, SOURCES),
    removed("tail_contribution_csv", ONE_OUTPUT, Text, SOURCES),
    removed("perfetto.json", ONE_OUTPUT, Text, SOURCES),
    removed("tail-contrib.csv", ONE_OUTPUT, Text, SOURCES),
    // Consumer audit, round two: what a run computed or wrote but nothing
    // read — the progress line, the metrics file, per-packet attribution
    // records, alerts over exposition text.
    removed("FleetProgress", ROUND_TWO, Word, SOURCES),
    removed("FleetObserver", ROUND_TWO, Word, SOURCES),
    removed("--progress", ROUND_TWO, Flag, SOURCES),
    Removed {
        name: "metrics.prom",
        removed_by: ROUND_TWO,
        how: Text,
        scope: SOURCES,
        except: &[("crates/cli/tests/bench_gate.rs", "!dir.join(\"out/metrics.prom\").exists()")],
    },
    removed("evaluate_samples", ROUND_TWO, Text, SOURCES),
    removed("PacketLatency", ROUND_TWO, Word, SOURCES),
    removed("bypass_hops", ROUND_TWO, Word, SOURCES),
    // `figures` declares its runs once: each figure's cells are its one
    // declaration, `figures` trains and runs them all before the first
    // render, and the studies only build cells and render — no lazy
    // campaign cache, no recipe list, no grid of a study's own.
    removed("Evaluation", DECLARED_ONCE, Word, EVALUATION_AND_TESTS),
    removed("declared_recipes", DECLARED_ONCE, Word, SOURCES),
    removed("run_grid(", DECLARED_ONCE, Text, STUDIES),
    removed("run_campaign_runner(", DECLARED_ONCE, Text, STUDIES),
    removed("pretrain_grid(", DECLARED_ONCE, Text, STUDIES),
    removed(".outcomes(", DECLARED_ONCE, Text, STUDIES),
    // The unit record is a grid's one account: the runner log is rendered
    // from the records, not from a second list of lifecycle events.
    removed("RunnerEvent", ONE_ACCOUNT, Word, SOURCES),
    removed("runner_events_jsonl", ONE_ACCOUNT, Word, SOURCES),
    // One front end: the evaluation is `intellinoc figures`, and its names
    // are in `intellinoc list`; there is no second binary and no `--list`.
    removed("target/release/figures", ONE_FRONT_END, Text, SOURCES),
    removed("--bin figures", ONE_FRONT_END, Text, SOURCES),
    removed("figures --list", ONE_FRONT_END, Text, SOURCES),
    // One library, one binary: the evaluation is `intellinoc::figures`, the
    // CLI is a binary only, and its tests drive that binary.
    removed("intellinoc_bench", ONE_LIBRARY, Word, SOURCES),
    removed("intellinoc-bench", ONE_LIBRARY, Word, SOURCES),
    removed("intellinoc_cli", ONE_LIBRARY, Word, SOURCES),
    removed("parse_design", ONE_LIBRARY, Word, SOURCES),
];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` names `name` the way `how` looks for it.
fn names(line: &str, name: &str, how: Match) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + name.len()..]);
        let free_after = !after.starts_with(is_ident);
        match how {
            Text => true,
            Word => free_after && !before.ends_with(is_ident),
            End => free_after,
            Flag => free_after && !after.starts_with('-'),
            Impl => {
                let head = before.strip_suffix("serde::").unwrap_or(before);
                let Some(head) = head.strip_suffix(' ') else { return false };
                let head = match head.strip_suffix('>').and_then(|h| h.rsplit_once('<')) {
                    Some((head, generics)) if !generics.contains('>') => head,
                    _ => head,
                };
                after.starts_with(" for") && head.ends_with("impl")
            }
        }
    })
}

/// Every file under `path`, recursively.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
    } else if let Ok(dir) = std::fs::read_dir(path) {
        for entry in dir {
            files(&entry.expect("dir entry").path(), out);
        }
    }
}

#[test]
fn removed_names_stay_removed() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let this = Path::new(file!());
    let mut paths = Vec::new();
    for scope in ["crates", "tests", "examples"] {
        files(&root.join(scope), &mut paths);
    }
    let sources: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under the root");
            let text = String::from_utf8_lossy(&std::fs::read(p).expect("read file")).into_owned();
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .filter(|(rel, _)| !Path::new(rel).ends_with(this))
        .collect();
    assert!(sources.len() > 100, "found the sources ({})", sources.len());

    let mut hits = Vec::new();
    for r in REMOVED {
        let in_scope =
            |rel: &str| r.scope.iter().any(|s| rel == *s || rel.starts_with(&format!("{s}/")));
        for (rel, text) in sources.iter().filter(|(rel, _)| in_scope(rel)) {
            for (n, line) in text.lines().enumerate() {
                let allowed = r
                    .except
                    .iter()
                    .any(|&(file, has)| (file.is_empty() || rel == file) && line.contains(has));
                if names(line, r.name, r.how) && !allowed {
                    let (name, by) = (r.name, r.removed_by);
                    hits.push(format!("{rel}:{}: `{name}` (removed by \"{by}\"): {line}", n + 1));
                }
            }
        }
    }
    assert!(hits.is_empty(), "removed names are back:\n{}", hits.join("\n"));
}

/// The matcher finds what each kind of entry looks for, and nothing else.
#[test]
fn the_matcher_reads_each_kind() {
    assert!(names("let x = a.wearout;", "wearout", Word));
    assert!(!names("let x = a.wearout_rate;", "wearout", Word));
    assert!(!names("let x = pre_wearout;", "wearout", Word));
    assert!(names("sim_cfg.vdd + 1", "cfg.vdd", End));
    assert!(!names("cfg.vdd_nominal", "cfg.vdd", End));
    assert!(names("fn f(d: u8) -> usize { d as usize / DIRS }", "/ DIRS", End));
    assert!(!names("x / DIRS_PER_NODE", "/ DIRS", End));
    assert!(names("impl Serialize for Foo {", "Serialize", Impl));
    assert!(names("impl<T: Copy> serde::Deserialize for Bar<T> {", "Deserialize", Impl));
    assert!(!names("#[derive(Serialize, Deserialize)]", "Serialize", Impl));
    assert!(!names("impl<'de> Deserialize<'de> for Bar {", "Deserialize", Impl));
    assert!(names("--tenant-quota 3", "tenant-quota", Text));
    assert!(names("bench record --out pin.json", "--out", Flag));
    assert!(names(r#"["--out", path]"#, "--out", Flag));
    assert!(!names("bench record --out-dir d", "--out", Flag));
    assert!(!names("--outer 1", "--out", Flag));
}
