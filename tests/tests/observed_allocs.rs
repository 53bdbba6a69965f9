//! An allocation budget for the observed path: the benchmark's
//! `observed_8x8` sink set (every telemetry sink on, one journey per packet)
//! on a small saturated unit list, counted by this binary's own global
//! allocator. Per event the observed path allocates nothing, and per packet
//! only what it keeps: the journey's exact-size span copy and, when the
//! slowest-journeys ring keeps the journey, its line. A per-packet or
//! per-event allocation that creeps back onto it multiplies the count per
//! simulated cycle and fails here.

use intellinoc::{run_experiment_instrumented, Design, ExperimentConfig};
use noc_sim::{parse_rules, shared_recorder, MetricsHub};
use noc_traffic::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// Statistics only: the counters publish no other data, so `Relaxed` is
// enough. This file holds one test, so nothing else allocates while it
// counts.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls while switched on.
struct CountingAlloc;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations per simulated cycle the observed path may make on the
/// list below, set-up and artifacts included.
const BUDGET_PER_CYCLE: f64 = 25.0;

/// `observed_8x8`'s sinks: trace, timeline, profile, attribution, decisions,
/// every packet's journey, flight recorder, metrics hub and one alert rule.
fn observed(design: Design) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(design, WorkloadSpec::uniform(0.1, 40)).with_seed(2019);
    cfg.error_rate_override = Some(1e-5);
    let t = &mut cfg.telemetry;
    t.trace = true;
    t.timeline = true;
    t.profile = true;
    t.attribution = true;
    t.decisions = true;
    t.journeys_every = 1;
    t.blackbox = Some(shared_recorder(0));
    t.metrics.hub = Some(Arc::new(MetricsHub::new()));
    t.alert_rules = parse_rules("noc_avg_latency_cycles>100").expect("static alert rule is valid");
    cfg
}

#[test]
fn observed_path_stays_inside_its_allocation_budget() {
    let configs: Vec<ExperimentConfig> = Design::ALL.into_iter().map(observed).collect();
    let mut cycles = 0;
    COUNTING.store(true, Ordering::Relaxed);
    for cfg in configs {
        let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
        assert!(outcome.finished, "{} must finish", outcome.design.label());
        assert!(artifacts.journeys.is_some_and(|j| !j.packets.is_empty()));
        cycles += outcome.report.stats.cycles;
    }
    COUNTING.store(false, Ordering::Relaxed);
    let per_cycle = ALLOCS.load(Ordering::Relaxed) as f64 / cycles as f64;
    println!("{per_cycle:.3} allocations per simulated cycle over {cycles} cycles");
    assert!(
        per_cycle <= BUDGET_PER_CYCLE,
        "{per_cycle:.3} heap allocations per simulated cycle > budget {BUDGET_PER_CYCLE}"
    );
}
