//! Thermal map: visualize the power → temperature → error-rate feedback
//! loop as ASCII heat maps of the 8×8 die under a hotspot-heavy workload,
//! for the baseline vs IntelliNoC.
//!
//! Run with: `cargo run --release -p intellinoc --example thermal_map`

use intellinoc::{run_experiment_instrumented, Design, ExperimentConfig};
use noc_traffic::ParsecBenchmark;

fn heat_glyph(t: f64) -> char {
    match t {
        t if t < 58.0 => '.',
        t if t < 62.0 => ':',
        t if t < 66.0 => '+',
        t if t < 70.0 => '*',
        t if t < 76.0 => '#',
        _ => '@',
    }
}

fn run(design: Design) -> (Vec<f64>, f64, f64) {
    let workload = ParsecBenchmark::Canneal.workload(200);
    let mut cfg = ExperimentConfig::new(design, workload).with_seed(11);
    cfg.telemetry.timeline = true;
    let (outcome, _, artifacts) = run_experiment_instrumented(cfg);
    // The timeline's closing sample is the die at the end of the run.
    let timeline = artifacts.timeline.expect("timeline was requested");
    let last = timeline.samples.last().expect("a run has a final sample");
    (last.tile_temps_c.clone(), outcome.report.mean_temp_c, outcome.report.max_temp_c)
}

fn main() {
    println!("per-tile temperature after running `canneal` (8x8 mesh)");
    println!("scale: . <58C  : <62C  + <66C  * <70C  # <76C  @ hotter\n");
    for design in [Design::Secded, Design::IntelliNoc] {
        let (temps, mean, max) = run(design);
        println!("{} (mean {:.1}C, max {:.1}C):", design.label(), mean, max);
        for y in 0..8 {
            let row: String =
                (0..8).map(|x| heat_glyph(temps[y * 8 + x])).flat_map(|c| [c, ' ']).collect();
            println!("  {row}");
        }
        println!();
    }
    println!("The four memory-controller tiles (edge midpoints) run hottest;");
    println!("IntelliNoC's gating and mode selection flatten the map.");
}
