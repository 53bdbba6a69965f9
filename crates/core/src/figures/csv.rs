//! CSV export of campaign results, for plotting outside this crate
//! (gnuplot/matplotlib reproduce the paper's bar charts directly from
//! these files).

use super::CampaignResults;
use crate::NormalizedMetrics;
use std::io::{self, Write};

/// The per-figure metric columns exported by [`write_campaign_csv`].
const METRIC_COLUMNS: [&str; 8] = [
    "speedup",
    "latency",
    "static_power",
    "dynamic_power",
    "energy_efficiency",
    "retransmissions",
    "mttf",
    "edp",
];

fn metric_values(m: &NormalizedMetrics) -> [f64; 8] {
    [
        m.speedup,
        m.latency,
        m.static_power,
        m.dynamic_power,
        m.energy_efficiency,
        m.retransmissions,
        m.mttf,
        m.edp,
    ]
}

/// Writes the normalized campaign as long-format CSV:
/// `workload,design,metric,value`.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_campaign_csv<W: Write>(mut w: W, results: &CampaignResults) -> io::Result<()> {
    writeln!(w, "workload,design,metric,value")?;
    for row in &results.rows {
        for (design, m) in &row.designs {
            for (name, value) in METRIC_COLUMNS.iter().zip(metric_values(m)) {
                writeln!(w, "{},{},{},{}", row.workload, design.label(), name, value)?;
            }
        }
    }
    Ok(())
}

/// Writes the raw (un-normalized) per-run summary as CSV:
/// one row per (workload, design).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_raw_csv<W: Write>(mut w: W, results: &CampaignResults) -> io::Result<()> {
    writeln!(
        w,
        "workload,design,exec_cycles,avg_latency,p99_latency,static_mw,dynamic_mw,\
         retx_flits,corrupted,mttf_hours,mean_temp_c,mode0,mode1,mode2,mode3,mode4"
    )?;
    for (bench, outcomes) in &results.raw {
        for o in outcomes {
            let r = &o.report;
            let fr = o.mode_fractions();
            writeln!(
                w,
                "{},{},{},{:.3},{:.1},{:.3},{:.3},{},{},{},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4}",
                bench.label(),
                o.design.label(),
                r.exec_cycles,
                r.avg_latency(),
                r.stats.latency_percentile(0.99),
                r.power.static_mw,
                r.power.dynamic_mw,
                r.stats.retransmitted_flits,
                r.stats.corrupted_packets,
                r.mttf_hours.map_or_else(|| "".into(), |h| format!("{h:.3e}")),
                r.mean_temp_c,
                fr[0],
                fr[1],
                fr[2],
                fr[3],
                fr[4],
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::tiny_results as tiny;

    #[test]
    fn normalized_csv_shape() {
        let results = tiny();
        let mut buf = Vec::new();
        write_campaign_csv(&mut buf, &results).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // header + 5 designs x 8 metrics
        assert_eq!(lines.len(), 1 + 5 * 8);
        assert_eq!(lines[0], "workload,design,metric,value");
        assert!(lines[1].starts_with("swaptions,SECDED,speedup,"));
        // Every data line has 4 comma-separated fields.
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), 4, "line {l}");
        }
    }

    #[test]
    fn raw_csv_shape() {
        let results = tiny();
        let mut buf = Vec::new();
        write_raw_csv(&mut buf, &results).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 5);
        let header_cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), header_cols, "line {l}");
        }
    }
}
