//! `compare A.json B.json`: one row per (end-to-end metric, workload),
//! judged by the metric's bound in `BENCHMARK.json`. This is how "two sets
//! of runs of one commit agree" and "the change is no worse than its
//! parent" are both checked.

use crate::json::read_file;
use serde::Content;
use std::path::Path;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Which direction is better.
    pub better: Better,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

/// A metric as a result file records it: the value and the quartiles of
/// the repeats behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Reported value.
    pub value: f64,
    /// First quartile of the repeats.
    pub q1: f64,
    /// Third quartile of the repeats.
    pub q3: f64,
}

/// The judgement of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is within the bound of A.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// The repeats spread wider than the bound (first to third quartile)
    /// and A's and B's quartile ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's value B is worse (negative: better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges B against A. With a spread (first to third quartile of the
/// repeats, over the value) no wider than the bound, the values decide. With
/// a wider spread, only quartile ranges that do not overlap decide; anything
/// else is unresolved, not unchanged.
pub fn judge(a: Sample, b: Sample, better: Better, bound: f64) -> Verdict {
    let delta = worse_by(a.value, b.value, better);
    let spread = ((a.q3 - a.q1) / a.value).abs().max(((b.q3 - b.q1) / b.value).abs());
    if spread > bound {
        let (b_all_better, b_all_worse) = match better {
            Better::Lower => (b.q3 < a.q1, b.q1 > a.q3),
            Better::Higher => (b.q1 > a.q3, b.q3 < a.q1),
        };
        return if b_all_better {
            Verdict::Better
        } else if b_all_worse && delta > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Reads the end-to-end metrics, with direction and bound, from a
/// `BENCHMARK.json`.
///
/// # Errors
///
/// Names what is missing or malformed.
pub fn read_contract(path: &Path) -> Result<Vec<Bounded>, String> {
    let doc = read_file(path)?;
    let list = doc
        .get("end_to_end")
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Content::as_str).ok_or("a metric has no name")?;
            let better = match m.get("better").and_then(Content::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Content::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bounded { name: name.to_owned(), better, bound })
        })
        .collect()
}

fn sample(doc: &Content, workload: &str, metric: &str) -> Option<Sample> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get("metrics")?.get(metric)?;
    Some(Sample {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn digest<'a>(doc: &'a Content, workload: &str) -> Option<&'a str> {
    doc.get("workloads")?.get(workload)?.get("end_to_end")?.get("sim_digest")?.as_str()
}

/// Compares two result files and returns the printed table and how many
/// rows are worse.
///
/// # Errors
///
/// An unreadable file, or a (metric, workload) pair missing from either.
pub fn compare_files(contract: &Path, a: &Path, b: &Path) -> Result<(String, usize), String> {
    let metrics = read_contract(contract)?;
    let (doc_a, doc_b) = (read_file(a)?, read_file(b)?);
    let workloads = doc_a
        .get("workloads")
        .and_then(Content::as_map)
        .ok_or_else(|| format!("{}: no workloads", a.display()))?;
    let mut out = format!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut worse = 0;
    for (workload, _) in workloads {
        for m in &metrics {
            let missing = |file: &Path| format!("{}: no {} on {workload}", file.display(), m.name);
            let sa = sample(&doc_a, workload, &m.name).ok_or_else(|| missing(a))?;
            let sb = sample(&doc_b, workload, &m.name).ok_or_else(|| missing(b))?;
            let verdict = judge(sa, sb, m.better, m.bound);
            worse += usize::from(verdict == Verdict::Worse);
            out.push_str(&format!(
                "{:<18} {:<26} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}\n",
                workload,
                m.name,
                sa.value,
                sb.value,
                worse_by(sa.value, sb.value, m.better) * 100.0,
                m.bound * 100.0,
                verdict.label()
            ));
        }
        let same = match (digest(&doc_a, workload), digest(&doc_b, workload)) {
            (Some(x), Some(y)) if x == y => "identical",
            _ => "differs",
        };
        out.push_str(&format!("{workload:<18} sim_digest {same}\n"));
    }
    Ok((out, worse))
}
