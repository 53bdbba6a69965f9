//! Labeled metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! The registry is the *state* half of `noc-metrics`; the text rendering
//! lives in the `exposition` module. Everything is ordinary owned data with
//! deterministic (sorted) iteration order, so rendering a registry twice —
//! or on two machines — produces byte-identical exposition text.
//!
//! Metric and label names are validated against the Prometheus data model
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*` for metric names, `[a-zA-Z_][a-zA-Z0-9_]*`
//! for label names); malformed names are rejected with an error that names
//! the offender. Label *values* are unrestricted — the exposition layer
//! escapes them.

use std::collections::BTreeMap;

/// The three supported metric kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating total (exporter-style: set or add).
    Counter,
    /// Instantaneous level; goes up and down.
    Gauge,
    /// Fixed-bucket cumulative histogram (`le` upper bounds + sum + count).
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword for this kind.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A sorted, owned label set (the per-series key).
pub type LabelSet = Vec<(String, String)>;

/// One series' current value.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Counter total.
    Counter(f64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram state: `cum[i]` is the number of observations `<=
    /// bounds[i]` (cumulative, like the exposition format itself), plus the
    /// running sum and total count.
    Histogram {
        /// Cumulative per-bound counts (same length as the family bounds).
        cum: Vec<u64>,
        /// Sum of all observed values.
        sum: f64,
        /// Total observation count (the implicit `le="+Inf"` bucket).
        count: u64,
    },
}

/// One metric family: declared metadata plus its labeled series.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Family kind.
    pub kind: MetricKind,
    /// Help text (escaped at exposition time).
    pub help: String,
    /// Histogram upper bounds (strictly increasing; empty for non-histograms).
    pub bounds: Vec<f64>,
    /// Series by sorted label set.
    pub series: BTreeMap<LabelSet, SeriesValue>,
}

/// Whether `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
#[must_use]
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
#[must_use]
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn check_labels(metric: &str, labels: &[(&str, &str)], kind: MetricKind) -> Result<(), String> {
    for (k, _) in labels {
        if !is_valid_label_name(k) {
            return Err(format!("malformed label name `{k}` on metric `{metric}`"));
        }
        if kind == MetricKind::Histogram && *k == "le" {
            return Err(format!("label name `le` is reserved on histogram `{metric}`"));
        }
    }
    Ok(())
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet =
        labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
    set.sort();
    set
}

/// A registry of labeled metric families with deterministic iteration
/// order.
///
/// # Examples
///
/// ```
/// use noc_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.declare_counter("noc_packets_total", "Packets by terminal event.").unwrap();
/// reg.counter_set("noc_packets_total", &[("event", "delivered")], 640.0).unwrap();
/// let text = noc_telemetry::render_exposition(&reg);
/// assert!(text.contains("noc_packets_total{event=\"delivered\"} 640"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, MetricFamily>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The declared families, sorted by name.
    pub fn families(&self) -> impl Iterator<Item = (&str, &MetricFamily)> {
        self.families.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of declared families.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no family is declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn declare(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        bounds: Vec<f64>,
    ) -> Result<(), String> {
        if !is_valid_metric_name(name) {
            return Err(format!("malformed metric name `{name}`"));
        }
        if let Some(existing) = self.families.get(name) {
            if existing.kind != kind {
                return Err(format!(
                    "metric `{name}` already declared as {}",
                    existing.kind.keyword()
                ));
            }
            return Ok(()); // idempotent re-declaration
        }
        self.families.insert(
            name.to_owned(),
            MetricFamily { kind, help: help.to_owned(), bounds, series: BTreeMap::new() },
        );
        Ok(())
    }

    /// Declares a counter family.
    ///
    /// # Errors
    ///
    /// Rejects malformed metric names (the error names the offender) and
    /// re-declaration under a different kind.
    pub fn declare_counter(&mut self, name: &str, help: &str) -> Result<(), String> {
        self.declare(name, help, MetricKind::Counter, Vec::new())
    }

    /// Declares a gauge family.
    ///
    /// # Errors
    ///
    /// Rejects malformed metric names and kind conflicts.
    pub fn declare_gauge(&mut self, name: &str, help: &str) -> Result<(), String> {
        self.declare(name, help, MetricKind::Gauge, Vec::new())
    }

    /// Declares a fixed-bucket histogram family with the given `le` upper
    /// bounds (the `+Inf` bucket is implicit).
    ///
    /// # Errors
    ///
    /// Rejects malformed metric names, kind conflicts, and bounds that are
    /// empty, non-finite, or not strictly increasing.
    pub fn declare_histogram(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
    ) -> Result<(), String> {
        if bounds.is_empty() {
            return Err(format!("histogram `{name}` needs at least one bucket bound"));
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) || bounds.iter().any(|b| !b.is_finite()) {
            return Err(format!(
                "histogram `{name}` bounds must be finite and strictly increasing"
            ));
        }
        self.declare(name, help, MetricKind::Histogram, bounds.to_vec())
    }

    fn family_mut(&mut self, name: &str, kind: MetricKind) -> Result<&mut MetricFamily, String> {
        match self.families.get_mut(name) {
            None => Err(format!("metric `{name}` is not declared")),
            Some(f) if f.kind != kind => {
                Err(format!("metric `{name}` is a {}, not a {}", f.kind.keyword(), kind.keyword()))
            }
            Some(f) => Ok(f),
        }
    }

    /// Sets a counter series to an absolute cumulative total
    /// (exporter-style: the simulator owns the real counter).
    ///
    /// # Errors
    ///
    /// Rejects undeclared metrics, kind mismatches, malformed label names,
    /// and negative or non-finite totals.
    pub fn counter_set(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        total: f64,
    ) -> Result<(), String> {
        if !total.is_finite() || total < 0.0 {
            return Err(format!("counter `{name}` total must be finite and >= 0, got {total}"));
        }
        check_labels(name, labels, MetricKind::Counter)?;
        let fam = self.family_mut(name, MetricKind::Counter)?;
        fam.series.insert(label_set(labels), SeriesValue::Counter(total));
        Ok(())
    }

    /// Sets a gauge series.
    ///
    /// # Errors
    ///
    /// Rejects undeclared metrics, kind mismatches, and malformed label
    /// names.
    pub fn gauge_set(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> Result<(), String> {
        check_labels(name, labels, MetricKind::Gauge)?;
        let fam = self.family_mut(name, MetricKind::Gauge)?;
        fam.series.insert(label_set(labels), SeriesValue::Gauge(value));
        Ok(())
    }

    /// Records one observation into a histogram series.
    ///
    /// # Errors
    ///
    /// Rejects undeclared metrics, kind mismatches, malformed label names,
    /// and non-finite observations.
    pub fn observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("histogram `{name}` observation must be finite, got {value}"));
        }
        check_labels(name, labels, MetricKind::Histogram)?;
        let fam = self.family_mut(name, MetricKind::Histogram)?;
        let n = fam.bounds.len();
        let bounds = fam.bounds.clone();
        let entry = fam.series.entry(label_set(labels)).or_insert(SeriesValue::Histogram {
            cum: vec![0; n],
            sum: 0.0,
            count: 0,
        });
        if let SeriesValue::Histogram { cum, sum, count } = entry {
            for (c, b) in cum.iter_mut().zip(&bounds) {
                if value <= *b {
                    *c += 1;
                }
            }
            *sum += value;
            *count += 1;
        }
        Ok(())
    }

    /// Sets a histogram series to absolute cumulative state (exporter-style
    /// sampling of a histogram the simulator already maintains). `cum[i]` is
    /// the number of observations `<= bounds[i]`.
    ///
    /// # Errors
    ///
    /// Rejects undeclared metrics, kind mismatches, malformed label names,
    /// a `cum` length differing from the declared bounds, non-monotone
    /// cumulative counts, or a final cumulative count exceeding `count`.
    pub fn histogram_set(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        cum: &[u64],
        sum: f64,
        count: u64,
    ) -> Result<(), String> {
        check_labels(name, labels, MetricKind::Histogram)?;
        let fam = self.family_mut(name, MetricKind::Histogram)?;
        if cum.len() != fam.bounds.len() {
            return Err(format!(
                "histogram `{name}` expects {} cumulative counts, got {}",
                fam.bounds.len(),
                cum.len()
            ));
        }
        if cum.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("histogram `{name}` cumulative counts must be non-decreasing"));
        }
        if cum.last().is_some_and(|&last| last > count) {
            return Err(format!(
                "histogram `{name}` cumulative count exceeds the total count {count}"
            ));
        }
        fam.series
            .insert(label_set(labels), SeriesValue::Histogram { cum: cum.to_vec(), sum, count });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(is_valid_metric_name("noc_cycles_total"));
        assert!(is_valid_metric_name("a:b_c1"));
        assert!(is_valid_metric_name("_x"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("1abc"));
        assert!(!is_valid_metric_name("noc-cycles"));
        assert!(!is_valid_metric_name("noc cycles"));
        assert!(!is_valid_metric_name("héllo"));

        assert!(is_valid_label_name("design"));
        assert!(!is_valid_label_name("le:gacy"));
        assert!(!is_valid_label_name("9lives"));
        assert!(!is_valid_label_name(""));
    }

    #[test]
    fn malformed_names_are_rejected_with_the_offender() {
        let mut reg = MetricsRegistry::new();
        let err = reg.declare_counter("bad name", "x").unwrap_err();
        assert!(err.contains("`bad name`"), "{err}");
        reg.declare_counter("ok_total", "x").unwrap();
        let err = reg.counter_set("ok_total", &[("bad-label", "v")], 1.0).unwrap_err();
        assert!(err.contains("`bad-label`"), "{err}");
    }

    #[test]
    fn kind_conflicts_are_rejected() {
        let mut reg = MetricsRegistry::new();
        reg.declare_counter("x_total", "x").unwrap();
        assert!(reg.declare_gauge("x_total", "x").is_err());
        assert!(reg.gauge_set("x_total", &[], 1.0).is_err());
        assert!(reg.gauge_set("undeclared", &[], 1.0).is_err());
        // Re-declaring under the same kind is idempotent.
        reg.declare_counter("x_total", "x").unwrap();
    }

    #[test]
    fn counter_set_replaces_the_series_total() {
        let mut reg = MetricsRegistry::new();
        reg.declare_counter("c_total", "c").unwrap();
        reg.counter_set("c_total", &[("k", "a")], 2.0).unwrap();
        reg.counter_set("c_total", &[("k", "a")], 5.0).unwrap();
        reg.counter_set("c_total", &[("k", "b")], 7.0).unwrap();
        let fam = &reg.families().next().unwrap().1;
        assert_eq!(fam.series.len(), 2);
        assert_eq!(fam.series.values().next(), Some(&SeriesValue::Counter(5.0)));
        assert!(reg.counter_set("c_total", &[], -1.0).is_err());
        assert!(reg.counter_set("c_total", &[], f64::NAN).is_err());
    }

    #[test]
    fn label_order_is_canonical() {
        let mut reg = MetricsRegistry::new();
        reg.declare_gauge("g", "g").unwrap();
        reg.gauge_set("g", &[("b", "2"), ("a", "1")], 5.0).unwrap();
        reg.gauge_set("g", &[("a", "1"), ("b", "2")], 9.0).unwrap();
        let fam = &reg.families().next().unwrap().1;
        // Same logical series regardless of argument order.
        assert_eq!(fam.series.len(), 1);
        assert_eq!(fam.series.values().next(), Some(&SeriesValue::Gauge(9.0)));
    }

    #[test]
    fn histogram_observe_accumulates_cumulatively() {
        let mut reg = MetricsRegistry::new();
        reg.declare_histogram("h", "h", &[1.0, 10.0, 100.0]).unwrap();
        for v in [0.5, 5.0, 50.0, 500.0] {
            reg.observe("h", &[], v).unwrap();
        }
        let fam = &reg.families().next().unwrap().1;
        let SeriesValue::Histogram { cum, sum, count } = fam.series.values().next().unwrap() else {
            panic!("histogram series expected")
        };
        assert_eq!(cum, &vec![1, 2, 3]);
        assert_eq!(*count, 4);
        assert!((sum - 555.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_set_validates_shape() {
        let mut reg = MetricsRegistry::new();
        reg.declare_histogram("h", "h", &[1.0, 2.0]).unwrap();
        reg.histogram_set("h", &[], &[3, 5], 10.0, 9).unwrap();
        assert!(reg.histogram_set("h", &[], &[3], 10.0, 9).is_err());
        assert!(reg.histogram_set("h", &[], &[5, 3], 10.0, 9).is_err());
        assert!(reg.histogram_set("h", &[], &[3, 10], 10.0, 9).is_err());
        assert!(reg.declare_histogram("bad", "h", &[]).is_err());
        assert!(reg.declare_histogram("bad", "h", &[2.0, 1.0]).is_err());
        assert!(reg.declare_histogram("bad", "h", &[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn histogram_rejects_reserved_le_label() {
        let mut reg = MetricsRegistry::new();
        reg.declare_histogram("h", "h", &[1.0]).unwrap();
        let err = reg.observe("h", &[("le", "x")], 0.5).unwrap_err();
        assert!(err.contains("reserved"), "{err}");
    }
}
