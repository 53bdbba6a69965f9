//! `noc-alerts`: a declarative threshold alert-rule engine over metrics
//! snapshots.
//!
//! Rules are parsed from a compact text DSL (the `--alert-rules` flag and
//! the serve daemon's configuration):
//!
//! ```text
//! <metric><op><value>[:for=N][:critical][;<rule>...]
//! ```
//!
//! e.g. `noc_latency_p99_cycles>400:for=3:critical;noc_packets_total{event=dropped}>0`.
//! `op` is one of `>`, `>=`, `<`, `<=`. `for=N` requires the threshold to
//! be breached on `N` *consecutive* evaluations before the rule fires
//! (default 1). `critical` marks the rule as bundle-triggering: the caller
//! dumps a post-mortem bundle when it fires. An optional
//! `{label=value,...}` selector restricts the rule to series carrying all
//! the given labels; without it, the rule evaluates the worst series of
//! the family (max for `>`/`>=`, min for `<`/`<=`).
//!
//! The engine is evaluated against [`MetricsRegistry`] snapshots inside
//! `run_experiment_instrumented` (cycle-domain: deterministic per seed)
//! and against the serve hub's exposition text (wall-clock domain).
//! Evaluations emit structured [`AlertEvent`]s on state *transitions*
//! (firing / resolved) and export `noc_alert_*` metric families via
//! [`export_alert_metrics`].

use crate::exposition::{registry_samples, Sample};
use crate::json_str;
use crate::metrics::{is_valid_metric_name, MetricsRegistry};
use std::fmt::Write as _;

/// Comparison operator of a threshold rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertCmp {
    /// Breach when the observed value is strictly greater.
    Gt,
    /// Breach when the observed value is greater or equal.
    Ge,
    /// Breach when the observed value is strictly less.
    Lt,
    /// Breach when the observed value is less or equal.
    Le,
}

impl AlertCmp {
    /// The DSL token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            AlertCmp::Gt => ">",
            AlertCmp::Ge => ">=",
            AlertCmp::Lt => "<",
            AlertCmp::Le => "<=",
        }
    }

    /// Whether `value` breaches the threshold.
    #[must_use]
    pub fn breaches(self, value: f64, threshold: f64) -> bool {
        match self {
            AlertCmp::Gt => value > threshold,
            AlertCmp::Ge => value >= threshold,
            AlertCmp::Lt => value < threshold,
            AlertCmp::Le => value <= threshold,
        }
    }

    /// Whether this comparator watches for high values (picks the max
    /// series) or low ones (picks the min).
    #[must_use]
    pub fn watches_high(self) -> bool {
        matches!(self, AlertCmp::Gt | AlertCmp::Ge)
    }
}

/// One declarative threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (the condition text; used as the `rule` label).
    pub name: String,
    /// Metric family the rule watches.
    pub metric: String,
    /// Label selector: every listed pair must be present on a series for
    /// it to be considered (empty = all series).
    pub labels: Vec<(String, String)>,
    /// Comparison operator.
    pub cmp: AlertCmp,
    /// Threshold value.
    pub threshold: f64,
    /// Consecutive breached evaluations required before firing (≥ 1).
    pub sustain: u32,
    /// Whether firing should trigger a post-mortem bundle dump.
    pub critical: bool,
}

/// Parses a `;`-separated rule list from the DSL.
///
/// # Errors
///
/// Returns an error naming the offending rule text on malformed syntax, a
/// malformed metric name, an unparsable threshold, or `for=0`.
pub fn parse_rules(spec: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        rules.push(parse_rule(part)?);
    }
    if rules.is_empty() {
        return Err("alert-rule spec contains no rules".to_owned());
    }
    Ok(rules)
}

fn parse_rule(text: &str) -> Result<AlertRule, String> {
    // Split the condition from the `:for=N` / `:critical` suffixes. The
    // condition itself cannot contain `:` (metric names may, but we keep
    // the DSL simple: suffixes are the recognized tokens only).
    let mut sustain = 1u32;
    let mut critical = false;
    let mut cond = text;
    while let Some((head, tail)) = cond.rsplit_once(':') {
        if tail == "critical" {
            critical = true;
            cond = head;
        } else if let Some(n) = tail.strip_prefix("for=") {
            sustain = n
                .parse::<u32>()
                .map_err(|_| format!("alert rule `{text}`: bad sustain `{tail}`"))?;
            if sustain == 0 {
                return Err(format!("alert rule `{text}`: for=0 is meaningless (use for=1)"));
            }
            cond = head;
        } else {
            break;
        }
    }
    let (op_at, cmp) = ["<=", ">=", "<", ">"]
        .iter()
        .filter_map(|tok| cond.find(tok).map(|i| (i, *tok)))
        .min_by_key(|(i, tok)| (*i, std::cmp::Reverse(tok.len())))
        .ok_or_else(|| format!("alert rule `{text}`: no comparator (>, >=, <, <=)"))?;
    let cmp_kind = match cmp {
        ">" => AlertCmp::Gt,
        ">=" => AlertCmp::Ge,
        "<" => AlertCmp::Lt,
        "<=" => AlertCmp::Le,
        _ => unreachable!(),
    };
    let selector = cond[..op_at].trim();
    let threshold: f64 = cond[op_at + cmp.len()..].trim().parse().map_err(|_| {
        format!("alert rule `{text}`: bad threshold `{}`", &cond[op_at + cmp.len()..])
    })?;
    if !threshold.is_finite() {
        return Err(format!("alert rule `{text}`: threshold must be finite"));
    }
    let (metric, labels) = parse_selector(selector, text)?;
    if !is_valid_metric_name(&metric) {
        return Err(format!("alert rule `{text}`: malformed metric name `{metric}`"));
    }
    Ok(AlertRule {
        name: cond.trim().to_owned(),
        metric,
        labels,
        cmp: cmp_kind,
        threshold,
        sustain,
        critical,
    })
}

fn parse_selector(selector: &str, rule: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(open) = selector.find('{') else {
        return Ok((selector.to_owned(), Vec::new()));
    };
    let close = selector
        .rfind('}')
        .filter(|&c| c > open)
        .ok_or_else(|| format!("alert rule `{rule}`: unterminated label selector"))?;
    let metric = selector[..open].trim().to_owned();
    let mut labels = Vec::new();
    for pair in selector[open + 1..close].split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("alert rule `{rule}`: bad label pair `{pair}`"))?;
        labels.push((k.trim().to_owned(), v.trim().trim_matches('"').to_owned()));
    }
    labels.sort();
    Ok((metric, labels))
}

/// Alert state transition kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertEdge {
    /// The rule crossed into the firing state.
    Firing,
    /// The rule left the firing state.
    Resolved,
}

impl AlertEdge {
    /// Stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AlertEdge::Firing => "firing",
            AlertEdge::Resolved => "resolved",
        }
    }
}

/// One structured alert state transition.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Rule name.
    pub rule: String,
    /// Metric family the rule watches.
    pub metric: String,
    /// Firing or resolved.
    pub edge: AlertEdge,
    /// Observed value at the transition.
    pub value: f64,
    /// Rule threshold.
    pub threshold: f64,
    /// Evaluation cycle (simulated cycle in the experiment loop,
    /// evaluation index in the serve hub).
    pub cycle: u64,
    /// Whether the rule is bundle-triggering.
    pub critical: bool,
}

impl AlertEvent {
    /// Renders the event as one JSON object (JSONL line body).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"event\":\"alert\",\"rule\":{},\"metric\":{},\"state\":\"{}\",\
             \"value\":{},\"threshold\":{},\"cycle\":{},\"critical\":{}}}",
            json_str(&self.rule),
            json_str(&self.metric),
            self.edge.label(),
            self.value,
            self.threshold,
            self.cycle,
            self.critical,
        );
        s
    }
}

/// Per-rule evaluation state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    consecutive: u32,
    firing: bool,
    fired: u64,
    resolved: u64,
    last_value: f64,
    seen: bool,
}

/// The engine: rules plus their sustain/firing state across evaluations.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    evaluations: u64,
}

impl AlertEngine {
    /// An engine over the given rules.
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        AlertEngine { rules, states, evaluations: 0 }
    }

    /// The configured rules.
    #[must_use]
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Number of evaluations performed.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Names of the currently firing rules, in rule order.
    #[must_use]
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.firing)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Evaluates every rule against a registry snapshot; returns the state
    /// transitions (empty when nothing changed).
    pub fn evaluate(&mut self, reg: &MetricsRegistry, cycle: u64) -> Vec<AlertEvent> {
        let samples = registry_samples(reg);
        self.evaluations += 1;
        let mut transitions = Vec::new();
        for (rule, state) in self.rules.iter().zip(&mut self.states) {
            let value = pick_value(&samples, rule);
            let Some(value) = value else {
                // Metric absent from the snapshot: not a breach; the
                // sustain streak resets but a firing rule stays firing
                // until the metric reappears healthy.
                state.consecutive = 0;
                continue;
            };
            state.seen = true;
            state.last_value = value;
            if rule.cmp.breaches(value, rule.threshold) {
                state.consecutive = state.consecutive.saturating_add(1);
                if !state.firing && state.consecutive >= rule.sustain {
                    state.firing = true;
                    state.fired += 1;
                    transitions.push(AlertEvent {
                        rule: rule.name.clone(),
                        metric: rule.metric.clone(),
                        edge: AlertEdge::Firing,
                        value,
                        threshold: rule.threshold,
                        cycle,
                        critical: rule.critical,
                    });
                }
            } else {
                state.consecutive = 0;
                if state.firing {
                    state.firing = false;
                    state.resolved += 1;
                    transitions.push(AlertEvent {
                        rule: rule.name.clone(),
                        metric: rule.metric.clone(),
                        edge: AlertEdge::Resolved,
                        value,
                        threshold: rule.threshold,
                        cycle,
                        critical: rule.critical,
                    });
                }
            }
        }
        transitions
    }
}

/// The value a rule evaluates: the worst matching series of its family
/// (max for high-watching comparators, min for low-watching ones).
fn pick_value(samples: &[Sample], rule: &AlertRule) -> Option<f64> {
    let mut best: Option<f64> = None;
    for s in samples {
        if s.name != rule.metric {
            continue;
        }
        let matches =
            rule.labels.iter().all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v));
        if !matches {
            continue;
        }
        best = Some(match best {
            None => s.value,
            Some(b) if rule.cmp.watches_high() => b.max(s.value),
            Some(b) => b.min(s.value),
        });
    }
    best
}

/// Declares and sets the `noc_alert_*` metric families from the engine
/// state. Evaluated on cycle-domain snapshots, these are deterministic per
/// seed and may join the deterministic exposition.
///
/// # Errors
///
/// Propagates registry validation errors (impossible for the fixed family
/// names unless same-name families of another kind already exist).
pub fn export_alert_metrics(reg: &mut MetricsRegistry, engine: &AlertEngine) -> Result<(), String> {
    reg.declare_gauge("noc_alert_firing", "1 while the alert rule is firing, else 0.")?;
    reg.declare_gauge("noc_alert_value", "Last observed value of the rule's metric.")?;
    reg.declare_counter(
        "noc_alert_transitions_total",
        "Alert state transitions, by rule and edge.",
    )?;
    reg.declare_counter("noc_alert_evaluations_total", "Rule-set evaluations performed.")?;
    for (rule, state) in engine.rules.iter().zip(&engine.states) {
        let labels = [("rule", rule.name.as_str())];
        reg.gauge_set("noc_alert_firing", &labels, if state.firing { 1.0 } else { 0.0 })?;
        if state.seen {
            reg.gauge_set("noc_alert_value", &labels, state.last_value)?;
        }
        reg.counter_set(
            "noc_alert_transitions_total",
            &[("rule", rule.name.as_str()), ("edge", "firing")],
            state.fired as f64,
        )?;
        reg.counter_set(
            "noc_alert_transitions_total",
            &[("rule", rule.name.as_str()), ("edge", "resolved")],
            state.resolved as f64,
        )?;
    }
    reg.counter_set("noc_alert_evaluations_total", &[], engine.evaluations as f64)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_exposition;

    fn reg_with_gauge(value: f64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.declare_gauge("noc_latency_avg_cycles", "x").unwrap();
        reg.gauge_set("noc_latency_avg_cycles", &[("design", "IntelliNoC")], value).unwrap();
        reg
    }

    #[test]
    fn dsl_parses_full_rules() {
        let rules = parse_rules(
            "noc_latency_avg_cycles>120.5:for=3:critical; noc_packets_total{event=dropped}>0",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].metric, "noc_latency_avg_cycles");
        assert_eq!(rules[0].cmp, AlertCmp::Gt);
        assert_eq!(rules[0].threshold, 120.5);
        assert_eq!(rules[0].sustain, 3);
        assert!(rules[0].critical);
        assert_eq!(rules[1].labels, vec![("event".to_owned(), "dropped".to_owned())]);
        assert_eq!(rules[1].sustain, 1);
        assert!(!rules[1].critical);

        let le = parse_rules("noc_mttf_hours<=100").unwrap();
        assert_eq!(le[0].cmp, AlertCmp::Le);
        let ge = parse_rules("noc_temp_c>=85:for=2").unwrap();
        assert_eq!(ge[0].cmp, AlertCmp::Ge);
        assert_eq!(ge[0].name, "noc_temp_c>=85");
    }

    #[test]
    fn dsl_rejects_malformed_rules() {
        assert!(parse_rules("").is_err());
        assert!(parse_rules("noc_latency_avg_cycles").unwrap_err().contains("no comparator"));
        assert!(parse_rules("noc_latency>abc").unwrap_err().contains("bad threshold"));
        assert!(parse_rules("bad name>1").unwrap_err().contains("malformed metric name"));
        assert!(parse_rules("noc_x>1:for=0").unwrap_err().contains("for=0"));
        assert!(parse_rules("noc_x>1:for=x").unwrap_err().contains("bad sustain"));
        assert!(parse_rules("noc_x{a=1>2").unwrap_err().contains("unterminated"));
    }

    #[test]
    fn sustain_gates_firing_and_resolution_emits_edges() {
        let rules = parse_rules("noc_latency_avg_cycles>100:for=2:critical").unwrap();
        let mut eng = AlertEngine::new(rules);
        // First breach: sustain not yet met.
        assert!(eng.evaluate(&reg_with_gauge(150.0), 1000).is_empty());
        assert!(eng.firing().is_empty());
        // Second consecutive breach: fires.
        let fired = eng.evaluate(&reg_with_gauge(160.0), 2000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].edge, AlertEdge::Firing);
        assert!(fired[0].critical);
        assert_eq!(fired[0].cycle, 2000);
        assert!(!eng.firing().is_empty());
        assert_eq!(eng.firing(), vec!["noc_latency_avg_cycles>100"]);
        // Still breaching: no new transition.
        assert!(eng.evaluate(&reg_with_gauge(170.0), 3000).is_empty());
        // Recovered: resolves.
        let resolved = eng.evaluate(&reg_with_gauge(50.0), 4000);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].edge, AlertEdge::Resolved);
        assert!(eng.firing().is_empty());
        // A non-consecutive breach restarts the sustain streak.
        assert!(eng.evaluate(&reg_with_gauge(150.0), 5000).is_empty());
        assert!(eng.evaluate(&reg_with_gauge(50.0), 6000).is_empty());
        assert!(eng.evaluate(&reg_with_gauge(150.0), 7000).is_empty());
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn label_selector_restricts_series_and_worst_series_wins() {
        let mut reg = MetricsRegistry::new();
        reg.declare_counter("noc_packets_total", "x").unwrap();
        reg.counter_set("noc_packets_total", &[("event", "delivered")], 500.0).unwrap();
        reg.counter_set("noc_packets_total", &[("event", "dropped")], 0.0).unwrap();
        let mut eng = AlertEngine::new(parse_rules("noc_packets_total{event=dropped}>0").unwrap());
        assert!(eng.evaluate(&reg, 1).is_empty(), "delivered series must not trigger");
        reg.counter_set("noc_packets_total", &[("event", "dropped")], 2.0).unwrap();
        assert_eq!(eng.evaluate(&reg, 2).len(), 1);

        // Without a selector, the worst (max) series evaluates.
        let mut any = AlertEngine::new(parse_rules("noc_packets_total>400").unwrap());
        let fired = any.evaluate(&reg, 3);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, 500.0);
    }

    #[test]
    fn missing_metric_resets_sustain_but_not_firing() {
        let mut eng = AlertEngine::new(parse_rules("noc_latency_avg_cycles>100").unwrap());
        let empty = MetricsRegistry::new();
        assert!(eng.evaluate(&empty, 1).is_empty());
        assert_eq!(eng.evaluate(&reg_with_gauge(150.0), 2).len(), 1);
        // Metric vanishes: the rule stays firing (no resolved edge).
        assert!(eng.evaluate(&empty, 3).is_empty());
        assert!(!eng.firing().is_empty());
    }

    #[test]
    fn alert_metrics_export_families() {
        let mut eng = AlertEngine::new(parse_rules("noc_latency_avg_cycles>100:critical").unwrap());
        eng.evaluate(&reg_with_gauge(150.0), 1000);
        let mut reg = MetricsRegistry::new();
        export_alert_metrics(&mut reg, &eng).unwrap();
        export_alert_metrics(&mut reg, &eng).unwrap(); // idempotent redeclare
        let text = render_exposition(&reg);
        assert!(text.contains("noc_alert_firing{rule=\"noc_latency_avg_cycles>100\"} 1"), "{text}");
        assert!(
            text.contains(
                "noc_alert_transitions_total{edge=\"firing\",rule=\"noc_latency_avg_cycles>100\"} 1"
            ),
            "{text}"
        );
        assert!(text.contains("noc_alert_evaluations_total 1"), "{text}");
        assert!(
            text.contains("noc_alert_value{rule=\"noc_latency_avg_cycles>100\"} 150"),
            "{text}"
        );
    }

    #[test]
    fn events_render_as_json() {
        let e = AlertEvent {
            rule: "noc_x>1".to_owned(),
            metric: "noc_x".to_owned(),
            edge: AlertEdge::Firing,
            value: 2.0,
            threshold: 1.0,
            cycle: 5000,
            critical: true,
        };
        let json = e.to_json();
        let v: serde::Content = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("state").and_then(serde::Content::as_str), Some("firing"));
        assert_eq!(v.get("rule").and_then(serde::Content::as_str), Some("noc_x>1"));
    }
}
