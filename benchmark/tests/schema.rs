//! Names, units and counts stay inside the contract, and `BENCHMARK.json`
//! lists exactly the metrics and workloads the code reports.

use intellinoc_benchmark::json::read_file;
use intellinoc_benchmark::schema::{END_TO_END, PER_LAYER};
use intellinoc_benchmark::workloads;
use serde::Content;
use std::collections::BTreeSet;
use std::path::Path;

/// Whether `name` is a legal metric or workload name under the contract:
/// it starts with a letter or digit and holds at most 64 letters, digits,
/// `_`, `.` and `-`.
fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit under the contract: at most 16 letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_units_and_counts_are_within_the_contract() {
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    assert!((2..=8).contains(&workloads::ALL.len()));
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(legal_name(name), "illegal metric name {name}");
        assert!(legal_unit(unit), "illegal unit {unit} of {name}");
        assert!(seen.insert(*name), "{name} is used twice");
    }
    for w in workloads::ALL {
        assert!(legal_name(w.name), "illegal workload name {}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is one line of <= 200",
            w.name
        );
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn the_name_check_rejects_what_the_contract_rejects() {
    assert!(legal_name("fault.injector.sample_1e-4_ns"));
    assert!(!legal_name(".hidden"));
    assert!(!legal_name("has space"));
    assert!(!legal_name(&"x".repeat(65)));
    assert!(legal_unit("cycles/s") && legal_unit("1/kcycle") && legal_unit("%"));
    assert!(!legal_unit("") && !legal_unit("per second") && !legal_unit(&"u".repeat(17)));
}

fn listed(doc: &Content, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
    doc.get(key)
        .and_then(Content::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|entry| {
            let keys: Vec<&str> =
                entry.as_map().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, fields, "{key} entries have exactly these keys");
            fields
                .iter()
                .map(|f| match entry.get(f).expect("checked above") {
                    Content::Str(s) => s.clone(),
                    other => other.as_f64().expect("a string or a number").to_string(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = read_file(&path).expect("BENCHMARK.json at the root of the repository");
    let keys: Vec<&str> =
        doc.as_map().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let workloads_listed = listed(&doc, "workloads", &["name", "why"]);
    let expected: Vec<Vec<String>> =
        workloads::ALL.iter().map(|w| vec![w.name.to_owned(), w.why.to_owned()]).collect();
    assert_eq!(workloads_listed, expected);

    let e2e = listed(&doc, "end_to_end", &["name", "unit", "better", "bound"]);
    let names: Vec<(&str, &str)> = e2e.iter().map(|m| (m[0].as_str(), m[1].as_str())).collect();
    assert_eq!(names, END_TO_END);
    for m in &e2e {
        assert!(m[2] == "lower" || m[2] == "higher", "{}: better is {}", m[0], m[2]);
        let bound: f64 = m[3].parse().expect("a number");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m[0]);
    }
    let setup = e2e.iter().find(|m| m[0] == "setup_s").expect("setup_s is required");
    assert_eq!((setup[1].as_str(), setup[2].as_str()), ("s", "lower"));
    let largest = e2e.iter().map(|m| m[3].parse::<f64>().expect("a number")).fold(0.0, f64::max);
    assert_eq!(
        setup[3].parse::<f64>().expect("a number"),
        largest,
        "setup_s has the largest bound"
    );

    let layers = listed(&doc, "per_layer", &["name", "unit", "better"]);
    let names: Vec<(&str, &str)> = layers.iter().map(|m| (m[0].as_str(), m[1].as_str())).collect();
    assert_eq!(names, PER_LAYER);
}
