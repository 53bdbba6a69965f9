//! Span self-time arithmetic: self = duration - the part of the interval
//! the child spans cover.

use intellinoc_benchmark::spans::SpanLog;

/// parent [0,100] with children [10,30], [20,50] (overlapping), [90,120]
/// (overhanging) and a grandchild [12,14] under the first child.
fn nested() -> SpanLog {
    let mut log = SpanLog::new();
    let parent = log.record("parent", "u", None, 0, 100);
    let a = log.record("a", "u", Some(parent), 10, 30);
    log.record("b", "u", Some(parent), 20, 50);
    log.record("c", "u", Some(parent), 90, 120);
    log.record("grandchild", "u", Some(a), 12, 14);
    log
}

#[test]
fn a_span_without_children_is_all_self_time() {
    let mut log = SpanLog::new();
    let only = log.record("only", "", None, 5, 1_005);
    assert_eq!(log.duration_ns(only), 1_000);
    assert_eq!(log.self_ns(only), 1_000);
}

#[test]
fn child_cover_is_a_union_clipped_to_the_parent() {
    let log = nested();
    // [10,30] and [20,50] cover [10,50] = 40, not 50; [90,120] counts for
    // [90,100] = 10 only. Self = 100 - 40 - 10.
    assert_eq!(log.self_ns(0), 50);
}

#[test]
fn a_grandchild_reduces_only_its_own_parent() {
    let log = nested();
    assert_eq!(log.self_ns(1), 18, "child a = 20 - grandchild 2");
    assert_eq!(log.self_ns(4), 2);
    assert_eq!(log.self_ns(0), 50, "the grandparent is unchanged by it");
}

#[test]
fn enter_and_exit_nest_and_share_the_unit_id() {
    let mut log = SpanLog::new();
    let outer = log.enter("unit", "saturated_8x8/uniform-0.1/CP");
    let inner = log.enter("run_experiment", "saturated_8x8/uniform-0.1/CP");
    log.exit();
    log.exit();
    assert_eq!(log.spans()[inner].parent, Some(outer));
    assert_eq!(log.spans()[outer].parent, None);
    assert_eq!(log.spans()[inner].id, log.spans()[outer].id);
    assert!(log.self_ns(outer) <= log.duration_ns(outer));
    assert_eq!(log.current(), None);
}
