//! The digest is stable across in-process runs of one seed, and the same
//! with the profiler on: telemetry does not change the cycle domain.

use intellinoc_benchmark::run::{fnv1a, pass_digest, FNV_OFFSET};
use intellinoc_benchmark::workloads;

#[test]
fn fnv1a_matches_the_published_vectors() {
    assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
}

#[test]
fn same_seed_same_digest_traced_or_not() {
    for name in ["saturated_8x8", "closedloop_8x8", "faulty_8x8"] {
        let w = workloads::by_name(name).expect("a listed workload");
        let units = w.warmup_units(7);
        let first = pass_digest(&w, 7, &units, false).expect("no host failure");
        assert_eq!(first, pass_digest(&w, 7, &units, false).expect("no host failure"), "{name}");
        assert_eq!(
            first,
            pass_digest(&w, 7, &units, true).expect("no host failure"),
            "{name} traced"
        );
        let other = pass_digest(&w, 8, &w.warmup_units(8), false).expect("no host failure");
        assert_ne!(first, other, "{name}: another seed is another input");
    }
}
