//! The counting allocator counts a known allocation pattern, and nothing
//! while switched off. One test only: the counters are process-wide.

use intellinoc_benchmark::alloc::{counted, set_counting, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_allocations_only_while_switched_on() {
    let off_before = counted();
    black_box(vec![0u8; 4096]);
    assert_eq!(counted(), off_before, "nothing is counted while switched off");

    set_counting(true);
    let before = counted();
    let kept: Vec<Vec<u8>> = (0..10).map(|_| black_box(Vec::with_capacity(1_000))).collect();
    let mut grown: Vec<u8> = black_box(Vec::with_capacity(16));
    grown.extend_from_slice(&[7; 64]); // one realloc
    let after = counted();
    set_counting(false);
    black_box((&kept, &grown));

    // 1 outer Vec + 10 inner + 1 small + 1 realloc = 13; the test harness
    // thread is parked meanwhile, but leave it a little room.
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    assert!((13..=16).contains(&allocs), "counted {allocs} allocations");
    assert!((10_000 + 240 + 16 + 64..12_000).contains(&bytes), "counted {bytes} bytes");
}
