//! Property tests for the workload substrate.

use noc_traffic::{
    capture_trace, read_trace, write_trace, InjectionProcess, ParsecBenchmark, SpatialPattern,
    TraceRecord, TrafficGen, Workload, WorkloadSpec,
};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = SpatialPattern> {
    prop_oneof![
        Just(SpatialPattern::Uniform),
        Just(SpatialPattern::Transpose),
        Just(SpatialPattern::BitComplement),
        Just(SpatialPattern::BitReverse),
        Just(SpatialPattern::Shuffle),
        Just(SpatialPattern::NearestNeighbor),
    ]
}

proptest! {
    /// Generators never emit self-traffic, out-of-range destinations, or
    /// more packets than the per-node budget.
    #[test]
    fn generator_respects_contract(
        pattern in arb_pattern(),
        rate in 0.001f64..0.9,
        ppn in 1u64..20,
        hotspot in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let spec = WorkloadSpec {
            pattern,
            hotspot_fraction: hotspot,
            ..WorkloadSpec::uniform(rate, ppn)
        };
        let mut gen = TrafficGen::new(spec, 8, 8, seed);
        let mut counts = vec![0u64; 64];
        for cycle in 0..200_000 {
            for (node, count) in counts.iter_mut().enumerate() {
                if let Some(dest) = gen.poll(cycle, node, 0) {
                    prop_assert!(dest < 64);
                    prop_assert_ne!(dest, node);
                    *count += 1;
                }
            }
            if gen.is_exhausted() {
                break;
            }
        }
        prop_assert!(gen.is_exhausted(), "budget must drain at rate {rate}");
        prop_assert!(counts.iter().all(|&c| c == ppn));
    }

    /// A captured trace replays to exactly the same (src, dest) multiset.
    #[test]
    fn capture_replay_equivalence(
        rate in 0.01f64..0.3,
        ppn in 1u64..10,
        seed in 0u64..500,
    ) {
        let spec = WorkloadSpec::uniform(rate, ppn);
        let trace = capture_trace(spec, 8, 8, seed, 10_000_000);
        prop_assert_eq!(trace.len() as u64, 64 * ppn);
        let spec = WorkloadSpec::replay("prop", trace.clone(), 64).unwrap();
        let mut replay = WorkloadSpec { window: usize::MAX, ..spec }.into_workload(8, 8, 0);
        let mut replayed = Vec::new();
        let horizon = trace.last().map(|r| r.cycle + 1).unwrap_or(0);
        for cycle in 0..=horizon {
            for node in 0..64 {
                while let Some(dest) = replay.poll(cycle, node, 0) {
                    replayed.push((node, dest));
                }
            }
        }
        prop_assert!(replay.is_exhausted());
        let mut original: Vec<(usize, usize)> =
            trace.iter().map(|r| (r.src, r.dest)).collect();
        original.sort_unstable();
        replayed.sort_unstable();
        prop_assert_eq!(original, replayed);
    }

    /// The JSONL trace format round-trips hostile records bit-exactly —
    /// extreme cycles, boundary node indices, unsorted order, duplicates —
    /// and a replay workload built from the round-tripped records is
    /// indistinguishable from one built from the originals. This is what
    /// lets a recorded closed-loop campaign replay byte-identically.
    #[test]
    fn trace_format_round_trips_hostile_records(
        raw in prop::collection::vec(
            (
                prop_oneof![0u64..100, Just(u64::MAX - 1), Just(u64::MAX), any::<u64>()],
                0usize..16,
                0usize..16,
                any::<u8>(),
            ),
            0..40,
        ),
    ) {
        let records: Vec<TraceRecord> = raw
            .iter()
            .map(|&(cycle, src, dest, size_flits)| TraceRecord { cycle, src, dest, size_flits })
            .collect();

        // Byte round-trip: write → read → write must be a fixed point.
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(&back, &records);
        let mut buf2 = Vec::new();
        write_trace(&mut buf2, &back).unwrap();
        prop_assert_eq!(&buf2, &buf);

        // Blank lines are tolerated without changing the record stream.
        let mut padded = b"\n".to_vec();
        padded.extend_from_slice(&buf);
        padded.extend_from_slice(b"\n  \n");
        prop_assert_eq!(read_trace(padded.as_slice()).unwrap(), records.clone());

        // Replay equivalence: both replays emit identical poll sequences
        // (records whose src == dest still inject — the replay does not
        // second-guess the recording).
        let usable: Vec<TraceRecord> =
            records.into_iter().filter(|r| r.src != r.dest).collect();
        let replay = |name, records| {
            let spec = WorkloadSpec::replay(name, records, 16).unwrap();
            WorkloadSpec { window: 4, ..spec }.into_workload(4, 4, 0)
        };
        let mut a = replay("orig", usable.clone());
        let b_records: Vec<TraceRecord> = {
            let mut buf = Vec::new();
            write_trace(&mut buf, &usable).unwrap();
            read_trace(buf.as_slice()).unwrap()
        };
        let mut b = replay("copy", b_records);
        let horizon = usable.iter().map(|r| r.cycle).max().map_or(0, |c| c.saturating_add(2));
        for cycle in (0..=horizon).step_by((horizon as usize / 1000).max(1)) {
            for node in 0..16 {
                let (pa, pb) =
                    (a.poll(cycle, node, 0), b.poll(cycle, node, 0));
                prop_assert_eq!(pa, pb);
            }
        }
        prop_assert_eq!(a.is_exhausted(), b.is_exhausted());
    }

    /// MMP processes hit their stationary mean rate within tolerance.
    #[test]
    fn mmp_mean_rate_is_stationary(
        on in 0.05f64..0.5,
        off in 0.0f64..0.02,
        p_on_off in 0.001f64..0.05,
        p_off_on in 0.001f64..0.05,
    ) {
        let process = InjectionProcess::Mmp {
            on_rate: on,
            off_rate: off,
            p_on_off,
            p_off_on,
        };
        let spec = WorkloadSpec {
            process,
            ..WorkloadSpec::uniform(0.0, u64::MAX / 1024)
        };
        let mut gen = TrafficGen::new(spec, 8, 8, 77);
        let cycles = 30_000u64;
        let mut injected = 0u64;
        for cycle in 0..cycles {
            for node in 0..64 {
                if gen.poll(cycle, node, 0).is_some() {
                    injected += 1;
                }
            }
        }
        let measured = injected as f64 / (cycles * 64) as f64;
        let expected = process.mean_rate();
        // 64 nodes x 30k cycles: generous tolerance for the Markov mixing.
        prop_assert!(
            (measured - expected).abs() < expected * 0.5 + 0.002,
            "measured {measured} vs expected {expected}"
        );
    }
}

#[test]
fn every_parsec_profile_generates_and_drains() {
    for b in ParsecBenchmark::TEST_SET.into_iter().chain([ParsecBenchmark::Blackscholes]) {
        let mut gen = TrafficGen::new(b.workload(5), 8, 8, 3);
        for cycle in 0..2_000_000u64 {
            for node in 0..64 {
                let _ = gen.poll(cycle, node, 0);
            }
            if gen.is_exhausted() {
                break;
            }
        }
        assert!(gen.is_exhausted(), "{b} did not drain");
    }
}
