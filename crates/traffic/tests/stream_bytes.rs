//! Pinned request streams of every workload generator.
//!
//! Each pin folds a whole run into one FNV-1a digest:
//!
//! * open loop — the `(cycle, node, dest)` poll stream of a [`TrafficGen`] on
//!   an 8×8 mesh, polled with an outstanding count of `(cycle + node) % 16`
//!   so the dependency window throttles some polls, for `uniform(0.1, 50)`
//!   and every PARSEC profile at 20 packets per node;
//! * closed loop — a [`ReqReplyWorkload`] on a fake 4×4 network that
//!   delivers every packet 3 cycles after injection, drops every packet at
//!   injection, or loses every packet silently, each with 1 and 3 reply
//!   packets: the poll stream, the drained [`TxnEvent`]s, the final
//!   [`TxnStats`] and the orphaned transaction ids. Where no request is
//!   ever served, the reply size cannot matter, so those pairs share a
//!   digest.
//!
//! Any change to a random draw, its order, the window or budget check, the
//! phase schedule or the transaction protocol moves a digest.

use noc_traffic::{
    ParsecBenchmark, ReqReplySpec, ReqReplyWorkload, TrafficGen, TxnEvent, TxnStats, Workload,
    WorkloadSpec,
};

/// Open-loop pins: `(workload name, digest)`.
const OPEN_LOOP: [(&str, u64); 12] = [
    ("uniform-0.1", 0x2c02_9cc7_7de5_2a83),
    ("blackscholes", 0x1125_13a1_3b7d_60aa),
    ("bodytrack", 0x4417_ca17_7553_076e),
    ("canneal", 0x06a2_f556_ec30_d6bf),
    ("dedup", 0xb1a2_6a14_a271_9198),
    ("facesim", 0xa0ea_f6cd_8ea0_82ac),
    ("ferret", 0xbcd0_e81c_da41_692e),
    ("freqmine", 0x6a12_de58_e0da_e963),
    ("fluidanimate", 0xa2f7_3296_657f_cda4),
    ("swaptions", 0x34fa_bcea_d347_b362),
    ("vips", 0xde5e_2191_6872_c721),
    ("x264", 0xf624_b449_bd72_c86f),
];

/// Closed-loop pins: `(network, reply packets, digest)`.
const CLOSED_LOOP: [(Net, u32, u64); 6] = [
    (Net::Deliver, 1, 0xd163_e7d8_22ab_f2ef),
    (Net::Deliver, 3, 0x4df7_0790_5c9d_d78f),
    (Net::Drop, 1, 0xa767_ef47_0471_1f4e),
    (Net::Drop, 3, 0xa767_ef47_0471_1f4e),
    (Net::Lose, 1, 0x75c4_6256_d49a_33cd),
    (Net::Lose, 3, 0x75c4_6256_d49a_33cd),
];

/// What the fake network does with every injected packet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Net {
    /// Delivers it 3 cycles later.
    Deliver,
    /// Drops it at injection.
    Drop,
    /// Never delivers or drops it, so every attempt times out.
    Lose,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        vs.iter().for_each(|&v| self.u64(v));
    }

    fn offer(&mut self, cycle: u64, node: usize, dest: usize) {
        self.u64(cycle);
        self.u64(node as u64);
        self.u64(dest as u64);
    }

    fn event(&mut self, e: &TxnEvent) {
        self.offer(e.cycle, e.node, e.peer);
        self.u64(e.txn);
        self.u64(u64::from(e.attempt));
        self.bytes(format!("{:?}", e.kind).as_bytes());
    }

    fn stats(&mut self, s: &TxnStats) {
        for v in [&s.issued, &s.completed, &s.failed, &s.shed, &s.in_flight] {
            self.u64s(v);
        }
        self.u64(s.timeouts);
        self.u64(s.retries);
        self.u64s(&s.completion_latencies);
    }
}

/// Records the offer `(cycle, node, dest)` and tells the workload it was
/// injected as `packet_id`.
fn inject(w: &mut dyn Workload, h: &mut Fnv, cycle: u64, node: usize, dest: usize, packet_id: u64) {
    h.offer(cycle, node, dest);
    w.on_injected(packet_id);
}

fn open_loop_digest(spec: WorkloadSpec) -> u64 {
    let mut gen = TrafficGen::new(spec, 8, 8, 2019);
    let mut h = Fnv::new();
    let mut cycle = 0;
    while !gen.is_exhausted() {
        assert!(cycle < 10_000_000, "{} did not drain", gen.name());
        for node in 0..64 {
            let outstanding = (cycle as usize + node) % 16;
            if let Some(dest) = gen.poll(cycle, node, outstanding) {
                h.offer(cycle, node, dest);
            }
        }
        cycle += 1;
    }
    h.u64(cycle);
    h.0
}

fn closed_loop_digest(net: Net, reply_packets: u32) -> u64 {
    let (rate, ppn, rr) = match net {
        Net::Deliver => (
            0.2,
            10,
            ReqReplySpec { reply_packets, chaos_orphan: Some(7), ..ReqReplySpec::default() },
        ),
        Net::Drop => {
            (0.5, 3, ReqReplySpec { reply_packets, max_retries: 2, ..ReqReplySpec::default() })
        }
        Net::Lose => (
            1.0,
            40,
            ReqReplySpec {
                reply_packets,
                reply_timeout: 10,
                max_retries: 0,
                ..ReqReplySpec::default()
            },
        ),
    };
    let spec = WorkloadSpec::reqreply(rate, ppn, rr.clone());
    let mut w = ReqReplyWorkload::new(spec, rr, 4, 4, 2019);
    w.set_txn_event_recording(true);
    let mut h = Fnv::new();
    let mut next_id = 0u64;
    // (deliver at, packet id, source node)
    let mut in_net: Vec<(u64, u64, usize)> = Vec::new();
    let mut outstanding = [0usize; 16];
    let mut cycle = 0;
    while !(w.is_exhausted() && in_net.is_empty()) {
        assert!(cycle < 1_000_000, "{net:?} x{reply_packets} did not drain");
        for &(_, id, src) in in_net.iter().filter(|&&(at, ..)| at == cycle) {
            w.on_delivered(cycle, id);
            outstanding[src] -= 1;
        }
        in_net.retain(|&(at, ..)| at > cycle);
        for (node, out) in outstanding.iter_mut().enumerate() {
            let Some(dest) = w.poll(cycle, node, *out) else { continue };
            let id = next_id;
            next_id += 1;
            inject(&mut w, &mut h, cycle, node, dest, id);
            match net {
                Net::Deliver => {
                    in_net.push((cycle + 3, id, node));
                    *out += 1;
                }
                Net::Drop => w.on_dropped(cycle, id),
                Net::Lose => {}
            }
        }
        for e in w.drain_txn_events() {
            h.event(&e);
        }
        cycle += 1;
    }
    h.u64(cycle);
    h.stats(w.txn_stats().expect("closed loop keeps transaction stats"));
    h.u64s(&w.txn_orphans());
    h.0
}

#[test]
fn traffic_gen_streams_are_pinned() {
    let specs = std::iter::once(WorkloadSpec::uniform(0.1, 50)).chain(
        std::iter::once(ParsecBenchmark::Blackscholes)
            .chain(ParsecBenchmark::TEST_SET)
            .map(|b| b.workload(20)),
    );
    let got: Vec<(String, u64)> = specs.map(|s| (s.name.clone(), open_loop_digest(s))).collect();
    let want: Vec<(String, u64)> = OPEN_LOOP.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert_eq!(got, want);
}

#[test]
fn reqreply_streams_are_pinned() {
    let got: Vec<(Net, u32, u64)> =
        CLOSED_LOOP.iter().map(|&(net, k, _)| (net, k, closed_loop_digest(net, k))).collect();
    assert_eq!(got, CLOSED_LOOP);
}
