//! `noc-journey`: per-packet (and per-transaction) hop-level journey
//! records with tail-latency critical-path analysis.
//!
//! A journey is the complete, cycle-stamped span timeline of one sampled
//! packet: every wait (NI queue, VC/SA arbitration, channel residency),
//! every charge (pipeline fill, link traversal, bypass latch, hop-NACK
//! stall, wasted end-to-end generation), and the final serialization +
//! ejection tail. Spans **tile** the packet's lifetime `[injected_at,
//! delivered_at)` exactly, so summing span durations per cause reproduces
//! the PR-3 attribution components bit-for-bit (the simulator
//! debug-asserts this at every completion).
//!
//! Sampling is seeded-hash deterministic ([`journey_sampled`]): whether a
//! packet is sampled depends only on `(seed, packet id)`, never on
//! execution order, so journey artifacts are byte-identical across
//! repeated, parallel, and resumed runs of one seed.
//!
//! Sinks: journeys JSONL ([`JourneyLog::to_jsonl`] /
//! [`JourneyLog::from_jsonl`]) and the critical-path analyzer behind
//! `intellinoc journeys` ([`JourneyLog::tail_report`]) that attributes
//! p99−p50 excess latency to named `(location, cause)` pairs.

use crate::inspect::LatencyComponents;
use crate::json_str;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Serialized journeys-JSONL format version (bumped on incompatible
/// changes).
pub const JOURNEY_FORMAT_VERSION: u32 = 1;

/// Canonical journeys-log file name for a run key: non-portable
/// characters collapse to `_` (same sanitization as post-mortem bundle
/// names, so a unit's artifacts sort together).
#[must_use]
pub fn journey_file_name(key: &str) -> String {
    let safe: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect();
    format!("journeys-{safe}.jsonl")
}

/// Deterministic sampling predicate: whether `id` is journey-sampled at a
/// rate of one in `every` under `seed`.
///
/// A pure hash of `(seed, id)` — independent of execution order, worker
/// count, and resume boundaries — so the sampled set is a function of the
/// seed alone. `every == 0` disables sampling; `every == 1` samples all.
#[must_use]
pub fn journey_sampled(seed: u64, id: u64, every: u64) -> bool {
    if every == 0 {
        return false;
    }
    if every == 1 {
        return true;
    }
    let mut x = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x.is_multiple_of(every)
}

/// Where a journey span took place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JourneyLoc {
    /// The source network interface's injection queue.
    SourceNi(u16),
    /// Inside a router (pipeline, VC, switch allocation, ejection).
    Router(u16),
    /// On the directed channel `from → to` (wire + channel storage).
    Link {
        /// Upstream router.
        from: u16,
        /// Downstream router.
        to: u16,
    },
}

/// The stable compact label: `ni:3`, `r:12`, `l:12-13`. It never needs
/// escaping in JSON.
impl fmt::Display for JourneyLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            JourneyLoc::SourceNi(n) => write!(f, "ni:{n}"),
            JourneyLoc::Router(r) => write!(f, "r:{r}"),
            JourneyLoc::Link { from, to } => write!(f, "l:{from}-{to}"),
        }
    }
}

impl JourneyLoc {
    /// Parses a label its `Display` produced.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(n) = s.strip_prefix("ni:") {
            return n.parse().ok().map(JourneyLoc::SourceNi);
        }
        if let Some(r) = s.strip_prefix("r:") {
            return r.parse().ok().map(JourneyLoc::Router);
        }
        let l = s.strip_prefix("l:")?;
        let (from, to) = l.split_once('-')?;
        Some(JourneyLoc::Link { from: from.parse().ok()?, to: to.parse().ok()? })
    }
}

/// Why a journey span's cycles were spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JourneyCause {
    /// Waiting in the source NI's injection queue.
    NiQueue,
    /// Buffered in an input VC awaiting VC/switch allocation.
    VcSaWait,
    /// Stored in a channel awaiting downstream acceptance.
    ChannelWait,
    /// Router pipeline fill after delivery into an input VC.
    Pipeline,
    /// Head-flit wire crossing into a powered router.
    Link,
    /// Bypass-latch crossing through a power-gated router.
    Bypass,
    /// Hop-NACK stall: the stored copy re-traverses the link.
    HopRetx,
    /// Part of a wasted end-to-end generation (discarded on e2e retx).
    WastedGen,
    /// Tail flits draining after the head ejected.
    Serialization,
    /// The final consume cycle at the destination NI.
    Ejection,
    /// Zero-duration marker: the packet detoured off its XY route.
    Reroute,
    /// Zero-duration marker: ECC corrected corruption in place.
    EccCorrected,
}

/// Every cause, in serialization order.
pub const JOURNEY_CAUSES: [JourneyCause; 12] = [
    JourneyCause::NiQueue,
    JourneyCause::VcSaWait,
    JourneyCause::ChannelWait,
    JourneyCause::Pipeline,
    JourneyCause::Link,
    JourneyCause::Bypass,
    JourneyCause::HopRetx,
    JourneyCause::WastedGen,
    JourneyCause::Serialization,
    JourneyCause::Ejection,
    JourneyCause::Reroute,
    JourneyCause::EccCorrected,
];

impl JourneyCause {
    /// Stable wire/report name: lowercase ASCII and `_`, so it never needs
    /// escaping in JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JourneyCause::NiQueue => "ni_queue",
            JourneyCause::VcSaWait => "vc_sa_wait",
            JourneyCause::ChannelWait => "channel_wait",
            JourneyCause::Pipeline => "pipeline",
            JourneyCause::Link => "link",
            JourneyCause::Bypass => "bypass",
            JourneyCause::HopRetx => "hop_retx",
            JourneyCause::WastedGen => "wasted_gen",
            JourneyCause::Serialization => "serialization",
            JourneyCause::Ejection => "ejection",
            JourneyCause::Reroute => "reroute",
            JourneyCause::EccCorrected => "ecc_corrected",
        }
    }

    /// Parses a name produced by [`JourneyCause::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        JOURNEY_CAUSES.into_iter().find(|c| c.name() == s)
    }

    /// Whether this is a zero-duration annotation excluded from component
    /// sums (reroute detours, in-place ECC corrections).
    #[must_use]
    pub fn is_marker(self) -> bool {
        matches!(self, JourneyCause::Reroute | JourneyCause::EccCorrected)
    }

    /// Index into [`LatencyComponents::NAMES`] this cause's cycles charge
    /// to; `None` for markers.
    #[must_use]
    pub fn component_index(self) -> Option<usize> {
        match self {
            JourneyCause::NiQueue | JourneyCause::VcSaWait | JourneyCause::ChannelWait => Some(0),
            JourneyCause::Pipeline | JourneyCause::Link => Some(1),
            JourneyCause::Serialization => Some(2),
            JourneyCause::HopRetx | JourneyCause::WastedGen => Some(3),
            JourneyCause::Bypass => Some(4),
            JourneyCause::Ejection => Some(5),
            JourneyCause::Reroute | JourneyCause::EccCorrected => None,
        }
    }
}

/// One cycle-stamped span of a packet's journey: `[start, end)` spent at
/// `loc` because of `cause`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSpan {
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle of the span (`end == start` for markers).
    pub end: u64,
    /// Where the cycles were spent.
    pub loc: JourneyLoc,
    /// Why they were spent.
    pub cause: JourneyCause,
}

impl HopSpan {
    /// Span length in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The complete journey of one sampled, delivered packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketJourney {
    /// Packet id.
    pub packet: u64,
    /// Source router.
    pub src: u16,
    /// Destination router.
    pub dest: u16,
    /// Injection cycle at the source NI.
    pub injected_at: u64,
    /// Cycle the packet finished (one past the final consume cycle).
    pub delivered_at: u64,
    /// Measured end-to-end latency: `delivered_at - injected_at`.
    pub latency: u64,
    /// Closed-loop identity, when the packet belongs to a transaction:
    /// `(txn id, attempt, is_reply)`.
    pub txn: Option<(u64, u32, bool)>,
    /// The span timeline; non-marker spans tile `[injected_at,
    /// delivered_at)` exactly.
    pub spans: Vec<HopSpan>,
}

impl PacketJourney {
    /// Sums the non-marker spans into PR-3 attribution components. Equals
    /// the latency engine's counters for the same packet exactly (saturating
    /// only on a hostile parsed log: a simulated packet cannot get near).
    #[must_use]
    pub fn components(&self) -> LatencyComponents {
        let mut sums = [0u64; 6];
        for s in &self.spans {
            if let Some(i) = s.cause.component_index() {
                sums[i] = sums[i].saturating_add(s.duration());
            }
        }
        LatencyComponents::from_array(sums)
    }

    /// The longest non-marker span (earliest wins ties), if any.
    #[must_use]
    pub fn dominant_span(&self) -> Option<&HopSpan> {
        self.spans
            .iter()
            .filter(|s| !s.cause.is_marker())
            .max_by(|a, b| a.duration().cmp(&b.duration()).then(b.start.cmp(&a.start)))
    }

    /// Appends this journey as one JSONL record (with trailing newline). It
    /// writes straight into `out`: location labels and cause names need no
    /// escaping, so a span allocates nothing.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"kind\":\"packet\",\"packet\":{},\"src\":{},\"dest\":{},\
             \"injected_at\":{},\"delivered_at\":{},\"latency\":{}",
            self.packet, self.src, self.dest, self.injected_at, self.delivered_at, self.latency
        );
        if let Some((txn, attempt, reply)) = self.txn {
            let _ = write!(out, ",\"txn\":{txn},\"attempt\":{attempt},\"reply\":{reply}");
        }
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},\"{}\",\"{}\"]", s.start, s.end, s.loc, s.cause.name());
        }
        out.push_str("]}\n");
    }

    /// This journey as a standalone JSONL line (used by the blackbox's
    /// slowest-journeys ring): one allocation, sized for a span of two
    /// seven-digit cycles, a link label and the longest cause name.
    #[must_use]
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::with_capacity(192 + self.spans.len() * 48);
        self.write_jsonl(&mut out);
        if out.ends_with('\n') {
            out.pop();
        }
        out
    }
}

/// What a sampled transaction's legs add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnOutcome {
    /// A reply arrived before the deadline.
    Completed,
    /// Retries exhausted without a reply.
    Failed,
    /// Shed at admission (never issued into the network).
    Shed,
    /// Still open when the run ended.
    Unresolved,
}

impl TxnOutcome {
    /// Stable wire/report name: lowercase ASCII and `_`, so it never needs
    /// escaping in JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TxnOutcome::Completed => "completed",
            TxnOutcome::Failed => "failed",
            TxnOutcome::Shed => "shed",
            TxnOutcome::Unresolved => "unresolved",
        }
    }

    /// Parses a name produced by [`TxnOutcome::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "completed" => TxnOutcome::Completed,
            "failed" => TxnOutcome::Failed,
            "shed" => TxnOutcome::Shed,
            "unresolved" => TxnOutcome::Unresolved,
            _ => return None,
        })
    }
}

/// What a transaction leg's wall-cycles were spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnLegKind {
    /// A request attempt is in flight (issued/retried → reply/timeout).
    InFlight,
    /// Backing off between a timeout and the retry.
    Backoff,
}

impl TxnLegKind {
    /// Stable wire/report name: lowercase ASCII and `_`, so it never needs
    /// escaping in JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TxnLegKind::InFlight => "in_flight",
            TxnLegKind::Backoff => "backoff",
        }
    }

    /// Parses a name produced by [`TxnLegKind::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "in_flight" => TxnLegKind::InFlight,
            "backoff" => TxnLegKind::Backoff,
            _ => return None,
        })
    }
}

/// One leg of a transaction's lifetime: `[start, end)` spent in `kind`
/// during attempt `attempt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnLeg {
    /// First cycle of the leg.
    pub start: u64,
    /// One past the last cycle of the leg.
    pub end: u64,
    /// What the leg's cycles were spent on.
    pub kind: TxnLegKind,
    /// Attempt number the leg belongs to (1-based).
    pub attempt: u32,
}

/// The journey of one sampled transaction (closed-loop workloads only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnJourney {
    /// Transaction id.
    pub txn: u64,
    /// Client node that issued the request.
    pub client: u16,
    /// Server node the request targeted.
    pub server: u16,
    /// Cycle the transaction was first issued (or shed).
    pub issued_at: u64,
    /// Cycle the transaction resolved (run end for unresolved ones).
    pub resolved_at: u64,
    /// Request attempts made.
    pub attempts: u32,
    /// How it ended.
    pub outcome: TxnOutcome,
    /// The leg timeline, tiling `[issued_at, resolved_at)`.
    pub legs: Vec<TxnLeg>,
}

impl TxnJourney {
    /// Wall-cycles from first issue to resolution.
    #[must_use]
    pub fn completion_cycles(&self) -> u64 {
        self.resolved_at.saturating_sub(self.issued_at)
    }

    /// Appends this journey as one JSONL record (with trailing newline). It
    /// writes straight into `out`: location labels and cause names need no
    /// escaping, so a span allocates nothing.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"kind\":\"txn\",\"txn\":{},\"client\":{},\"server\":{},\
             \"issued_at\":{},\"resolved_at\":{},\"attempts\":{},\"outcome\":{},\"legs\":[",
            self.txn,
            self.client,
            self.server,
            self.issued_at,
            self.resolved_at,
            self.attempts,
            json_str(self.outcome.name()),
        );
        for (i, l) in self.legs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ =
                write!(out, "[{},{},{},{}]", l.start, l.end, json_str(l.kind.name()), l.attempt);
        }
        out.push_str("]}\n");
    }
}

/// One `(location, cause)` row of the critical-path analysis.
#[derive(Debug)]
struct TailContribution {
    /// Where the cycles were spent.
    loc: JourneyLoc,
    /// Why they were spent.
    cause: JourneyCause,
    /// Mean cycles per packet in the fast set (latency ≤ p50).
    fast_mean: f64,
    /// Mean cycles per packet in the tail set (latency ≥ p99).
    tail_mean: f64,
    /// `tail_mean - fast_mean`: the excess this pair contributes to a
    /// tail packet over a median one.
    excess: f64,
}

/// Everything journey tracing produced for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JourneyLog {
    /// Workload label (tenant/workload name; hostile strings tolerated).
    pub label: String,
    /// Sampling seed the hash predicate ran under.
    pub seed: u64,
    /// Sampling rate: one in `every` packets/transactions.
    pub every: u64,
    /// Sampled packets still in flight when the run ended (not emitted).
    pub unfinished_packets: u64,
    /// Sampled packets dropped before delivery (journeys discarded).
    pub dropped_packets: u64,
    /// Delivered sampled packets, in delivery order.
    pub packets: Vec<PacketJourney>,
    /// Sampled transactions, ordered by transaction id.
    pub txns: Vec<TxnJourney>,
}

impl JourneyLog {
    /// Renders the log as versioned JSONL: one header line, then one line
    /// per packet journey, then one per transaction journey. Byte
    /// deterministic per seed.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256 + self.packets.len() * 256);
        let _ = writeln!(
            out,
            "{{\"kind\":\"journey-log\",\"format_version\":{JOURNEY_FORMAT_VERSION},\
             \"label\":{},\"seed\":{},\"every\":{},\"unfinished_packets\":{},\
             \"dropped_packets\":{}}}",
            json_str(&self.label),
            self.seed,
            self.every,
            self.unfinished_packets,
            self.dropped_packets,
        );
        for p in &self.packets {
            p.write_jsonl(&mut out);
        }
        for t in &self.txns {
            t.write_jsonl(&mut out);
        }
        out
    }

    /// Parses a log rendered by [`JourneyLog::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending line for malformed JSON, a
    /// missing header, or an unsupported format version.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut log: Option<JourneyLog> = None;
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let v: serde::Content = serde_json::from_str(line)
                .map_err(|e| format!("journeys line {lineno}: malformed JSON: {e}"))?;
            let kind: String =
                serde::field(&v, "kind").map_err(|e| format!("journeys line {lineno}: {e}"))?;
            let err = |e: serde::Error| format!("journeys line {lineno}: {e}");
            if kind == "journey-log" {
                if log.is_some() {
                    return Err(format!("journeys line {lineno}: duplicate header"));
                }
                let format_version: u32 = serde::field(&v, "format_version").map_err(err)?;
                if format_version > JOURNEY_FORMAT_VERSION {
                    return Err(format!(
                        "journeys format version {format_version} (tool supports ≤ \
                         {JOURNEY_FORMAT_VERSION}); upgrade the tool"
                    ));
                }
                log = Some(JourneyLog {
                    label: serde::field(&v, "label").map_err(err)?,
                    seed: serde::field(&v, "seed").map_err(err)?,
                    every: serde::field(&v, "every").map_err(err)?,
                    unfinished_packets: serde::field(&v, "unfinished_packets").map_err(err)?,
                    dropped_packets: serde::field(&v, "dropped_packets").map_err(err)?,
                    packets: Vec::new(),
                    txns: Vec::new(),
                });
                continue;
            }
            let l = log
                .as_mut()
                .ok_or_else(|| format!("journeys line {lineno}: `{kind}` before the header"))?;
            match kind.as_str() {
                "packet" => l.packets.push(parse_packet_line(&v).map_err(err)?),
                "txn" => l.txns.push(parse_txn_line(&v).map_err(err)?),
                other => return Err(format!("journeys line {lineno}: unknown kind `{other}`")),
            }
        }
        log.ok_or_else(|| "journeys log has no header line".to_owned())
    }

    /// Sorted packet latencies of the sampled set.
    fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.packets.iter().map(|p| p.latency).collect();
        v.sort_unstable();
        v
    }

    /// The critical-path rows: per `(location, cause)` mean cycles in the
    /// fast set (latency ≤ p50) vs the tail set (latency ≥ p99), sorted by
    /// excess descending (ties by location then cause).
    #[must_use]
    fn critical_path(&self) -> Vec<TailContribution> {
        let lat = self.sorted_latencies();
        if lat.is_empty() {
            return Vec::new();
        }
        let p50 = percentile(&lat, 0.50);
        let p99 = percentile(&lat, 0.99);
        let mut fast_n = 0u64;
        let mut tail_n = 0u64;
        let mut fast: BTreeMap<(JourneyLoc, JourneyCause), u64> = BTreeMap::new();
        let mut tail: BTreeMap<(JourneyLoc, JourneyCause), u64> = BTreeMap::new();
        for p in &self.packets {
            let in_fast = p.latency <= p50;
            let in_tail = p.latency >= p99;
            if !in_fast && !in_tail {
                continue;
            }
            if in_fast {
                fast_n += 1;
            }
            if in_tail {
                tail_n += 1;
            }
            for s in &p.spans {
                if s.cause.is_marker() {
                    continue;
                }
                let key = (s.loc, s.cause);
                // Saturating: a parsed log may hold spans of any length.
                for (on, sums) in [(in_fast, &mut fast), (in_tail, &mut tail)] {
                    if on {
                        let sum = sums.entry(key).or_default();
                        *sum = sum.saturating_add(s.duration());
                    }
                }
            }
        }
        let mut keys: Vec<(JourneyLoc, JourneyCause)> =
            fast.keys().chain(tail.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut rows: Vec<TailContribution> = keys
            .into_iter()
            .map(|key| {
                let f = *fast.get(&key).unwrap_or(&0) as f64 / fast_n.max(1) as f64;
                let t = *tail.get(&key).unwrap_or(&0) as f64 / tail_n.max(1) as f64;
                TailContribution {
                    loc: key.0,
                    cause: key.1,
                    fast_mean: f,
                    tail_mean: t,
                    excess: t - f,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.excess
                .partial_cmp(&a.excess)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((a.loc, a.cause).cmp(&(b.loc, b.cause)))
        });
        rows
    }

    /// The `k` slowest sampled packet journeys (latency descending, packet
    /// id breaking ties).
    #[must_use]
    pub fn slowest_packets(&self, k: usize) -> Vec<&PacketJourney> {
        let mut v: Vec<&PacketJourney> = self.packets.iter().collect();
        v.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.packet.cmp(&b.packet)));
        v.truncate(k);
        v
    }

    /// The `k` slowest sampled transactions by completion cycles.
    #[must_use]
    pub fn slowest_txns(&self, k: usize) -> Vec<&TxnJourney> {
        let mut v: Vec<&TxnJourney> = self.txns.iter().collect();
        v.sort_by(|a, b| b.completion_cycles().cmp(&a.completion_cycles()).then(a.txn.cmp(&b.txn)));
        v.truncate(k);
        v
    }

    /// Renders the deterministic markdown tail report: sampled-set
    /// percentiles, the critical-path table attributing p99−p50 excess to
    /// `(location, cause)` pairs, the top-`k` slowest journeys, and — for
    /// closed-loop runs — the transaction-completion equivalent.
    #[must_use]
    pub fn tail_report(&self, k: usize) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# Journey tail report\n\n");
        let _ = writeln!(out, "- label: `{}`", self.label.replace('`', "'"));
        let _ = writeln!(out, "- seed: {}", self.seed);
        let _ = writeln!(out, "- sampling: 1 in {} (seeded hash)", self.every.max(1));
        let _ = writeln!(
            out,
            "- sampled packets: {} delivered, {} unfinished, {} dropped",
            self.packets.len(),
            self.unfinished_packets,
            self.dropped_packets
        );
        let _ = writeln!(out, "- sampled transactions: {}", self.txns.len());
        out.push('\n');

        let lat = self.sorted_latencies();
        if lat.is_empty() {
            out.push_str("No sampled packets were delivered.\n");
            return out;
        }
        let p50 = percentile(&lat, 0.50);
        let p99 = percentile(&lat, 0.99);
        out.push_str("## Packet latency (sampled)\n\n");
        let _ = writeln!(out, "- p50: {p50} cycles");
        let _ = writeln!(out, "- p99: {p99} cycles");
        let _ = writeln!(out, "- max: {} cycles", lat.last().copied().unwrap_or(0));
        let _ = writeln!(out, "- p99 − p50 excess: {} cycles", p99.saturating_sub(p50));
        out.push('\n');

        out.push_str("## Critical path: where tail packets lose their cycles\n\n");
        out.push_str("| location | cause | fast mean (≤p50) | tail mean (≥p99) | excess |\n");
        out.push_str("|---|---|---:|---:|---:|\n");
        let rows = self.critical_path();
        for r in rows.iter().filter(|r| r.excess > 0.0).take(16) {
            let _ = writeln!(
                out,
                "| `{}` | {} | {:.2} | {:.2} | {:+.2} |",
                r.loc,
                r.cause.name(),
                r.fast_mean,
                r.tail_mean,
                r.excess
            );
        }
        if !rows.iter().any(|r| r.excess > 0.0) {
            out.push_str("| — | — | — | — | — |\n");
        }
        out.push('\n');

        let _ = writeln!(out, "## Slowest {} sampled journeys", k.min(self.packets.len()));
        out.push('\n');
        out.push_str("| packet | route | latency | hops | dominant span |\n");
        out.push_str("|---:|---|---:|---:|---|\n");
        for p in self.slowest_packets(k) {
            let dom = p
                .dominant_span()
                .map(|s| format!("`{}` {} ({})", s.loc, s.cause.name(), s.duration()))
                .unwrap_or_else(|| "—".to_owned());
            let hops = p.spans.iter().filter(|s| matches!(s.cause, JourneyCause::Link)).count()
                + p.spans.iter().filter(|s| matches!(s.cause, JourneyCause::Bypass)).count();
            let _ = writeln!(
                out,
                "| {} | {}→{} | {} | {} | {} |",
                p.packet, p.src, p.dest, p.latency, hops, dom
            );
        }
        out.push('\n');

        if !self.txns.is_empty() {
            let mut tl: Vec<u64> = self.txns.iter().map(TxnJourney::completion_cycles).collect();
            tl.sort_unstable();
            let tp50 = percentile(&tl, 0.50);
            let tp99 = percentile(&tl, 0.99);
            out.push_str("## Transaction completion (closed loop)\n\n");
            let _ = writeln!(out, "- p50: {tp50} cycles");
            let _ = writeln!(out, "- p99: {tp99} cycles");
            out.push('\n');
            out.push_str("| leg | fast mean (≤p50) | tail mean (≥p99) | excess |\n");
            out.push_str("|---|---:|---:|---:|\n");
            let mut fast_n = 0u64;
            let mut tail_n = 0u64;
            let mut fast = [0u64; 2];
            let mut tail = [0u64; 2];
            for t in &self.txns {
                let c = t.completion_cycles();
                let in_fast = c <= tp50;
                let in_tail = c >= tp99;
                if in_fast {
                    fast_n += 1;
                }
                if in_tail {
                    tail_n += 1;
                }
                for l in &t.legs {
                    let i = match l.kind {
                        TxnLegKind::InFlight => 0,
                        TxnLegKind::Backoff => 1,
                    };
                    let cycles = l.end.saturating_sub(l.start);
                    if in_fast {
                        fast[i] = fast[i].saturating_add(cycles);
                    }
                    if in_tail {
                        tail[i] = tail[i].saturating_add(cycles);
                    }
                }
            }
            for (i, kind) in [TxnLegKind::InFlight, TxnLegKind::Backoff].into_iter().enumerate() {
                let f = fast[i] as f64 / fast_n.max(1) as f64;
                let t = tail[i] as f64 / tail_n.max(1) as f64;
                let _ = writeln!(out, "| {} | {:.2} | {:.2} | {:+.2} |", kind.name(), f, t, t - f);
            }
            out.push('\n');
            let _ = writeln!(out, "## Slowest {} sampled transactions", k.min(self.txns.len()));
            out.push('\n');
            out.push_str("| txn | client→server | cycles | attempts | outcome |\n");
            out.push_str("|---:|---|---:|---:|---|\n");
            for t in self.slowest_txns(k) {
                let _ = writeln!(
                    out,
                    "| {} | {}→{} | {} | {} | {} |",
                    t.txn,
                    t.client,
                    t.server,
                    t.completion_cycles(),
                    t.attempts,
                    t.outcome.name()
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Nearest-rank percentile over a sorted slice of cycle latencies (zero for
/// an empty one).
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Rejects an interval that runs backwards: the writer never emits one, and
/// every renderer takes `end - start` on trust.
fn forward(start: u64, end: u64, what: &str) -> Result<(), serde::Error> {
    if end < start {
        return Err(serde::Error::msg(format!("{what}: interval [{start}, {end}) runs backwards")));
    }
    Ok(())
}

fn parse_span(c: &serde::Content) -> Result<HopSpan, serde::Error> {
    let start: u64 = serde::seq_field(c, 0)?;
    let end: u64 = serde::seq_field(c, 1)?;
    let loc: String = serde::seq_field(c, 2)?;
    let cause: String = serde::seq_field(c, 3)?;
    forward(start, end, "span")?;
    Ok(HopSpan {
        start,
        end,
        loc: JourneyLoc::parse(&loc)
            .ok_or_else(|| serde::Error::msg(format!("bad span location `{loc}`")))?,
        cause: JourneyCause::parse(&cause)
            .ok_or_else(|| serde::Error::msg(format!("bad span cause `{cause}`")))?,
    })
}

fn parse_packet_line(v: &serde::Content) -> Result<PacketJourney, serde::Error> {
    let txn = match v.get("txn") {
        Some(t) => {
            let txn = t.as_u64().ok_or_else(|| serde::Error::msg("bad txn id"))?;
            let attempt: u32 = serde::field(v, "attempt")?;
            let reply: bool = serde::field(v, "reply")?;
            Some((txn, attempt, reply))
        }
        None => None,
    };
    let spans = v
        .get("spans")
        .and_then(serde::Content::as_seq)
        .ok_or_else(|| serde::Error::msg("missing spans array"))?
        .iter()
        .map(parse_span)
        .collect::<Result<Vec<_>, _>>()?;
    let (injected_at, delivered_at) =
        (serde::field(v, "injected_at")?, serde::field(v, "delivered_at")?);
    forward(injected_at, delivered_at, "injected_at..delivered_at")?;
    Ok(PacketJourney {
        packet: serde::field(v, "packet")?,
        src: serde::field(v, "src")?,
        dest: serde::field(v, "dest")?,
        injected_at,
        delivered_at,
        latency: serde::field(v, "latency")?,
        txn,
        spans,
    })
}

fn parse_txn_line(v: &serde::Content) -> Result<TxnJourney, serde::Error> {
    let outcome: String = serde::field(v, "outcome")?;
    let legs = v
        .get("legs")
        .and_then(serde::Content::as_seq)
        .ok_or_else(|| serde::Error::msg("missing legs array"))?
        .iter()
        .map(|c| {
            let start: u64 = serde::seq_field(c, 0)?;
            let end: u64 = serde::seq_field(c, 1)?;
            let kind: String = serde::seq_field(c, 2)?;
            let attempt: u32 = serde::seq_field(c, 3)?;
            forward(start, end, "leg")?;
            Ok(TxnLeg {
                start,
                end,
                kind: TxnLegKind::parse(&kind)
                    .ok_or_else(|| serde::Error::msg(format!("bad leg kind `{kind}`")))?,
                attempt,
            })
        })
        .collect::<Result<Vec<_>, serde::Error>>()?;
    let (issued_at, resolved_at) = (serde::field(v, "issued_at")?, serde::field(v, "resolved_at")?);
    forward(issued_at, resolved_at, "issued_at..resolved_at")?;
    Ok(TxnJourney {
        txn: serde::field(v, "txn")?,
        client: serde::field(v, "client")?,
        server: serde::field(v, "server")?,
        issued_at,
        resolved_at,
        attempts: serde::field(v, "attempts")?,
        outcome: TxnOutcome::parse(&outcome)
            .ok_or_else(|| serde::Error::msg(format!("bad outcome `{outcome}`")))?,
        legs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packet(id: u64, latency_pad: u64) -> PacketJourney {
        // injected at 10, pipeline 4, link 1, waits around it, eject.
        let spans = vec![
            HopSpan {
                start: 10,
                end: 12,
                loc: JourneyLoc::SourceNi(0),
                cause: JourneyCause::NiQueue,
            },
            HopSpan {
                start: 12,
                end: 16,
                loc: JourneyLoc::Router(0),
                cause: JourneyCause::Pipeline,
            },
            HopSpan {
                start: 16,
                end: 16 + latency_pad,
                loc: JourneyLoc::Router(0),
                cause: JourneyCause::VcSaWait,
            },
            HopSpan {
                start: 16 + latency_pad,
                end: 17 + latency_pad,
                loc: JourneyLoc::Link { from: 0, to: 1 },
                cause: JourneyCause::Link,
            },
            HopSpan {
                start: 17 + latency_pad,
                end: 20 + latency_pad,
                loc: JourneyLoc::Router(1),
                cause: JourneyCause::Serialization,
            },
            HopSpan {
                start: 20 + latency_pad,
                end: 21 + latency_pad,
                loc: JourneyLoc::Router(1),
                cause: JourneyCause::Ejection,
            },
        ];
        PacketJourney {
            packet: id,
            src: 0,
            dest: 1,
            injected_at: 10,
            delivered_at: 21 + latency_pad,
            latency: 11 + latency_pad,
            txn: None,
            spans,
        }
    }

    fn small_log() -> JourneyLog {
        JourneyLog {
            label: "uniform".to_owned(),
            seed: 7,
            every: 4,
            unfinished_packets: 1,
            dropped_packets: 2,
            packets: (0..20).map(|i| packet(i, if i == 19 { 300 } else { i })).collect(),
            txns: vec![TxnJourney {
                txn: 3,
                client: 0,
                server: 5,
                issued_at: 100,
                resolved_at: 400,
                attempts: 2,
                outcome: TxnOutcome::Completed,
                legs: vec![
                    TxnLeg { start: 100, end: 250, kind: TxnLegKind::InFlight, attempt: 1 },
                    TxnLeg { start: 250, end: 300, kind: TxnLegKind::Backoff, attempt: 2 },
                    TxnLeg { start: 300, end: 400, kind: TxnLegKind::InFlight, attempt: 2 },
                ],
            }],
        }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        let hits: Vec<u64> = (0..10_000).filter(|&id| journey_sampled(42, id, 16)).collect();
        let again: Vec<u64> = (0..10_000).filter(|&id| journey_sampled(42, id, 16)).collect();
        assert_eq!(hits, again);
        // Roughly 1/16 of ids hit; the hash is not pathological.
        assert!((400..900).contains(&hits.len()), "{} sampled", hits.len());
        // Different seeds pick different sets.
        let other: Vec<u64> = (0..10_000).filter(|&id| journey_sampled(43, id, 16)).collect();
        assert_ne!(hits, other);
        assert!(!journey_sampled(1, 5, 0), "every=0 disables");
        assert!(journey_sampled(1, 5, 1), "every=1 samples all");
    }

    #[test]
    fn components_sum_spans_by_cause() {
        let p = packet(1, 5);
        let c = p.components();
        assert_eq!(c.queuing, 2 + 5);
        assert_eq!(c.traversal, 4 + 1);
        assert_eq!(c.serialization, 3);
        assert_eq!(c.ejection, 1);
        assert_eq!(c.total(), p.latency);
    }

    #[test]
    fn jsonl_roundtrips() {
        let log = small_log();
        let text = log.to_jsonl();
        let back = JourneyLog::from_jsonl(&text).expect("parses");
        assert_eq!(back, log);
        assert_eq!(back.to_jsonl(), text, "round-trip is byte stable");
    }

    #[test]
    fn from_jsonl_rejects_malformed_input() {
        assert!(JourneyLog::from_jsonl("").unwrap_err().contains("no header"));
        assert!(JourneyLog::from_jsonl("{\"kind\":\"packet\"}")
            .unwrap_err()
            .contains("before the header"));
        assert!(JourneyLog::from_jsonl("nope").unwrap_err().contains("line 1"));
        let future =
            small_log().to_jsonl().replace("\"format_version\":1", "\"format_version\":99");
        assert!(JourneyLog::from_jsonl(&future).unwrap_err().contains("format version 99"));
    }

    /// Renders what `intellinoc journeys` renders from a parsed log.
    fn render_all(log: &JourneyLog) -> usize {
        log.tail_report(5).len()
    }

    #[test]
    fn from_jsonl_rejects_intervals_the_writer_never_emits() {
        let good = small_log().to_jsonl();
        assert!(good.contains("[10,12,\"ni:0\""), "{good}");
        for (from, to, what) in [
            ("[10,12,\"ni:0\"", "[12,10,\"ni:0\"", "span"),
            ("[250,300,\"backoff\"", "[300,250,\"backoff\"", "leg"),
            ("\"delivered_at\":21,", "\"delivered_at\":9,", "delivered_at"),
            ("\"resolved_at\":400,", "\"resolved_at\":99,", "resolved_at"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{what}: fixture text changed");
            let line =
                1 + bad.lines().zip(good.lines()).position(|(b, g)| b != g).expect("differs");
            let err =
                JourneyLog::from_jsonl(&bad).err().unwrap_or_else(|| panic!("{what} accepted"));
            assert!(err.contains(&format!("line {line}:")) && err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn cross_packet_sums_cannot_overflow() {
        // Forward-running spans of maximal length, and spans just over half
        // of it (four of them wrap to 4), twice in one packet: nothing the
        // parser can refuse, so the analyzer's sums must hold.
        let mut hostile = packet(1, 0);
        let span = HopSpan {
            start: 0,
            end: u64::MAX,
            loc: JourneyLoc::SourceNi(59),
            cause: JourneyCause::NiQueue,
        };
        let half = HopSpan { end: (1 << 63) + 1, loc: JourneyLoc::Router(59), ..span };
        hostile.spans = vec![span, span, half, half];
        let mut log = small_log();
        log.packets = vec![hostile.clone(), hostile];
        for t in &mut log.txns {
            t.legs =
                vec![TxnLeg { start: 0, end: u64::MAX, kind: TxnLegKind::Backoff, attempt: 1 }; 2];
        }
        log.txns.push(log.txns[0].clone());
        let parsed = JourneyLog::from_jsonl(&log.to_jsonl()).expect("forward intervals parse");
        assert_eq!(parsed, log);
        assert!(render_all(&parsed) > 0);
        // Both packets are in the tail set: each pair's sum saturates.
        for row in parsed.critical_path() {
            assert_eq!(row.tail_mean, u64::MAX as f64 / 2.0, "{row:?}: saturated, not wrapped");
        }
    }

    #[test]
    fn tail_report_names_excess_pairs_and_slowest_journeys() {
        let log = small_log();
        let report = log.tail_report(5);
        assert_eq!(report, log.tail_report(5), "deterministic");
        // The slow packet (id 19) pads its VC/SA wait at router 0: that pair
        // must dominate the critical-path table.
        assert!(report.contains("| `r:0` | vc_sa_wait |"), "{report}");
        assert!(report.contains("| 19 | 0→1 |"), "{report}");
        assert!(report.contains("## Transaction completion"), "{report}");
        assert!(report.contains("| in_flight |"), "{report}");
    }

    /// The span writer puts labels and cause names into the line as they
    /// are; the reference is the escaping formula it used before, over every
    /// location kind (a rim link's `to` is `u16::MAX`) × every cause.
    #[test]
    fn span_writer_matches_the_escaped_reference() {
        let locs = [
            (JourneyLoc::SourceNi(3), "ni:3"),
            (JourneyLoc::Router(12), "r:12"),
            (JourneyLoc::Link { from: 12, to: 13 }, "l:12-13"),
            (JourneyLoc::Link { from: 7, to: u16::MAX }, "l:7-65535"),
        ];
        for (loc, label) in locs {
            assert_eq!(loc.to_string(), label);
            for cause in JOURNEY_CAUSES {
                let span = HopSpan { start: 5, end: 9, loc, cause };
                let journey = PacketJourney {
                    packet: 1,
                    src: 3,
                    dest: 12,
                    injected_at: 5,
                    delivered_at: 9,
                    latency: 4,
                    txn: None,
                    spans: vec![span; 2],
                };
                let span =
                    format!("[5,9,{},{}]", json_str(&loc.to_string()), json_str(cause.name()));
                let reference = format!(
                    "{{\"kind\":\"packet\",\"packet\":1,\"src\":3,\"dest\":12,\
                     \"injected_at\":5,\"delivered_at\":9,\"latency\":4,\"spans\":[{span},{span}]}}"
                );
                let mut line = String::new();
                journey.write_jsonl(&mut line);
                assert_eq!(line, format!("{reference}\n"), "{label} {}", cause.name());
                assert_eq!(journey.to_jsonl_line(), reference);
            }
        }
    }

    #[test]
    fn loc_and_cause_labels_roundtrip() {
        for loc in
            [JourneyLoc::SourceNi(3), JourneyLoc::Router(63), JourneyLoc::Link { from: 12, to: 13 }]
        {
            assert_eq!(JourneyLoc::parse(&loc.to_string()), Some(loc));
        }
        assert_eq!(JourneyLoc::parse("x:1"), None);
        for cause in JOURNEY_CAUSES {
            assert_eq!(JourneyCause::parse(cause.name()), Some(cause));
        }
        assert_eq!(JourneyCause::parse("nope"), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.50), 5);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    /// Alphabet of hostile label characters: JSON syntax, escapes,
    /// control characters, and multi-byte unicode.
    const HOSTILE: &[char] = &[
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '{', '}', '[', ']', ',', ':', '/',
        'a', 'Z', '0', ' ', 'é', '→', '🦀',
    ];

    fn hostile_label() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..HOSTILE.len(), 0..24)
            .prop_map(|is| is.into_iter().map(|i| HOSTILE[i]).collect())
    }

    proptest! {
        /// Hostile workload/tenant labels survive the JSONL round trip
        /// byte-exactly (the PR-5 exposition-parser discipline).
        #[test]
        fn hostile_labels_roundtrip_jsonl(label in hostile_label(), seed in any::<u64>()) {
            let log = JourneyLog {
                label: label.clone(),
                seed,
                every: 8,
                unfinished_packets: 0,
                dropped_packets: 0,
                packets: vec![packet(1, 3)],
                txns: vec![],
            };
            let text = log.to_jsonl();
            let back = JourneyLog::from_jsonl(&text).expect("parses");
            prop_assert_eq!(&back.label, &label);
            prop_assert_eq!(back, log);
        }

        /// Every 7-bit byte sequence used as a label round-trips exactly.
        #[test]
        fn escaped_control_chars_roundtrip(raw in prop::collection::vec(0u8..0x80, 0..24)) {
            let label: String = raw.into_iter().map(|b| b as char).collect();
            let log = JourneyLog { label: label.clone(), ..JourneyLog::default() };
            let back = JourneyLog::from_jsonl(&log.to_jsonl()).expect("parses");
            prop_assert_eq!(back.label, label);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Arbitrary bytes never panic the parser or, when they happen to
        /// parse, any renderer.
        #[test]
        fn arbitrary_bytes_never_panic_the_analyzer(raw in prop::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(log) = JourneyLog::from_jsonl(&String::from_utf8_lossy(&raw)) {
                prop_assert!(render_all(&log) > 0);
            }
        }

        /// A valid log with one number replaced by a hostile token either
        /// fails to parse (naming a line) or renders without panicking.
        #[test]
        fn one_mutated_field_never_panics_the_analyzer(pick in any::<usize>(), with in 0usize..9) {
            const TOKENS: [&str; 9] = [
                "0", "1", "18446744073709551615", "18446744073709551614", "9223372036854775808",
                "18446744073709551616", "-1", "1e99", "null",
            ];
            let good = small_log().to_jsonl();
            // Byte ranges of every run of digits in the valid text.
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for (i, b) in good.bytes().enumerate() {
                match runs.last_mut() {
                    Some((_, end)) if b.is_ascii_digit() && *end == i => *end = i + 1,
                    _ if b.is_ascii_digit() => runs.push((i, i + 1)),
                    _ => {}
                }
            }
            let (start, end) = runs[pick % runs.len()];
            let bad = format!("{}{}{}", &good[..start], TOKENS[with], &good[end..]);
            match JourneyLog::from_jsonl(&bad) {
                Ok(log) => prop_assert!(render_all(&log) > 0),
                Err(e) => prop_assert!(e.contains("line ") || e.contains("format version"), "{}", e),
            }
        }
    }
}
