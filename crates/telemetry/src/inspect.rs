//! Analysis-layer data types for `intellinoc inspect`: per-flit latency
//! attribution, spatial heatmap grids, and RL decision introspection.
//!
//! Everything in this module is plain data with deterministic renderers.
//! The simulator fills these in while it runs (see `noc-sim`'s attribution
//! hooks); the CLI turns them into a markdown report, heatmap CSVs, and
//! JSONL decision logs that byte-compare equal across runs of one seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a delivered packet's end-to-end latency went, in cycles.
///
/// The components partition the measured latency exactly:
///
/// ```text
/// queuing + traversal + serialization + retransmission + bypass + ejection
///   == end-to-end latency
/// ```
///
/// `traversal` covers link crossings and router pipeline stages of the head
/// flit, `bypass` the extra latch delay of hops forwarded through a gated
/// router, `retransmission` both hop-level NACK stalls and whole wasted
/// end-to-end generations, `serialization` the tail flits draining after the
/// head ejected, `ejection` the final consume cycle, and `queuing` is the
/// measured residual (NI queue, VC wait, switch-allocation wait).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyComponents {
    /// Cycles waiting for buffers, VCs, or switch grants.
    pub queuing: u64,
    /// Head-flit link-crossing and router-pipeline cycles.
    pub traversal: u64,
    /// Tail-flit drain cycles after the head ejected.
    pub serialization: u64,
    /// Hop-NACK stalls plus wasted end-to-end generations.
    pub retransmission: u64,
    /// Extra latch cycles on hops bypassing power-gated routers.
    pub bypass: u64,
    /// The final consume cycle at the destination NI.
    pub ejection: u64,
}

impl LatencyComponents {
    /// Component names, in the order of [`LatencyComponents::as_array`].
    pub const NAMES: [&'static str; 6] =
        ["queuing", "traversal", "serialization", "retransmission", "bypass", "ejection"];

    /// Sum of all components — equals the packet's end-to-end latency.
    pub fn total(&self) -> u64 {
        self.queuing
            + self.traversal
            + self.serialization
            + self.retransmission
            + self.bypass
            + self.ejection
    }

    /// The components in the order of [`LatencyComponents::NAMES`].
    pub fn as_array(&self) -> [u64; 6] {
        [
            self.queuing,
            self.traversal,
            self.serialization,
            self.retransmission,
            self.bypass,
            self.ejection,
        ]
    }

    /// The inverse of [`LatencyComponents::as_array`]: per-component cycle
    /// sums indexed the way `JourneyCause::component_index` charges them.
    pub fn from_array(sums: [u64; 6]) -> Self {
        let [queuing, traversal, serialization, retransmission, bypass, ejection] = sums;
        LatencyComponents { queuing, traversal, serialization, retransmission, bypass, ejection }
    }

    /// Adds another breakdown component-wise.
    pub fn accumulate(&mut self, other: &LatencyComponents) {
        self.queuing += other.queuing;
        self.traversal += other.traversal;
        self.serialization += other.serialization;
        self.retransmission += other.retransmission;
        self.bypass += other.bypass;
        self.ejection += other.ejection;
    }
}

/// Aggregated attribution for one source→destination pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairBreakdown {
    /// Delivered packets on this pair.
    pub packets: u64,
    /// Sum of end-to-end latencies (cycles).
    pub latency_sum: u64,
    /// Component sums across the pair's packets.
    pub components: LatencyComponents,
}

impl PairBreakdown {
    /// Mean end-to-end latency of the pair's packets.
    pub fn mean_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }
}

/// Run-wide per-flit latency attribution: totals and per-pair aggregates.
/// A packet's own components are its journey's
/// ([`PacketJourney::components`](crate::PacketJourney::components)).
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Delivered packets attributed.
    pub packets: u64,
    /// Sum of end-to-end latencies (cycles).
    pub latency_sum: u64,
    /// Component sums across all attributed packets.
    pub totals: LatencyComponents,
    /// Per source→destination aggregates, ordered by `(src, dest)`.
    pub pairs: BTreeMap<(u16, u16), PairBreakdown>,
}

impl LatencyBreakdown {
    /// Folds one delivered `src`→`dest` packet of end-to-end `latency`,
    /// split into `components`, into the totals and its pair.
    pub fn record(&mut self, src: u16, dest: u16, latency: u64, components: &LatencyComponents) {
        self.packets += 1;
        self.latency_sum += latency;
        self.totals.accumulate(components);
        let pair = self.pairs.entry((src, dest)).or_default();
        pair.packets += 1;
        pair.latency_sum += latency;
        pair.components.accumulate(components);
    }

    /// Mean end-to-end latency over attributed packets.
    pub fn mean_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }

    /// The `n` pairs with the highest mean latency (ties broken by pair id,
    /// so the ordering is deterministic).
    pub fn slowest_pairs(&self, n: usize) -> Vec<((u16, u16), PairBreakdown)> {
        let mut v: Vec<_> = self.pairs.iter().map(|(k, p)| (*k, *p)).collect();
        v.sort_by(|a, b| {
            b.1.mean_latency()
                .partial_cmp(&a.1.mean_latency())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }
}

/// A named `width × height` grid of per-router values, row-major with cell
/// `(x, y)` at index `y * width + x` — matching the mesh's node numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatGrid {
    /// Metric name (used as the CSV file stem and report heading).
    pub name: &'static str,
    /// Grid width (mesh columns).
    pub width: usize,
    /// Grid height (mesh rows).
    pub height: usize,
    /// Row-major cell values.
    pub cells: Vec<f64>,
}

impl HeatGrid {
    /// An all-zero grid.
    #[must_use]
    pub fn new(name: &'static str, width: usize, height: usize) -> Self {
        HeatGrid { name, width, height, cells: vec![0.0; width * height] }
    }

    /// Value at `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        self.cells[y * self.width + x]
    }

    /// Renders the grid as CSV, one mesh row per line. Values use Rust's
    /// shortest-roundtrip float formatting, which is deterministic.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for y in 0..self.height {
            for x in 0..self.width {
                if x > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", self.at(x, y));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the grid as fixed-width text for the markdown report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for y in 0..self.height {
            for x in 0..self.width {
                let _ = write!(out, "{:>9.3}", self.at(x, y));
            }
            out.push('\n');
        }
        out
    }

    /// `(x, y, value)` of the maximum cell (first occurrence wins).
    pub fn hottest(&self) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::NEG_INFINITY);
        for y in 0..self.height {
            for x in 0..self.width {
                let v = self.at(x, y);
                if v > best.2 {
                    best = (x, y, v);
                }
            }
        }
        best
    }
}

/// Aggregated traffic over one physical (bidirectional) mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Lower-numbered endpoint router.
    pub a: u32,
    /// Higher-numbered endpoint router.
    pub b: u32,
    /// Flits carried in either direction.
    pub flits: u64,
    /// Hop-level NACKs charged to either direction.
    pub retx: u64,
}

/// Renders link stats as CSV with a header row, in `(a, b)` order.
#[must_use]
pub fn link_stats_csv(links: &[LinkStat]) -> String {
    let mut out = String::from("a,b,flits,retx\n");
    for l in links {
        let _ = writeln!(out, "{},{},{},{}", l.a, l.b, l.flits, l.retx);
    }
    out
}

/// Everything the simulator's attribution hooks produce for one run.
#[derive(Debug, Clone, Default)]
pub struct AttributionArtifacts {
    /// Per-packet latency attribution.
    pub breakdown: LatencyBreakdown,
    /// Per-physical-link traffic/retx aggregates, ordered by `(a, b)`.
    pub links: Vec<LinkStat>,
    /// Named per-router heatmap grids (utilization, retx, gate residency,
    /// temperature).
    pub grids: Vec<HeatGrid>,
    /// Simulated cycles the accumulators cover.
    pub cycles: u64,
}

impl AttributionArtifacts {
    /// Looks up a grid by name.
    pub fn grid(&self, name: &str) -> Option<&HeatGrid> {
        self.grids.iter().find(|g| g.name == name)
    }
}

/// One RL controller decision, with enough context to replay it: the
/// discretized state, the post-update Q-row, the chosen action, whether it
/// was exploratory, and the decomposed reward terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Cycle the control step was stamped at.
    pub cycle: u64,
    /// Router the agent controls.
    pub router: u32,
    /// Discretized state key.
    pub state: u64,
    /// Q-values of the current state after the TD update, one per action
    /// (0 for states the table has not seen).
    pub q_row: [f32; 5],
    /// Chosen action index.
    pub action: u8,
    /// Whether the action was ε-random rather than greedy.
    pub explored: bool,
    /// Total reward credited to the previous action.
    pub reward: f64,
    /// Latency term of the reward (e.g. `−ln L`).
    pub reward_latency: f64,
    /// Power term of the reward (e.g. `−ln P`).
    pub reward_power: f64,
    /// Aging term of the reward (e.g. `−ln A`).
    pub reward_aging: f64,
}

impl DecisionRecord {
    /// Appends this record as one JSON object (no trailing newline), fields
    /// in fixed order so logs are byte-deterministic.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"cycle\":{},\"router\":{},\"state\":{},\"action\":{},\"explored\":{},",
            self.cycle, self.router, self.state, self.action, self.explored
        );
        out.push_str("\"q_row\":[");
        for (i, q) in self.q_row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{q}");
        }
        let _ = write!(
            out,
            "],\"reward\":{},\"reward_latency\":{},\"reward_power\":{},\"reward_aging\":{}}}",
            self.reward, self.reward_latency, self.reward_power, self.reward_aging
        );
    }
}

/// Q-table convergence statistics for one control step, aggregated across
/// all agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSample {
    /// Cycle the control step was stamped at.
    pub cycle: u64,
    /// Decisions taken this step (one per router).
    pub decisions: u64,
    /// How many of them were exploratory.
    pub explorations: u64,
    /// How many agents applied a TD update this step.
    pub updates: u64,
    /// Mean `|ΔQ|` over the agents that updated (0 when none did).
    pub mean_abs_td: f64,
    /// Mean Q-table entry count across agents after the step.
    pub mean_table_entries: f64,
}

/// The full RL introspection log for a run: every decision plus one
/// convergence sample per control step.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    /// Per-decision records, in decision order.
    pub records: Vec<DecisionRecord>,
    /// One sample per control step.
    pub convergence: Vec<ConvergenceSample>,
}

impl DecisionLog {
    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Decisions per action index.
    pub fn action_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for r in &self.records {
            counts[usize::from(r.action).min(4)] += 1;
        }
        counts
    }

    /// Fraction of decisions that were exploratory.
    pub fn exploration_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.records.iter().filter(|r| r.explored).count() as f64 / self.records.len() as f64
        }
    }

    /// Renders the decision records as JSON Lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 128);
        for r in &self.records {
            r.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Renders the convergence samples as CSV with a header row.
    #[must_use]
    pub fn convergence_csv(&self) -> String {
        let mut out =
            String::from("cycle,decisions,explorations,updates,mean_abs_td,mean_table_entries\n");
        for s in &self.convergence {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.cycle,
                s.decisions,
                s.explorations,
                s.updates,
                s.mean_abs_td,
                s.mean_table_entries
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_total_and_accumulate() {
        let mut a = LatencyComponents {
            queuing: 3,
            traversal: 5,
            serialization: 2,
            retransmission: 4,
            bypass: 1,
            ejection: 1,
        };
        assert_eq!(a.total(), 16);
        assert_eq!(a.as_array().iter().sum::<u64>(), 16);
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), 32);
    }

    #[test]
    fn breakdown_aggregates_per_pair() {
        let mut bd = LatencyBreakdown::default();
        let mut rec = |src, dest, latency| {
            bd.record(
                src,
                dest,
                latency,
                &LatencyComponents { queuing: latency, ..Default::default() },
            );
        };
        rec(0, 5, 10);
        rec(0, 5, 30);
        rec(1, 5, 100);
        assert_eq!(bd.packets, 3);
        assert_eq!(bd.pairs[&(0, 5)].packets, 2);
        assert!((bd.pairs[&(0, 5)].mean_latency() - 20.0).abs() < 1e-9);
        let slow = bd.slowest_pairs(1);
        assert_eq!(slow[0].0, (1, 5));
    }

    #[test]
    fn heatgrid_layout_and_csv() {
        let mut g = HeatGrid::new("util", 3, 2);
        g.cells[3 + 2] = 4.5; // (x=2, y=1)
        assert_eq!(g.at(2, 1), 4.5);
        assert_eq!(g.to_csv(), "0,0,0\n0,0,4.5\n");
        assert_eq!(g.hottest(), (2, 1, 4.5));
    }

    #[test]
    fn link_csv_shape() {
        let links = [
            LinkStat { a: 0, b: 1, flits: 10, retx: 2 },
            LinkStat { a: 0, b: 8, flits: 7, retx: 0 },
        ];
        let csv = link_stats_csv(&links);
        assert_eq!(csv, "a,b,flits,retx\n0,1,10,2\n0,8,7,0\n");
    }

    #[test]
    fn decision_log_jsonl_is_deterministic() {
        let mut log = DecisionLog::default();
        log.records.push(DecisionRecord {
            cycle: 1000,
            router: 3,
            state: 42,
            q_row: [0.0, -1.5, 0.25, 0.0, 0.0],
            action: 2,
            explored: false,
            reward: -6.0,
            reward_latency: -3.0,
            reward_power: -2.5,
            reward_aging: -0.5,
        });
        log.convergence.push(ConvergenceSample {
            cycle: 1000,
            decisions: 64,
            explorations: 3,
            updates: 64,
            mean_abs_td: 0.125,
            mean_table_entries: 2.0,
        });
        let a = log.to_jsonl();
        assert_eq!(a, log.to_jsonl());
        assert!(a.contains("\"q_row\":[0,-1.5,0.25,0,0]"));
        assert_eq!(log.action_counts(), [0, 0, 1, 0, 0]);
        assert_eq!(log.exploration_rate(), 0.0);
        assert!(log.convergence_csv().contains("1000,64,3,64,0.125,2"));
    }
}
