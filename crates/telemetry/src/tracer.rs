//! The event tracer: filter + bounded ring buffer + sinks.

use crate::event::{Event, EventKind};
use std::collections::VecDeque;

/// Per-router / per-kind view of the tracer's ring.
///
/// Parsed from `--trace-filter` syntax: comma-separated `router=N` and
/// `kind=NAME` clauses. Multiple clauses of the same key are OR-ed; the two
/// keys are AND-ed. An empty filter admits everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFilter {
    routers: Vec<u32>,
    kind_mask: Option<u32>,
}

impl TraceFilter {
    /// The filter that admits every event.
    #[must_use]
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Parses `--trace-filter` syntax, e.g. `router=3,kind=retx,kind=mode`,
    /// for a mesh of `routers` routers.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause, or the router id and
    /// the router count for an id outside the mesh.
    pub fn parse(spec: &str, routers: u32) -> Result<Self, String> {
        let mut filter = TraceFilter::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("trace filter clause `{clause}` is not key=value"))?;
            match key.trim() {
                "router" => {
                    let id = value
                        .trim()
                        .parse::<u32>()
                        .map_err(|_| format!("bad router id `{value}` in trace filter"))?;
                    if id >= routers {
                        return Err(format!(
                            "trace filter router {id} is outside the mesh of {routers} routers"
                        ));
                    }
                    filter.routers.push(id);
                }
                "kind" => {
                    let kind = EventKind::parse(value.trim()).ok_or_else(|| {
                        let names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                        format!(
                            "unknown event kind `{value}`; expected one of: {}",
                            names.join(", ")
                        )
                    })?;
                    *filter.kind_mask.get_or_insert(0) |= 1 << kind as u8;
                }
                other => return Err(format!("unknown trace filter key `{other}`")),
            }
        }
        Ok(filter)
    }

    /// Whether an event with this router/kind passes the filter.
    #[inline]
    pub fn admits(&self, router: u32, kind: EventKind) -> bool {
        if let Some(mask) = self.kind_mask {
            if mask & (1 << kind as u8) == 0 {
                return false;
            }
        }
        self.routers.is_empty() || self.routers.contains(&router)
    }
}

/// Bounded structured event trace.
///
/// Every event goes into a preallocated ring buffer; once full, the oldest
/// events are evicted (and counted) so a trace of a long run keeps its tail,
/// which is where the interesting steady-state behavior lives. `record` never
/// allocates. The filter is a view: `events`, `len`, `count_of` and the sinks
/// show what it admits; `recorded` and `evicted` count the whole stream.
#[derive(Debug)]
pub struct Tracer {
    buf: VecDeque<Event>,
    capacity: usize,
    filter: TraceFilter,
    recorded: u64,
    evicted: u64,
}

/// Default ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY, TraceFilter::all())
    }
}

impl Tracer {
    /// A tracer holding the last `capacity` events, showing those `filter`
    /// admits.
    #[must_use]
    pub fn new(capacity: usize, filter: TraceFilter) -> Self {
        let capacity = capacity.max(1);
        Tracer { buf: VecDeque::with_capacity(capacity), capacity, filter, recorded: 0, evicted: 0 }
    }

    /// Records one event, evicting the oldest when the ring is full.
    #[inline]
    pub fn record(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(event);
        self.recorded += 1;
    }

    /// Retained events the filter admits, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter().filter(|e| self.filter.admits(e.router(), e.kind()))
    }

    /// The stream's last `n` retained events, oldest first, whatever the
    /// filter.
    pub(crate) fn tail(&self, n: usize) -> impl Iterator<Item = &Event> {
        self.buf.range(self.buf.len().saturating_sub(n)..)
    }

    /// Number of retained events the filter admits.
    pub fn len(&self) -> usize {
        self.events().count()
    }

    /// Whether the filter admits no retained event.
    pub fn is_empty(&self) -> bool {
        self.events().next().is_none()
    }

    /// Total events recorded over the run (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by ring overflow.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Renders the shown events as JSON Lines (one object per line).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 64);
        for e in self.events() {
            e.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Count of shown events of one kind.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.events().filter(|e| e.kind() == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RetxScope;

    fn mode_switch(cycle: u64, router: u32) -> Event {
        Event::ModeSwitch { cycle, router, from: 0, to: 1 }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Tracer::new(3, TraceFilter::all());
        for c in 0..5 {
            t.record(mode_switch(c, 0));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.evicted(), 2);
        assert_eq!(t.recorded(), 5);
        let cycles: Vec<u64> = t.events().map(Event::cycle).collect();
        assert_eq!(cycles, [2, 3, 4]);
    }

    #[test]
    fn filter_router_and_kind() {
        let f = TraceFilter::parse("router=1, kind=retx, kind=mode", 4).unwrap();
        assert!(f.admits(1, EventKind::Retransmission));
        assert!(f.admits(1, EventKind::ModeSwitch));
        assert!(!f.admits(2, EventKind::ModeSwitch));
        assert!(!f.admits(1, EventKind::QUpdate));

        let mut t = Tracer::new(16, f);
        t.record(mode_switch(0, 1));
        t.record(mode_switch(0, 2));
        t.record(Event::Retransmission { cycle: 1, router: 1, packet: 7, scope: RetxScope::Hop });
        t.record(Event::QUpdate { cycle: 1, router: 1, state: 0, action: 0, reward: 0.0 });
        assert_eq!((t.len(), t.count_of(EventKind::ModeSwitch)), (2, 1));
        assert_eq!(t.to_jsonl().lines().count(), 2);
        // The filter is a view: the ring and its counts hold the whole stream.
        assert_eq!((t.recorded(), t.tail(16).count()), (4, 4));
    }

    #[test]
    fn filter_parse_errors() {
        assert!(TraceFilter::parse("router=x", 64).is_err());
        assert!(TraceFilter::parse("kind=nope", 64).is_err());
        assert!(TraceFilter::parse("bogus=1", 64).is_err());
        assert!(TraceFilter::parse("rawvalue", 64).is_err());
        assert_eq!(TraceFilter::parse("", 64).unwrap(), TraceFilter::all());
        assert!(TraceFilter::parse("router=63", 64).is_ok());
        let err = TraceFilter::parse("router=3,router=64", 64).unwrap_err();
        assert_eq!(err, "trace filter router 64 is outside the mesh of 64 routers");
    }

    #[test]
    fn unknown_kind_error_lists_every_valid_name() {
        let err = TraceFilter::parse("kind=definitely-not-a-kind", 64).unwrap_err();
        assert!(err.contains("definitely-not-a-kind"), "err: {err}");
        for kind in EventKind::ALL {
            assert!(err.contains(kind.name()), "error is missing `{}`: {err}", kind.name());
        }
    }

    #[test]
    fn every_canonical_name_parses_back() {
        for kind in EventKind::ALL {
            assert!(
                TraceFilter::parse(&format!("kind={}", kind.name()), 64).is_ok(),
                "canonical name `{}` must parse",
                kind.name()
            );
        }
    }

    #[test]
    fn sinks_render_every_event() {
        let mut t = Tracer::default();
        t.record(mode_switch(3, 1));
        t.record(Event::PacketInjected { cycle: 4, router: 0, packet: 9, dest: 5 });
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"kind\":\"ModeSwitch\""));
    }
}
