//! Typed trace events and their wire encodings.

use std::fmt::Write as _;

/// Which retransmission mechanism fired (per IntelliNoC's two-level ARQ:
/// hop-by-hop NACK on ECC-detected corruption, end-to-end on CRC failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetxScope {
    /// Hop-by-hop retransmission from an upstream buffer.
    Hop,
    /// End-to-end retransmission from the source NI.
    E2e,
}

impl RetxScope {
    fn label(self) -> &'static str {
        match self {
            RetxScope::Hop => "hop",
            RetxScope::E2e => "e2e",
        }
    }
}

/// Direction of a power-gating transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateEdge {
    /// Router entered the gated (sleep) state.
    On,
    /// Router woke from the gated state.
    Off,
}

impl GateEdge {
    fn label(self) -> &'static str {
        match self {
            GateEdge::On => "on",
            GateEdge::Off => "off",
        }
    }
}

/// A single structured trace event. `Copy` with no heap payload, so
/// constructing one on the disabled path costs nothing beyond the branch
/// that discards it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A packet entered the network at `router` bound for `dest`.
    PacketInjected {
        /// Simulation cycle.
        cycle: u64,
        /// Source router id.
        router: u32,
        /// Packet id.
        packet: u64,
        /// Destination router id.
        dest: u32,
    },
    /// A head flit completed traversal into `router`.
    HopTraversed {
        /// Simulation cycle.
        cycle: u64,
        /// Receiving router id.
        router: u32,
        /// Packet id.
        packet: u64,
        /// Flit id.
        flit: u64,
    },
    /// A flit (hop) or packet (e2e) was scheduled for retransmission.
    Retransmission {
        /// Simulation cycle.
        cycle: u64,
        /// Router where the error was detected.
        router: u32,
        /// Affected packet id.
        packet: u64,
        /// Which ARQ level fired.
        scope: RetxScope,
    },
    /// The ECC decoder corrected `bits` bit errors in place.
    EccCorrected {
        /// Simulation cycle.
        cycle: u64,
        /// Router where the correction happened.
        router: u32,
        /// Affected packet id.
        packet: u64,
        /// Number of corrected bit errors.
        bits: u32,
    },
    /// The controller changed a router's operating mode.
    ModeSwitch {
        /// Simulation cycle.
        cycle: u64,
        /// Router id.
        router: u32,
        /// Previous mode index.
        from: u8,
        /// New mode index.
        to: u8,
    },
    /// A router crossed a power-gating boundary.
    PowerGate {
        /// Simulation cycle.
        cycle: u64,
        /// Router id.
        router: u32,
        /// Sleep or wake.
        edge: GateEdge,
    },
    /// One Q-learning update: state/action/reward of an agent step.
    QUpdate {
        /// Simulation cycle.
        cycle: u64,
        /// Router id the agent controls.
        router: u32,
        /// Discretized state key.
        state: u64,
        /// Chosen action index.
        action: u8,
        /// Reward observed for the previous action.
        reward: f64,
    },
    /// A hard fault took the physical link `(router, dir)` out of service.
    LinkFailed {
        /// Simulation cycle.
        cycle: u64,
        /// Upstream router of the canonical link direction.
        router: u32,
        /// Direction index of the failed link (0..4).
        dir: u8,
    },
    /// An intermittent link fault ended and the link returned to service.
    LinkRepaired {
        /// Simulation cycle.
        cycle: u64,
        /// Upstream router of the canonical link direction.
        router: u32,
        /// Direction index of the repaired link (0..4).
        dir: u8,
    },
    /// A hard fault took an entire router out of service.
    RouterFailed {
        /// Simulation cycle.
        cycle: u64,
        /// Failed router id.
        router: u32,
    },
    /// An intermittent router fault ended and the router returned to
    /// service.
    RouterRepaired {
        /// Simulation cycle.
        cycle: u64,
        /// Repaired router id.
        router: u32,
    },
    /// Fault-aware routing detoured a head flit off its XY path.
    Rerouted {
        /// Simulation cycle.
        cycle: u64,
        /// Router where the detour was taken.
        router: u32,
        /// Affected packet id.
        packet: u64,
        /// Port index XY routing would have chosen.
        from: u8,
        /// Port index actually taken.
        to: u8,
    },
    /// A packet was dropped after exhausting the retransmission escalation
    /// ladder or losing its route to a hard fault.
    PacketDropped {
        /// Simulation cycle.
        cycle: u64,
        /// Router charged with the drop (source NI).
        router: u32,
        /// Dropped packet id.
        packet: u64,
        /// End-to-end transmission generation at the drop.
        bits: u32,
    },
    /// The stall watchdog detected zero forward progress over a full
    /// window and aborted the run.
    WatchdogStall {
        /// Simulation cycle.
        cycle: u64,
        /// Always 0 (network-scoped event).
        router: u32,
        /// Packets in flight at the stall.
        state: u64,
    },
    /// A closed-loop client admitted a new transaction and injected its
    /// request.
    TxnIssued {
        /// Simulation cycle.
        cycle: u64,
        /// Client node that owns the transaction.
        router: u32,
        /// Transaction id.
        txn: u64,
        /// Server endpoint node.
        peer: u32,
    },
    /// The full reply was delivered back to the client.
    TxnCompleted {
        /// Simulation cycle.
        cycle: u64,
        /// Client node that owns the transaction.
        router: u32,
        /// Transaction id.
        txn: u64,
        /// Server endpoint node.
        peer: u32,
    },
    /// A transaction attempt expired (reply deadline passed or the request
    /// was dropped in the fabric).
    TxnTimedOut {
        /// Simulation cycle.
        cycle: u64,
        /// Client node that owns the transaction.
        router: u32,
        /// Transaction id.
        txn: u64,
        /// Attempt number that timed out (1-based).
        attempt: u32,
    },
    /// A backed-off retry attempt was injected.
    TxnRetried {
        /// Simulation cycle.
        cycle: u64,
        /// Client node that owns the transaction.
        router: u32,
        /// Transaction id.
        txn: u64,
        /// New attempt number (1-based).
        attempt: u32,
    },
    /// A transaction exhausted its retry budget and terminated failed.
    TxnFailed {
        /// Simulation cycle.
        cycle: u64,
        /// Client node that owns the transaction.
        router: u32,
        /// Transaction id.
        txn: u64,
    },
    /// Admission control shed a transaction before it touched the fabric.
    TxnShed {
        /// Simulation cycle.
        cycle: u64,
        /// Client node that owns the transaction.
        router: u32,
        /// Transaction id.
        txn: u64,
        /// Server the request would have targeted.
        peer: u32,
    },
}

/// Discriminant of [`Event`], used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// [`Event::PacketInjected`].
    PacketInjected = 0,
    /// [`Event::HopTraversed`].
    HopTraversed = 1,
    /// [`Event::Retransmission`].
    Retransmission = 2,
    /// [`Event::EccCorrected`].
    EccCorrected = 3,
    /// [`Event::ModeSwitch`].
    ModeSwitch = 4,
    /// [`Event::PowerGate`].
    PowerGate = 5,
    /// [`Event::QUpdate`].
    QUpdate = 6,
    /// [`Event::LinkFailed`].
    LinkFailed = 7,
    /// [`Event::LinkRepaired`].
    LinkRepaired = 8,
    /// [`Event::RouterFailed`].
    RouterFailed = 9,
    /// [`Event::RouterRepaired`].
    RouterRepaired = 10,
    /// [`Event::Rerouted`].
    Rerouted = 11,
    /// [`Event::PacketDropped`].
    PacketDropped = 12,
    /// [`Event::WatchdogStall`].
    WatchdogStall = 13,
    /// [`Event::TxnIssued`].
    TxnIssued = 14,
    /// [`Event::TxnCompleted`].
    TxnCompleted = 15,
    /// [`Event::TxnTimedOut`].
    TxnTimedOut = 16,
    /// [`Event::TxnRetried`].
    TxnRetried = 17,
    /// [`Event::TxnFailed`].
    TxnFailed = 18,
    /// [`Event::TxnShed`].
    TxnShed = 19,
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 20] = [
        EventKind::PacketInjected,
        EventKind::HopTraversed,
        EventKind::Retransmission,
        EventKind::EccCorrected,
        EventKind::ModeSwitch,
        EventKind::PowerGate,
        EventKind::QUpdate,
        EventKind::LinkFailed,
        EventKind::LinkRepaired,
        EventKind::RouterFailed,
        EventKind::RouterRepaired,
        EventKind::Rerouted,
        EventKind::PacketDropped,
        EventKind::WatchdogStall,
        EventKind::TxnIssued,
        EventKind::TxnCompleted,
        EventKind::TxnTimedOut,
        EventKind::TxnRetried,
        EventKind::TxnFailed,
        EventKind::TxnShed,
    ];

    /// Canonical name used in the JSONL `kind` field.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PacketInjected => "PacketInjected",
            EventKind::HopTraversed => "HopTraversed",
            EventKind::Retransmission => "Retransmission",
            EventKind::EccCorrected => "EccCorrected",
            EventKind::ModeSwitch => "ModeSwitch",
            EventKind::PowerGate => "PowerGate",
            EventKind::QUpdate => "QUpdate",
            EventKind::LinkFailed => "LinkFailed",
            EventKind::LinkRepaired => "LinkRepaired",
            EventKind::RouterFailed => "RouterFailed",
            EventKind::RouterRepaired => "RouterRepaired",
            EventKind::Rerouted => "Rerouted",
            EventKind::PacketDropped => "PacketDropped",
            EventKind::WatchdogStall => "WatchdogStall",
            EventKind::TxnIssued => "TxnIssued",
            EventKind::TxnCompleted => "TxnCompleted",
            EventKind::TxnTimedOut => "TxnTimedOut",
            EventKind::TxnRetried => "TxnRetried",
            EventKind::TxnFailed => "TxnFailed",
            EventKind::TxnShed => "TxnShed",
        }
    }

    /// Parses a filter token; accepts canonical names (case-insensitive)
    /// and the short aliases used by `--trace-filter`.
    pub fn parse(token: &str) -> Option<EventKind> {
        Some(match token.to_ascii_lowercase().as_str() {
            "packetinjected" | "inject" | "injection" => EventKind::PacketInjected,
            "hoptraversed" | "hop" => EventKind::HopTraversed,
            "retransmission" | "retx" => EventKind::Retransmission,
            "ecccorrected" | "ecc" => EventKind::EccCorrected,
            "modeswitch" | "mode" => EventKind::ModeSwitch,
            "powergate" | "gate" => EventKind::PowerGate,
            "qupdate" | "q" => EventKind::QUpdate,
            "linkfailed" | "linkfail" => EventKind::LinkFailed,
            "linkrepaired" | "linkrepair" => EventKind::LinkRepaired,
            "routerfailed" | "routerfail" => EventKind::RouterFailed,
            "routerrepaired" | "routerrepair" => EventKind::RouterRepaired,
            "rerouted" | "reroute" => EventKind::Rerouted,
            "packetdropped" | "drop" | "dropped" => EventKind::PacketDropped,
            "watchdogstall" | "stall" | "watchdog" => EventKind::WatchdogStall,
            "txnissued" | "txn" => EventKind::TxnIssued,
            "txncompleted" | "txndone" => EventKind::TxnCompleted,
            "txntimedout" | "txntimeout" => EventKind::TxnTimedOut,
            "txnretried" | "txnretry" => EventKind::TxnRetried,
            "txnfailed" | "txnfail" => EventKind::TxnFailed,
            "txnshed" | "shed" => EventKind::TxnShed,
            _ => return None,
        })
    }
}

impl Event {
    /// This event's kind discriminant.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::PacketInjected { .. } => EventKind::PacketInjected,
            Event::HopTraversed { .. } => EventKind::HopTraversed,
            Event::Retransmission { .. } => EventKind::Retransmission,
            Event::EccCorrected { .. } => EventKind::EccCorrected,
            Event::ModeSwitch { .. } => EventKind::ModeSwitch,
            Event::PowerGate { .. } => EventKind::PowerGate,
            Event::QUpdate { .. } => EventKind::QUpdate,
            Event::LinkFailed { .. } => EventKind::LinkFailed,
            Event::LinkRepaired { .. } => EventKind::LinkRepaired,
            Event::RouterFailed { .. } => EventKind::RouterFailed,
            Event::RouterRepaired { .. } => EventKind::RouterRepaired,
            Event::Rerouted { .. } => EventKind::Rerouted,
            Event::PacketDropped { .. } => EventKind::PacketDropped,
            Event::WatchdogStall { .. } => EventKind::WatchdogStall,
            Event::TxnIssued { .. } => EventKind::TxnIssued,
            Event::TxnCompleted { .. } => EventKind::TxnCompleted,
            Event::TxnTimedOut { .. } => EventKind::TxnTimedOut,
            Event::TxnRetried { .. } => EventKind::TxnRetried,
            Event::TxnFailed { .. } => EventKind::TxnFailed,
            Event::TxnShed { .. } => EventKind::TxnShed,
        }
    }

    /// The cycle the event was recorded at.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::PacketInjected { cycle, .. }
            | Event::HopTraversed { cycle, .. }
            | Event::Retransmission { cycle, .. }
            | Event::EccCorrected { cycle, .. }
            | Event::ModeSwitch { cycle, .. }
            | Event::PowerGate { cycle, .. }
            | Event::QUpdate { cycle, .. }
            | Event::LinkFailed { cycle, .. }
            | Event::LinkRepaired { cycle, .. }
            | Event::RouterFailed { cycle, .. }
            | Event::RouterRepaired { cycle, .. }
            | Event::Rerouted { cycle, .. }
            | Event::PacketDropped { cycle, .. }
            | Event::WatchdogStall { cycle, .. }
            | Event::TxnIssued { cycle, .. }
            | Event::TxnCompleted { cycle, .. }
            | Event::TxnTimedOut { cycle, .. }
            | Event::TxnRetried { cycle, .. }
            | Event::TxnFailed { cycle, .. }
            | Event::TxnShed { cycle, .. } => cycle,
        }
    }

    /// The router the event is attributed to.
    pub fn router(&self) -> u32 {
        match *self {
            Event::PacketInjected { router, .. }
            | Event::HopTraversed { router, .. }
            | Event::Retransmission { router, .. }
            | Event::EccCorrected { router, .. }
            | Event::ModeSwitch { router, .. }
            | Event::PowerGate { router, .. }
            | Event::QUpdate { router, .. }
            | Event::LinkFailed { router, .. }
            | Event::LinkRepaired { router, .. }
            | Event::RouterFailed { router, .. }
            | Event::RouterRepaired { router, .. }
            | Event::Rerouted { router, .. }
            | Event::PacketDropped { router, .. }
            | Event::WatchdogStall { router, .. }
            | Event::TxnIssued { router, .. }
            | Event::TxnCompleted { router, .. }
            | Event::TxnTimedOut { router, .. }
            | Event::TxnRetried { router, .. }
            | Event::TxnFailed { router, .. }
            | Event::TxnShed { router, .. } => router,
        }
    }

    /// Appends this event as one JSON object (no trailing newline). The
    /// field order is fixed, so traces are byte-deterministic.
    pub fn write_jsonl(&self, out: &mut String) {
        let kind = self.kind().name();
        let (cycle, router) = (self.cycle(), self.router());
        let _ = write!(out, "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"router\":{router}");
        match *self {
            Event::PacketInjected { packet, dest, .. } => {
                let _ = write!(out, ",\"packet\":{packet},\"dest\":{dest}");
            }
            Event::HopTraversed { packet, flit, .. } => {
                let _ = write!(out, ",\"packet\":{packet},\"flit\":{flit}");
            }
            Event::Retransmission { packet, scope, .. } => {
                let _ = write!(out, ",\"packet\":{packet},\"scope\":\"{}\"", scope.label());
            }
            Event::EccCorrected { packet, bits, .. } => {
                let _ = write!(out, ",\"packet\":{packet},\"bits\":{bits}");
            }
            Event::ModeSwitch { from, to, .. } => {
                let _ = write!(out, ",\"from\":{from},\"to\":{to}");
            }
            Event::PowerGate { edge, .. } => {
                let _ = write!(out, ",\"edge\":\"{}\"", edge.label());
            }
            Event::QUpdate { state, action, reward, .. } => {
                let _ = write!(out, ",\"state\":{state},\"action\":{action},\"reward\":{reward}");
            }
            Event::LinkFailed { dir, .. } | Event::LinkRepaired { dir, .. } => {
                let _ = write!(out, ",\"dir\":{dir}");
            }
            Event::RouterFailed { .. } | Event::RouterRepaired { .. } => {}
            Event::Rerouted { packet, from, to, .. } => {
                let _ = write!(out, ",\"packet\":{packet},\"from\":{from},\"to\":{to}");
            }
            Event::PacketDropped { packet, bits, .. } => {
                let _ = write!(out, ",\"packet\":{packet},\"generation\":{bits}");
            }
            Event::WatchdogStall { state, .. } => {
                let _ = write!(out, ",\"in_flight\":{state}");
            }
            Event::TxnIssued { txn, peer, .. }
            | Event::TxnCompleted { txn, peer, .. }
            | Event::TxnShed { txn, peer, .. } => {
                let _ = write!(out, ",\"txn\":{txn},\"peer\":{peer}");
            }
            Event::TxnTimedOut { txn, attempt, .. } | Event::TxnRetried { txn, attempt, .. } => {
                let _ = write!(out, ",\"txn\":{txn},\"attempt\":{attempt}");
            }
            Event::TxnFailed { txn, .. } => {
                let _ = write!(out, ",\"txn\":{txn}");
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shape() {
        let mut s = String::new();
        Event::ModeSwitch { cycle: 9, router: 3, from: 0, to: 4 }.write_jsonl(&mut s);
        assert_eq!(s, "{\"kind\":\"ModeSwitch\",\"cycle\":9,\"router\":3,\"from\":0,\"to\":4}");
    }

    #[test]
    fn kind_aliases_parse() {
        assert_eq!(EventKind::parse("retx"), Some(EventKind::Retransmission));
        assert_eq!(EventKind::parse("ModeSwitch"), Some(EventKind::ModeSwitch));
        assert_eq!(EventKind::parse("bogus"), None);
    }

    /// One representative event per kind; the exhaustive match means adding
    /// an `EventKind` variant without extending this test fails to compile.
    fn sample(kind: EventKind) -> Event {
        match kind {
            EventKind::PacketInjected => {
                Event::PacketInjected { cycle: 1, router: 2, packet: 3, dest: 4 }
            }
            EventKind::HopTraversed => {
                Event::HopTraversed { cycle: 1, router: 2, packet: 3, flit: 4 }
            }
            EventKind::Retransmission => {
                Event::Retransmission { cycle: 1, router: 2, packet: 3, scope: RetxScope::Hop }
            }
            EventKind::EccCorrected => {
                Event::EccCorrected { cycle: 1, router: 2, packet: 3, bits: 1 }
            }
            EventKind::ModeSwitch => Event::ModeSwitch { cycle: 1, router: 2, from: 0, to: 1 },
            EventKind::PowerGate => Event::PowerGate { cycle: 1, router: 2, edge: GateEdge::On },
            EventKind::QUpdate => {
                Event::QUpdate { cycle: 1, router: 2, state: 7, action: 1, reward: -0.5 }
            }
            EventKind::LinkFailed => Event::LinkFailed { cycle: 1, router: 2, dir: 0 },
            EventKind::LinkRepaired => Event::LinkRepaired { cycle: 1, router: 2, dir: 3 },
            EventKind::RouterFailed => Event::RouterFailed { cycle: 1, router: 2 },
            EventKind::RouterRepaired => Event::RouterRepaired { cycle: 1, router: 2 },
            EventKind::Rerouted => {
                Event::Rerouted { cycle: 1, router: 2, packet: 3, from: 0, to: 2 }
            }
            EventKind::PacketDropped => {
                Event::PacketDropped { cycle: 1, router: 2, packet: 3, bits: 4 }
            }
            EventKind::WatchdogStall => Event::WatchdogStall { cycle: 1, router: 0, state: 9 },
            EventKind::TxnIssued => Event::TxnIssued { cycle: 1, router: 2, txn: 3, peer: 4 },
            EventKind::TxnCompleted => Event::TxnCompleted { cycle: 1, router: 2, txn: 3, peer: 4 },
            EventKind::TxnTimedOut => {
                Event::TxnTimedOut { cycle: 1, router: 2, txn: 3, attempt: 1 }
            }
            EventKind::TxnRetried => Event::TxnRetried { cycle: 1, router: 2, txn: 3, attempt: 2 },
            EventKind::TxnFailed => Event::TxnFailed { cycle: 1, router: 2, txn: 3 },
            EventKind::TxnShed => Event::TxnShed { cycle: 1, router: 2, txn: 3, peer: 4 },
        }
    }

    #[test]
    fn jsonl_names_the_kind_of_every_event() {
        for kind in EventKind::ALL {
            let e = sample(kind);
            assert_eq!(e.kind(), kind);
            let mut json = String::new();
            e.write_jsonl(&mut json);
            assert!(json.contains(kind.name()), "{}: json `{json}`", kind.name());
        }
    }
}
