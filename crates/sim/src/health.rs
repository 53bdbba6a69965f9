//! Link/router health map and fault-aware routing.
//!
//! [`HealthRouter`] tracks which links and routers are in service and
//! provides a deadlock-free detour route around dead components. While the
//! mesh is healthy it defers to plain XY dimension-order routing and holds no
//! route tables; as soon as any component is down it builds them and switches
//! to **up*/down*** routing over the surviving topology:
//!
//! * Nodes are labelled by BFS order from a deterministic root (the
//!   lowest-indexed live router). A link traversal toward a smaller label is
//!   an *up* move, toward a larger label a *down* move.
//! * A legal route is any sequence of up moves followed by down moves —
//!   after the first down move a packet may never go up again. Any cycle of
//!   channels must contain a down→up transition, so the channel dependency
//!   graph is acyclic and the routing is deadlock-free on *any* connected
//!   residual graph (unlike turn models such as west-first or odd-even,
//!   which cannot detour around boundary-column failures).
//! * Routes are exact shortest legal paths (per-destination BFS over
//!   `(node, phase)` states), so every hop strictly decreases the distance
//!   to the destination — routes cannot cycle.
//!
//! The phase bit is never stored in a flit: a flit's last traversed link is
//! known at every routing site from its input port, and the phase is simply
//! whether that traversal was a down move under the current labelling.
//!
//! The map also keeps the **fail-stop view** derived from it: which links
//! and routers a *permanent* fault took down, and the connected components
//! of what survives them. Intermittent outages only stall traffic; a
//! fail-stop split makes a destination unreachable for good
//! ([`HealthRouter::fs_split`]), which is what salvage and drop decisions
//! key on.

use crate::topology::{slot, Mesh, NeighborTable, Port, DIRS};
use noc_fault::{HardFault, HardFaultTarget};
use std::collections::VecDeque;

/// Route-table sentinel: destination unreachable from this state.
const UNREACHABLE: u8 = u8::MAX;

/// Health map plus fault-aware route tables for one mesh.
#[derive(Debug, Clone)]
pub struct HealthRouter {
    mesh: Mesh,
    neighbors: NeighborTable,
    /// Per-directed-link service state, indexed by slot.
    link_up: Vec<bool>,
    /// Per-router service state.
    router_up: Vec<bool>,
    /// BFS label per node; `u32::MAX` for dead or disconnected nodes. Empty
    /// while the mesh is healthy.
    label: Vec<u32>,
    /// `table[dest][node * 2 + phase]` = output-port index, `Port::Local`
    /// index on arrival, or [`UNREACHABLE`]. Empty while the mesh is healthy.
    table: Vec<u8>,
    /// Whether any component is currently out of service.
    degraded: bool,
    /// Links taken down by a currently-active *fail-stop* fault, indexed
    /// like `link_up`; intermittent outages stall flits but do not purge.
    failstop_link_down: Vec<bool>,
    /// Routers taken down by a currently-active fail-stop fault.
    failstop_router_down: Vec<bool>,
    /// Connected-component id per router over the fail-stop-surviving
    /// topology (intermittent outages ignored). Packets whose source and
    /// destination sit in different components can never be delivered.
    fs_comp: Vec<u32>,
}

impl HealthRouter {
    /// A fully healthy mesh (no route tables until a component goes down).
    pub fn new(mesh: Mesh) -> Self {
        let nodes = mesh.nodes();
        HealthRouter {
            neighbors: NeighborTable::new(&mesh),
            mesh,
            link_up: vec![true; nodes * DIRS],
            router_up: vec![true; nodes],
            label: Vec::new(),
            table: Vec::new(),
            degraded: false,
            failstop_link_down: vec![false; nodes * DIRS],
            failstop_router_down: vec![false; nodes],
            fs_comp: vec![0; nodes],
        }
    }

    /// Whether any link or router is currently down.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Neighbor of `r` in direction `dir` (tabulated [`Mesh::neighbor`]).
    #[inline]
    pub fn neighbor(&self, r: usize, dir: Port) -> Option<usize> {
        self.neighbors.get(r, dir)
    }

    /// Whether router `r` is in service.
    pub fn router_up(&self, r: usize) -> bool {
        self.router_up[r]
    }

    /// Whether the directed link leaving `r` toward `dir` is in service
    /// (false for mesh-boundary non-links).
    pub fn link_up(&self, r: usize, dir: Port) -> bool {
        self.neighbor(r, dir).is_some() && self.link_up[slot(r, dir)]
    }

    /// Sets the service state of the *physical* link `(r, dir)` — both
    /// directions fail and recover together. Call [`Self::rebuild`] after a
    /// batch of changes.
    pub fn set_link(&mut self, r: usize, dir: Port, up: bool) {
        if let Some(n) = self.neighbor(r, dir) {
            self.link_up[slot(r, dir)] = up;
            self.link_up[slot(n, dir.opposite())] = up;
        }
    }

    /// Sets the service state of router `r`. Call [`Self::rebuild`] after a
    /// batch of changes.
    pub fn set_router(&mut self, r: usize, up: bool) {
        self.router_up[r] = up;
    }

    /// Whether a usable traversal `r → dir` exists: link up and both
    /// endpoint routers in service — any mesh link while not degraded.
    pub fn usable(&self, r: usize, dir: Port) -> bool {
        let up = |n: usize| self.router_up[n];
        let full = || up(r) && self.link_up[slot(r, dir)] && self.neighbor(r, dir).is_some_and(up);
        if self.degraded {
            return full();
        }
        let link = self.neighbor(r, dir).is_some();
        debug_assert_eq!(link, full(), "{r} -> {dir:?}: a health change with no rebuild");
        link
    }

    /// Recomputes whether the mesh is degraded and, only if it is, labels
    /// and route tables from the current health state. A healthy mesh routes
    /// XY and holds none.
    pub fn rebuild(&mut self) {
        let nodes = self.mesh.nodes();
        self.degraded = !self.router_up.iter().all(|&u| u)
            || (0..nodes).any(|r| {
                Port::DIRECTIONS
                    .iter()
                    .any(|&d| self.neighbor(r, d).is_some() && !self.link_up[slot(r, d)])
            });
        if !self.degraded {
            self.label = Vec::new();
            self.table = Vec::new();
            return;
        }

        // BFS labelling from the lowest-indexed live router. Disconnected or
        // dead nodes keep label u32::MAX and are unroutable.
        self.label = vec![u32::MAX; nodes];
        let root = match (0..nodes).find(|&r| self.router_up[r]) {
            Some(r) => r,
            None => {
                self.table = vec![UNREACHABLE; nodes * nodes * 2];
                return;
            }
        };
        let mut order = 0u32;
        let mut queue = VecDeque::new();
        self.label[root] = order;
        queue.push_back(root);
        while let Some(n) = queue.pop_front() {
            for d in Port::DIRECTIONS {
                if self.usable(n, d) {
                    let m = self.neighbor(n, d).unwrap();
                    if self.label[m] == u32::MAX {
                        order += 1;
                        self.label[m] = order;
                        queue.push_back(m);
                    }
                }
            }
        }

        self.table = vec![UNREACHABLE; nodes * nodes * 2];
        for dest in 0..nodes {
            if self.label[dest] != u32::MAX {
                self.build_dest_table(dest);
            }
        }
    }

    /// Fills `table[dest]` by backward BFS over `(node, phase)` states.
    /// Phase 0 = up moves still allowed, phase 1 = locked to down moves.
    fn build_dest_table(&mut self, dest: usize) {
        let nodes = self.mesh.nodes();
        let idx = |n: usize, ph: usize| n * 2 + ph;
        let mut dist = vec![u32::MAX; nodes * 2];
        let mut queue = VecDeque::new();
        dist[idx(dest, 0)] = 0;
        dist[idx(dest, 1)] = 0;
        queue.push_back(idx(dest, 0));
        queue.push_back(idx(dest, 1));
        while let Some(s) = queue.pop_front() {
            let (m, ph) = (s / 2, s % 2);
            let d = dist[s];
            // Predecessors: states (n, pn) with a legal move n → m entering
            // phase `ph`. A move n → m is *up* iff label[m] < label[n]; an
            // up move requires pn = 0 and lands in phase 0, a down move is
            // legal from either phase and lands in phase 1.
            for dir in Port::DIRECTIONS {
                let n = match self.neighbor(m, dir) {
                    Some(n) => n,
                    None => continue,
                };
                if !self.usable(n, dir.opposite()) || self.label[n] == u32::MAX {
                    continue;
                }
                let up_move = self.label[m] < self.label[n];
                let preds: &[usize] = if up_move {
                    if ph == 0 {
                        &[0]
                    } else {
                        &[]
                    }
                } else if ph == 1 {
                    &[0, 1]
                } else {
                    &[]
                };
                for &pn in preds {
                    let p = idx(n, pn);
                    if dist[p] == u32::MAX {
                        dist[p] = d + 1;
                        queue.push_back(p);
                    }
                }
            }
        }

        // Port selection: the legal move minimizing the successor distance.
        // Ties prefer the XY port, then fixed port order, for determinism.
        let base = dest * nodes * 2;
        for n in 0..nodes {
            if self.label[n] == u32::MAX {
                continue;
            }
            for ph in 0..2 {
                if n == dest {
                    self.table[base + idx(n, ph)] = Port::Local.index() as u8;
                    continue;
                }
                if dist[idx(n, ph)] == u32::MAX {
                    continue;
                }
                let xy = self.mesh.xy_route(n, dest);
                let mut best: Option<(u32, Port)> = None;
                for dir in Port::DIRECTIONS {
                    if !self.usable(n, dir) {
                        continue;
                    }
                    let m = self.neighbor(n, dir).unwrap();
                    if self.label[m] == u32::MAX {
                        continue;
                    }
                    let up_move = self.label[m] < self.label[n];
                    if up_move && ph == 1 {
                        continue;
                    }
                    let succ = dist[idx(m, if up_move { 0 } else { 1 })];
                    if succ == u32::MAX {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bd, bp)) => succ < bd || (succ == bd && dir == xy && bp != xy),
                    };
                    if better {
                        best = Some((succ, dir));
                    }
                }
                if let Some((_, dir)) = best {
                    self.table[base + idx(n, ph)] = dir.index() as u8;
                }
            }
        }
    }

    /// The up*/down* phase of a flit at `here` that arrived through input
    /// port `in_port` (phase 1 = locked to down moves).
    fn phase(&self, here: usize, in_port: Port) -> usize {
        if in_port == Port::Local {
            return 0;
        }
        match self.neighbor(here, in_port) {
            // The last traversal was upstream → here; it was a down move iff
            // our label is larger than the upstream label.
            Some(u) if self.label[u] != u32::MAX && self.label[here] > self.label[u] => 1,
            _ => 0,
        }
    }

    /// Fault-aware route: the output port for a flit at `here` destined for
    /// `dest` that arrived through `in_port` (`Port::Local` for fresh
    /// injections). Falls back to plain XY while the mesh is healthy;
    /// returns `None` when `dest` is unreachable from the flit's current
    /// up*/down* state.
    pub fn route(&self, here: usize, dest: usize, in_port: Port) -> Option<Port> {
        if !self.degraded {
            return Some(self.mesh.xy_route(here, dest));
        }
        if here == dest {
            return Some(Port::Local);
        }
        let nodes = self.mesh.nodes();
        let ph = self.phase(here, in_port);
        match self.table[dest * nodes * 2 + here * 2 + ph] {
            UNREACHABLE => None,
            p => Some(Port::from_index(p as usize)),
        }
    }

    /// Whether a fresh injection at `src` can reach `dest` at all.
    pub fn reachable(&self, src: usize, dest: usize) -> bool {
        if !self.router_up[src] || !self.router_up[dest] {
            return false;
        }
        if !self.degraded || src == dest {
            return true;
        }
        let nodes = self.mesh.nodes();
        self.table[dest * nodes * 2 + src * 2] != UNREACHABLE
    }

    /// Recomputes the whole service state — health map, route tables and
    /// fail-stop view — from the hard faults that are `down` right now.
    /// From scratch, because faults can overlap (e.g. a flapping link
    /// inside a dead router), so per-edge incremental updates would be
    /// wrong.
    pub(crate) fn apply_faults<'a>(&mut self, down: impl Iterator<Item = &'a HardFault>) {
        self.link_up.fill(true);
        self.router_up.fill(true);
        self.failstop_link_down.fill(false);
        self.failstop_router_down.fill(false);
        for fault in down {
            let fail_stop = !fault.is_intermittent();
            match fault.target {
                // A physical link fails in both directions regardless of
                // which endpoint the scenario named.
                HardFaultTarget::Link { router, dir } => {
                    let (r, dir) = (router as usize, Port::from_index(dir as usize));
                    self.set_link(r, dir, false);
                    self.failstop_link_down[slot(r, dir)] |= fail_stop;
                    if let Some(nb) = self.neighbor(r, dir) {
                        self.failstop_link_down[slot(nb, dir.opposite())] |= fail_stop;
                    }
                }
                HardFaultTarget::Router { router } => {
                    self.set_router(router as usize, false);
                    self.failstop_router_down[router as usize] |= fail_stop;
                }
            }
        }
        self.rebuild();
        self.rebuild_fs_components();
    }

    /// Labels connected components of the fail-stop-surviving topology.
    fn rebuild_fs_components(&mut self) {
        let n = self.mesh.nodes();
        self.fs_comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut queue = VecDeque::new();
        for start in 0..n {
            if self.fs_comp[start] != u32::MAX || self.failstop_router_down[start] {
                continue;
            }
            self.fs_comp[start] = next;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for dir in Port::DIRECTIONS {
                    let Some(v) = self.neighbor(u, dir) else { continue };
                    if self.failstop_link_down[slot(u, dir)]
                        || self.failstop_router_down[v]
                        || self.fs_comp[v] != u32::MAX
                    {
                        continue;
                    }
                    self.fs_comp[v] = next;
                    queue.push_back(v);
                }
            }
            next += 1;
        }
    }

    /// Whether a packet at router `at` can never reach `dest` again:
    /// either endpoint is fail-stop dead or they sit in different
    /// fail-stop-surviving components. Intermittent outages do not count.
    pub(crate) fn fs_split(&self, at: usize, dest: usize) -> bool {
        self.failstop_router_down[at]
            || self.failstop_router_down[dest]
            || self.fs_comp[at] != self.fs_comp[dest]
    }

    /// Whether a fail-stop fault took router `r` down.
    pub(crate) fn failstop_router_down(&self, r: usize) -> bool {
        self.failstop_router_down[r]
    }

    /// Whether the hop `r → dir` is fail-stop dead: the link itself or the
    /// router at its far end.
    pub(crate) fn failstop_hop_down(&self, r: usize, dir: Port) -> bool {
        self.failstop_link_down[slot(r, dir)]
            || self.neighbor(r, dir).is_some_and(|nb| self.failstop_router_down[nb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn walk(h: &HealthRouter, mesh: &Mesh, src: usize, dest: usize) -> usize {
        let mut here = src;
        let mut in_port = Port::Local;
        let mut steps = 0;
        loop {
            let p = h.route(here, dest, in_port).expect("route exists");
            if p == Port::Local {
                assert_eq!(here, dest);
                return steps;
            }
            assert!(h.link_up(here, p), "route uses dead link {here}->{p:?}");
            let next = mesh.neighbor(here, p).expect("route fell off mesh");
            assert!(h.router_up(next), "route enters dead router {next}");
            in_port = p.opposite();
            here = next;
            steps += 1;
            assert!(steps <= 4 * mesh.nodes(), "route cycles: {src}->{dest}");
        }
    }

    #[test]
    fn healthy_mesh_routes_are_xy() {
        let mesh = Mesh::new(8, 8);
        let h = HealthRouter::new(mesh);
        assert!(!h.degraded());
        for src in 0..64 {
            for dest in 0..64 {
                assert_eq!(h.route(src, dest, Port::Local), Some(mesh.xy_route(src, dest)));
            }
        }
    }

    #[test]
    fn any_single_link_failure_keeps_all_pairs_connected() {
        let mesh = Mesh::new(8, 8);
        for r in 0..mesh.nodes() {
            for dir in [Port::XPlus, Port::YPlus] {
                if mesh.neighbor(r, dir).is_none() {
                    continue;
                }
                let mut h = HealthRouter::new(mesh);
                h.set_link(r, dir, false);
                h.rebuild();
                assert!(h.degraded());
                for src in 0..mesh.nodes() {
                    for dest in 0..mesh.nodes() {
                        assert!(h.reachable(src, dest), "dead {r}->{dir:?}: {src}->{dest}");
                        walk(&h, &mesh, src, dest);
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_column_detour_works() {
        // The case turn models (west-first, odd-even) cannot handle: a dead
        // vertical link in column 0 forces an east-side detour returning
        // west. Up*/down* routes it.
        let mesh = Mesh::new(8, 8);
        let mut h = HealthRouter::new(mesh);
        h.set_link(mesh.node(0, 1), Port::YPlus, false); // (0,1)-(0,2) dead
        h.rebuild();
        let steps = walk(&h, &mesh, mesh.node(0, 5), mesh.node(0, 0));
        assert!(steps >= 7, "detour must be non-minimal, got {steps}");
    }

    #[test]
    fn dead_router_unreachable_but_others_connected() {
        let mesh = Mesh::new(8, 8);
        let dead = mesh.node(3, 3);
        let mut h = HealthRouter::new(mesh);
        h.set_router(dead, false);
        h.rebuild();
        for src in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                if src == dead || dest == dead {
                    assert!(!h.reachable(src, dest));
                } else {
                    assert!(h.reachable(src, dest));
                    let steps = walk(&h, &mesh, src, dest);
                    let _ = steps;
                }
            }
        }
    }

    #[test]
    fn disconnected_region_reports_unreachable() {
        // 2x2 mesh with both links around node 3 cut: node 3 is isolated.
        let mesh = Mesh::new(2, 2);
        let mut h = HealthRouter::new(mesh);
        h.set_link(1, Port::YPlus, false);
        h.set_link(2, Port::XPlus, false);
        h.rebuild();
        assert!(!h.reachable(0, 3));
        assert!(!h.reachable(3, 0));
        assert_eq!(h.route(0, 3, Port::Local), None);
        assert!(h.reachable(0, 1) && h.reachable(0, 2));
    }

    #[test]
    fn link_setters_are_symmetric() {
        let mesh = Mesh::new(4, 4);
        let mut h = HealthRouter::new(mesh);
        h.set_link(5, Port::XPlus, false);
        h.rebuild();
        assert!(!h.link_up(5, Port::XPlus));
        assert!(!h.link_up(6, Port::XMinus));
        h.set_link(6, Port::XMinus, true);
        h.rebuild();
        assert!(h.link_up(5, Port::XPlus) && !h.degraded());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Along random fault-toggle sequences: while healthy, routes are XY
        /// and reachability follows router service; while degraded, every
        /// route and reachability answer equals that of a router built fresh
        /// under the same faults, so no table left from an earlier degraded
        /// spell is ever read.
        #[test]
        fn toggled_router_answers_like_a_fresh_one(
            w in 2usize..6,
            hgt in 2usize..6,
            toggles in prop::collection::vec((any::<bool>(), 0usize..36, 0usize..4, any::<bool>()), 1..12),
        ) {
            let mesh = Mesh::new(w, hgt);
            let nodes = mesh.nodes();
            let mut h = HealthRouter::new(mesh);
            for (link, r, d, up) in toggles {
                let r = r % nodes;
                if link {
                    h.set_link(r, Port::DIRECTIONS[d], up);
                } else {
                    h.set_router(r, up);
                }
                h.rebuild();
                let mut fresh = HealthRouter::new(mesh);
                for n in 0..nodes {
                    fresh.set_router(n, h.router_up(n));
                    for dir in Port::DIRECTIONS {
                        fresh.set_link(n, dir, h.link_up(n, dir));
                    }
                }
                fresh.rebuild();
                prop_assert_eq!(h.degraded(), fresh.degraded());
                for here in 0..nodes {
                    for dest in 0..nodes {
                        let reach = h.reachable(here, dest);
                        if h.degraded() {
                            prop_assert_eq!(reach, fresh.reachable(here, dest));
                        } else {
                            prop_assert_eq!(reach, h.router_up(here) && h.router_up(dest));
                        }
                        for in_port in Port::ALL {
                            let route = h.route(here, dest, in_port);
                            if h.degraded() {
                                prop_assert_eq!(route, fresh.route(here, dest, in_port));
                            } else {
                                prop_assert_eq!(route, Some(mesh.xy_route(here, dest)));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a health change with no rebuild")]
    fn usable_catches_a_health_change_with_no_rebuild() {
        let mut h = HealthRouter::new(Mesh::new(4, 4));
        h.set_link(5, Port::XPlus, false);
        h.usable(5, Port::XPlus);
    }

    #[test]
    fn boundary_links_report_down() {
        let h = HealthRouter::new(Mesh::new(4, 4));
        assert!(!h.link_up(0, Port::XMinus));
        assert!(!h.link_up(0, Port::YMinus));
        assert!(h.link_up(0, Port::XPlus));
    }
}
