//! 2D-mesh topology: ports, coordinates, and XY dimension-order routing.

/// Router port indices. The four direction ports connect to mesh neighbors;
/// `LOCAL` connects to the node's network interface (core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// +X (east) neighbor.
    XPlus = 0,
    /// −X (west) neighbor.
    XMinus = 1,
    /// +Y (north) neighbor.
    YPlus = 2,
    /// −Y (south) neighbor.
    YMinus = 3,
    /// Local core / network interface.
    Local = 4,
}

/// Number of ports per router.
pub const PORTS: usize = 5;
/// Number of direction (non-local) ports per router.
pub const DIRS: usize = 4;

impl Port {
    /// All ports in index order.
    pub const ALL: [Port; PORTS] =
        [Port::XPlus, Port::XMinus, Port::YPlus, Port::YMinus, Port::Local];

    /// The four direction ports.
    pub const DIRECTIONS: [Port; DIRS] = [Port::XPlus, Port::XMinus, Port::YPlus, Port::YMinus];

    /// Port from its index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= PORTS`.
    pub fn from_index(i: usize) -> Port {
        Port::ALL[i]
    }

    /// Index of this port.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The opposite direction port (the input port a flit arrives on after
    /// leaving through `self`).
    ///
    /// # Panics
    ///
    /// Panics for [`Port::Local`].
    pub fn opposite(self) -> Port {
        match self {
            Port::XPlus => Port::XMinus,
            Port::XMinus => Port::XPlus,
            Port::YPlus => Port::YMinus,
            Port::YMinus => Port::YPlus,
            Port::Local => panic!("local port has no opposite"),
        }
    }
}

/// Mesh geometry helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Width in tiles.
    pub width: usize,
    /// Height in tiles.
    pub height: usize,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        Mesh { width, height }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// (x, y) of node `n`.
    pub fn coords(&self, n: usize) -> (usize, usize) {
        (n % self.width, n / self.width)
    }

    /// Node index of (x, y).
    pub fn node(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// Neighbor of `n` in direction `dir`, if it exists.
    pub fn neighbor(&self, n: usize, dir: Port) -> Option<usize> {
        let (x, y) = self.coords(n);
        match dir {
            Port::XPlus if x + 1 < self.width => Some(self.node(x + 1, y)),
            Port::XMinus if x > 0 => Some(self.node(x - 1, y)),
            Port::YPlus if y + 1 < self.height => Some(self.node(x, y + 1)),
            Port::YMinus if y > 0 => Some(self.node(x, y - 1)),
            _ => None,
        }
    }

    /// Every node on the XY route from `src` to `dest`, both included.
    pub(crate) fn xy_path(&self, src: usize, dest: usize) -> impl Iterator<Item = usize> {
        let ((sx, sy), (dx, dy), w) = (self.coords(src), self.coords(dest), self.width);
        let row = (sx.min(dx)..=sx.max(dx)).map(move |x| sy * w + x);
        row.chain((sy.min(dy)..=sy.max(dy)).filter(move |&y| y != sy).map(move |y| y * w + dx))
    }

    /// XY dimension-order route: the output port a flit at `here` destined
    /// for `dest` must take (X first, then Y; `Local` when arrived).
    pub fn xy_route(&self, here: usize, dest: usize) -> Port {
        let (x, y) = self.coords(here);
        let (dx, dy) = self.coords(dest);
        if dx > x {
            Port::XPlus
        } else if dx < x {
            Port::XMinus
        } else if dy > y {
            Port::YPlus
        } else if dy < y {
            Port::YMinus
        } else {
            Port::Local
        }
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }
}

/// The slot of direction port `dir` of node `n` in every table kept per
/// `(node, direction)`: channels, neighbours, link health, per-link
/// telemetry. The one place that layout is decided; [`unslot`] inverts it.
#[inline]
pub(crate) fn slot(n: usize, dir: Port) -> usize {
    n * DIRS + dir.index()
}

/// The `(node, direction)` of slot `s`: the inverse of [`slot`].
#[inline]
pub(crate) fn unslot(s: usize) -> (usize, Port) {
    (s / DIRS, Port::from_index(s % DIRS))
}

/// [`Mesh::neighbor`] for every (node, direction), computed once: the
/// per-cycle phases look neighbours up per link and per flit, and the
/// coordinate div/mod of the direct computation showed in their profile.
#[derive(Debug, Clone)]
pub struct NeighborTable {
    /// Indexed by [`slot`]; [`NeighborTable::NONE`] at the boundary.
    table: Vec<u32>,
}

impl NeighborTable {
    const NONE: u32 = u32::MAX;

    /// Tabulates `mesh`.
    pub fn new(mesh: &Mesh) -> Self {
        let neighbor = |(n, dir)| mesh.neighbor(n, dir).map_or(Self::NONE, |m| m as u32);
        NeighborTable { table: (0..mesh.nodes() * DIRS).map(unslot).map(neighbor).collect() }
    }

    /// Neighbor of `n` in direction `dir`, if it exists (`None` for
    /// [`Port::Local`]).
    #[inline]
    pub fn get(&self, n: usize, dir: Port) -> Option<usize> {
        if dir == Port::Local {
            return None;
        }
        match self.table[slot(n, dir)] {
            Self::NONE => None,
            m => Some(m as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_table_matches_mesh() {
        for (w, h) in [(2, 2), (3, 5), (8, 8)] {
            let m = Mesh::new(w, h);
            let t = NeighborTable::new(&m);
            for n in 0..m.nodes() {
                for p in Port::ALL {
                    assert_eq!(t.get(n, p), m.neighbor(n, p), "{w}x{h} node {n} {p:?}");
                }
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new(8, 8);
        for n in 0..64 {
            let (x, y) = m.coords(n);
            assert_eq!(m.node(x, y), n);
        }
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.neighbor(0, Port::XMinus), None);
        assert_eq!(m.neighbor(0, Port::YMinus), None);
        assert_eq!(m.neighbor(0, Port::XPlus), Some(1));
        assert_eq!(m.neighbor(0, Port::YPlus), Some(8));
        assert_eq!(m.neighbor(63, Port::XPlus), None);
        assert_eq!(m.neighbor(63, Port::YPlus), None);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let m = Mesh::new(8, 8);
        // From (0,0) to (3,2): X first.
        assert_eq!(m.xy_route(0, m.node(3, 2)), Port::XPlus);
        // From (3,0) to (3,2): then Y.
        assert_eq!(m.xy_route(m.node(3, 0), m.node(3, 2)), Port::YPlus);
        // Arrived.
        assert_eq!(m.xy_route(5, 5), Port::Local);
    }

    #[test]
    fn xy_route_always_reaches_destination() {
        let m = Mesh::new(8, 8);
        for src in 0..64 {
            for dest in 0..64 {
                let mut here = src;
                let mut steps = 0;
                while here != dest {
                    let p = m.xy_route(here, dest);
                    assert_ne!(p, Port::Local);
                    here = m.neighbor(here, p).expect("route fell off mesh");
                    steps += 1;
                    assert!(steps <= 14, "route too long {src}->{dest}");
                }
                assert_eq!(steps, m.hops(src, dest), "minimal route {src}->{dest}");
            }
        }
    }

    #[test]
    fn opposite_is_involution() {
        for p in Port::DIRECTIONS {
            assert_eq!(p.opposite().opposite(), p);
        }
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_has_no_opposite() {
        let _ = Port::Local.opposite();
    }
}
