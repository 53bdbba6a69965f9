//! Spatial traffic patterns.
//!
//! Classic synthetic destination distributions used by NoC studies
//! (uniform random, transpose, bit-complement, …) plus the memory-controller
//! hotspot overlay that characterizes real CMP traffic.

use rand::rngs::SmallRng;
use rand::Rng;

/// A synthetic destination distribution over mesh nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialPattern {
    /// Destination uniform over all nodes except the source.
    Uniform,
    /// Node (x, y) sends to (y, x).
    Transpose,
    /// Bitwise complement of the node index.
    BitComplement,
    /// Bit-reversed node index.
    BitReverse,
    /// Perfect-shuffle of the node index (rotate left by 1).
    Shuffle,
    /// Destination uniform among the four mesh neighbors.
    NearestNeighbor,
}

impl SpatialPattern {
    /// All patterns, for sweeps.
    pub const ALL: [SpatialPattern; 6] = [
        SpatialPattern::Uniform,
        SpatialPattern::Transpose,
        SpatialPattern::BitComplement,
        SpatialPattern::BitReverse,
        SpatialPattern::Shuffle,
        SpatialPattern::NearestNeighbor,
    ];

    /// Samples a destination for a packet from `src` on a `width × height`
    /// mesh. Never returns `src` itself (self-traffic stays in the core).
    ///
    /// # Panics
    ///
    /// Panics if the mesh has fewer than 2 nodes, or (for the bit-permuting
    /// patterns) if the node count is not a power of two.
    pub fn dest(self, src: usize, width: usize, height: usize, rng: &mut SmallRng) -> usize {
        let n = width * height;
        assert!(n >= 2, "mesh too small");
        let mapped = match self {
            SpatialPattern::Uniform => {
                let mut d = rng.gen_range(0..n - 1);
                if d >= src {
                    d += 1;
                }
                return d;
            }
            SpatialPattern::Transpose => {
                let (x, y) = (src % width, src / width);
                // Transpose needs a square mesh; fall back to rotation.
                if width == height {
                    x * width + y
                } else {
                    (src + n / 2) % n
                }
            }
            SpatialPattern::BitComplement => {
                assert!(n.is_power_of_two(), "bit patterns need power-of-two node count");
                !src & (n - 1)
            }
            SpatialPattern::BitReverse => {
                assert!(n.is_power_of_two(), "bit patterns need power-of-two node count");
                let bits = n.trailing_zeros();
                let mut v = 0usize;
                for i in 0..bits {
                    if src >> i & 1 == 1 {
                        v |= 1 << (bits - 1 - i);
                    }
                }
                v
            }
            SpatialPattern::Shuffle => {
                assert!(n.is_power_of_two(), "bit patterns need power-of-two node count");
                let bits = n.trailing_zeros() as usize;
                ((src << 1) | (src >> (bits - 1))) & (n - 1)
            }
            SpatialPattern::NearestNeighbor => {
                let (x, y) = ((src % width) as isize, (src / width) as isize);
                let mut neighbors = Vec::with_capacity(4);
                for (dx, dy) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx >= 0 && ny >= 0 && (nx as usize) < width && (ny as usize) < height {
                        neighbors.push(ny as usize * width + nx as usize);
                    }
                }
                neighbors[rng.gen_range(0..neighbors.len())]
            }
        };
        if mapped == src {
            // Self-mapped fixed point (e.g. diagonal under transpose):
            // fall back to a uniform pick.
            SpatialPattern::Uniform.dest(src, width, height, rng)
        } else {
            mapped
        }
    }
}

/// Default memory-controller placement for an `width × height` mesh: the
/// four edge-midpoint tiles, mirroring common CMP floorplans.
pub fn default_mc_nodes(width: usize, height: usize) -> Vec<usize> {
    vec![
        width / 2,                        // top edge
        (height / 2) * width,             // left edge
        (height / 2) * width + width - 1, // right edge
        (height - 1) * width + width / 2, // bottom edge
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn destinations_in_range_and_not_self() {
        let mut r = rng();
        for pat in SpatialPattern::ALL {
            for src in 0..64 {
                for _ in 0..8 {
                    let d = pat.dest(src, 8, 8, &mut r);
                    assert!(d < 64, "{pat:?}");
                    assert_ne!(d, src, "{pat:?} src {src}");
                }
            }
        }
    }

    #[test]
    fn transpose_is_involution_off_diagonal() {
        let mut r = rng();
        let src = 3 * 8 + 5; // (5, 3)
        let d = SpatialPattern::Transpose.dest(src, 8, 8, &mut r);
        assert_eq!(d, 5 * 8 + 3);
        assert_eq!(SpatialPattern::Transpose.dest(d, 8, 8, &mut r), src);
    }

    #[test]
    fn bit_complement_pairs_extremes() {
        let mut r = rng();
        assert_eq!(SpatialPattern::BitComplement.dest(0, 8, 8, &mut r), 63);
        assert_eq!(SpatialPattern::BitComplement.dest(63, 8, 8, &mut r), 0);
    }

    #[test]
    fn bit_reverse_known_values() {
        let mut r = rng();
        // 6 bits: 0b000001 -> 0b100000.
        assert_eq!(SpatialPattern::BitReverse.dest(1, 8, 8, &mut r), 32);
        assert_eq!(SpatialPattern::BitReverse.dest(32, 8, 8, &mut r), 1);
    }

    #[test]
    fn nearest_neighbor_is_adjacent() {
        let mut r = rng();
        for _ in 0..100 {
            let d = SpatialPattern::NearestNeighbor.dest(27, 8, 8, &mut r);
            let (sx, sy) = (27usize % 8, 27usize / 8);
            let (dx, dy) = (d % 8, d / 8);
            let dist = sx.abs_diff(dx) + sy.abs_diff(dy);
            assert_eq!(dist, 1);
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let mut r = rng();
        let mut seen = [false; 64];
        for _ in 0..4000 {
            seen[SpatialPattern::Uniform.dest(10, 8, 8, &mut r)] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, 63); // everything but the source
        assert!(!seen[10]);
    }

    #[test]
    fn mc_nodes_are_distinct_edge_tiles() {
        let mcs = default_mc_nodes(8, 8);
        assert_eq!(mcs.len(), 4);
        let mut dedup = mcs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert!(mcs.iter().all(|&m| m < 64));
    }
}
