//! Lumped-RC thermal model (HotSpot substitute).
//!
//! The paper feeds per-router utilization/power into HotSpot to obtain
//! run-time operating temperatures, which then drive both the VARIUS
//! transient-error model and the NBTI/HCI aging model. This reproduction
//! uses a first-order lumped-RC network: each tile has a thermal capacitance
//! and a resistance to ambient, plus lateral coupling to its mesh neighbors.
//!
//! The thermal time constant is *accelerated* relative to silicon reality
//! (milliseconds) so that the power→temperature→error feedback loop is
//! exercised within the shorter simulated windows used here; the
//! steady-state temperatures are unaffected by this choice.

/// Thermal model parameters.
///
/// Passive constants bag; fields are public by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Die-ambient temperature floor in °C (includes core/cache activity
    /// that is not modeled by the NoC simulator).
    pub ambient_c: f64,
    /// Thermal resistance of one tile in °C per mW of router power.
    pub r_th_c_per_mw: f64,
    /// Thermal time constant in cycles (accelerated; see module docs).
    pub tau_cycles: f64,
    /// Lateral coupling coefficient toward the neighbor average per `tau`.
    pub coupling: f64,
    /// Hard upper clamp in °C (package limit).
    pub max_temp_c: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel {
            ambient_c: 55.0,
            r_th_c_per_mw: 1.2,
            tau_cycles: 2_500.0,
            coupling: 0.15,
            max_temp_c: 110.0,
        }
    }
}

impl ThermalModel {
    /// Steady-state temperature of an isolated tile dissipating `power_mw`.
    pub fn steady_state_c(&self, power_mw: f64) -> f64 {
        (self.ambient_c + self.r_th_c_per_mw * power_mw).min(self.max_temp_c)
    }
}

/// Per-tile temperature state for a `width × height` mesh.
///
/// # Examples
///
/// ```
/// use noc_fault::{ThermalGrid, ThermalModel};
///
/// let model = ThermalModel::default();
/// let mut grid = ThermalGrid::new(model, 8, 8);
/// let powers = vec![40.0; 64];
/// for _ in 0..100 {
///     grid.step(&powers, 1_000);
/// }
/// assert!(grid.temp_c(0) > model.ambient_c);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalGrid {
    model: ThermalModel,
    width: usize,
    height: usize,
    temps: Vec<f64>,
}

impl ThermalGrid {
    /// Creates a grid with all tiles at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(model: ThermalModel, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be nonzero");
        ThermalGrid { model, width, height, temps: vec![model.ambient_c; width * height] }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// Returns `true` if the grid has no tiles (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// Current temperature of tile `i` in °C.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn temp_c(&self, i: usize) -> f64 {
        self.temps[i]
    }

    /// All tile temperatures.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Mean temperature across the die.
    pub fn mean_c(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Hottest tile temperature.
    pub fn max_c(&self) -> f64 {
        self.temps.iter().cloned().fold(f64::MIN, f64::max)
    }

    /// Advances the grid by `dt_cycles` given per-tile router power (mW).
    ///
    /// # Panics
    ///
    /// Panics if `powers_mw.len()` differs from the number of tiles.
    pub fn step(&mut self, powers_mw: &[f64], dt_cycles: u64) {
        assert_eq!(powers_mw.len(), self.temps.len(), "power vector size mismatch");
        let m = &self.model;
        // Integration factor, clamped for stability when dt >> tau.
        let alpha = (dt_cycles as f64 / m.tau_cycles).min(1.0);
        let old = self.temps.clone();
        for y in 0..self.height {
            for x in 0..self.width {
                let i = y * self.width + x;
                let target = m.ambient_c + m.r_th_c_per_mw * powers_mw[i];
                // Neighbor average for lateral spreading.
                let mut nsum = 0.0;
                let mut ncnt = 0.0;
                let mut visit = |xx: isize, yy: isize| {
                    if xx >= 0
                        && yy >= 0
                        && (xx as usize) < self.width
                        && (yy as usize) < self.height
                    {
                        nsum += old[yy as usize * self.width + xx as usize];
                        ncnt += 1.0;
                    }
                };
                visit(x as isize - 1, y as isize);
                visit(x as isize + 1, y as isize);
                visit(x as isize, y as isize - 1);
                visit(x as isize, y as isize + 1);
                let navg = if ncnt > 0.0 { nsum / ncnt } else { old[i] };
                let local = target + m.coupling * (navg - old[i]) / alpha.max(1e-9) * alpha;
                let t = old[i] + alpha * (local - old[i]);
                self.temps[i] = t.clamp(m.ambient_c, m.max_temp_c);
            }
        }
    }

    /// Model parameters.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(grid: &mut ThermalGrid, powers: &[f64]) {
        for _ in 0..500 {
            grid.step(powers, 1_000);
        }
    }

    #[test]
    fn converges_to_steady_state_uniform() {
        let m = ThermalModel::default();
        let mut g = ThermalGrid::new(m, 4, 4);
        let powers = vec![30.0; 16];
        settle(&mut g, &powers);
        let expect = m.steady_state_c(30.0);
        for &t in g.temps() {
            assert!((t - expect).abs() < 1.0, "temp {t} vs {expect}");
        }
    }

    #[test]
    fn hotter_power_hotter_tile() {
        let m = ThermalModel::default();
        let mut g = ThermalGrid::new(m, 4, 4);
        let mut powers = vec![10.0; 16];
        powers[5] = 60.0;
        settle(&mut g, &powers);
        assert!(g.temp_c(5) > g.temp_c(15) + 5.0);
    }

    #[test]
    fn lateral_coupling_warms_neighbors() {
        let m = ThermalModel { coupling: 0.4, ..ThermalModel::default() };
        let mut g = ThermalGrid::new(m, 5, 1);
        let mut powers = vec![0.0; 5];
        powers[2] = 80.0;
        settle(&mut g, &powers);
        // Neighbors of the hot tile are warmer than the far corners.
        assert!(g.temp_c(1) > g.temp_c(0));
        assert!(g.temp_c(3) > g.temp_c(4) - 1e-9);
        assert!(g.temp_c(1) > m.ambient_c + 0.5);
    }

    #[test]
    fn clamped_to_package_limit() {
        let m = ThermalModel::default();
        let mut g = ThermalGrid::new(m, 1, 1);
        settle(&mut g, &[100_000.0]);
        assert!(g.temp_c(0) <= m.max_temp_c);
    }

    #[test]
    fn cooling_when_power_removed() {
        let m = ThermalModel::default();
        let mut g = ThermalGrid::new(m, 2, 2);
        settle(&mut g, &[50.0; 4]);
        let hot = g.mean_c();
        settle(&mut g, &[0.0; 4]);
        assert!(g.mean_c() < hot - 10.0);
        assert!((g.mean_c() - m.ambient_c).abs() < 1.0);
    }

    #[test]
    fn large_dt_is_stable() {
        let m = ThermalModel::default();
        let mut g = ThermalGrid::new(m, 3, 3);
        for _ in 0..10 {
            g.step(&[45.0; 9], 1_000_000); // dt >> tau
        }
        for &t in g.temps() {
            assert!(t.is_finite());
            assert!(t >= m.ambient_c && t <= m.max_temp_c);
        }
    }
}
