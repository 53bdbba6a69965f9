//! # noc-fault
//!
//! Fault substrate for the IntelliNoC reproduction (Wang et al., ISCA 2019):
//!
//! * [`ThermalModel`]/[`ThermalGrid`] — lumped-RC per-tile thermal model
//!   (HotSpot substitute, paper §6.1),
//! * [`VariusModel`] — temperature/voltage/aging-dependent transient
//!   bit-error rate (VARIUS substitute, Eq. 3),
//! * [`AgingModel`]/[`AgingState`] — NBTI + HCI ΔVth accumulation with the
//!   alpha-power-law delay feedback (Eqs. 4–7),
//! * [`FaultInjector`] — per-traversal bit-flip sampling (a Binomial flip
//!   count from one uniform draw, then exact positions on a hit) feeding
//!   the real codecs in `noc-ecc`,
//! * [`extrapolate_mttf`]/[`network_mttf`] — FIT/MTTF extrapolation
//!   (Fig. 16).
//!
//! # Examples
//!
//! ```
//! use noc_fault::{ThermalGrid, ThermalModel, VariusModel, FaultInjector};
//!
//! let thermal = ThermalModel::default();
//! let mut grid = ThermalGrid::new(thermal, 8, 8);
//! grid.step(&vec![45.0; 64], 1_000);
//!
//! let varius = VariusModel::default();
//! let re = varius.bit_error_rate(grid.temp_c(0), 1.0, 0.0);
//! let mut injector = FaultInjector::new(1);
//! let flips = injector.sample_flip_count(145, re);
//! assert!(flips <= 145);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aging;
mod hard;
mod injector;
mod mttf;
mod thermal;
mod varius;

pub use aging::{AgingModel, AgingState};
pub use hard::{HardFault, HardFaultKind, HardFaultScenario, HardFaultTarget};
pub use injector::FaultInjector;
pub use mttf::{extrapolate_mttf, network_mttf, MttfEstimate, CYCLES_PER_HOUR};
pub use thermal::{ThermalGrid, ThermalModel};
pub use varius::VariusModel;
