//! End-to-end and per-layer performance benchmark for the IntelliNoC
//! reproduction. It measures the simulator from outside, through public
//! functions of the workspace crates only; see `README.md` for the metric
//! definitions and `../BENCHMARK.json` for the contract.

pub mod alloc;
pub mod calib;
pub mod compare;
pub mod json;
pub mod layers;
pub mod run;
pub mod schema;
pub mod spans;
pub mod workloads;
