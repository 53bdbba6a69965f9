//! # noc-traffic
//!
//! Workload substrate for the IntelliNoC reproduction (Wang et al., ISCA
//! 2019): synthetic spatial patterns, bursty injection processes, PARSEC
//! benchmark profiles (a Netrace substitute — see DESIGN.md §4), and
//! offline trace capture/replay.
//!
//! # Examples
//!
//! ```
//! use noc_traffic::{ParsecBenchmark, TrafficGen, Workload};
//!
//! let spec = ParsecBenchmark::Canneal.workload(50);
//! let mut gen = TrafficGen::new(spec, 8, 8, 7);
//! let mut injected = 0;
//! for cycle in 0..1_000 {
//!     for node in 0..64 {
//!         if gen.poll(cycle, node, 0).is_some() {
//!             injected += 1;
//!         }
//!     }
//! }
//! assert!(injected > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parsec;
mod pattern;
mod process;
mod replay;
mod reqreply;
mod trace;
mod workload;

pub use parsec::ParsecBenchmark;
pub use pattern::{default_mc_nodes, SpatialPattern};
pub use process::{InjectionProcess, ProcessState};
pub use reqreply::{ReqReplySpec, ReqReplyWorkload};
pub use trace::{capture_trace, read_trace, write_trace, TraceRecord};
pub use workload::{Phase, TrafficGen, TxnEvent, TxnEventKind, TxnStats, Workload, WorkloadSpec};
