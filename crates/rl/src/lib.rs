//! # noc-rl
//!
//! Tabular Q-learning substrate for the IntelliNoC reproduction
//! (Wang et al., ISCA 2019, §5):
//!
//! * [`Discretizer`]/[`StateKey`] — the paper's 16-feature state vector,
//!   evenly discretized into 5 bins per feature,
//! * [`QTable`] — capacity-bounded (350-entry) state–action table with LRU
//!   eviction, matching the paper's hardware budget,
//! * [`QAgent`] — ε-greedy agent applying the temporal-difference rule
//!   (Eq. 2),
//! * [`RewardKind`] — the paper's Eq. 1 reward `−log(L) − log(P) − log(A)`
//!   (and the D5 ablation's linear variant), term by term,
//! * [`ChainMdp`] — a reference MDP for convergence testing.
//!
//! # Examples
//!
//! ```
//! use noc_rl::{Discretizer, QAgent, QLearningConfig, RewardKind, FEATURE_COUNT};
//!
//! let disc = Discretizer::paper_default();
//! let mut agent = QAgent::new(QLearningConfig::default(), 42);
//!
//! let mut features = vec![0.2; FEATURE_COUNT];
//! features[FEATURE_COUNT - 1] = 68.0; // temperature
//! let [l, p, a] = RewardKind::LogSpace.terms(24.0, 55.0, 1.02);
//! let action = agent.step(disc.key(&features), l + p + a);
//! assert!(action < 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod mdp;
mod qtable;
mod state;

pub use agent::{QAgent, QLearningConfig, RewardKind, StepTrace};
pub use mdp::ChainMdp;
pub use qtable::{QTable, PAPER_QTABLE_CAPACITY};
pub use state::{Discretizer, StateKey, BINS, FEATURE_COUNT};
