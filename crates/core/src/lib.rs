//! # stabcon-core
//!
//! The paper's contribution and every dynamic it is compared against:
//!
//! * [`value`] — values ("bins") and the initial-value-set constraint;
//! * [`histogram`] — the aggregated view of a balls-into-bins
//!   configuration (sorted `(value, load)` pairs), which the histogram
//!   engine steps and the adversaries read;
//! * [`protocol`] — the **median rule** plus the baselines the paper
//!   discusses: minimum/maximum rule, mean rule, 3-majority, voter, and the
//!   k-sample median generalization;
//! * [`adversary`] — the T-bounded adversary framework with budget and
//!   initial-value-set enforcement **by construction**, and the concrete
//!   strategies from the paper (two-bin balancer, hide-and-revive,
//!   median-pusher, random corruption);
//! * [`engine`] — three interchangeable simulation engines: dense
//!   (`O(n)`/round, sequential or deterministic-parallel), histogram
//!   (`O(m)` binomials/round, independent of `n`), and message-level (full
//!   request/response rounds on `stabcon-net` with logarithmic inbox caps);
//! * [`runner`] — the [`runner::SimSpec`] builder tying everything together,
//!   with consensus / almost-stable-consensus detection ([`stopping`]);
//! * [`workspace`] — [`workspace::TrialWorkspace`]: reusable per-worker
//!   trial buffers, making batched trials allocation-free in steady state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod histogram;
pub mod init;
pub mod protocol;
pub mod runner;
pub mod stopping;
pub mod value;
pub mod workspace;

/// One-stop imports.
pub mod prelude {
    pub use crate::adversary::AdversarySpec;
    pub use crate::engine::EngineSpec;
    pub use crate::histogram::Histogram;
    pub use crate::init::InitialCondition;
    pub use crate::protocol::ProtocolSpec;
    pub use crate::runner::{RunResult, SimSpec};
    pub use crate::value::{median3, Value, ValueSet};
    pub use crate::workspace::TrialWorkspace;
}
