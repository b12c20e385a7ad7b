//! # stabcon-analysis
//!
//! The paper-table drivers whose grids no campaign preset covers. Figure 1,
//! Theorem 2, the protocol × adversary tournament and the √n threshold
//! are campaign presets (`figure1-small`, `figure1`, `average-case`,
//! `theorems`, `robustness-small`, `threshold`) rendered by
//! `stabcon campaign report`; the drivers
//! here measure what a report table cannot show.
//!
//! * [`experiment`] — convergence statistics (mean/p50/p95/p99/max hitting
//!   times, timeout and validity rates; the stat types live in
//!   `stabcon-exp` and are re-exported here) plus the materialized
//!   `run_trials` parity reference. **Every** table driver executes
//!   through the `stabcon-exp` campaign scheduler (streamed aggregates, no
//!   materialized result vectors; trajectory-derived extras through
//!   `stabcon_exp::TrialObserver`);
//! * [`baselines`] — the §1.1 minimum-rule counterexample (E6) and the §1.2
//!   mean-rule validity failure (E7);
//! * [`drift`] — Lemmas 11/12/15: one-step imbalance drift and the
//!   `O(log log n)` doubling regime (E10/E11);
//! * [`stability`] — post-stabilization disagreement horizons (E12);
//! * [`robustness`] — the α-asynchrony ablation.
//!
//! Every module returns [`stabcon_util::table::Table`]s, so the `drivers`
//! binary prints uniformly formatted, diffable output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod drift;
pub mod experiment;
pub mod robustness;
pub mod stability;

/// One-stop imports.
pub mod prelude {
    pub use crate::experiment::{run_trials, ConvergenceStats, HitMetric};
    pub use stabcon_util::table::Table;
}
