//! # stabcon-analysis
//!
//! The experiment harness: everything needed to regenerate the paper's
//! results table (Figure 1) and the theorem-level claims as *measured*
//! tables.
//!
//! * [`experiment`] — convergence statistics (mean/p50/p95/p99/max hitting
//!   times, timeout and validity rates; the stat types live in
//!   `stabcon-exp` and are re-exported here) plus the materialized
//!   `run_trials` parity reference. **Every** table driver executes
//!   through the `stabcon-exp` campaign scheduler (streamed aggregates, no
//!   materialized result vectors; trajectory-derived extras through
//!   `stabcon_exp::TrialObserver`), each pinned by a
//!   `campaign_port_is_numerically_unchanged` regression test;
//! * [`scaling`] — the paper's predictors as one-variable regression
//!   models: `log n`, `log log n` and `log m`;
//! * [`figure1`] — the three rows of Figure 1 as measured tables (E1–E3);
//! * [`theorems`] — Theorem 2 (constant number of values, E4);
//! * [`threshold`] — tightness of the `T ≤ √n` bound (E5);
//! * [`baselines`] — the §1.1 minimum-rule counterexample (E6) and the §1.2
//!   mean-rule validity failure (E7);
//! * [`drift`] — Lemmas 11/12/15: one-step imbalance drift and the
//!   `O(log log n)` doubling regime (E10/E11);
//! * [`stability`] — post-stabilization disagreement horizons (E12).
//!
//! Every module returns [`stabcon_util::table::Table`]s, so the `drivers`
//! binary prints uniformly formatted, diffable output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod drift;
pub mod experiment;
pub mod figure1;
pub mod robustness;
pub mod scaling;
pub mod stability;
pub mod theorems;
pub mod threshold;

/// One-stop imports.
pub mod prelude {
    pub use crate::experiment::{run_trials, ConvergenceStats, HitMetric};
    pub use crate::scaling::{fit_log_n, fit_loglog_n};
    pub use stabcon_util::table::Table;
}
