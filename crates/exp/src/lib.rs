//! # stabcon-exp
//!
//! Campaign orchestration for the `stabcon` workspace: reproducing the
//! paper's results table means millions of trials over a grid of
//! populations, protocols, engines, and adversaries — this crate owns that
//! sweep, and every paper table is a preset rendered from its store.
//!
//! * [`campaign`] — [`campaign::CampaignSpec`] expands a cartesian grid
//!   into cells; [`campaign::run_campaign`] executes them with
//!   checkpoint/resume against a JSONL store.
//! * [`cell`] — one grid cell, sharded into chunks on the shared
//!   [`stabcon_par::ThreadPool`]; trial seeds derive from the cell seed, so
//!   results are independent of thread count and chunking.
//! * [`aggregate`] — streaming per-cell aggregation into exact
//!   [`stabcon_util::stats::SparseCounts`] sketches; **bit-identical** to
//!   materializing every `RunResult` (the property tests assert this).
//! * [`observer`] — [`observer::TrialObserver`]: trajectory-derived extra
//!   metrics (last-unsettled round, one-step drift, stability excursions,
//!   network totals), reduced worker-side to integers and folded per
//!   channel into the same exact sketches.
//! * [`metrics`] — [`metrics::HitMetric`] / [`metrics::ConvergenceStats`],
//!   the hitting-time summary of a cell.
//! * [`store`] — the append-only JSONL result store with torn-tail
//!   recovery; a resumed campaign reproduces the uninterrupted store
//!   byte-for-byte.
//! * [`report`] — Figure-1-style tables rendered from a store, with an
//!   `ln n` fit note per series that spans three or more populations.
//! * [`scaling`] — the `ln n` regression behind the report's fit notes.
//! * [`presets`] — named grids for the `stabcon` CLI
//!   (`stabcon campaign run/resume/report`).
//! * [`telemetry`] — observation-only campaign telemetry: live progress,
//!   per-cell phase profiles, the `--telemetry` JSONL sink, and the
//!   timings sidecar. Stores are byte-identical with telemetry on or off.
//! * [`fabric`] — the multi-host campaign fabric: the lease-based
//!   `stabcon serve` job-queue daemon and the `stabcon work` processes that
//!   run its cells on any number of hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod cell;
pub mod fabric;
pub mod metrics;
pub mod observer;
pub mod presets;
pub mod report;
pub mod scaling;
pub mod store;
pub mod telemetry;

pub use aggregate::{fold_net_totals, CellAggregate, TrialMetrics};
pub use campaign::{
    run_campaign, sqrt_budget, BudgetSpec, CampaignOutcome, CampaignSpec, InitSpec, RunConfig,
};
pub use cell::{chunk_for, run_cell, run_cell_monitored, CellSpec};
pub use fabric::{run_worker_any, QueueServeConfig, QueueServer};
pub use metrics::{ConvergenceStats, HitMetric};
pub use observer::{TrialExtras, TrialObserver};
pub use telemetry::{check_telemetry, CampaignTelemetry, CellProfile};
