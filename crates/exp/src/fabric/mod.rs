//! The multi-host campaign fabric, the one way to spread a campaign over
//! hosts: a lease-based `stabcon serve` daemon hands cells to the `stabcon
//! work` processes that connect to it.
//!
//! Everything rests on two properties the store already has:
//!
//! * **cell records are order-independent and pure** — a cell line is a
//!   deterministic function of its [`crate::cell::CellSpec`] alone (trial
//!   seeds derive from the cell seed), so any host produces the identical
//!   bytes for any cell; and
//! * **the header fingerprints the whole grid** — a worker that expands
//!   the same spec gets the same fingerprint, so daemon and worker agree
//!   on every cell id before a trial runs.
//!
//! The [`serve`] daemon is a durable multi-campaign job queue. Campaigns
//! are submitted over the line-oriented [`protocol`] (`stabcon-fabric/8`)
//! with per-client admission quotas, activated FIFO, and leased cell by
//! cell, round-robin across running campaigns, to workers that each run
//! the one lease loop in [`worker`]. The daemon pushes work as it appears:
//! a claim that finds nothing to lease is held open and answered the
//! moment a cell frees up (or with `Drained` once the queue closes), so
//! an idle worker neither polls nor sleeps past new work. Cells whose
//! worker died are re-leased (deterministic seeds make a re-run exact),
//! and results are appended to each job's store in canonical order, so a
//! completed job store is byte-identical to the single-host run. A
//! single-campaign `stabcon serve --preset X` is just this daemon with one
//! job submitted at startup.
//!
//! The fabric is WAN-hardened end to end: workers reconnect with capped
//! jittered backoff and resubmit completed results idempotently, lease
//! heartbeats ([`Msg::Renew2`]) keep slow-but-alive cells from being
//! re-leased, every store honors an explicit fsync policy and repairs torn
//! tails atomically on resume, a crash-replayable `stabcon-jobs/1` journal
//! brings a `kill -9`'d daemon back to the same bytes, and the [`chaos`]
//! proxy injects deterministic WAN faults between the two so the
//! byte-identity contract is pinned under fire, not just in fair weather.

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod serve;
pub mod worker;

pub use chaos::{fault_for, ChaosProxy, ChaosSpec, Fault};
pub use client::{cancel_job, query_status, submit_campaign, JobInfo, QueueStatus, SubmitOutcome};
pub use protocol::{write_frame, Msg, SpecDescriptor, FABRIC_SCHEMA};
pub use queue::{
    job_store_path, jobs_journal_path, open_journal, Ingest, JobQueue, JobState, JournalEvent,
    Parked, QueueConfig, Rejection, JOBS_SCHEMA,
};
pub use serve::{local_dial_addr, QueueOutcome, QueueServeConfig, QueueServer};
pub use worker::{run_worker_any, WorkerConfig, WorkerOutcome};
