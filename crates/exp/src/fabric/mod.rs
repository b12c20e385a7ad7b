//! The multi-host campaign fabric: shard a campaign's cell list across
//! hosts, merge the per-shard stores back into the canonical single-host
//! store byte-for-byte, or skip the batch choreography entirely and run a
//! lease-based `stabcon serve` daemon that hands cells to connecting
//! workers.
//!
//! Everything rests on two properties the store already has:
//!
//! * **cell records are order-independent and pure** — a cell line is a
//!   deterministic function of its [`crate::cell::CellSpec`] alone (trial
//!   seeds derive from the cell seed), so any host produces the identical
//!   bytes for any cell; and
//! * **the header fingerprints the whole grid** — two stores with equal
//!   headers were expanded from the same spec, so their cell sets are
//!   comparable by id.
//!
//! Sharding the cell list therefore shards the whole results table:
//! [`ShardSelection`] picks a disjoint slice per host,
//! [`merge::merge_stores`] validates fingerprints + disjoint/complete
//! coverage and re-sorts cells into canonical cell-index order, and the
//! result is byte-identical to the store one host would have written.
//!
//! The [`serve`] daemon is the online version of the same contract: a
//! durable multi-campaign job queue. Campaigns are submitted over the
//! line-oriented [`protocol`] (`stabcon-fabric/2`) with per-client
//! admission quotas, activated FIFO, and leased cell by cell, round-robin
//! across running campaigns, to workers that each run the one lease loop
//! in [`worker`]. Cells whose worker died are re-leased (deterministic
//! seeds make a re-run exact), and results are appended to each job's
//! store in canonical order, so a completed job store is *also*
//! byte-identical to the single-host run. A single-campaign `stabcon serve
//! --preset X` is just this daemon with one job submitted at startup.
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
pub mod merge;
pub mod protocol;
pub mod queue;
pub mod serve;
pub mod shard;
pub mod worker;

pub use chaos::{fault_for, ChaosProxy, ChaosSpec, Fault};
pub use client::{cancel_job, query_status, submit_campaign, JobInfo, QueueStatus, SubmitOutcome};
pub use merge::{merge_stores, MergeOutcome};
pub use protocol::{write_frame, Msg, SpecDescriptor, FABRIC_SCHEMA_V2};
pub use queue::{
    job_store_path, jobs_journal_path, open_journal, JobQueue, JobState, JournalEvent, QueueConfig,
    Rejection, JOBS_SCHEMA,
};
pub use serve::{Ingest, Parked, QueueOutcome, QueueServeConfig, QueueServer, ServeState};
pub use shard::{shard_store_path, ShardSelection};
pub use worker::{request_drain, run_worker_any, WorkerConfig, WorkerOutcome};
