//! # stabcon-net
//!
//! Synchronous anonymous message-passing network simulator — the
//! communication model of *Stabilizing Consensus with the Power of Two
//! Choices* (§1.1 of the paper):
//!
//! * `n` processes, completely interconnected, **anonymous**: no global ids;
//!   each process holds a private numbering of the others. A fixed
//!   bijection maps a uniform local index to a uniform global id, so the
//!   simulation draws global ids directly and keeps no numbering;
//! * time proceeds in synchronized rounds; per round every process contacts
//!   at most a logarithmic number of other processes and exchanges a
//!   logarithmic amount of information;
//! * a process with **more than a logarithmic number of requests** directed
//!   to it answers only a logarithmic number of them, *possibly selected by
//!   an adversary*, and the rest are dropped ([`policy::DropPolicy`]).
//!
//! The crate is value-agnostic: it moves `(requester, value)` pairs and
//! reports delivery metrics. Protocol logic (what to do with the responses)
//! lives in `stabcon-core`'s message engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymity;
pub mod network;
pub mod policy;
pub mod scenario;

pub use anonymity::FeistelPerm;
pub use network::{log_inbox_cap, run_round, Responses, RoundConfig, RoundMetrics};
pub use policy::{DropPolicy, KeepFirst, RandomDrop, StarveSet};
pub use scenario::{ChurnSpec, NetScenario, PartitionSpec, Rejoin, ScenarioSpec};

/// Process identifier inside one simulated network (dense `0..n`).
pub type ProcessId = u32;
