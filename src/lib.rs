//! # stabcon — stabilizing consensus with the power of two choices
//!
//! A full reproduction of *"Stabilizing Consensus with the Power of Two
//! Choices"* (Doerr, Goldberg, Minder, Sauerwald, Scheideler; SPAA 2011):
//! the **median rule** and every substrate needed to measure it — simulation
//! engines, adversaries, a message-passing network model, statistics, and an
//! experiment harness that regenerates the paper's results table.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`core`] (`stabcon-core`) — configurations, protocols (median rule and
//!   baselines), adversaries, and three interchangeable engines;
//! * [`net`] (`stabcon-net`) — the synchronous anonymous message-passing
//!   model with logarithmic inbox caps;
//! * [`exp`] (`stabcon-exp`) — campaign orchestration: declarative grids,
//!   parallel execution, streaming aggregation, a checkpoint/resume JSONL
//!   result store, the presets and report tables behind every paper table
//!   (Figure 1, Theorem 2, the baselines, the drift lemmas, stability and
//!   asynchrony), scaling fits, the `serve`/`work` fabric that spreads a
//!   campaign over hosts, and the `stabcon` CLI (`stabcon campaign
//!   run/resume/report`);
//! * [`util`] (`stabcon-util`) — RNGs, random variates, statistics,
//!   JSON/JSONL, tables;
//! * [`par`] (`stabcon-par`) — the thread-pool / parallel-map executor.
//!
//! ## Quickstart
//!
//! ```
//! use stabcon::prelude::*;
//!
//! // 1024 processes, two initial opinions split 50/50, no adversary.
//! let spec = SimSpec::new(1024)
//!     .init(InitialCondition::TwoBins { left: 512 })
//!     .max_rounds(10_000);
//! let result = spec.run_seeded(42);
//! assert!(result.consensus_round.is_some(), "median rule must converge");
//! ```

pub use stabcon_core as core;
pub use stabcon_exp as exp;
pub use stabcon_net as net;
pub use stabcon_par as par;
pub use stabcon_util as util;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use stabcon_core::prelude::*;
    pub use stabcon_exp::scaling::fit_log_n;
}
