//! Reusable per-worker trial buffers.
//!
//! A campaign runs millions of short trials, and before this module every
//! one of them re-allocated its whole world: the state vector, the scratch
//! vector, the load handle (a per-rank `u32` table, sorted live bins for
//! the mean rule and after the adaptive handoff, and a rank → value map
//! only for a universe that is not `0..m`), the initial value set, the
//! adversary's touched set and draws, the load upkeep's move buffer, the
//! trajectory, the initial loads of a trial that starts aggregated, and —
//! for the message engine — the routing buffers. A
//! [`TrialWorkspace`] owns all of those once per worker for a whole
//! campaign;
//! [`crate::runner::SimSpec::run_seeded_into`] rebuilds them in place each
//! trial, so the steady-state allocation count per dense trial is O(1)
//! (pinned by `tests/alloc_regression.rs`). At n = 2²⁰ all-distinct balls
//! the state, scratch and rank table take 4 MiB each: the initial universe
//! is sorted in `scratch`, so no n-sized copy of it is kept.
//!
//! Reuse is **observationally invisible**: a trial through a dirty, reused
//! workspace produces a bit-identical [`RunResult`] to a fresh one
//! (`tests/workspace_props.rs` pins this across engines × protocols).

use crate::adversary::Draws;
use crate::engine::adaptive::LoadCounts;
use crate::engine::dense::LoadSampler;
use crate::engine::hist;
use crate::engine::{MessageConfig, MessageEngine};
use crate::runner::{RoundObs, RunResult};
use crate::value::{Value, ValueSet};

/// Every buffer one trial needs, owned by a worker across every trial of
/// every cell it runs.
///
/// All fields are rebuilt from scratch at the start of each trial — a
/// workspace carries **capacity**, never state, between trials.
#[derive(Default)]
pub struct TrialWorkspace {
    /// Current ball values.
    pub(crate) state: Vec<Value>,
    /// Engine output buffer, swapped with `state` each round. Before the
    /// first round it holds the sorted, deduplicated initial universe that
    /// `LoadCounts::rebuild` ranks the state by.
    pub(crate) scratch: Vec<Value>,
    /// Per-round observables (only filled when recording was requested).
    pub(crate) trajectory: Vec<RoundObs>,
    /// Load-sampled dense round state: live value table + packed alias,
    /// rebuilt in place each sampled round (no per-round allocation).
    pub(crate) sampler: LoadSampler,
    /// The trial's load handle: rank table and bins, both kept for their
    /// buffers (parked between trials).
    pub(crate) loads: LoadCounts,
    /// Initial value set (parked between trials).
    pub(crate) initial_set: Option<ValueSet>,
    /// The adversary's per-round bitmap of written processes.
    pub(crate) touched: Vec<u64>,
    /// The random adversary's per-round draws without a process view.
    pub(crate) draws: Draws,
    /// The load upkeep's per-block `(old, new)` move buffer
    /// (`LoadCounts::apply_step`), sized once.
    pub(crate) moves: Vec<(Value, Value)>,
    /// Initial `(value, load)` pairs of a trial that starts aggregated.
    pub(crate) initial_loads: Vec<(Value, u64)>,
    /// Histogram-engine per-round buffers (new loads, down-movers).
    pub(crate) hist_scratch: hist::StepScratch,
    /// Cached message engine, keyed by the `(n, config)` it was built for.
    pub(crate) message: Option<MessageEngine>,
}

impl TrialWorkspace {
    /// An empty workspace; the first trial sizes every buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a message engine for `(n, cfg)` re-keyed to `seed`,
    /// reusing the cached one when its shape matches.
    pub(crate) fn checkout_message_engine(
        &mut self,
        n: usize,
        cfg: MessageConfig,
        seed: u64,
    ) -> MessageEngine {
        match self.message.take() {
            Some(mut engine) if engine.n() == n && engine.config() == cfg => {
                engine.reset(seed);
                engine
            }
            _ => MessageEngine::new(n, cfg, seed),
        }
    }

    /// Return a finished [`RunResult`]'s owned buffers to the workspace so
    /// the next trial reuses them. Call after the result has been reduced
    /// (e.g. to campaign metrics); dropping the result instead is always
    /// correct, just slower.
    pub fn recycle(&mut self, result: RunResult) {
        if let Some(mut trajectory) = result.trajectory {
            if trajectory.capacity() > self.trajectory.capacity() {
                trajectory.clear();
                self.trajectory = trajectory;
            }
        }
    }
}
