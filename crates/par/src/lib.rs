//! # stabcon-par
//!
//! A minimal data-parallel executor for the `stabcon` workspace.
//!
//! The reproduction needs two kinds of parallelism and the offline
//! dependency set does not include `rayon`, so we build both on
//! `std::thread` plus `crossbeam`'s channel and `parking_lot`'s mutex:
//!
//! * **Scoped chunked parallelism** over borrowed data
//!   ([`par_chunks_mut`]): used by the dense engine to update millions of
//!   balls per round. Work is split into more chunks than threads and
//!   handed out through one mutex-guarded chunk iterator, which gives
//!   dynamic load balancing without unsafe code.
//! * **A persistent [`ThreadPool`]**: named workers draining one
//!   channel-fed job queue, which keeps threads warm across the thousands
//!   of small cells of a campaign. The pool does no load balancing of its
//!   own: the campaign executor (`stabcon_exp::cell::CellStream`, behind
//!   `run_campaign` and `run_cell`) submits one long-lived job per worker
//!   for the whole call, and those jobs pull `(cell, chunk)` units off one
//!   shared cursor.
//!
//! Determinism note: simulation results never depend on scheduling — the
//! engines derive randomness from counter-based RNG coordinates, and each
//! chunk writes only its own slice of the output.
//!
//! Thread-count note: [`default_threads`] caps at **16 workers** regardless
//! of `available_parallelism`. The dense engine's round is a
//! gather-then-write over the full state vector, so beyond roughly 16
//! threads the workers saturate memory bandwidth rather than compute —
//! extra threads only add chunk hand-out traffic and make sweep timings
//! noisier. Pass an explicit thread count to `par_chunks_mut` to override
//! the cap where a workload is known to be compute-bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod scope;

pub use pool::ThreadPool;
pub use scope::par_chunks_mut;

/// Number of worker threads to use by default: the available parallelism,
/// capped to 16 (experiment sweeps are memory-bandwidth-bound beyond that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_threads_sane() {
        let t = super::default_threads();
        assert!((1..=16).contains(&t));
    }
}
