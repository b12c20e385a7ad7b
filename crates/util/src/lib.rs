//! # stabcon-util
//!
//! Substrate crate for the `stabcon` reproduction of *"Stabilizing Consensus
//! with the Power of Two Choices"* (Doerr, Goldberg, Minder, Sauerwald,
//! Scheideler; SPAA 2011).
//!
//! Everything in here is infrastructure the paper's simulation study needs
//! but which is not available in the allowed offline dependency set:
//!
//! * [`rng`] — deterministic pseudo-random generators: [`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`], and the stateless, counter-based
//!   [`rng::CounterRng`] used to make parallel simulation bit-reproducible
//!   for any thread count.
//! * [`dist`] — random variates built on raw 64-bit outputs: exact
//!   binomial (inversion + transformed rejection), Vose's alias method
//!   for categorical draws, and log-space combinatorics.
//! * [`stats`] — exact count sketches, quantiles, and least-squares line
//!   fits for the scaling laws in the experiment harness.
//! * [`table`] — plain-text / markdown / CSV table rendering for the
//!   campaign reports.
//! * [`jsonl`] — a minimal JSON writer (with proper string escaping) and a
//!   flat-object parser for the campaign result store and telemetry sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod jsonl;
pub mod rng;
pub mod stats;
pub mod table;

pub use rng::{CounterRng, SplitMix64, Xoshiro256pp};
