//! Simulation engines: four interchangeable ways to advance one round.
//!
//! | engine | cost/round | population limit | communication model |
//! |--------|-----------|------------------|---------------------|
//! | [`dense`] | `O(n)` (seq or parallel) | memory (`4n` bytes) | idealized sampling |
//! | [`hist`]  | `O(m)` binomial draws | `2^52` balls | idealized sampling |
//! | [`adaptive`] | `O(n)` while `m > max(64, n/40)`, then `O(m)` | `2^52` balls from a start within the handoff, else memory (`4n` bytes) | idealized sampling |
//! | [`message`] | `O(n + messages)` | memory | full request/response with logarithmic inbox caps and drop policies |
//!
//! Dense parallel and dense sequential are **bit-identical** for any thread
//! count: per-ball randomness is the word sequence of the counter stream
//! at `(seed, round·n + ball)`, not a draw order (a median-rule ball takes
//! both samples from the two 32-bit halves of one hashed word). The dense
//! step functions are
//! generic over the protocol, so concrete-rule callers get a monomorphized
//! (statically dispatched) hot loop while `&dyn Protocol` callers keep
//! working — both produce the same bits. Internally the dense round runs a
//! **batched phase-split kernel** ([`dense::KERNEL_BLOCK`]-ball blocks, one
//! tight loop each for RNG-word generation, index resolution, value gather,
//! and protocol apply) that is bit-identical to a scalar per-ball loop
//! ([`dense::step_seq_reference`], pinned by
//! `tests/dense_kernel_props.rs`); the load-sampled variant reuses a
//! [`dense::LoadSampler`] whose alias table rebuilds in place each round.
//!
//! The **adaptive** engine runs dense while many values are live, then hands
//! off to the exact `O(m)`-per-round histogram process once a histogram
//! round costs less than a dense one: at support
//! `m ≤ max(handoff_support, n / BALLS_PER_BIN)`
//! ([`adaptive::handoff_threshold`]). One bin costs about
//! [`adaptive::BALLS_PER_BIN`] = 40 dense balls, and the floor defaults to
//! [`adaptive::DEFAULT_HANDOFF_SUPPORT`] = 64 bins. A start already that
//! narrow is built on the histogram from its loads and never materializes
//! its `n` balls, so `n` may reach 2⁴⁰ and beyond. The handoff is
//! statistically exact for the median rule — the destination law depends
//! only on the loads — and turns every round after it from `O(n)` into
//! `O(m)`: an all-distinct trial at `n = 2²⁰` runs about 11 dense rounds
//! of its 40; it would reach the 64-bin floor only at round 27. The
//! handoff switches the trial's one load handle
//! ([`adaptive::LoadCounts`]) from the rank table to sorted bins in place,
//! and an adversary with a load-level form (balancer, median pusher,
//! random) keeps acting on those bins. The trial stays dense for all rounds
//! (exact, just not faster) when something needs a per-ball view: an
//! adversary that names processes (reviver, stubborn:
//! [`crate::adversary::AdversarySpec::needs_processes`]), an
//! `update_fraction < 1` ablation, or a non-median protocol.

pub mod adaptive;
pub mod dense;
pub mod hist;
pub mod message;

pub use message::{DropSpec, MessageConfig, MessageEngine, OnMissing};
// Scenario types ride inside `MessageConfig`; re-export them so downstream
// crates (campaign grids) can name them without depending on `stabcon-net`.
pub use stabcon_net::{ChurnSpec, PartitionSpec, Rejoin, ScenarioSpec};

/// Engine selector for [`crate::runner::SimSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// Dense sequential engine.
    DenseSeq,
    /// Dense engine with deterministic parallel rounds.
    DensePar {
        /// Worker threads (1 falls back to sequential).
        threads: usize,
    },
    /// Dense (parallel) until the live support shrinks to
    /// `max(handoff_support, n / BALLS_PER_BIN)`
    /// ([`adaptive::handoff_threshold`]), then the exact `O(m)`-per-round
    /// histogram engine.
    ///
    /// Only the median rule hands off (its destination law is load-only);
    /// other protocols, adversaries that name processes (reviver,
    /// stubborn), and `update_fraction < 1` stay dense throughout. A start with at most
    /// that many values runs on the histogram from round 0.
    Adaptive {
        /// Worker threads for the dense phase (1 = sequential). The handoff
        /// round does not depend on it.
        threads: usize,
        /// The floor of the handoff threshold: hand off once the number of
        /// distinct values is ≤ this, or ≤ `n / BALLS_PER_BIN` if larger.
        handoff_support: usize,
    },
    /// Full message-level engine on `stabcon-net`.
    Message(MessageConfig),
}

impl EngineSpec {
    /// Adaptive engine with default threads and handoff floor.
    pub fn adaptive() -> Self {
        EngineSpec::Adaptive {
            threads: stabcon_par::default_threads(),
            handoff_support: adaptive::DEFAULT_HANDOFF_SUPPORT,
        }
    }

    /// Table label.
    pub fn label(&self) -> String {
        match self {
            EngineSpec::DenseSeq => "dense".into(),
            EngineSpec::DensePar { threads } => format!("dense-par({threads})"),
            EngineSpec::Adaptive {
                threads,
                handoff_support,
            } => format!(
                "adaptive({threads},m≤max({handoff_support},n/{}))",
                adaptive::BALLS_PER_BIN
            ),
            EngineSpec::Message(cfg) => {
                // Keep the historical label for clean-network configs; only
                // faulted scenarios grow a suffix.
                if cfg.scenario.is_zero_fault() {
                    format!("message(cap={}x,drop={})", cfg.cap_mult, cfg.drop.label())
                } else {
                    format!(
                        "message(cap={}x,drop={},scen={})",
                        cfg.cap_mult,
                        cfg.drop.label(),
                        cfg.scenario.label()
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let specs = [
            EngineSpec::DenseSeq,
            EngineSpec::DensePar { threads: 4 },
            EngineSpec::adaptive(),
            EngineSpec::Message(MessageConfig::default()),
            // Starve variants must not collapse to one label.
            EngineSpec::Message(MessageConfig {
                drop: DropSpec::StarveFirstK { k: 8 },
                ..MessageConfig::default()
            }),
            EngineSpec::Message(MessageConfig {
                drop: DropSpec::StarveFirstK { k: 64 },
                ..MessageConfig::default()
            }),
            // A faulted scenario must not collapse into the clean label.
            EngineSpec::Message(MessageConfig {
                scenario: ScenarioSpec::clean().with_latency(1, 3),
                ..MessageConfig::default()
            }),
        ];
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len());
    }

    #[test]
    fn adaptive_default_is_sane() {
        let EngineSpec::Adaptive {
            threads,
            handoff_support,
        } = EngineSpec::adaptive()
        else {
            panic!("adaptive() must build an Adaptive spec");
        };
        assert!(threads >= 1);
        assert!(handoff_support >= 2);
    }
}
