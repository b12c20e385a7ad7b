//! Batched-kernel bit-identity: the phase-split dense kernel behind
//! [`stabcon_core::engine::dense::step_seq`] (and the load-sampled /
//! partial-participation variants) must produce **exactly** the bits of
//! the scalar reference loops, which draw every ball's samples one at a
//! time from its word sequence, for every protocol sample count, execution
//! mode (seq/par), and population size — block boundaries included.
//!
//! This is the contract that lets the engine batch-generate RNG words,
//! resolve indices, gather, and apply in separate vector-friendly loops
//! without changing the stream any trajectory reads.
//!
//! The message engine draws its targets with the same routine, so at a
//! lossless inbox cap and with no faults it must equal `step_seq` too.

use proptest::prelude::*;
use stabcon_core::engine::dense::{self, LoadSampler, KERNEL_BLOCK};
use stabcon_core::engine::{MessageConfig, MessageEngine};
use stabcon_core::protocol::{KMedianRule, MaxRule, MedianRule, MinRule, Protocol};
use stabcon_core::value::Value;

/// k ∈ {1, 2, 5}: the fixed-size fast paths and the general-k loop.
fn protocol(ix: usize) -> Box<dyn Protocol> {
    match ix {
        0 => Box::new(MinRule),
        1 => Box::new(MedianRule),
        _ => Box::new(KMedianRule::new(5)),
    }
}

/// Populations that straddle the kernel's block boundaries for every
/// sample count: exact multiples, off-by-one on both sides, sub-block,
/// and a generic non-multiple.
fn boundary_n(ix: usize, jitter: usize) -> usize {
    match ix {
        0 => KERNEL_BLOCK - 1,
        1 => KERNEL_BLOCK,
        2 => KERNEL_BLOCK + 1,
        3 => 2 * KERNEL_BLOCK,
        4 => 257, // below one block even at k = 2
        _ => KERNEL_BLOCK + 1 + (jitter % (2 * KERNEL_BLOCK)),
    }
}

fn state(n: usize, support: u32) -> Vec<Value> {
    (0..n as u32).map(|i| (i * 7) % support).collect()
}

fn bins_of(state: &[Value]) -> Vec<(Value, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for &v in state {
        *counts.entry(v).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

fn sampler_for(state: &[Value]) -> LoadSampler {
    let mut sampler = LoadSampler::new();
    sampler.rebuild(bins_of(state), state.len() as u64);
    sampler
}

#[test]
fn lossless_message_engine_equals_step_seq() {
    // Cap n·k: no inbox can overflow, so every request is answered, and
    // the median, min and max rules do not care in which order.
    let protocols: [&dyn Protocol; 3] = [&MedianRule, &MinRule, &MaxRule];
    for n in [1usize, 2, 7, 300, 512, 1000, 1024] {
        let all_distinct = (0..n).map(|i| i as Value).collect();
        let starts = [all_distinct, state(n, 2)];
        for protocol in protocols {
            let k = protocol.samples();
            for (start_ix, start) in starts.iter().enumerate() {
                let seed = 0xD1CE ^ ((n as u64) << 8) ^ start_ix as u64;
                let mut engine =
                    MessageEngine::new(n, MessageConfig::default(), seed).with_inbox_cap(n * k);
                let (mut dense_state, mut message_state) = (start.clone(), start.clone());
                let (mut dense_next, mut message_next) = (vec![0; n], vec![0; n]);
                for round in 0..40u64 {
                    dense::step_seq(&dense_state, &mut dense_next, protocol, seed, round);
                    let m = engine.step(&message_state, &mut message_next, protocol, seed, round);
                    assert_eq!(m.dropped, 0, "the cap must be lossless");
                    assert_eq!(
                        dense_next,
                        message_next,
                        "{} rule, n = {n}, start {start_ix}, round {round}",
                        protocol.name()
                    );
                    std::mem::swap(&mut dense_state, &mut dense_next);
                    std::mem::swap(&mut message_state, &mut message_next);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn uniform_batched_equals_scalar_reference(
        protocol_ix in 0usize..3,
        n_ix in 0usize..6,
        jitter in 0usize..(2 * KERNEL_BLOCK),
        support in 2u32..300,
        seed in any::<u64>(),
        round in 0u64..1000,
    ) {
        let p = protocol(protocol_ix);
        let n = boundary_n(n_ix, jitter);
        let old = state(n, support);
        let mut batched = vec![0; n];
        let mut reference = vec![0; n];
        dense::step_seq(&old, &mut batched, p.as_ref(), seed, round);
        dense::step_seq_reference(&old, &mut reference, p.as_ref(), seed, round);
        prop_assert_eq!(batched, reference, "k = {}, n = {}", p.samples(), n);
    }

    #[test]
    fn uniform_par_equals_scalar_reference(
        protocol_ix in 0usize..3,
        threads in 2usize..9,
        jitter in 0usize..(4 * KERNEL_BLOCK),
        seed in any::<u64>(),
        round in 0u64..1000,
    ) {
        let p = protocol(protocol_ix);
        // Above the 4096 sequential-fallback floor so chunking (and with
        // it nonzero block offsets) actually happens.
        let n = 4096 + jitter;
        let old = state(n, 37);
        let mut batched = vec![0; n];
        let mut reference = vec![0; n];
        dense::step_par(threads, &old, &mut batched, p.as_ref(), seed, round);
        dense::step_seq_reference(&old, &mut reference, p.as_ref(), seed, round);
        prop_assert_eq!(batched, reference, "k = {}, threads = {}", p.samples(), threads);
    }

    #[test]
    fn sampled_batched_equals_scalar_reference(
        protocol_ix in 0usize..3,
        n_ix in 0usize..6,
        jitter in 0usize..(2 * KERNEL_BLOCK),
        support in 2u32..300,
        seed in any::<u64>(),
        round in 0u64..1000,
    ) {
        let p = protocol(protocol_ix);
        let n = boundary_n(n_ix, jitter);
        let old = state(n, support);
        let bins = bins_of(&old);
        let mut batched = vec![0; n];
        let mut reference = vec![0; n];
        let sampler = sampler_for(&old);
        dense::step_seq_sampled(&old, &mut batched, p.as_ref(), seed, round, &sampler);
        dense::step_seq_sampled_reference(&old, &mut reference, p.as_ref(), seed, round, &bins);
        prop_assert_eq!(batched, reference, "k = {}, n = {}", p.samples(), n);
    }

    #[test]
    fn sampled_par_equals_seq(
        protocol_ix in 0usize..3,
        threads in 2usize..9,
        jitter in 0usize..(4 * KERNEL_BLOCK),
        seed in any::<u64>(),
    ) {
        let p = protocol(protocol_ix);
        let n = 4096 + jitter;
        let old = state(n, 19);
        let bins = bins_of(&old);
        let mut par = vec![0; n];
        let mut reference = vec![0; n];
        let sampler = sampler_for(&old);
        dense::step_par_sampled(threads, &old, &mut par, p.as_ref(), seed, 3, &sampler);
        dense::step_seq_sampled_reference(&old, &mut reference, p.as_ref(), seed, 3, &bins);
        prop_assert_eq!(par, reference, "k = {}, threads = {}", p.samples(), threads);
    }

    #[test]
    fn partial_batched_equals_scalar_reference(
        protocol_ix in 0usize..3,
        n_ix in 0usize..6,
        jitter in 0usize..(2 * KERNEL_BLOCK),
        update_prob in 0.0f64..=1.0,
        seed in any::<u64>(),
        round in 0u64..1000,
    ) {
        let p = protocol(protocol_ix);
        let n = boundary_n(n_ix, jitter);
        let old = state(n, 23);
        let mut batched = vec![0; n];
        let mut reference = vec![0; n];
        dense::step_partial(1, &old, &mut batched, p.as_ref(), seed, round, update_prob);
        dense::step_partial_reference(&old, &mut reference, p.as_ref(), seed, round, update_prob);
        prop_assert_eq!(batched, reference, "k = {}, α = {}", p.samples(), update_prob);
    }

    #[test]
    fn partial_par_equals_scalar_reference(
        threads in 2usize..9,
        jitter in 0usize..(4 * KERNEL_BLOCK),
        update_prob in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let n = 4096 + jitter;
        let old = state(n, 23);
        let mut par = vec![0; n];
        let mut reference = vec![0; n];
        dense::step_partial(threads, &old, &mut par, &MedianRule, seed, 2, update_prob);
        dense::step_partial_reference(&old, &mut reference, &MedianRule, seed, 2, update_prob);
        prop_assert_eq!(par, reference, "threads = {}", threads);
    }

    #[test]
    fn dirty_reused_sampler_equals_fresh_build(
        protocol_ix in 0usize..3,
        support_a in 2u32..200,
        support_b in 2u32..200,
        seed in any::<u64>(),
    ) {
        // A sampler dirtied by a rebuild of a *different* shape must, after
        // rebuilding for the target bins, draw exactly like a sampler built
        // fresh for those bins.
        let p = protocol(protocol_ix);
        let n = KERNEL_BLOCK + 513;
        let old = state(n, support_b);
        let bins = bins_of(&old);

        let mut reused = LoadSampler::new();
        let other = state(2 * n, support_a);
        reused.rebuild(bins_of(&other), 2 * n as u64);
        reused.rebuild(bins.iter().copied(), n as u64);

        let fresh = sampler_for(&old);

        let mut via_reused = vec![0; n];
        let mut via_fresh = vec![0; n];
        dense::step_seq_sampled(&old, &mut via_reused, p.as_ref(), seed, 1, &reused);
        dense::step_seq_sampled(&old, &mut via_fresh, p.as_ref(), seed, 1, &fresh);
        prop_assert_eq!(via_reused, via_fresh);
    }
}
