//! The dense engine: `O(n)` per round over a flat value vector.
//!
//! Each ball's two (or `k`) samples are drawn from a counter-RNG stream at
//! coordinates `(seed, round·n + ball)`. Consequences:
//!
//! * sequential and parallel execution produce **identical** states;
//! * a round can be recomputed for any single ball (useful in tests);
//! * rejection in the bounded-uniform sampler consumes extra words from the
//!   ball's *own* stream only, so streams never interfere.
//!
//! The step functions are **generic over the protocol** (`P: Protocol +
//! ?Sized`), so calls with a concrete rule (`&MedianRule`) monomorphize to
//! a branch-free inner loop with no virtual dispatch, while existing callers
//! holding a `&dyn Protocol` keep compiling unchanged (and pay dynamic
//! dispatch, exactly as before the refactor).
//!
//! # The batched phase-split kernel
//!
//! Balls are processed in blocks of [`KERNEL_BLOCK`], with one tight loop
//! per pipeline phase instead of one mega-loop of dependent work per ball:
//!
//! 1. **RNG** — batch-generate each ball's counter-stream words (the same
//!    `mix64` folds at the same `(seed, round·n + ball, counter)`
//!    coordinates as the scalar kernel) into a word buffer;
//! 2. **resolve** — turn every word into a sample index: one Lemire
//!    multiply-shift per word for the uniform path
//!    ([`stabcon_util::rng::lemire_candidate`]), one packed-alias lookup
//!    per word for the load-sampled path;
//! 3. **gather** — read the sampled values through the index buffer (a
//!    pure load loop, so the out-of-order core keeps many cache misses in
//!    flight instead of serializing them behind hash and combine work);
//! 4. **apply** — run the monomorphized protocol over own value + gathered
//!    samples and write the output chunk.
//!
//! The kernel is **bit-identical** to the scalar reference (kept below as
//! [`step_seq_reference`] and friends, pinned by
//! `tests/dense_kernel_props.rs`): phase 1 reproduces the exact word
//! stream, and the one place where batching could diverge — Lemire
//! rejection, which makes a ball consume extra words from its own stream —
//! is detected conservatively (`low < n` proves a word *cannot* reject)
//! and handled by replaying the affected ball through scalar `gen_index`.
//! For any state that fits in memory (`n ≤ 2³²`) a candidate word rejects
//! with probability `< 2⁻³²`, so the fallback is essentially never taken
//! but keeps the stream contract exact.
//!
//! The phase buffers are fixed-size stack arrays (~44 KiB): every caller —
//! the sequential runner path and each `par_chunks_mut` worker alike —
//! gets private buffers with zero plumbing, they cost one memset per
//! `update_range` call (once per round sequentially, once per ≥ 15 k-ball
//! chunk in parallel), and they are L1/L2-resident throughout the block.
//! The load-sampled path's *alias table* is the piece worth parking across
//! rounds: a [`LoadSampler`] rebuilds its [`PackedAlias`] in place each
//! round (bit-identical to a fresh build) and lives in
//! [`crate::workspace::TrialWorkspace`], so load-sampled rounds at
//! `n ≥ 2¹⁸` allocate nothing at steady state.

use stabcon_obs as obs;
use stabcon_util::dist::{AliasScratch, PackedAlias};
use stabcon_util::rng::{
    gen_f64, gen_index, lemire_candidate, unit_f64_from_word, CounterKey, CounterStream,
};

use crate::protocol::{Protocol, MAX_SAMPLES};
use crate::value::Value;

/// Balls per block of the phase-split kernel at `k = 2` (the word buffer
/// holds `2 · KERNEL_BLOCK` words; `k = 1` doubles the balls per block,
/// `k > 2` shrinks them). 1024 balls keep all three phase buffers inside
/// L1/L2 while amortizing per-block loop overhead, and match the parallel
/// splitter's minimum chunk so a parallel worker never sees a partial
/// block it didn't have to.
pub const KERNEL_BLOCK: usize = 1024;

/// Capacity of the per-phase buffers, in words / indices / values.
const WORD_CAP: usize = 2 * KERNEL_BLOCK;

/// The kernel's per-block phase buffers — stack-allocated by each
/// `update_range*` call (sequential callers construct one per round,
/// parallel workers one per chunk; see the module docs for why this beats
/// threading heap buffers through every engine entry point).
struct BlockBufs {
    /// Phase-1 output: raw counter-stream words, `k` (or `k + 1`) per ball.
    words: [u64; WORD_CAP],
    /// Phase-2 output: resolved sample indices, one per word.
    idx: [u64; WORD_CAP],
    /// Phase-3 output: gathered sample values, one per word.
    vals: [Value; WORD_CAP],
    /// Partial-round compaction: block-local positions of the balls that
    /// participate this round.
    active: [u32; KERNEL_BLOCK],
}

impl BlockBufs {
    #[inline]
    fn new() -> Self {
        Self {
            words: [0; WORD_CAP],
            idx: [0; WORD_CAP],
            vals: [0; WORD_CAP],
            active: [0; KERNEL_BLOCK],
        }
    }
}

/// Advance one synchronous round sequentially: reads `old`, writes `new`.
///
/// # Panics
/// Panics if `old.len() != new.len()` or the protocol requests more than
/// [`MAX_SAMPLES`] samples.
pub fn step_seq<P: Protocol + ?Sized>(
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
) {
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    update_range(old, new, 0, protocol, seed, round);
}

/// Advance one synchronous round with `threads` workers. Bit-identical to
/// [`step_seq`].
pub fn step_par<P: Protocol + ?Sized>(
    threads: usize,
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
) {
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    if threads <= 1 || old.len() < 4096 {
        update_range(old, new, 0, protocol, seed, round);
        return;
    }
    stabcon_par::par_chunks_mut(threads, new, KERNEL_BLOCK, |offset, chunk| {
        update_range(old, chunk, offset, protocol, seed, round);
    });
}

/// Phase 1: the stream words of `len` balls, `k` consecutive counters
/// each, through an arbitrary word accessor — [`CounterStream::word`] for
/// the uniform path (exactly what the scalar kernel's sequential RNG
/// would produce absent rejection) or [`CounterStream::word_fast`] for
/// the load-sampled path. `word_at` monomorphizes per call site, so both
/// paths keep their fixed-`k` fast loops from one copy of the blocking
/// logic.
#[inline]
fn fill_stream_words(
    key: CounterKey,
    base: u64,
    len: usize,
    k: usize,
    words: &mut [u64],
    word_at: impl Fn(CounterStream, u64) -> u64,
) {
    match k {
        1 => {
            for (j, w) in words.iter_mut().enumerate() {
                *w = word_at(key.stream(base.wrapping_add(j as u64)), 0);
            }
        }
        2 => {
            for j in 0..len {
                let s = key.stream(base.wrapping_add(j as u64));
                words[2 * j] = word_at(s, 0);
                words[2 * j + 1] = word_at(s, 1);
            }
        }
        _ => {
            for j in 0..len {
                let s = key.stream(base.wrapping_add(j as u64));
                for (c, w) in words[k * j..k * j + k].iter_mut().enumerate() {
                    *w = word_at(s, c as u64);
                }
            }
        }
    }
}

/// Phase 2 (uniform path): resolve `k·len` words to indices in `[0, n)`.
///
/// The fast loop takes every word's Lemire candidate and records whether
/// any word *might* be in the rejection zone (`low < n` is a conservative
/// superset of `low < 2⁶⁴ mod n`). If so, the affected balls are replayed
/// through scalar [`gen_index`] from their stream's counter 0 — including
/// the extra words a rejection consumes — which is bit-identical to the
/// scalar kernel by construction.
#[inline]
fn resolve_uniform(
    key: CounterKey,
    base: u64,
    len: usize,
    k: usize,
    n: u64,
    words: &[u64],
    idx: &mut [u64],
) {
    let mut maybe_reject = false;
    for (w, d) in words.iter().zip(idx.iter_mut()) {
        let (hi, low) = lemire_candidate(*w, n);
        *d = hi;
        maybe_reject |= low < n;
    }
    if maybe_reject {
        for j in 0..len {
            if (0..k).any(|c| lemire_candidate(words[k * j + c], n).1 < n) {
                let mut rng = key.stream(base.wrapping_add(j as u64)).rng();
                for d in idx[k * j..k * j + k].iter_mut() {
                    *d = gen_index(&mut rng, n);
                }
            }
        }
    }
}

/// Phase 4: combine own values with the gathered samples (`k` per ball).
#[inline]
fn apply_block<P: Protocol + ?Sized>(
    protocol: &P,
    k: usize,
    own: &[Value],
    out: &mut [Value],
    vals: &[Value],
) {
    match k {
        1 => {
            for (j, (slot, &o)) in out.iter_mut().zip(own).enumerate() {
                *slot = protocol.combine(o, &[vals[j]]);
            }
        }
        2 => {
            for (j, (slot, &o)) in out.iter_mut().zip(own).enumerate() {
                *slot = protocol.combine(o, &[vals[2 * j], vals[2 * j + 1]]);
            }
        }
        _ => {
            for (j, (slot, &o)) in out.iter_mut().zip(own).enumerate() {
                *slot = protocol.combine(o, &vals[k * j..k * j + k]);
            }
        }
    }
}

/// Compute the new values for balls `offset..offset + chunk.len()` with
/// the batched phase-split kernel (see the module docs).
fn update_range<P: Protocol + ?Sized>(
    old: &[Value],
    chunk: &mut [Value],
    offset: usize,
    protocol: &P,
    seed: u64,
    round: u64,
) {
    let n = old.len() as u64;
    let k = protocol.samples();
    assert!(k <= MAX_SAMPLES, "protocol requests too many samples");
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n).wrapping_add(offset as u64);
    let block = WORD_CAP / k.max(1);
    let mut bufs = BlockBufs::new();
    let mut start = 0usize;
    while start < chunk.len() {
        let len = block.min(chunk.len() - start);
        let count = k * len;
        let base = stream_base.wrapping_add(start as u64);
        let t = obs::phase(obs::Phase::Rng);
        fill_stream_words(
            key,
            base,
            len,
            k,
            &mut bufs.words[..count],
            CounterStream::word,
        );
        drop(t);
        let t = obs::phase(obs::Phase::Index);
        resolve_uniform(
            key,
            base,
            len,
            k,
            n,
            &bufs.words[..count],
            &mut bufs.idx[..count],
        );
        drop(t);
        let t = obs::phase(obs::Phase::Gather);
        for (d, v) in bufs.idx[..count].iter().zip(bufs.vals[..count].iter_mut()) {
            *v = old[*d as usize];
        }
        drop(t);
        let t = obs::phase(obs::Phase::Apply);
        apply_block(
            protocol,
            k,
            &old[offset + start..offset + start + len],
            &mut chunk[start..start + len],
            &bufs.vals[..count],
        );
        drop(t);
        start += len;
    }
}

/// Support-size limit for the load-sampled dense round: above this many
/// live values the alias tables stop being cache-resident and the plain
/// per-ball indexing path wins again.
pub const SAMPLED_SUPPORT_MAX: usize = 1024;

/// Population floor for the load-sampled dense round: below this the state
/// array itself is cache-resident, random indexing into it is cheap, and
/// the alias lookup is pure overhead.
pub const SAMPLED_N_MIN: usize = 1 << 18;

/// Reusable state of the load-sampled dense round: the live value table
/// and the [`PackedAlias`] over their loads, rebuilt **in place** each
/// round (via [`PackedAlias::rebuild_from`], bit-identical to a fresh
/// build) so that per-round sampled steps allocate nothing at steady
/// state. One sampler lives in each
/// [`crate::workspace::TrialWorkspace`].
#[derive(Debug, Clone, Default)]
pub struct LoadSampler {
    /// Live values, ascending (alias category `i` maps to `values[i]`).
    values: Vec<Value>,
    /// Their loads as weights for the alias build.
    loads: Vec<f64>,
    /// Packed single-word alias table over `loads`.
    alias: PackedAlias,
    /// Vose build worklists, reused across rebuilds.
    scratch: AliasScratch,
    /// Population the sampler was last rebuilt for.
    n: u64,
}

impl LoadSampler {
    /// An empty sampler; unusable until the first [`LoadSampler::rebuild`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild from value-ascending `(value, load)` bins covering a
    /// population of `n` balls. Allocation-free once the buffers have seen
    /// a support this large.
    ///
    /// # Panics
    /// Panics if `bins` is empty or not value-sorted, or loads don't sum
    /// to `n`.
    pub fn rebuild<I>(&mut self, bins: I, n: u64)
    where
        I: IntoIterator<Item = (Value, u64)>,
    {
        self.values.clear();
        self.loads.clear();
        let mut acc = 0u64;
        let mut prev: Option<Value> = None;
        for (v, c) in bins {
            assert!(prev.is_none_or(|p| p < v), "bins must be value-sorted");
            prev = Some(v);
            acc += c;
            self.values.push(v);
            self.loads.push(c as f64);
        }
        assert_eq!(acc, n, "loads must cover the population");
        self.alias.rebuild_from(&self.loads, &mut self.scratch);
        self.n = n;
    }

    /// Number of live values the sampler draws from.
    pub fn support(&self) -> usize {
        self.values.len()
    }
}

/// [`step_seq`] with peer samples drawn from the load distribution of a
/// caller-owned, reused [`LoadSampler`]: a packed single-word alias method
/// (one random word and one L1 read per draw) instead of reading the
/// 4·n-byte state array at a random index.
///
/// **Equal in law** to [`step_seq`] up to the sampler's `2⁻³²` quantization
/// (see [`PackedAlias`]) — a uniformly chosen ball holds value `v` with
/// probability `load_v / n` either way — but the two random DRAM reads per
/// ball become L1 reads once `m` is small, and each draw costs one
/// SplitMix64 word instead of a double-mixed one. Trajectories for a fixed
/// seed differ from [`step_seq`] (different stream family), which is why
/// the runner switches paths for whole rounds only, keeping seq/par
/// bit-identity and determinism intact.
pub fn step_seq_sampled<P: Protocol + ?Sized>(
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
    sampler: &LoadSampler,
) {
    step_par_sampled(1, old, new, protocol, seed, round, sampler);
}

/// Parallel variant of [`step_seq_sampled`]; bit-identical to it.
///
/// # Panics
/// Panics if buffer lengths differ or the sampler was rebuilt for a
/// different population size.
#[allow(clippy::too_many_arguments)]
pub fn step_par_sampled<P: Protocol + ?Sized>(
    threads: usize,
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
    sampler: &LoadSampler,
) {
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    assert_eq!(
        sampler.n,
        old.len() as u64,
        "sampler was rebuilt for a different population"
    );
    if threads <= 1 || old.len() < 4096 {
        update_range_sampled(old, new, 0, protocol, seed, round, sampler);
        return;
    }
    stabcon_par::par_chunks_mut(threads, new, KERNEL_BLOCK, |offset, chunk| {
        update_range_sampled(old, chunk, offset, protocol, seed, round, sampler);
    });
}

/// The batched phase-split kernel over the load distribution: same block
/// structure as `update_range`, with the resolve phase replaced by one
/// packed-alias lookup per word and the gather reading the (L1-resident)
/// live value table instead of the state array.
#[allow(clippy::too_many_arguments)]
fn update_range_sampled<P: Protocol + ?Sized>(
    old: &[Value],
    chunk: &mut [Value],
    offset: usize,
    protocol: &P,
    seed: u64,
    round: u64,
    sampler: &LoadSampler,
) {
    let n = old.len() as u64;
    let k = protocol.samples();
    assert!(k <= MAX_SAMPLES, "protocol requests too many samples");
    let (values, alias) = (&sampler.values[..], &sampler.alias);
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n).wrapping_add(offset as u64);
    let block = WORD_CAP / k.max(1);
    let mut bufs = BlockBufs::new();
    let mut start = 0usize;
    while start < chunk.len() {
        let len = block.min(chunk.len() - start);
        let count = k * len;
        let base = stream_base.wrapping_add(start as u64);
        let t = obs::phase(obs::Phase::Rng);
        fill_stream_words(
            key,
            base,
            len,
            k,
            &mut bufs.words[..count],
            CounterStream::word_fast,
        );
        drop(t);
        let t = obs::phase(obs::Phase::Index);
        for (w, d) in bufs.words[..count].iter().zip(bufs.idx[..count].iter_mut()) {
            *d = alias.sample_word(*w) as u64;
        }
        drop(t);
        let t = obs::phase(obs::Phase::Gather);
        for (d, v) in bufs.idx[..count].iter().zip(bufs.vals[..count].iter_mut()) {
            *v = values[*d as usize];
        }
        drop(t);
        let t = obs::phase(obs::Phase::Apply);
        apply_block(
            protocol,
            k,
            &old[offset + start..offset + start + len],
            &mut chunk[start..start + len],
            &bufs.vals[..count],
        );
        drop(t);
        start += len;
    }
}

/// Advance one *partially synchronous* round: each ball updates
/// independently with probability `update_prob`, otherwise keeps its value
/// (the α-asynchrony ablation — the paper assumes fully synchronized rounds;
/// this knob checks the dynamics survive partial participation).
///
/// The participation coin is the first word of each ball's counter stream,
/// so sequential/parallel determinism is preserved.
///
/// # Panics
/// Panics if `update_prob ∉ [0, 1]` or buffer lengths differ.
pub fn step_partial<P: Protocol + ?Sized>(
    threads: usize,
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
    update_prob: f64,
) {
    assert!(
        (0.0..=1.0).contains(&update_prob),
        "update_prob = {update_prob}"
    );
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    if update_prob >= 1.0 {
        step_par(threads, old, new, protocol, seed, round);
        return;
    }
    let body = |offset: usize, chunk: &mut [Value]| {
        update_range_partial(old, chunk, offset, protocol, seed, round, update_prob);
    };
    if threads <= 1 || old.len() < 4096 {
        body(0, new);
    } else {
        stabcon_par::par_chunks_mut(threads, new, KERNEL_BLOCK, body);
    }
}

/// The batched phase-split kernel with a participation coin: coin words
/// (counter 0 of each ball's stream, exactly like the scalar RNG order)
/// are generated for the whole block, participating balls are compacted
/// into a dense worklist, and only those balls pay for sample words
/// (counters `1..=k`) and the resolve/gather/apply phases — at small
/// `update_prob` the dominant RNG phase shrinks with participation
/// instead of hashing `k` unused words per frozen ball.
#[allow(clippy::too_many_arguments)]
fn update_range_partial<P: Protocol + ?Sized>(
    old: &[Value],
    chunk: &mut [Value],
    offset: usize,
    protocol: &P,
    seed: u64,
    round: u64,
    update_prob: f64,
) {
    let n = old.len() as u64;
    let k = protocol.samples();
    assert!(k <= MAX_SAMPLES, "protocol requests too many samples");
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n).wrapping_add(offset as u64);
    // Coin words occupy `words[..len]`; the active balls' sample words are
    // compacted behind them at `words[len + k·a..]`.
    let block = (WORD_CAP / (k + 1)).min(KERNEL_BLOCK);
    let mut bufs = BlockBufs::new();
    let mut start = 0usize;
    while start < chunk.len() {
        let len = block.min(chunk.len() - start);
        let base = stream_base.wrapping_add(start as u64);
        // Phase 1a: one coin word per ball.
        let t = obs::phase(obs::Phase::Coin);
        for (j, w) in bufs.words[..len].iter_mut().enumerate() {
            *w = key.stream(base.wrapping_add(j as u64)).word(0);
        }
        // Phase 2a: participation coins; non-participants keep their value,
        // participants are compacted into the active worklist.
        let mut n_active = 0usize;
        for j in 0..len {
            if unit_f64_from_word(bufs.words[j]) >= update_prob {
                chunk[start + j] = old[offset + start + j];
            } else {
                bufs.active[n_active] = j as u32;
                n_active += 1;
            }
        }
        drop(t);
        // Phase 1b: sample words (counters 1..=k, after the coin) for the
        // active balls only, compacted.
        let t = obs::phase(obs::Phase::Rng);
        for a in 0..n_active {
            let j = bufs.active[a] as usize;
            let s = key.stream(base.wrapping_add(j as u64));
            for (c, w) in bufs.words[len + k * a..len + k * a + k]
                .iter_mut()
                .enumerate()
            {
                *w = s.word(1 + c as u64);
            }
        }
        drop(t);
        // Phase 2b: resolve sample indices for the active balls.
        let t = obs::phase(obs::Phase::Index);
        let mut maybe_reject = false;
        for (w, d) in bufs.words[len..len + k * n_active]
            .iter()
            .zip(bufs.idx[..k * n_active].iter_mut())
        {
            let (hi, low) = lemire_candidate(*w, n);
            *d = hi;
            maybe_reject |= low < n;
        }
        if maybe_reject {
            for a in 0..n_active {
                let j = bufs.active[a] as usize;
                if (0..k).any(|c| lemire_candidate(bufs.words[len + k * a + c], n).1 < n) {
                    let mut rng = key.stream(base.wrapping_add(j as u64)).rng();
                    // The participation coin consumed the stream's first
                    // word; replay it before the sample draws.
                    let _ = gen_f64(&mut rng);
                    for d in bufs.idx[k * a..k * a + k].iter_mut() {
                        *d = gen_index(&mut rng, n);
                    }
                }
            }
        }
        drop(t);
        // Phase 3: gather.
        let t = obs::phase(obs::Phase::Gather);
        for (d, v) in bufs.idx[..k * n_active]
            .iter()
            .zip(bufs.vals[..k * n_active].iter_mut())
        {
            *v = old[*d as usize];
        }
        drop(t);
        // Phase 4: apply to the active balls.
        let t = obs::phase(obs::Phase::Apply);
        for a in 0..n_active {
            let j = bufs.active[a] as usize;
            let own = old[offset + start + j];
            chunk[start + j] = protocol.combine(own, &bufs.vals[k * a..k * a + k]);
        }
        drop(t);
        start += len;
    }
}

/// Recompute the post-round value of a single ball (test/debug helper).
pub fn replay_ball<P: Protocol + ?Sized>(
    old: &[Value],
    ball: usize,
    protocol: &P,
    seed: u64,
    round: u64,
) -> Value {
    let n = old.len() as u64;
    let k = protocol.samples();
    let mut rng = CounterKey::new(seed)
        .stream(round.wrapping_mul(n).wrapping_add(ball as u64))
        .rng();
    let mut samples = [0 as Value; MAX_SAMPLES];
    for sample in samples.iter_mut().take(k) {
        *sample = old[gen_index(&mut rng, n) as usize];
    }
    protocol.combine(old[ball], &samples[..k])
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------
//
// The pre-batching mega-loops, kept verbatim as the bit-identity oracles
// for `tests/dense_kernel_props.rs`. The batched kernel above must produce
// exactly these bits for every protocol, seed, round, and population size.

/// Scalar reference for [`step_seq`]: one interleaved
/// RNG/sample/gather/apply iteration per ball.
pub fn step_seq_reference<P: Protocol + ?Sized>(
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
) {
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    let n = old.len() as u64;
    let k = protocol.samples();
    assert!(k <= MAX_SAMPLES, "protocol requests too many samples");
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n);
    let mut samples = [0 as Value; MAX_SAMPLES];
    for (j, (slot, &own)) in new.iter_mut().zip(old).enumerate() {
        let mut rng = key.stream(stream_base.wrapping_add(j as u64)).rng();
        for sample in samples.iter_mut().take(k) {
            *sample = old[gen_index(&mut rng, n) as usize];
        }
        *slot = protocol.combine(own, &samples[..k]);
    }
}

/// Scalar reference for [`step_seq_sampled`]: per-ball alias draws via
/// `word_fast`, with the alias table built fresh (exactly the pre-reuse
/// per-round cost).
pub fn step_seq_sampled_reference<P: Protocol + ?Sized>(
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
    bins: &[(Value, u64)],
) {
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    let n = old.len() as u64;
    let k = protocol.samples();
    assert!(k <= MAX_SAMPLES, "protocol requests too many samples");
    let values: Vec<Value> = bins.iter().map(|&(v, _)| v).collect();
    let loads: Vec<f64> = bins.iter().map(|&(_, c)| c as f64).collect();
    let alias = PackedAlias::new(&loads);
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n);
    let mut samples = [0 as Value; MAX_SAMPLES];
    for (j, (slot, &own)) in new.iter_mut().zip(old).enumerate() {
        let stream = key.stream(stream_base.wrapping_add(j as u64));
        for (c, sample) in samples.iter_mut().take(k).enumerate() {
            *sample = values[alias.sample_word(stream.word_fast(c as u64))];
        }
        *slot = protocol.combine(own, &samples[..k]);
    }
}

/// Scalar reference for [`step_partial`] (sequential).
pub fn step_partial_reference<P: Protocol + ?Sized>(
    old: &[Value],
    new: &mut [Value],
    protocol: &P,
    seed: u64,
    round: u64,
    update_prob: f64,
) {
    assert!(
        (0.0..=1.0).contains(&update_prob),
        "update_prob = {update_prob}"
    );
    assert_eq!(old.len(), new.len(), "state buffers differ in length");
    if update_prob >= 1.0 {
        step_seq_reference(old, new, protocol, seed, round);
        return;
    }
    let n = old.len() as u64;
    let k = protocol.samples();
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n);
    let mut samples = [0 as Value; MAX_SAMPLES];
    for (j, (slot, &own)) in new.iter_mut().zip(old).enumerate() {
        let mut rng = key.stream(stream_base.wrapping_add(j as u64)).rng();
        if gen_f64(&mut rng) >= update_prob {
            *slot = own;
            continue;
        }
        for sample in samples.iter_mut().take(k) {
            *sample = old[gen_index(&mut rng, n) as usize];
        }
        *slot = protocol.combine(own, &samples[..k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{KMedianRule, MedianRule, MinRule, VoterRule};

    fn all_distinct(n: usize) -> Vec<Value> {
        (0..n as u32).collect()
    }

    #[test]
    fn seq_equals_par_exactly() {
        let old = all_distinct(10_000);
        let mut seq = vec![0; old.len()];
        step_seq(&old, &mut seq, &MedianRule, 42, 3);
        for threads in [2, 4, 8] {
            let mut par = vec![0; old.len()];
            step_par(threads, &old, &mut par, &MedianRule, 42, 3);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn mono_equals_dyn() {
        // Static and dynamic dispatch must draw identical streams.
        let old = all_distinct(5000);
        for (rule, label) in [
            (&MedianRule as &dyn Protocol, "median"),
            (&MinRule as &dyn Protocol, "min"),
            (&KMedianRule::new(4) as &dyn Protocol, "k-median-4"),
        ] {
            let mut dynamic = vec![0; old.len()];
            step_seq(&old, &mut dynamic, rule, 11, 2);
            let mut mono = vec![0; old.len()];
            match label {
                "median" => step_seq(&old, &mut mono, &MedianRule, 11, 2),
                "min" => step_seq(&old, &mut mono, &MinRule, 11, 2),
                _ => step_seq(&old, &mut mono, &KMedianRule::new(4), 11, 2),
            }
            assert_eq!(mono, dynamic, "rule = {label}");
        }
    }

    #[test]
    fn batched_equals_reference_at_block_boundaries() {
        // The full proptest sweep lives in tests/dense_kernel_props.rs;
        // this pins the exact block-edge populations deterministically.
        for n in [
            KERNEL_BLOCK - 1,
            KERNEL_BLOCK,
            KERNEL_BLOCK + 1,
            2 * KERNEL_BLOCK + 313,
        ] {
            let old: Vec<Value> = (0..n as u32).map(|i| i % 37).collect();
            let mut batched = vec![0; n];
            let mut reference = vec![0; n];
            step_seq(&old, &mut batched, &MedianRule, 99, 5);
            step_seq_reference(&old, &mut reference, &MedianRule, 99, 5);
            assert_eq!(batched, reference, "n = {n}");
        }
    }

    #[test]
    fn rejection_fallback_matches_scalar_gen_index() {
        // For any allocatable state a Lemire candidate essentially never
        // rejects, so force the fallback by resolving against a huge
        // virtual population: n just above 2⁶³ puts ~half of all words in
        // the conservative `low < n` zone and makes real rejections (and
        // multi-word draws) common. The resolved indices must equal a
        // scalar replay of each ball's stream, word for word.
        let n = (1u64 << 63) + 12_345_678_901;
        let key = CounterKey::new(0xFEED);
        let base = 7_000_000u64;
        let (len, k) = (257usize, 2usize);
        let mut bufs = BlockBufs::new();
        fill_stream_words(
            key,
            base,
            len,
            k,
            &mut bufs.words[..k * len],
            CounterStream::word,
        );
        resolve_uniform(
            key,
            base,
            len,
            k,
            n,
            &bufs.words[..k * len],
            &mut bufs.idx[..k * len],
        );
        let mut fallbacks = 0usize;
        for j in 0..len {
            let mut rng = key.stream(base.wrapping_add(j as u64)).rng();
            for c in 0..k {
                assert_eq!(
                    bufs.idx[k * j + c],
                    gen_index(&mut rng, n),
                    "ball {j} draw {c}"
                );
            }
            if (0..k).any(|c| lemire_candidate(bufs.words[k * j + c], n).1 < n) {
                fallbacks += 1;
            }
        }
        assert!(
            fallbacks > len / 4,
            "test must actually exercise the fallback ({fallbacks} balls)"
        );
    }

    /// `old`'s live bins, value-ascending.
    fn bins_of(old: &[Value]) -> Vec<(Value, u64)> {
        crate::histogram::Histogram::from_config(&crate::config::Config::new(old.to_vec()))
            .bins()
            .to_vec()
    }

    /// A fresh sampler over `old`'s live bins.
    fn sampler_for(old: &[Value]) -> LoadSampler {
        let mut sampler = LoadSampler::new();
        sampler.rebuild(bins_of(old), old.len() as u64);
        sampler
    }

    #[test]
    fn sampled_seq_equals_par() {
        let old: Vec<Value> = (0..20_000u32).map(|i| (i % 7) * 3).collect();
        let sampler = sampler_for(&old);
        let mut seq = vec![0; old.len()];
        step_seq_sampled(&old, &mut seq, &MedianRule, 5, 2, &sampler);
        for threads in [2, 4, 8] {
            let mut par = vec![0; old.len()];
            step_par_sampled(threads, &old, &mut par, &MedianRule, 5, 2, &sampler);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn reused_sampler_equals_fresh_sampler() {
        let old: Vec<Value> = (0..8192u32).map(|i| i % 5).collect();
        let mut fresh = vec![0; old.len()];
        step_seq_sampled(&old, &mut fresh, &MedianRule, 5, 2, &sampler_for(&old));
        // Dirty the sampler with an unrelated distribution first.
        let mut sampler = LoadSampler::new();
        sampler.rebuild((0..300u32).map(|v| (v, 1)), 300);
        sampler.rebuild(bins_of(&old), old.len() as u64);
        assert_eq!(sampler.support(), 5);
        let mut reused = vec![0; old.len()];
        step_seq_sampled(&old, &mut reused, &MedianRule, 5, 2, &sampler);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn sampled_matches_plain_step_in_law() {
        // Same seed gives different trajectories, but one round from a fixed
        // state must produce statistically identical load vectors. Compare
        // the mean load of bin 0 across many seeds.
        let n = 4096usize;
        let old: Vec<Value> = (0..n as u32)
            .map(|i| if i < 1024 { 0 } else { 1 })
            .collect();
        let mut sampler = LoadSampler::new();
        sampler.rebuild([(0u32, 1024u64), (1, n as u64 - 1024)], n as u64);
        let mut plain_sum = 0u64;
        let mut sampled_sum = 0u64;
        let trials = 200;
        for seed in 0..trials {
            let mut new = vec![0; n];
            step_seq(&old, &mut new, &MedianRule, seed, 0);
            plain_sum += new.iter().filter(|&&v| v == 0).count() as u64;
            step_seq_sampled(&old, &mut new, &MedianRule, seed, 0, &sampler);
            sampled_sum += new.iter().filter(|&&v| v == 0).count() as u64;
        }
        let plain_mean = plain_sum as f64 / trials as f64;
        let sampled_mean = sampled_sum as f64 / trials as f64;
        // Both estimate the same expectation; allow 5σ of the trial noise
        // (σ per trial ≲ √n/2, so σ of the mean ≲ 32/√200 · 2).
        assert!(
            (plain_mean - sampled_mean).abs() < 5.0 * 2.0 * 32.0 / (trials as f64).sqrt(),
            "plain {plain_mean} vs sampled {sampled_mean}"
        );
    }

    #[test]
    #[should_panic]
    fn rebuild_rejects_wrong_total() {
        LoadSampler::new().rebuild([(0u32, 99u64)], 100);
    }

    #[test]
    fn replay_matches_step() {
        let old = all_distinct(500);
        let mut new = vec![0; old.len()];
        step_seq(&old, &mut new, &MedianRule, 7, 11);
        for ball in [0usize, 1, 250, 499] {
            assert_eq!(replay_ball(&old, ball, &MedianRule, 7, 11), new[ball]);
        }
    }

    #[test]
    fn different_rounds_differ() {
        let old = all_distinct(1000);
        let mut a = vec![0; old.len()];
        let mut b = vec![0; old.len()];
        step_seq(&old, &mut a, &MedianRule, 5, 0);
        step_seq(&old, &mut b, &MedianRule, 5, 1);
        assert_ne!(a, b, "round index must enter the randomness");
    }

    #[test]
    fn different_seeds_differ() {
        let old = all_distinct(1000);
        let mut a = vec![0; old.len()];
        let mut b = vec![0; old.len()];
        step_seq(&old, &mut a, &MedianRule, 5, 0);
        step_seq(&old, &mut b, &MedianRule, 6, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn consensus_is_absorbing_for_median() {
        let old = vec![17 as Value; 2000];
        let mut new = vec![0; old.len()];
        step_seq(&old, &mut new, &MedianRule, 1, 0);
        assert_eq!(old, new, "median of identical values must not move");
    }

    #[test]
    fn min_rule_monotone_nonincreasing() {
        let old = all_distinct(2000);
        let mut new = vec![0; old.len()];
        step_seq(&old, &mut new, &MinRule, 3, 0);
        for (o, n) in old.iter().zip(&new) {
            assert!(n <= o, "min rule may never increase a value");
        }
    }

    #[test]
    fn voter_output_subset_of_input() {
        let old: Vec<Value> = (0..997u32).map(|i| i % 13).collect();
        let mut new = vec![0; old.len()];
        step_seq(&old, &mut new, &VoterRule, 9, 2);
        for v in &new {
            assert!(*v < 13);
        }
    }

    #[test]
    fn median_validity_over_many_rounds() {
        // The median rule may only ever hold initial values.
        let mut state: Vec<Value> = (0..512u32).map(|i| (i % 7) * 100).collect();
        let allowed: std::collections::HashSet<Value> = state.iter().copied().collect();
        let mut scratch = vec![0; state.len()];
        for round in 0..50 {
            step_seq(&state, &mut scratch, &MedianRule, 123, round);
            std::mem::swap(&mut state, &mut scratch);
            for v in &state {
                assert!(allowed.contains(v), "median invented value {v}");
            }
        }
    }

    #[test]
    fn partial_update_prob_one_equals_full_step() {
        let old = all_distinct(5000);
        let mut full = vec![0; old.len()];
        let mut partial = vec![0; old.len()];
        step_seq(&old, &mut full, &MedianRule, 8, 4);
        step_partial(1, &old, &mut partial, &MedianRule, 8, 4, 1.0);
        assert_eq!(full, partial);
    }

    #[test]
    fn partial_update_prob_zero_freezes() {
        let old = all_distinct(1000);
        let mut new = vec![0; old.len()];
        step_partial(1, &old, &mut new, &MedianRule, 8, 0, 0.0);
        assert_eq!(old, new);
    }

    #[test]
    fn partial_update_fraction_roughly_alpha() {
        // With all-distinct values, an updating ball almost surely changes
        // value; count changed balls ≈ α·n.
        let n = 20_000usize;
        let old = all_distinct(n);
        let mut new = vec![0; n];
        step_partial(1, &old, &mut new, &MedianRule, 77, 0, 0.3);
        let changed = old.iter().zip(&new).filter(|(a, b)| a != b).count();
        let frac = changed as f64 / n as f64;
        // An updating ball keeps its value iff it is the median of the
        // sampled triple; for the all-distinct configuration that happens
        // with probability 2·E[x(1−x)] = 1/3, so the expected change rate is
        // α·(2/3) = 0.2.
        assert!(
            (frac - 0.2).abs() < 0.02,
            "changed fraction {frac} vs expected 0.2"
        );
    }

    #[test]
    fn partial_update_seq_equals_par() {
        let old = all_distinct(10_000);
        let mut seq = vec![0; old.len()];
        let mut par = vec![0; old.len()];
        step_partial(1, &old, &mut seq, &MedianRule, 9, 2, 0.5);
        step_partial(4, &old, &mut par, &MedianRule, 9, 2, 0.5);
        assert_eq!(seq, par);
    }

    #[test]
    fn partial_update_still_converges() {
        let n = 2048usize;
        let mut state: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
        let mut scratch = vec![0; n];
        let mut converged = false;
        for round in 0..3000u64 {
            if state.iter().all(|&v| v == state[0]) {
                converged = true;
                break;
            }
            step_partial(1, &state, &mut scratch, &MedianRule, 3, round, 0.25);
            std::mem::swap(&mut state, &mut scratch);
        }
        assert!(
            converged,
            "α = 0.25 asynchrony should only slow convergence"
        );
    }

    #[test]
    fn two_bins_converge_within_bound() {
        // n = 4096, balanced split: O(log n) rounds w.h.p. — give 40× slack.
        let n = 4096usize;
        let mut state: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
        let mut scratch = vec![0; n];
        let mut converged = None;
        for round in 0..500u64 {
            if state.iter().all(|&v| v == state[0]) {
                converged = Some(round);
                break;
            }
            step_seq(&state, &mut scratch, &MedianRule, 2024, round);
            std::mem::swap(&mut state, &mut scratch);
        }
        let r = converged.expect("median rule failed to converge in 500 rounds");
        assert!(r <= 500);
    }
}
