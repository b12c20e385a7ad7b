//! The dense engine: `O(n)` per round over a flat value vector.
//!
//! Each ball's samples are drawn from the *word sequence* of a counter
//! stream at coordinates `(seed, round·n + ball)`
//! ([`CounterStream::seq_word`]). Consequences:
//!
//! * sequential and parallel execution produce **identical** states;
//! * a round can be recomputed for any single ball (useful in tests);
//! * rejection in the bounded-uniform sampler consumes extra halves from
//!   the ball's *own* sequence only, so streams never interfere.
//!
//! The step functions are **generic over the protocol** (`P: Protocol +
//! ?Sized`), so calls with a concrete rule (`&MedianRule`) monomorphize to
//! a branch-free inner loop with no virtual dispatch, while existing callers
//! holding a `&dyn Protocol` keep compiling unchanged (and pay dynamic
//! dispatch, exactly as before the refactor).
//!
//! # One word, two draws
//!
//! A uniform draw needs only 32 bits while `n ≤ 2³²`, so sample `i` of a
//! uniform ball takes the `i`-th 32-bit half of its sequence (low half
//! first, [`CounterStream::halves`]) and turns it into an index with
//! Lemire's 32-bit multiply-shift ([`lemire_candidate32`]). The median
//! rule's two samples therefore cost **one** hashed word per ball: the
//! stream fold itself, `w₀`. The load-sampled path reads whole words
//! (`w₀, w₁, …`, one per sample) because its alias lookup needs 64 bits,
//! and the partial path's participation coin is half 0, with its samples
//! in the halves that follow.
//!
//! # The batched phase-split kernel
//!
//! Balls are processed in blocks of [`KERNEL_BLOCK`], with one tight loop
//! per pipeline phase instead of one mega-loop of dependent work per ball:
//!
//! 1. **RNG** — batch-generate the first `W` sequence words of each ball
//!    into a word buffer (one fill serves all three paths; only `W`
//!    differs);
//! 2. **resolve** — turn the buffered randomness into sample indices: one
//!    32-bit Lemire multiply-shift per half for the uniform and partial
//!    paths, one packed-alias lookup per word for the load-sampled path;
//! 3. **gather** — read the sampled values through the index buffer (a
//!    pure load loop, so the out-of-order core keeps many cache misses in
//!    flight instead of serializing them behind hash and combine work);
//! 4. **apply** — run the monomorphized protocol over own value + gathered
//!    samples and write the output chunk.
//!
//! The uniform path's phases 1–2 are one routine, which the message engine
//! also calls to draw its request targets (`sample_indices`).
//!
//! The kernel is **bit-identical** to the scalar reference (kept below as
//! [`step_seq_reference`] and friends, pinned by
//! `tests/dense_kernel_props.rs`). The one place where batching could
//! diverge — Lemire rejection, which makes a draw consume extra halves of
//! its ball's sequence — is detected **exactly**: the resolve loop tests
//! `low < 2³² mod n` ([`lemire_zone32`], computed once per call), compacts
//! the flagged balls branch-free, and replays only those through scalar
//! [`gen_index32`] over the same half sequence. The zone is empty for every
//! power-of-two `n`; otherwise a half rejects with probability
//! `(2³² mod n) / 2³² < n / 2³²` (about 2·10⁻⁴ per half at `n = 10⁶`).
//!
//! # What vectorizes
//!
//! The workspace builds for x86-64-v3 (`.cargo/config.toml`: AVX2, BMI2,
//! FMA), so three of the four phases compile to 256-bit vector loops: the
//! RNG fill (`mix64`'s multiplies and xor-shifts), the resolve (Lemire's
//! 32 × 32 → 64-bit multiply and the exact zone test) and the apply (the
//! median rule's `min`/`max`). The gather stays scalar: its loads go to
//! random addresses, so memory, not instruction count, bounds it. The
//! runner's load upkeep ([`crate::engine::adaptive::RankedCounts::apply_step`])
//! stays scalar too: each move is a decrement and an increment at
//! data-dependent ranks. Every phase is integer arithmetic, so the output
//! does not depend on the ISA the kernel was built for.
//!
//! The phase buffers are fixed-size stack arrays (~40 KiB): every caller —
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
    gen_index32, lemire_candidate32, lemire_zone32, CounterKey, CounterStream,
};

use crate::protocol::{Protocol, MAX_SAMPLES};
use crate::value::Value;

/// Balls per block of the phase-split kernel at `k = 2` (the index buffer
/// holds `2 · KERNEL_BLOCK` indices; `k = 1` doubles the balls per block,
/// `k > 2` shrinks them). 1024 balls keep all phase buffers inside L1/L2
/// while amortizing per-block loop overhead, and match the parallel
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
    /// Phase-1 output: the first `W` sequence words of every ball.
    words: [u64; WORD_CAP],
    /// Phase-2 output: resolved sample indices, `k` per ball.
    idx: [u32; WORD_CAP],
    /// Phase-3 output: gathered sample values, one per index.
    vals: [Value; WORD_CAP],
    /// Compacted block-local ball positions: the balls a rejection
    /// replays, then (partial rounds) the balls that participate.
    active: [u32; WORD_CAP],
}

impl BlockBufs {
    #[inline]
    fn new() -> Self {
        Self {
            words: [0; WORD_CAP],
            idx: [0; WORD_CAP],
            vals: [0; WORD_CAP],
            active: [0; WORD_CAP],
        }
    }
}

/// The uniform kernel draws 32-bit indices, so the population must fit.
#[inline]
fn assert_indexable(n: u64) {
    assert!(
        n <= 1 << 32,
        "dense kernel: n = {n} balls exceeds the 2³² a 32-bit draw can index"
    );
}

/// Advance one synchronous round sequentially: reads `old`, writes `new`.
///
/// # Panics
/// Panics if `old.len() != new.len()`, `old.len() > 2³²`, or the protocol
/// requests more than [`MAX_SAMPLES`] samples.
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

/// Phase 1: the first `w` sequence words of consecutive balls, ball `j`'s
/// at `words[w·j..w·j + w]` ([`CounterStream::seq_word`]). The `w = 1` loop
/// (the median rule's uniform path) costs one `mix64` per ball.
#[inline]
fn fill_stream_words(key: CounterKey, base: u64, w: usize, words: &mut [u64]) {
    let stream = |j: usize| ball_stream(key, base, j);
    match w {
        0 => {}
        1 => {
            for (j, x) in words.iter_mut().enumerate() {
                *x = stream(j).seq_word(0);
            }
        }
        2 => {
            for (j, x) in words.chunks_exact_mut(2).enumerate() {
                let s = stream(j);
                x[0] = s.seq_word(0);
                x[1] = s.seq_word(1);
            }
        }
        _ => {
            for (j, x) in words.chunks_exact_mut(w).enumerate() {
                let s = stream(j);
                for (c, y) in x.iter_mut().enumerate() {
                    *y = s.seq_word(c as u64);
                }
            }
        }
    }
}

/// Phase 2 (uniform and partial paths): resolve halves `first..first + k`
/// of every ball's sequence into `k` indices in `[0, n)` per ball. `words`
/// holds the `⌈(first + k)/2⌉` words per ball those halves live in.
///
/// The fast loop takes each half's 32-bit Lemire candidate and ORs the
/// exact rejection test `low < zone` (`zone = 2³² mod n`, so power-of-two
/// populations never hit). Only a block with a hit is rescanned: its
/// flagged balls are compacted branch-free into `flagged` and replayed
/// through scalar [`gen_index32`] over the same half sequence, which runs
/// on past the buffered words when a rejection consumes extra halves —
/// bit-identical to the scalar kernel by construction.
#[allow(clippy::too_many_arguments)]
#[inline]
fn resolve_halves(
    key: CounterKey,
    base: u64,
    first: usize,
    k: usize,
    n: u64,
    zone: u32,
    words: &[u64],
    idx: &mut [u32],
    flagged: &mut [u32; WORD_CAP],
) {
    if k == 0 {
        return;
    }
    let w = (first + k).div_ceil(2);
    let half = |ws: &[u64], h: usize| (ws[h / 2] >> (32 * (h & 1))) as u32;
    let mut any = false;
    if (w, first, k) == (1, 0, 2) {
        for (&word, d) in words.iter().zip(idx.chunks_exact_mut(2)) {
            let (i0, l0) = lemire_candidate32(word as u32, n);
            let (i1, l1) = lemire_candidate32((word >> 32) as u32, n);
            d[0] = i0;
            d[1] = i1;
            any |= (l0 < zone) | (l1 < zone);
        }
    } else {
        for (ws, d) in words.chunks_exact(w).zip(idx.chunks_exact_mut(k)) {
            for (c, slot) in d.iter_mut().enumerate() {
                let (i, low) = lemire_candidate32(half(ws, first + c), n);
                *slot = i;
                any |= low < zone;
            }
        }
    }
    if !any {
        return;
    }
    let mut n_flagged = 0usize;
    for (j, ws) in words.chunks_exact(w).enumerate() {
        let hit = (first..first + k).any(|h| lemire_candidate32(half(ws, h), n).1 < zone);
        flagged[n_flagged & (WORD_CAP - 1)] = j as u32;
        n_flagged += usize::from(hit);
    }
    for &j in &flagged[..n_flagged] {
        let j = j as usize;
        let mut halves = ball_stream(key, base, j).halves().skip(first);
        for d in idx[k * j..k * j + k].iter_mut() {
            *d = gen_index32(&mut halves, n);
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
    assert_indexable(n);
    let zone = lemire_zone32(n.max(1));
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n).wrapping_add(offset as u64);
    let block = WORD_CAP / k.max(1);
    let mut bufs = BlockBufs::new();
    let mut start = 0usize;
    while start < chunk.len() {
        let len = block.min(chunk.len() - start);
        let count = k * len;
        let base = stream_base.wrapping_add(start as u64);
        draw_block(
            key,
            base,
            k,
            n,
            zone,
            &mut bufs.words,
            &mut bufs.idx[..count],
            &mut bufs.active,
        );
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

/// Phases 1–2 of the uniform kernel for one block: the `k` sample indices
/// of each of the `idx.len() / k` balls whose streams start at `base`,
/// ball `j`'s at `idx[k·j..k·j + k]`. Timed as `Rng` and `Index`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn draw_block(
    key: CounterKey,
    base: u64,
    k: usize,
    n: u64,
    zone: u32,
    words: &mut [u64; WORD_CAP],
    idx: &mut [u32],
    flagged: &mut [u32; WORD_CAP],
) {
    let words = &mut words[..k.div_ceil(2) * (idx.len() / k.max(1))];
    let t = obs::phase(obs::Phase::Rng);
    fill_stream_words(key, base, k.div_ceil(2), words);
    drop(t);
    let t = obs::phase(obs::Phase::Index);
    resolve_halves(key, base, 0, k, n, zone, words, idx, flagged);
    drop(t);
}

/// The sample indices [`step_seq`] draws in round `round` of an `n`-ball
/// population, `k` per ball: ball `b`'s land at `idx[k·b..k·b + k]`. The
/// message engine sends its requests to exactly these targets.
///
/// # Panics
/// Panics if `idx.len() != n · k` or `n > 2³²`.
pub(crate) fn sample_indices(seed: u64, round: u64, n: u64, k: usize, idx: &mut [u32]) {
    assert_indexable(n);
    assert_eq!(idx.len() as u64, n * k as u64, "index buffer shape");
    if k == 0 {
        return;
    }
    let key = CounterKey::new(seed);
    let zone = lemire_zone32(n.max(1));
    let block = WORD_CAP / k;
    let mut words = [0; WORD_CAP];
    let mut flagged = [0; WORD_CAP];
    for (b, chunk) in idx.chunks_mut(k * block).enumerate() {
        let base = round.wrapping_mul(n).wrapping_add((b * block) as u64);
        draw_block(key, base, k, n, zone, &mut words, chunk, &mut flagged);
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
/// ball become L1 reads once `m` is small. Sample `c` reads the whole
/// sequence word `w_c` (the alias lookup needs 64 bits) where the uniform
/// path reads a 32-bit half, so trajectories for a fixed seed differ from
/// [`step_seq`]; that is why the runner switches paths for whole rounds
/// only, keeping seq/par bit-identity and determinism intact.
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
        fill_stream_words(key, base, k, &mut bufs.words[..count]);
        drop(t);
        let t = obs::phase(obs::Phase::Index);
        for (w, d) in bufs.words[..count].iter().zip(bufs.idx[..count].iter_mut()) {
            *d = alias.sample_word(*w) as u32;
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
/// The participation coin is the first half of each ball's word sequence
/// (the ball participates iff `half < update_prob · 2³²`), and its samples
/// come from the halves that follow, so sequential/parallel determinism is
/// preserved.
///
/// # Panics
/// Panics if `update_prob ∉ [0, 1]`, buffer lengths differ, or
/// `old.len() > 2³²`.
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

/// The participation coin's threshold on a 32-bit half.
#[inline]
fn coin_threshold(update_prob: f64) -> f64 {
    update_prob * (1u64 << 32) as f64
}

/// The batched phase-split kernel with a participation coin: one fill of
/// `⌈(k + 1)/2⌉` words per ball holds the coin (half 0) and the samples
/// (halves `1..=k`); every ball's indices are resolved (a multiply each,
/// cheap next to the gather), then participants are compacted into a
/// dense worklist and only they pay for the gather and apply phases.
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
    assert_indexable(n);
    let zone = lemire_zone32(n.max(1));
    let coin = coin_threshold(update_prob);
    let w = (k + 1).div_ceil(2);
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n).wrapping_add(offset as u64);
    let block = WORD_CAP / k.max(1);
    let mut bufs = BlockBufs::new();
    let mut start = 0usize;
    while start < chunk.len() {
        let len = block.min(chunk.len() - start);
        let base = stream_base.wrapping_add(start as u64);
        let t = obs::phase(obs::Phase::Rng);
        fill_stream_words(key, base, w, &mut bufs.words[..w * len]);
        drop(t);
        let t = obs::phase(obs::Phase::Index);
        resolve_halves(
            key,
            base,
            1,
            k,
            n,
            zone,
            &bufs.words[..w * len],
            &mut bufs.idx[..k * len],
            &mut bufs.active,
        );
        drop(t);
        // Participation coins: every ball keeps its value unless it
        // participates; participants are compacted branch-free into the
        // active worklist and overwritten by the apply phase.
        let t = obs::phase(obs::Phase::Coin);
        chunk[start..start + len].copy_from_slice(&old[offset + start..offset + start + len]);
        let mut n_active = 0usize;
        for j in 0..len {
            bufs.active[n_active & (WORD_CAP - 1)] = j as u32;
            n_active += usize::from(f64::from(bufs.words[w * j] as u32) < coin);
        }
        drop(t);
        let t = obs::phase(obs::Phase::Gather);
        for (a, &j) in bufs.active[..n_active].iter().enumerate() {
            let j = j as usize;
            for (d, v) in bufs.idx[k * j..k * j + k]
                .iter()
                .zip(bufs.vals[k * a..k * a + k].iter_mut())
            {
                *v = old[*d as usize];
            }
        }
        drop(t);
        let t = obs::phase(obs::Phase::Apply);
        for (a, &j) in bufs.active[..n_active].iter().enumerate() {
            let j = j as usize;
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
    let mut halves = ball_stream(CounterKey::new(seed), round.wrapping_mul(n), ball).halves();
    let mut samples = [0 as Value; MAX_SAMPLES];
    for sample in samples.iter_mut().take(k) {
        *sample = old[gen_index32(&mut halves, n) as usize];
    }
    protocol.combine(old[ball], &samples[..k])
}

/// The counter stream of ball `ball` in the round whose first stream id is
/// `stream_base` (`round · n`).
#[inline]
fn ball_stream(key: CounterKey, stream_base: u64, ball: usize) -> CounterStream {
    key.stream(stream_base.wrapping_add(ball as u64))
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------
//
// One interleaved loop per ball over the word sequence, kept as the
// bit-identity oracles for `tests/dense_kernel_props.rs`. The batched
// kernel above must produce exactly these bits for every protocol, seed,
// round, and population size.

/// Scalar reference for [`step_seq`]: one interleaved
/// RNG/sample/gather/apply iteration per ball, drawing each sample from
/// the ball's half sequence with [`gen_index32`].
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
    assert_indexable(n);
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n);
    let mut samples = [0 as Value; MAX_SAMPLES];
    for (j, (slot, &own)) in new.iter_mut().zip(old).enumerate() {
        let mut halves = ball_stream(key, stream_base, j).halves();
        for sample in samples.iter_mut().take(k) {
            *sample = old[gen_index32(&mut halves, n) as usize];
        }
        *slot = protocol.combine(own, &samples[..k]);
    }
}

/// Scalar reference for [`step_seq_sampled`]: per-ball alias draws, sample
/// `c` from sequence word `c`, with the alias table built fresh (exactly
/// the pre-reuse per-round cost).
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
        let stream = ball_stream(key, stream_base, j);
        for (c, sample) in samples.iter_mut().take(k).enumerate() {
            *sample = values[alias.sample_word(stream.seq_word(c as u64))];
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
    assert_indexable(n);
    let coin = coin_threshold(update_prob);
    let key = CounterKey::new(seed);
    let stream_base = round.wrapping_mul(n);
    let mut samples = [0 as Value; MAX_SAMPLES];
    for (j, (slot, &own)) in new.iter_mut().zip(old).enumerate() {
        let mut halves = ball_stream(key, stream_base, j).halves();
        if f64::from(halves.next().expect("endless sequence")) >= coin {
            *slot = own;
            continue;
        }
        for sample in samples.iter_mut().take(k) {
            *sample = old[gen_index32(&mut halves, n) as usize];
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
        // this pins the exact block-edge populations deterministically,
        // plus n = 1,000,003: 2³² mod n makes about 2·10⁻⁴ of all halves
        // reject, so hundreds of balls per round take the exact-zone
        // fallback inside the real kernel, on the uniform and partial paths.
        for n in [
            KERNEL_BLOCK - 1,
            KERNEL_BLOCK,
            KERNEL_BLOCK + 1,
            2 * KERNEL_BLOCK + 313,
            1_000_003,
        ] {
            let old: Vec<Value> = (0..n as u32).map(|i| i % 37).collect();
            let mut batched = vec![0; n];
            let mut reference = vec![0; n];
            step_seq(&old, &mut batched, &MedianRule, 99, 5);
            step_seq_reference(&old, &mut reference, &MedianRule, 99, 5);
            assert_eq!(batched, reference, "n = {n}");
            step_partial(1, &old, &mut batched, &MedianRule, 99, 5, 0.5);
            step_partial_reference(&old, &mut reference, &MedianRule, 99, 5, 0.5);
            assert_eq!(batched, reference, "partial, n = {n}");
        }
    }

    #[test]
    fn half_rejection_fallback_matches_scalar_gen_index32() {
        // Any allocatable power-of-two state never rejects, so force the
        // fallback by resolving against huge virtual populations: near 2³¹
        // about half of all halves fall in the zone, at 3·2³⁰ a quarter,
        // and multi-half draws are common. n = 2³² has an empty zone, and
        // 1,000,003 a realistic sliver of one. The resolved indices must
        // equal a scalar draw over each ball's half sequence, for every
        // sample count (k = 5 spans three words per ball) and for both the
        // uniform (first half 0) and partial (after the coin) offsets.
        let key = CounterKey::new(0xFEED);
        for n in [
            (1u64 << 31) + 12_345,
            3 * (1u64 << 30) + 7,
            1u64 << 32,
            1_000_003,
        ] {
            let zone = lemire_zone32(n);
            let mut fallbacks = 0usize;
            for (k, first) in [1usize, 2, 3, 5].into_iter().flat_map(|k| [(k, 0), (k, 1)]) {
                let (w, len) = ((first + k).div_ceil(2), WORD_CAP / k);
                for block in 0..4u64 {
                    let base = 7_000_000 + block * len as u64;
                    let mut bufs = BlockBufs::new();
                    fill_stream_words(key, base, w, &mut bufs.words[..w * len]);
                    let idx = &mut bufs.idx[..k * len];
                    let words = &bufs.words[..w * len];
                    resolve_halves(key, base, first, k, n, zone, words, idx, &mut bufs.active);
                    for j in 0..len {
                        let stream = ball_stream(key, base, j);
                        let mut halves = stream.halves().skip(first);
                        for c in 0..k {
                            assert_eq!(
                                idx[k * j + c],
                                gen_index32(&mut halves, n),
                                "n = {n}, k = {k}, first = {first}, ball {j} draw {c}"
                            );
                        }
                        let rejects = stream
                            .halves()
                            .skip(first)
                            .take(k)
                            .any(|h| lemire_candidate32(h, n).1 < zone);
                        fallbacks += usize::from(rejects);
                    }
                }
            }
            match zone {
                0 => assert_eq!(fallbacks, 0, "n = {n}: empty zone"),
                z if z > 1 << 28 => assert!(
                    fallbacks > WORD_CAP,
                    "n = {n}: only {fallbacks} balls took the fallback"
                ),
                _ => assert!(fallbacks > 0, "n = {n}: the fallback was never taken"),
            }
        }
    }

    #[test]
    fn two_halves_of_one_word_draw_independently() {
        // Two bins, p = 1/4 of the balls on value 0. A ball ends on 0 iff
        // at least two of (own, sample, sample) are 0, so one round from
        // this state expects n(3p² − 2p³) zeros when the two halves of a
        // ball's word act as independent uniform draws (equal halves would
        // give n·p). Per trial the count is a sum of independent
        // Bernoullis with variance 4096·(7/16)(9/16) + 12288·(1/16)(15/16)
        // = 1728; allow 5σ of the mean over 200 seeds.
        let n = 1usize << 14;
        let p = 0.25;
        let old: Vec<Value> = (0..n).map(|i| Value::from(i >= n / 4)).collect();
        let mut new = vec![0; n];
        let trials = 200u64;
        let mut zeros = 0usize;
        for seed in 0..trials {
            step_seq(&old, &mut new, &MedianRule, seed, 0);
            zeros += new.iter().filter(|&&v| v == 0).count();
        }
        let mean = zeros as f64 / trials as f64;
        let expect = n as f64 * (3.0 * p * p - 2.0 * p * p * p);
        let sigma = (1728.0 / trials as f64).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sigma,
            "mean zeros {mean} vs n(3p² − 2p³) = {expect} (σ of the mean {sigma:.2})"
        );
    }

    /// `old`'s live bins, value-ascending.
    fn bins_of(old: &[Value]) -> Vec<(Value, u64)> {
        let balls: Vec<(Value, u64)> = old.iter().map(|&v| (v, 1)).collect();
        crate::histogram::Histogram::new(&balls).bins().to_vec()
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
