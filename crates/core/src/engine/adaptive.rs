//! The adaptive engine: dense while the support is wide, histogram once it
//! narrows.
//!
//! Every trial of the median rule spends its early rounds with many live
//! values (where the dense `O(n)` engine is the only exact option for
//! arbitrary protocols) and its long tail near consensus with a handful
//! (where the `O(m)`-per-round histogram engine simulates the *same*
//! process for free — where a median-rule ball lands depends only on the
//! loads, see [`super::hist`]). The adaptive engine runs dense, maintains
//! an **incremental histogram** of loads as balls move, and hands off to the
//! histogram engine the moment a histogram round costs less than a dense
//! one: once the number of distinct values drops to
//! [`handoff_threshold`], `max(handoff_support, n / BALLS_PER_BIN)`. A
//! trial whose initial condition has at most that many values starts on
//! the histogram, built from the initial loads
//! ([`crate::init::InitialCondition::loads_into`]). The adversary follows
//! the trial across the handoff when its strategy decides from the loads
//! alone: [`crate::adversary::Corruptor`] runs it on either backing.
//!
//! The handoff is *statistically exact*: conditioned on the loads at the
//! handoff round, the dense process and the histogram process induce the
//! same distribution over subsequent load trajectories. It is **not**
//! samplewise identical — the trajectory after the handoff is driven by the
//! histogram engine's RNG stream — so seed-for-seed comparisons against
//! `DenseSeq` agree in distribution, not bit-for-bit
//! (`tests/adaptive_props.rs` pins this with a KS-style check).
//!
//! The incremental histogram also powers the runner's per-round observables
//! ([`crate::runner::RoundObs`]): support, plurality, median, and imbalance
//! fall out of one `O(m)` walk over the live bins. The runner takes that walk
//! only for rounds that can count toward stability (or are recorded): the
//! maintained support alone rules the others out.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::runner::RoundObs;
use crate::value::Value;

/// Balls per block of [`RankedCounts::apply_step`]'s move buffer (8 KiB of
/// `(old, new)` pairs, L1-resident).
pub const MOVE_BLOCK: usize = 1024;

/// Default floor of the handoff threshold ([`handoff_threshold`]): a trial
/// hands off at this support even where `n / BALLS_PER_BIN` is smaller.
/// `m = 64` keeps the histogram step (about `4m` binomial draws) far below
/// one dense round even at `n = 10⁴`.
pub const DEFAULT_HANDOFF_SUPPORT: usize = 64;

/// Dense balls one histogram bin costs: a histogram round over `m` bins
/// costs about as much as a dense round over `m · BALLS_PER_BIN` balls.
/// Measured at `n = 2²⁰` on one core of a 2-core Xeon host, where the
/// pooled step takes about 0.45–0.55 µs per bin and the dense kernel about
/// 14 ns per ball (a ratio of 30–40). An all-distinct adaptive trial there
/// takes the same time for any handoff at or above `n / 40` bins, and
/// longer below it.
pub const BALLS_PER_BIN: usize = 40;

/// The support at or below which an adaptive trial of `n` balls runs on the
/// histogram: `max(floor, n / BALLS_PER_BIN)`, where `floor` is
/// [`crate::engine::EngineSpec::Adaptive`]'s `handoff_support` (at least
/// 1). It depends on neither the thread count nor the adversary, so every
/// thread count hands off at the same round.
pub fn handoff_threshold(floor: usize, n: usize) -> usize {
    floor.max(n / BALLS_PER_BIN).max(1)
}

/// Live bin loads maintained incrementally as balls move.
///
/// Updates are `O(log m)` per *changed* ball (balls that keep their value
/// cost one comparison), observables are one `O(m)` ordered walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalHistogram {
    counts: BTreeMap<Value, u64>,
    n: u64,
}

impl IncrementalHistogram {
    /// Count a full state vector (`O(n)`; done once per trial).
    pub fn from_values(state: &[Value]) -> Self {
        let mut this = Self::default();
        this.rebuild_from(state);
        this
    }

    /// Recount a fresh trial's state into this maintainer. The tree itself
    /// cannot keep its nodes across a clear, so this is `O(m)` small
    /// allocations — still far below the `O(n)` state walk (and the tree
    /// path only serves value-inventing rules; see [`RankedCounts`] for the
    /// allocation-free fast path).
    pub fn rebuild_from(&mut self, state: &[Value]) {
        self.counts.clear();
        for &v in state {
            *self.counts.entry(v).or_insert(0) += 1;
        }
        self.n = state.len() as u64;
    }

    /// Total number of balls.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of distinct live values.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Balls currently holding `v`.
    pub fn count_of(&self, v: Value) -> u64 {
        self.counts.get(&v).copied().unwrap_or(0)
    }

    /// Record one ball moving `from → to` (no-op when equal).
    ///
    /// # Panics
    /// Panics if no ball holds `from`.
    pub fn record_move(&mut self, from: Value, to: Value) {
        if from == to {
            return;
        }
        match self.counts.get_mut(&from) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(&from);
            }
            None => panic!("IncrementalHistogram: move from empty bin {from}"),
        }
        *self.counts.entry(to).or_insert(0) += 1;
    }

    /// The live `(value, load)` pairs, value-ascending.
    pub fn live_bins_iter(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

/// Round observables straight from an aggregated histogram (post-handoff).
pub fn observe_histogram(h: &Histogram) -> RoundObs {
    observe_bins(h.n(), h.bins().iter().copied())
}

/// Load counts over a *fixed* value universe in rank space — the
/// maintainer for validity-preserving protocols, where every value a ball
/// can ever hold comes from the initial set.
///
/// Such rules (and every adversary strategy) use values only through order
/// and equality, so the trial runs on ranks: [`RankedCounts::rebuild_from`]
/// relabels the state to `0..m` in place, a ball move is a decrement and an
/// increment at `counts[rank]`, and values come back only at the trial's
/// edges through [`LoadCounts::value_of`]. A whole engine round folds in
/// through [`RankedCounts::apply_step`], which pays per *moved* ball with no
/// data-dependent branch.
///
/// At `n = 2²⁰` all-distinct balls the table is `counts` alone, 4 MiB: loads
/// fit `u32` (n ≤ `u32::MAX` is asserted), and the rank → value table is
/// kept only for a universe that is not already `0..m`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankedCounts {
    /// Sorted distinct initial values (rank → value) — empty when the
    /// universe is `0..m`, where every rank is its own value.
    values: Vec<Value>,
    /// Load per rank.
    counts: Vec<u32>,
    /// Number of ranks with a nonzero load.
    support: usize,
    n: u64,
}

impl RankedCounts {
    /// Recount a fresh trial's state, reusing every internal buffer. The
    /// universe is found by sorting and deduplicating a copy of the state
    /// in `sorted`, a buffer the caller owns and may overwrite afterwards.
    /// Unless that universe is already `0..m`, the state is then relabelled
    /// in place, `state[i] = rank(state[i])`, and the m universe values are
    /// kept for [`LoadCounts::value_of`].
    ///
    /// # Panics
    /// Panics if `state` is empty or longer than `u32::MAX`.
    pub fn rebuild_from(&mut self, state: &mut [Value], sorted: &mut Vec<Value>) {
        assert!(!state.is_empty(), "RankedCounts: empty state");
        assert!(
            state.len() <= u32::MAX as usize,
            "RankedCounts: loads are u32, so n must be at most u32::MAX"
        );
        self.n = state.len() as u64;
        sorted.clear();
        sorted.extend_from_slice(state);
        sorted.sort_unstable();
        sorted.dedup();
        let m = sorted.len();
        self.values.clear();
        // Distinct sorted values are exactly `0..m` iff the largest is m − 1.
        if sorted[m - 1] as usize != m - 1 {
            self.values.extend_from_slice(sorted);
            for v in state.iter_mut() {
                *v = self.values.binary_search(v).expect("value from the state") as Value;
            }
        }
        self.counts.clear();
        self.counts.resize(m, 0);
        for &r in state.iter() {
            self.counts[r as usize] += 1;
        }
        // Every universe value came from the state, so all loads are ≥ 1.
        self.support = m;
    }

    /// Total number of balls.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of distinct live values.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.support
    }

    /// Balls currently holding rank `r` (0 outside the universe).
    pub fn count_of(&self, r: Value) -> u64 {
        self.counts.get(r as usize).map_or(0, |&c| c as u64)
    }

    /// Record one ball moving `from → to` (no-op when equal).
    ///
    /// # Panics
    /// Panics if either rank is outside the universe (the protocol invented
    /// a value — use [`IncrementalHistogram`] for such rules).
    #[inline]
    pub fn record_move(&mut self, from: Value, to: Value) {
        if from == to {
            return;
        }
        let (rf, rt) = (from as usize, to as usize);
        debug_assert!(self.counts[rf] > 0, "move from empty bin {from}");
        self.counts[rf] -= 1;
        if self.counts[rf] == 0 {
            self.support -= 1;
        }
        if self.counts[rt] == 0 {
            self.support += 1;
        }
        self.counts[rt] += 1;
    }

    /// Fold in one engine round, `old[i] → new[i]` for every ball, without
    /// a branch on whether a ball moved: each block of [`MOVE_BLOCK`] balls
    /// writes every `(old, new)` pair into `moves` and advances past it only
    /// when the two differ, then applies the block's moves, keeping the
    /// support with comparisons instead of branches. A branch on
    /// `old != new` mispredicts on almost every ball while the support is
    /// wide; the compaction keeps a quiet round (few moves) cheap too, where
    /// a plain branch-free update would chain stores on the same few loads.
    ///
    /// `moves` is a caller-parked buffer: it is sized once to [`MOVE_BLOCK`]
    /// pairs, so a warm round allocates and zeroes nothing.
    pub fn apply_step(&mut self, old: &[Value], new: &[Value], moves: &mut Vec<(Value, Value)>) {
        debug_assert_eq!(old.len(), new.len());
        if moves.len() < MOVE_BLOCK {
            moves.resize(MOVE_BLOCK, (0, 0));
        }
        let moves: &mut [(Value, Value); MOVE_BLOCK] =
            (&mut moves[..MOVE_BLOCK]).try_into().expect("sized above");
        // Locals, not fields: a write through `counts` could alias
        // `self.support` as far as the compiler knows, which would chain
        // a store and a reload of the support through every move.
        let counts = &mut self.counts[..];
        let mut support = self.support;
        for (old, new) in old.chunks(MOVE_BLOCK).zip(new.chunks(MOVE_BLOCK)) {
            let mut len = 0;
            for (&o, &n) in old.iter().zip(new) {
                // `len` never exceeds the ball's index in the block; the
                // mask only spares the bounds check.
                moves[len & (MOVE_BLOCK - 1)] = (o, n);
                len += (o != n) as usize;
            }
            for &(o, n) in &moves[..len] {
                let from = &mut counts[o as usize];
                debug_assert!(*from > 0, "move from empty bin {o}");
                *from -= 1;
                support -= (*from == 0) as usize;
                let to = &mut counts[n as usize];
                support += (*to == 0) as usize;
                *to += 1;
            }
        }
        self.support = support;
    }

    /// The live `(rank, load)` pairs, rank-ascending.
    pub fn live_bins_iter(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(r, &c)| (r as Value, c as u64))
    }

    /// The lower median rank, `sorted[(n − 1) / 2]`: the first rank whose
    /// cumulative load reaches `⌈n/2⌉`. A chunked prefix sum: each whole
    /// chunk is one vectorized sum (no chunk holds more than `n ≤ u32::MAX`
    /// balls), and only the chunk that reaches the target is walked rank by
    /// rank.
    pub fn lower_median(&self) -> Value {
        let target = self.n.div_ceil(2);
        let mut acc = 0u64;
        for (c, chunk) in self.counts.chunks(SCAN_CHUNK).enumerate() {
            let sum = chunk.iter().sum::<u32>() as u64;
            if acc + sum >= target {
                for (i, &load) in chunk.iter().enumerate() {
                    acc += load as u64;
                    if acc >= target {
                        return (c * SCAN_CHUNK + i) as Value;
                    }
                }
            }
            acc += sum;
        }
        unreachable!("the loads sum to n")
    }

    /// The two most loaded ranks `(rank, load)`, ties to the smaller rank
    /// (the first two after a stable sort by descending load), over the
    /// whole universe with dead ranks at load 0; `None` for a one-rank
    /// universe. Plain passes over the table: a max, the first rank at it,
    /// then the max on either side of that rank, where every rank below it
    /// is lighter and a tie across the two sides goes to the lower one.
    pub fn top_two(&self) -> Option<((Value, u64), (Value, u64))> {
        let counts = &self.counts[..];
        let max = counts.iter().copied().max()?;
        let top = first_index(counts, max).expect("the max is in the table");
        let (below, above) = (&counts[..top], &counts[top + 1..]);
        let second = match (below.iter().copied().max(), above.iter().copied().max()) {
            (Some(b), a) if a.is_none_or(|a| a <= b) => first_index(below, b),
            (_, Some(a)) => first_index(above, a).map(|i| top + 1 + i),
            _ => None,
        }?;
        let bin = |r: usize| (r as Value, counts[r] as u64);
        Some((bin(top), bin(second)))
    }
}

/// Entries per chunk of the table scans ([`RankedCounts::lower_median`],
/// [`RankedCounts::top_two`], the dense adversary's holder scan): one
/// vectorized reduction per chunk, then an entry-by-entry walk of the one
/// chunk that holds the answer.
pub(crate) const SCAN_CHUNK: usize = 64;

/// The first index of `x` in `xs`.
pub(crate) fn first_index(xs: &[u32], x: u32) -> Option<usize> {
    let (c, chunk) = xs
        .chunks(SCAN_CHUNK)
        .enumerate()
        .find(|(_, chunk)| chunk.iter().fold(false, |hit, &y| hit | (y == x)))?;
    let i = chunk
        .iter()
        .position(|&y| y == x)
        .expect("the chunk holds x");
    Some(c * SCAN_CHUNK + i)
}

/// Per-trial load maintainer, and the one place that knows how state
/// entries map to values: rank-indexed for rules that can only output
/// values they saw (the state runs on ranks), tree-backed in value space
/// for value-inventing rules (the mean rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadCounts {
    /// Fixed-universe fast path.
    Ranked(RankedCounts),
    /// Open-universe fallback.
    Tree(IncrementalHistogram),
}

/// Run `$body` on whichever maintainer `$counts` holds, bound to `$c`.
macro_rules! each {
    ($counts:expr, $c:ident => $body:expr) => {
        match $counts {
            LoadCounts::Ranked($c) => $body,
            LoadCounts::Tree($c) => $body,
        }
    };
}

impl LoadCounts {
    /// Count a trial's initial state, reusing `prev`'s buffers when its
    /// kind matches: ranked iff the protocol is validity-preserving. The
    /// ranked maintainer relabels `state` to ranks in place, sorting a copy
    /// of it in `sorted` (the trial's engine scratch buffer, which the round
    /// loop overwrites anyway); the tree leaves `sorted` alone.
    pub fn rebuild(
        prev: Option<LoadCounts>,
        state: &mut [Value],
        sorted: &mut Vec<Value>,
        validity_preserving: bool,
    ) -> Self {
        let mut counts = match (prev, validity_preserving) {
            (Some(c @ LoadCounts::Ranked(_)), true) | (Some(c @ LoadCounts::Tree(_)), false) => c,
            (_, true) => LoadCounts::Ranked(RankedCounts::default()),
            (_, false) => LoadCounts::Tree(IncrementalHistogram::default()),
        };
        match &mut counts {
            LoadCounts::Ranked(r) => r.rebuild_from(state, sorted),
            LoadCounts::Tree(t) => t.rebuild_from(state),
        }
        counts
    }

    /// Refill `set` with the initial value set as the state holds it: the
    /// ranks `0..m`, or the tree's distinct values. Call right after a
    /// (re)build from the initial state.
    pub fn rebuild_value_set(&self, set: &mut crate::value::ValueSet) {
        match self {
            LoadCounts::Ranked(r) => set.rebuild_sorted_unique(0..r.counts.len() as Value),
            LoadCounts::Tree(t) => set.rebuild_sorted_unique(t.counts.keys().copied()),
        }
    }

    /// The value a state entry `v` stands for: the initial value of rank
    /// `v`, or `v` itself on the tree path and for a `0..m` universe.
    pub fn value_of(&self, v: Value) -> Value {
        match self {
            LoadCounts::Ranked(r) if !r.values.is_empty() => r.values[v as usize],
            _ => v,
        }
    }

    /// Snapshot the live bins into `slot`, reusing the histogram allocation
    /// when one is parked there (the adaptive handoff path).
    pub fn snapshot_into(&self, slot: &mut Option<Histogram>) {
        each!(self, c => Histogram::refill(slot, c.live_bins_iter()));
    }

    /// Number of distinct live values.
    pub fn support_size(&self) -> usize {
        each!(self, c => c.support_size())
    }

    /// Balls currently holding state entry `v`.
    pub fn count_of(&self, v: Value) -> u64 {
        each!(self, c => c.count_of(v))
    }

    /// Record one ball moving `from → to`.
    pub fn record_move(&mut self, from: Value, to: Value) {
        each!(self, c => c.record_move(from, to))
    }

    /// Fold in one engine round: every ball whose entry changed between
    /// `old` and `new` moves. The ranked path is block-compacted and
    /// branch-free ([`RankedCounts::apply_step`], using the caller-parked
    /// `moves` buffer); the tree path records each changed ball.
    pub fn apply_step(&mut self, old: &[Value], new: &[Value], moves: &mut Vec<(Value, Value)>) {
        debug_assert_eq!(old.len(), new.len());
        match self {
            LoadCounts::Ranked(r) => r.apply_step(old, new, moves),
            LoadCounts::Tree(t) => {
                for (&o, &n) in old.iter().zip(new) {
                    t.record_move(o, n);
                }
            }
        }
    }

    /// Snapshot the live bins as an immutable [`Histogram`].
    pub fn to_histogram(&self) -> Histogram {
        Histogram::new(&each!(self, c => c.live_bins_iter().collect::<Vec<_>>()))
    }

    /// Rebuild a [`crate::engine::dense::LoadSampler`] from the live bins —
    /// the load-sampled dense round's per-round refresh. Streams the bins
    /// straight into the sampler (no intermediate pair vector) and rebuilds
    /// its alias table in place, so a sampled round allocates nothing at
    /// steady state.
    pub fn rebuild_sampler(&self, sampler: &mut crate::engine::dense::LoadSampler) {
        each!(self, c => sampler.rebuild(c.live_bins_iter(), c.n()))
    }

    /// Derive the round observables in one ordered `O(m)` walk.
    pub fn observe(&self) -> RoundObs {
        each!(self, c => observe_bins(c.n(), c.live_bins_iter()))
    }
}

/// Shared single-pass observable derivation over value-ascending bins.
fn observe_bins(n: u64, bins: impl Iterator<Item = (Value, u64)>) -> RoundObs {
    let target = n.div_ceil(2);
    let mut support = 0usize;
    let mut plurality: (Value, u64) = (0, 0);
    let mut top = 0u64;
    let mut second = 0u64;
    let mut acc = 0u64;
    let mut median: Option<Value> = None;
    for (v, c) in bins {
        support += 1;
        // Plurality: highest count, ties to the smaller value (first seen in
        // ascending value order).
        if c > plurality.1 {
            plurality = (v, c);
        }
        // Two largest loads for the imbalance Δ.
        if c > top {
            second = top;
            top = c;
        } else if c > second {
            second = c;
        }
        // Median bin: first bin where the load prefix reaches ⌈n/2⌉.
        if median.is_none() {
            acc += c;
            if acc >= target {
                median = Some(v);
            }
        }
    }
    RoundObs {
        round: 0,
        support,
        plurality_value: plurality.0,
        plurality_count: plurality.1,
        median_value: median.expect("nonempty bins"),
        imbalance: (top as f64 - second as f64) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_counts() {
        let inc = IncrementalHistogram::from_values(&[3, 1, 3, 3, 9]);
        assert_eq!(inc.n(), 5);
        assert_eq!(inc.support_size(), 3);
        assert_eq!(inc.count_of(3), 3);
        assert_eq!(inc.count_of(7), 0);
    }

    #[test]
    fn moves_update_counts_and_drop_empty_bins() {
        let mut inc = IncrementalHistogram::from_values(&[0, 0, 1]);
        inc.record_move(1, 0);
        assert_eq!(inc.support_size(), 1);
        assert_eq!(inc.count_of(0), 3);
        inc.record_move(0, 5);
        assert_eq!(inc.count_of(5), 1);
        assert_eq!(inc.n(), 3);
    }

    #[test]
    #[should_panic]
    fn move_from_empty_bin_panics() {
        let mut inc = IncrementalHistogram::from_values(&[0]);
        inc.record_move(9, 0);
    }

    #[test]
    fn apply_step_tracks_engine_round() {
        let old = vec![0u32, 1, 2, 2, 1];
        let new = vec![0u32, 2, 2, 2, 0];
        let mut inc = LoadCounts::Tree(IncrementalHistogram::from_values(&old));
        inc.apply_step(&old, &new, &mut Vec::new());
        assert_eq!(
            inc,
            LoadCounts::Tree(IncrementalHistogram::from_values(&new))
        );
    }

    #[test]
    fn observe_matches_histogram_observables() {
        let state = vec![5u32, 5, 5, 2, 2, 9, 9, 9, 9];
        let inc = LoadCounts::Tree(IncrementalHistogram::from_values(&state));
        let obs = inc.observe();
        assert_eq!(obs.support, 3);
        assert_eq!((obs.plurality_value, obs.plurality_count), (9, 4));
        assert_eq!(obs.median_value, 5, "the 5th smallest of 9 balls");
        assert_eq!(obs.imbalance, 0.5, "loads 4 and 3");
        assert_eq!(observe_histogram(&inc.to_histogram()), obs);
    }

    /// A fresh ranked maintainer over `state`, relabelled in place.
    fn ranked(state: &mut [Value]) -> RankedCounts {
        let mut r = RankedCounts::default();
        r.rebuild_from(state, &mut Vec::new());
        r
    }

    #[test]
    fn ranked_rebuild_reuses_buffers_and_matches_fresh() {
        let mut r = ranked(&mut [7, 7, 3, 9, 3, 3]);
        // Dirty it with a different, larger universe, then rebuild small.
        let mut big: Vec<Value> = (0..500u32).map(|i| i * 3).collect();
        let mut sorted = Vec::new();
        r.rebuild_from(&mut big, &mut sorted);
        assert_eq!(r.support_size(), 500);
        let mut small = [7, 7, 3, 9, 3, 3];
        r.rebuild_from(&mut small, &mut sorted);
        let fresh = ranked(&mut [7, 7, 3, 9, 3, 3]);
        assert_eq!(r.n(), fresh.n());
        assert_eq!(r.support_size(), 3);
        for v in [0u32, 1, 2, 100] {
            assert_eq!(r.count_of(v), fresh.count_of(v), "rank {v}");
        }
        let (r, fresh) = (LoadCounts::Ranked(r), LoadCounts::Ranked(fresh));
        assert_eq!(r.observe(), fresh.observe());
        assert_eq!(r.to_histogram(), fresh.to_histogram());
    }

    #[test]
    fn ranked_rebuild_relabels_only_off_rank_universes() {
        let mut sparse = [7u32, 7, 3, 9, 3, 3];
        let r = LoadCounts::Ranked(ranked(&mut sparse));
        assert_eq!(sparse, [1, 1, 0, 2, 0, 0]);
        assert_eq!([0, 1, 2].map(|rank| r.value_of(rank)), [3, 7, 9]);
        assert_eq!([0, 1, 2].map(|rank| r.count_of(rank)), [3, 2, 1]);
        let mut dense = [2u32, 0, 1, 1];
        ranked(&mut dense);
        assert_eq!(dense, [2, 0, 1, 1], "a 0..m universe is already ranks");
    }

    #[test]
    fn a_0_to_m_universe_keeps_no_rank_table() {
        let mut state = [2u32, 0, 1, 1, 3];
        let mut sorted = vec![99; 2];
        let mut r = RankedCounts::default();
        r.rebuild_from(&mut state, &mut sorted);
        assert!(r.values.is_empty(), "no rank → value table for 0..m");
        assert_eq!(r.counts, [1, 2, 1, 1]);
        assert_eq!(
            sorted,
            [0, 1, 2, 3],
            "the universe was sorted in the caller's buffer"
        );
        let r = LoadCounts::Ranked(r);
        assert_eq!([0, 1, 2, 3].map(|rank| r.value_of(rank)), [0, 1, 2, 3]);
        let mut set = crate::value::ValueSet::default();
        r.rebuild_value_set(&mut set);
        assert_eq!(set.values(), &[0, 1, 2, 3]);
    }

    #[test]
    fn a_sparse_universe_keeps_exactly_m_values() {
        // A dirty maintainer that last held a large universe.
        let mut r = RankedCounts::default();
        let mut sorted = Vec::new();
        r.rebuild_from(
            &mut (0..300u32).map(|i| i * 2).collect::<Vec<_>>(),
            &mut sorted,
        );
        assert_eq!(r.values.len(), 300);
        let mut state = [40u32, 10, 40, 70, 10, 10];
        r.rebuild_from(&mut state, &mut sorted);
        assert_eq!(r.values, [10, 40, 70], "m = 3 entries, not n");
        assert_eq!(r.counts, [3, 2, 1]);
        // Back to a 0..m universe: the table empties again.
        r.rebuild_from(&mut [1u32, 0, 0], &mut sorted);
        assert!(r.values.is_empty());
    }

    #[test]
    fn load_counts_rebuild_switches_maintainer_kind() {
        let state = [1u32, 1, 2, 5];
        let mut sorted = Vec::new();
        let ranked = LoadCounts::rebuild(None, &mut state.clone(), &mut sorted, true);
        assert!(matches!(ranked, LoadCounts::Ranked(_)));
        // Kind mismatch: fall back to a fresh build of the right kind.
        let tree = LoadCounts::rebuild(Some(ranked), &mut state.clone(), &mut sorted, false);
        assert!(matches!(tree, LoadCounts::Tree(_)));
        let mut ranks = state;
        let back = LoadCounts::rebuild(Some(tree), &mut ranks, &mut sorted, true);
        assert!(matches!(back, LoadCounts::Ranked(_)));
        assert_eq!(back.count_of(ranks[0]), 2);
        let mut set = crate::value::ValueSet::default();
        back.rebuild_value_set(&mut set);
        assert_eq!(set.values(), &[0, 1, 2]);
        assert_eq!(
            set.values()
                .iter()
                .map(|&r| back.value_of(r))
                .collect::<Vec<_>>(),
            [1, 2, 5]
        );
    }

    #[test]
    fn observe_plurality_tie_prefers_smaller_value() {
        let inc = LoadCounts::Tree(IncrementalHistogram::from_values(&[4, 4, 7, 7, 1]));
        let obs = inc.observe();
        assert_eq!(obs.plurality_value, 4);
        assert_eq!(obs.plurality_count, 2);
    }
}
