//! The adaptive engine: dense while the support is wide, histogram once it
//! narrows, over one load table per trial.
//!
//! Every trial of the median rule spends its early rounds with many live
//! values (where the dense `O(n)` engine is the only exact option for
//! arbitrary protocols) and its long tail near consensus with a handful
//! (where the `O(m)`-per-round histogram engine simulates the *same*
//! process for free — where a median-rule ball lands depends only on the
//! loads, see [`super::hist`]). The adaptive engine runs dense, keeps the
//! loads in step as balls move, and hands off to the histogram engine the
//! moment a histogram round costs less than a dense one: once the number of
//! distinct values drops to [`handoff_threshold`],
//! `max(handoff_support, n / BALLS_PER_BIN)`. A trial whose initial
//! condition has at most that many values starts on the histogram, built
//! from the initial loads ([`crate::init::InitialCondition::loads_into`]).
//! The adversary follows the trial across the handoff when its strategy
//! decides from the loads alone: [`crate::adversary::Corruptor`] runs it
//! on the loads, with or without a view of the processes.
//!
//! The handoff is *statistically exact*: conditioned on the loads at the
//! handoff round, the dense process and the histogram process induce the
//! same distribution over subsequent load trajectories. It is **not**
//! samplewise identical — the trajectory after the handoff is driven by the
//! histogram engine's RNG stream — so seed-for-seed comparisons against
//! `DenseSeq` agree in distribution, not bit-for-bit
//! (`tests/adaptive_props.rs` pins this with a KS-style check).
//!
//! A trial holds its loads in one [`LoadCounts`] handle for its whole life:
//! the rank table ([`RankedCounts`]) beside a dense state, or sorted live
//! bins ([`Histogram`]) — beside the dense state of a value-inventing rule,
//! or alone after the handoff. The handoff switches the handle from table
//! to bins in place, and the rank → value map stays with the handle, so
//! [`LoadCounts::value_of`] works to the trial's end. The handle also
//! answers the runner's per-round observables ([`crate::runner::RoundObs`]):
//! support, plurality, median, and imbalance fall out of one `O(m)` walk
//! over the live bins. The runner takes that walk only for rounds that can
//! count toward stability (or are recorded): the maintained support alone
//! rules the others out.

use crate::histogram::Histogram;
use crate::runner::RoundObs;
use crate::value::{Value, ValueSet};

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

/// Load counts over a *fixed* value universe in rank space — the table
/// for validity-preserving protocols, where every value a ball can ever
/// hold comes from the initial set.
///
/// Such rules (and every adversary strategy) use values only through order
/// and equality, so the trial runs on ranks: [`LoadCounts::rebuild`]
/// relabels the state to `0..m` in place, a ball move is a decrement and an
/// increment at `counts[rank]`, and values come back only at the trial's
/// edges through [`LoadCounts::value_of`]. A whole engine round folds in
/// through [`RankedCounts::apply_step`], which pays per *moved* ball with no
/// data-dependent branch.
///
/// At `n = 2²⁰` all-distinct balls the table is 4 MiB: loads fit `u32`
/// (n ≤ `u32::MAX` is asserted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankedCounts {
    /// Load per rank.
    counts: Vec<u32>,
    /// Number of ranks with a nonzero load.
    support: usize,
    n: u64,
}

impl RankedCounts {
    /// Count a state already in rank space over a universe of `m` ranks,
    /// every one of them held, reusing the table.
    fn count(&mut self, ranks: &[Value], m: usize) {
        self.n = ranks.len() as u64;
        self.counts.clear();
        self.counts.resize(m, 0);
        for &r in ranks {
            self.counts[r as usize] += 1;
        }
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

    /// Move `k` balls from rank `from` to rank `to` (no-op when equal).
    fn move_balls(&mut self, from: Value, to: Value, k: u64) {
        if from == to || k == 0 {
            return;
        }
        let (rf, rt) = (from as usize, to as usize);
        debug_assert!(self.counts[rf] as u64 >= k, "move from a light bin {from}");
        self.counts[rf] -= k as u32;
        if self.counts[rf] == 0 {
            self.support -= 1;
        }
        if self.counts[rt] == 0 {
            self.support += 1;
        }
        self.counts[rt] += k as u32;
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

/// A `(value, load)` bin.
pub type Bin = (Value, u64);

/// The one load handle a trial holds for its whole life, and the one place
/// that knows how state entries map to values.
///
/// It holds either the rank table ([`RankedCounts`]) of a
/// validity-preserving rule's dense state, or sorted live bins
/// ([`Histogram`]): in value space beside the dense state of a
/// value-inventing rule (the mean rule; its open universe has no ranks),
/// or on their own once the trial runs on the histogram engine
/// ([`LoadCounts::hand_off`], [`LoadCounts::rebuild_aggregated`]). The
/// table not in use keeps its buffers, so one parked handle serves every
/// kind of trial without allocating.
#[derive(Debug, Clone, Default)]
pub struct LoadCounts {
    /// Rank → value: empty where every state entry is its own value (a
    /// `0..m` universe, the open universe, or an aggregated start).
    values: Vec<Value>,
    /// The rank table, live on [`Table::Ranks`].
    ranks: RankedCounts,
    /// The sorted live bins, live on the other tables.
    bins: Histogram,
    pub(crate) table: Table,
}

/// Which table of a [`LoadCounts`] holds the loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Table {
    /// The rank table beside a dense state.
    #[default]
    Ranks,
    /// Bins in value space beside the dense state of a value-inventing
    /// rule: they may hold values outside the initial set.
    Open,
    /// Bins with no state behind them, stepped by the histogram engine.
    Aggregated,
}

/// Two handles are equal when they hold the same loads the same way: the
/// parked table is not compared.
impl PartialEq for LoadCounts {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table
            && self.values == other.values
            && match self.table {
                Table::Ranks => self.ranks == other.ranks,
                Table::Open | Table::Aggregated => self.bins == other.bins,
            }
    }
}

impl Eq for LoadCounts {}

/// Run `$body` with `$bins` bound to the live `(value, load)` bins of
/// `$loads`, value-ascending, each table through its own iterator type.
macro_rules! with_live_bins {
    ($loads:expr, $bins:ident => $body:expr) => {
        match $loads.table {
            Table::Ranks => {
                let $bins = $loads.ranks.live_bins_iter();
                $body
            }
            Table::Open | Table::Aggregated => {
                let $bins = $loads.bins.bins().iter().copied();
                $body
            }
        }
    };
}

impl LoadCounts {
    /// Count a trial's dense initial state, reusing every buffer. A
    /// validity-preserving rule gets the rank table: the universe is found
    /// by sorting and deduplicating a copy of the state in `sorted` (the
    /// trial's engine scratch buffer, which the round loop overwrites
    /// anyway); unless it is already `0..m`, the state is relabelled in
    /// place, `state[i] = rank(state[i])`, and the m universe values are
    /// kept for [`LoadCounts::value_of`]. A value-inventing rule gets bins
    /// in value space and leaves `state` and `sorted` alone.
    ///
    /// # Panics
    /// Panics if `state` is empty, or longer than `u32::MAX` for the rank
    /// table.
    pub fn rebuild(
        &mut self,
        state: &mut [Value],
        sorted: &mut Vec<Value>,
        validity_preserving: bool,
    ) {
        assert!(!state.is_empty(), "LoadCounts: empty state");
        self.values.clear();
        if !validity_preserving {
            self.bins.recount(state);
            self.table = Table::Open;
            return;
        }
        assert!(
            state.len() <= u32::MAX as usize,
            "LoadCounts: ranked loads are u32, so n must be at most u32::MAX"
        );
        sorted.clear();
        sorted.extend_from_slice(state);
        sorted.sort_unstable();
        sorted.dedup();
        let m = sorted.len();
        // Distinct sorted values are exactly `0..m` iff the largest is m − 1.
        if sorted[m - 1] as usize != m - 1 {
            self.values.extend_from_slice(sorted);
            for v in state.iter_mut() {
                *v = self.values.binary_search(v).expect("value from the state") as Value;
            }
        }
        // Every universe value came from the state, so all loads are ≥ 1.
        self.ranks.count(state, m);
        self.table = Table::Ranks;
    }

    /// Start a trial on the histogram engine from its initial loads:
    /// value-ascending bins with positive loads, such as
    /// [`crate::init::InitialCondition::loads_into`] writes. The bins stay
    /// in value space, so no n-ball state and no rank map are built.
    ///
    /// # Panics
    /// Panics if the bins are empty or hold more than 2^52 balls.
    pub fn rebuild_aggregated(&mut self, bins: impl IntoIterator<Item = Bin>) {
        self.values.clear();
        self.bins.refill(bins);
        self.table = Table::Aggregated;
    }

    /// The adaptive handoff: the rank table's live bins become the trial's
    /// bins, in rank space, and the rank → value map stays. From here on
    /// the histogram engine steps the loads ([`LoadCounts::bins_mut`]).
    pub fn hand_off(&mut self) {
        debug_assert_eq!(self.table, Table::Ranks, "hand off from the rank table");
        self.bins.refill(self.ranks.live_bins_iter());
        self.table = Table::Aggregated;
    }

    /// Whether the loads have no state behind them: the trial runs on the
    /// histogram engine.
    pub fn aggregated(&self) -> bool {
        self.table == Table::Aggregated
    }

    /// The live bins, for a histogram-engine round.
    pub fn bins_mut(&mut self) -> &mut Histogram {
        debug_assert_ne!(self.table, Table::Ranks, "the rank table has no bins");
        &mut self.bins
    }

    /// Refill `set` with the initial value set as the state holds it: the
    /// ranks `0..m`, or the values of the bins. Call right after a
    /// (re)build from the initial state.
    pub fn rebuild_value_set(&self, set: &mut ValueSet) {
        match self.table {
            Table::Ranks => set.rebuild_sorted_unique(0..self.ranks.counts.len() as Value),
            Table::Open | Table::Aggregated => {
                set.rebuild_sorted_unique(self.bins.bins().iter().map(|&(v, _)| v))
            }
        }
    }

    /// The value a state entry `v` stands for: the initial value of rank
    /// `v`, or `v` itself where the entries are values.
    pub fn value_of(&self, v: Value) -> Value {
        match self.values.get(v as usize) {
            Some(&value) => value,
            None => v,
        }
    }

    /// Total number of balls.
    pub fn n(&self) -> u64 {
        match self.table {
            Table::Ranks => self.ranks.n(),
            Table::Open | Table::Aggregated => self.bins.n(),
        }
    }

    /// Number of distinct live values.
    pub fn support_size(&self) -> usize {
        match self.table {
            Table::Ranks => self.ranks.support_size(),
            Table::Open | Table::Aggregated => self.bins.support_size(),
        }
    }

    /// Balls currently holding state entry `v`.
    pub fn count_of(&self, v: Value) -> u64 {
        match self.table {
            Table::Ranks => self.ranks.count_of(v),
            Table::Open | Table::Aggregated => self.bins.load(v),
        }
    }

    /// Move `k` balls from `from` to `to` (no-op when equal).
    ///
    /// # Panics
    /// Panics if `from` holds fewer than `k` balls (on the rank table, in
    /// debug builds) or either entry is outside the rank universe.
    pub fn move_balls(&mut self, from: Value, to: Value, k: u64) {
        match self.table {
            Table::Ranks => self.ranks.move_balls(from, to, k),
            Table::Open | Table::Aggregated => self.bins.move_balls(from, to, k),
        }
    }

    /// Fold in one engine round: every ball whose entry changed between
    /// `old` and `new` moves. The rank table is block-compacted and
    /// branch-free ([`RankedCounts::apply_step`], using the caller-parked
    /// `moves` buffer). Bins recount `new`: a value-inventing rule makes
    /// and empties bins by the thousand in a busy round, where one sort
    /// beats inserting them one at a time, and a quiet round sorts few
    /// distinct values.
    pub fn apply_step(&mut self, old: &[Value], new: &[Value], moves: &mut Vec<(Value, Value)>) {
        debug_assert_eq!(old.len(), new.len());
        match self.table {
            Table::Ranks => self.ranks.apply_step(old, new, moves),
            Table::Open | Table::Aggregated => self.bins.recount(new),
        }
    }

    /// The live `(value, load)` bins, value-ascending.
    pub fn live_bins(&self) -> impl Iterator<Item = Bin> + '_ {
        let (ranks, bins) = match self.table {
            Table::Ranks => (Some(&self.ranks), None),
            Table::Open | Table::Aggregated => (None, Some(self.bins.bins())),
        };
        let ranks = ranks.into_iter().flat_map(RankedCounts::live_bins_iter);
        ranks.chain(bins.into_iter().flatten().copied())
    }

    /// The live bins holding a value of `allowed`: every live bin, but on
    /// open bins only those a rule did not invent.
    pub fn allowed_bins<'s>(&'s self, allowed: &'s ValueSet) -> impl Iterator<Item = Bin> + 's {
        let open = self.table == Table::Open;
        self.live_bins()
            .filter(move |&(v, _)| !open || allowed.contains(v))
    }

    /// The lower median of the state, `sorted[(n − 1) / 2]`: the first
    /// entry whose cumulative load reaches `⌈n/2⌉`.
    pub fn lower_median(&self) -> Value {
        match self.table {
            Table::Ranks => self.ranks.lower_median(),
            Table::Open | Table::Aggregated => self.bins.median_value(),
        }
    }

    /// The balancer's pair: the two most loaded values of `allowed`, ties
    /// to the smaller value, where a dead allowed value has load 0. On the
    /// rank table the allowed set is the rank universe, dead ranks
    /// included, so the pair comes from [`RankedCounts::top_two`]. On bins
    /// the walk covers only the live allowed bins: with one of them the
    /// second is the smallest other allowed value, exactly what a walk over
    /// the whole allowed set picks. `None` with no live allowed bin or
    /// fewer than two allowed values.
    pub fn balanced_pair(&self, allowed: &ValueSet) -> Option<(Bin, Bin)> {
        if self.table == Table::Ranks {
            return self.ranks.top_two();
        }
        let (top, second) = top_two(self.allowed_bins(allowed));
        let top = top?;
        let second = match second {
            Some(second) => second,
            None => (*allowed.values().iter().find(|&&v| v != top.0)?, 0),
        };
        Some((top, second))
    }

    /// Rebuild a [`crate::engine::dense::LoadSampler`] from the live bins —
    /// the load-sampled dense round's per-round refresh. Streams the bins
    /// straight into the sampler (no intermediate pair vector) and rebuilds
    /// its alias table in place, so a sampled round allocates nothing at
    /// steady state.
    pub fn rebuild_sampler(&self, sampler: &mut crate::engine::dense::LoadSampler) {
        with_live_bins!(self, bins => sampler.rebuild(bins, self.n()))
    }

    /// Derive the round observables in one ordered `O(m)` walk.
    pub fn observe(&self) -> RoundObs {
        with_live_bins!(self, bins => observe_bins(self.n(), bins))
    }
}

/// The two most loaded of value-ascending `(value, load)` bins, ties to the
/// smaller value (the first two after a stable sort by descending load).
pub(crate) fn top_two(bins: impl Iterator<Item = Bin>) -> (Option<Bin>, Option<Bin>) {
    bins.fold((None, None), |(top, second), (v, load)| match top {
        Some((_, t)) if load <= t => {
            let second = match second {
                Some((_, s)) if load <= s => second,
                _ => Some((v, load)),
            };
            (top, second)
        }
        _ => (Some((v, load)), top),
    })
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

    /// Open (value-space) bins over `state`, as a value-inventing rule gets.
    fn open(state: &[Value]) -> LoadCounts {
        let mut loads = LoadCounts::default();
        loads.rebuild(&mut state.to_vec(), &mut Vec::new(), false);
        loads
    }

    #[test]
    fn from_values_counts() {
        let inc = open(&[3, 1, 3, 3, 9]);
        assert_eq!(inc.n(), 5);
        assert_eq!(inc.support_size(), 3);
        assert_eq!(inc.count_of(3), 3);
        assert_eq!(inc.count_of(7), 0);
    }

    #[test]
    fn moves_update_counts_and_drop_empty_bins() {
        let mut inc = open(&[0, 0, 1]);
        inc.move_balls(1, 0, 1);
        assert_eq!(inc.support_size(), 1);
        assert_eq!(inc.count_of(0), 3);
        inc.move_balls(0, 5, 1);
        assert_eq!(inc.count_of(5), 1);
        assert_eq!(inc.n(), 3);
    }

    #[test]
    #[should_panic]
    fn move_from_empty_bin_panics() {
        let mut inc = open(&[0]);
        inc.move_balls(9, 0, 1);
    }

    #[test]
    fn apply_step_tracks_engine_round() {
        let old = vec![0u32, 1, 2, 2, 1];
        let new = vec![0u32, 2, 2, 2, 0];
        let mut inc = open(&old);
        inc.apply_step(&old, &new, &mut Vec::new());
        assert_eq!(inc, open(&new));
        // A quiet round (one ball of eight over two bins) makes a new bin.
        let old = [0u32, 0, 0, 0, 0, 0, 1, 1];
        let new = [0u32, 0, 0, 0, 0, 0, 1, 7];
        let mut inc = open(&old);
        inc.apply_step(&old, &new, &mut Vec::new());
        assert_eq!(inc, open(&new));
    }

    #[test]
    fn observe_matches_histogram_observables() {
        let state = vec![5u32, 5, 5, 2, 2, 9, 9, 9, 9];
        let inc = open(&state);
        let obs = inc.observe();
        assert_eq!(obs.support, 3);
        assert_eq!((obs.plurality_value, obs.plurality_count), (9, 4));
        assert_eq!(obs.median_value, 5, "the 5th smallest of 9 balls");
        assert_eq!(obs.imbalance, 0.5, "loads 4 and 3");
        let mut aggregated = LoadCounts::default();
        aggregated.rebuild_aggregated(inc.live_bins().collect::<Vec<_>>());
        assert_eq!(aggregated.observe(), obs);
    }

    /// A fresh ranked handle over `state`, relabelled in place.
    fn ranked(state: &mut [Value]) -> LoadCounts {
        let mut r = LoadCounts::default();
        r.rebuild(state, &mut Vec::new(), true);
        r
    }

    #[test]
    fn ranked_rebuild_reuses_buffers_and_matches_fresh() {
        let mut r = ranked(&mut [7, 7, 3, 9, 3, 3]);
        // Dirty it with a different, larger universe, then rebuild small.
        let mut big: Vec<Value> = (0..500u32).map(|i| i * 3).collect();
        let mut sorted = Vec::new();
        r.rebuild(&mut big, &mut sorted, true);
        assert_eq!(r.support_size(), 500);
        let mut small = [7, 7, 3, 9, 3, 3];
        r.rebuild(&mut small, &mut sorted, true);
        let fresh = ranked(&mut [7, 7, 3, 9, 3, 3]);
        assert_eq!(r.n(), fresh.n());
        assert_eq!(r.support_size(), 3);
        for v in [0u32, 1, 2, 100] {
            assert_eq!(r.count_of(v), fresh.count_of(v), "rank {v}");
        }
        assert_eq!(r.observe(), fresh.observe());
        assert!(r.live_bins().eq(fresh.live_bins()));
    }

    #[test]
    fn ranked_rebuild_relabels_only_off_rank_universes() {
        let mut sparse = [7u32, 7, 3, 9, 3, 3];
        let r = ranked(&mut sparse);
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
        let mut r = LoadCounts::default();
        r.rebuild(&mut state, &mut sorted, true);
        assert!(r.values.is_empty(), "no rank → value table for 0..m");
        assert_eq!(r.ranks.counts, [1, 2, 1, 1]);
        assert_eq!(
            sorted,
            [0, 1, 2, 3],
            "the universe was sorted in the caller's buffer"
        );
        assert_eq!([0, 1, 2, 3].map(|rank| r.value_of(rank)), [0, 1, 2, 3]);
        let mut set = ValueSet::default();
        r.rebuild_value_set(&mut set);
        assert_eq!(set.values(), &[0, 1, 2, 3]);
    }

    #[test]
    fn a_sparse_universe_keeps_exactly_m_values() {
        // A dirty handle that last held a large universe.
        let mut r = LoadCounts::default();
        let mut sorted = Vec::new();
        r.rebuild(
            &mut (0..300u32).map(|i| i * 2).collect::<Vec<_>>(),
            &mut sorted,
            true,
        );
        assert_eq!(r.values.len(), 300);
        let mut state = [40u32, 10, 40, 70, 10, 10];
        r.rebuild(&mut state, &mut sorted, true);
        assert_eq!(r.values, [10, 40, 70], "m = 3 entries, not n");
        assert_eq!(r.ranks.counts, [3, 2, 1]);
        // The map outlives the handoff to bins.
        r.hand_off();
        assert!(r.aggregated());
        assert_eq!(r.live_bins().collect::<Vec<_>>(), [(0, 3), (1, 2), (2, 1)]);
        assert_eq!([0, 1, 2].map(|rank| r.value_of(rank)), [10, 40, 70]);
        // Back to a 0..m universe: the table empties again.
        r.rebuild(&mut [1u32, 0, 0], &mut sorted, true);
        assert!(r.values.is_empty());
    }

    #[test]
    fn load_counts_rebuild_switches_maintainer_kind() {
        let state = [1u32, 1, 2, 5];
        let mut sorted = Vec::new();
        let mut loads = LoadCounts::default();
        loads.rebuild(&mut state.clone(), &mut sorted, true);
        assert_eq!(loads.table, Table::Ranks);
        // A value-inventing rule reuses the same handle on bins.
        loads.rebuild(&mut state.clone(), &mut sorted, false);
        assert_eq!(loads.table, Table::Open);
        let mut ranks = state;
        loads.rebuild(&mut ranks, &mut sorted, true);
        assert_eq!(loads.table, Table::Ranks);
        assert_eq!(loads.count_of(ranks[0]), 2);
        let mut set = ValueSet::default();
        loads.rebuild_value_set(&mut set);
        assert_eq!(set.values(), &[0, 1, 2]);
        assert_eq!(
            set.values()
                .iter()
                .map(|&r| loads.value_of(r))
                .collect::<Vec<_>>(),
            [1, 2, 5]
        );
    }

    #[test]
    fn observe_plurality_tie_prefers_smaller_value() {
        let inc = open(&[4, 4, 7, 7, 1]);
        let obs = inc.observe();
        assert_eq!(obs.plurality_value, 4);
        assert_eq!(obs.plurality_count, 2);
    }
}
