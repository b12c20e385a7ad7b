//! The T-bounded adversary framework and the paper's concrete strategies.
//!
//! Model (§1.1): at the beginning of each round the adversary — who knows
//! the full history — may change the state of up to `T` processes, but only
//! to values from the initial set `{v₁, …, v_n}`.
//!
//! Both constraints are enforced **by construction**: strategies never touch
//! raw state, they go through a [`Corruptor`] that refuses over-budget moves
//! and out-of-set values. A strategy cannot cheat even if buggy.
//!
//! A [`Corruptor`] is the trial's one load handle ([`LoadCounts`]) plus an
//! optional view of the processes: the dense n-ball state the loads count,
//! which every accepted write keeps in step, and a bitmap of the processes
//! written this round. The load queries (`load`, `lower_median`,
//! `live_bins`, the balancer's pair) are the handle's, whichever table it
//! holds. With a view the budget counts distinct processes written;
//! without one (the adaptive engine after the handoff) it counts balls
//! moved.
//!
//! The median rule samples uniformly, so balls are exchangeable: a strategy
//! that decides from the loads alone gives the same chain with or without
//! the view. Only a view hands out process-level access
//! ([`Corruptor::processes`]); [`AdversarySpec::needs_processes`] names the
//! strategies that use it (the reviver and the stubborn set), and the
//! runner keeps their trials dense. The random strategy names processes
//! only uniformly at random, so it also has a load-level form with the same
//! law. On the rank table the state, the allowed set and every write are
//! ranks; every strategy uses values only through order and equality, so it
//! flips the same balls either way.
//!
//! The rank table answers the load queries in plain passes that vectorize,
//! instead of walking the live bins: `lower_median` is a chunked prefix sum
//! ([`crate::engine::adaptive::RankedCounts::lower_median`]), the
//! balancer's pair is a max pass, a first-index pass and a max on either
//! side of the top rank ([`crate::engine::adaptive::RankedCounts::top_two`]),
//! and `move_balls` with a view finds the next holder of its source with a
//! chunked equality scan. Each gives the same answer as the bin walk that
//! sorted bins keep.

use std::borrow::Cow;
use std::cmp::Reverse;

use rand::RngCore;
use stabcon_util::rng::gen_index;

use crate::engine::adaptive::{first_index, LoadCounts};
use crate::value::{Value, ValueSet};

// ---------------------------------------------------------------------------
// Corruption API
// ---------------------------------------------------------------------------

/// Budget- and validity-enforcing handle over one round's loads.
pub struct Corruptor<'a> {
    loads: &'a mut LoadCounts,
    view: Option<View<'a>>,
    allowed: &'a ValueSet,
    budget: u64,
    /// Processes (with a view) or balls (without) changed this round.
    count: u64,
    draws: &'a mut Draws,
}

/// The random strategy's parked draws without a process view, one
/// `(process, draw, value)` triple per draw.
pub type Draws = Vec<(u64, u64, Value)>;

/// The process view: the n-ball state the loads count.
struct View<'a> {
    state: &'a mut [Value],
    /// One bit per process: written this round.
    touched: &'a mut Vec<u64>,
    /// The source of the last `move_balls` and the index its scan reached.
    cursor: (Value, usize),
}

impl<'a> Corruptor<'a> {
    /// Wrap `loads` with budget `T` (balls moved this round, until
    /// [`Corruptor::with_processes`]) and the initial-value-set constraint.
    /// `draws` is a caller-parked buffer for the random strategy's
    /// load-level form, so a warm round allocates nothing.
    pub fn new(
        loads: &'a mut LoadCounts,
        allowed: &'a ValueSet,
        budget: u64,
        draws: &'a mut Draws,
    ) -> Self {
        Self {
            loads,
            view: None,
            allowed,
            budget,
            count: 0,
            draws,
        }
    }

    /// Add the process view: `state` is the dense state the loads count,
    /// and the budget now counts distinct processes written. `touched` is a
    /// caller-parked bitmap, cleared here, that marks this round's writes,
    /// so a warm round allocates nothing.
    pub fn with_processes(mut self, state: &'a mut [Value], touched: &'a mut Vec<u64>) -> Self {
        touched.clear();
        touched.resize(state.len().div_ceil(64), 0);
        self.view = Some(View {
            state,
            touched,
            cursor: (0, 0),
        });
        self
    }

    /// Balls currently holding `v`.
    pub fn load(&self, v: Value) -> u64 {
        self.loads.count_of(v)
    }

    /// The lower median of the state, `sorted[(n − 1) / 2]`: the first
    /// value whose cumulative load reaches `⌈n/2⌉`.
    pub fn lower_median(&self) -> Value {
        self.loads.lower_median()
    }

    /// The live bins holding an allowed value, `(value, load)`
    /// value-ascending.
    pub fn live_bins(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        self.loads.allowed_bins(self.allowed)
    }

    /// The allowed (initial) value set.
    pub fn allowed(&self) -> &'a ValueSet {
        self.allowed
    }

    /// Processes (with a view) or balls (without) still corruptible this
    /// round.
    pub fn remaining(&self) -> u64 {
        self.budget - self.count
    }

    /// Processes (with a view) or balls (without) changed so far this
    /// round.
    pub fn touched(&self) -> u64 {
        self.count
    }

    /// Move up to `k` balls from `from` to `to`; returns how many moved,
    /// limited by the budget and the load of `from`, and 0 when `to` is
    /// outside the initial value set. With a process view it flips the
    /// lowest-index holders of `from`; a repeated call with the same source
    /// continues the scan where the last one stopped.
    pub fn move_balls(&mut self, from: Value, to: Value, k: u64) -> u64 {
        if from == to || !self.allowed.contains(to) {
            return 0;
        }
        let k = k.min(self.remaining()).min(self.load(from));
        if k == 0 {
            return 0;
        }
        let Some(view) = &self.view else {
            self.loads.move_balls(from, to, k);
            self.count += k;
            return k;
        };
        let mut i = if view.cursor.0 == from {
            view.cursor.1
        } else {
            0
        };
        let mut moved = 0;
        while moved < k {
            // Every holder of `from` sits at or above the cursor.
            let state = &self.view.as_ref().expect("a process view").state;
            i += first_index(&state[i..], from).expect("k ≤ load(from)");
            moved += u64::from(self.try_set(i, to));
            i += 1;
        }
        self.view.as_mut().expect("a process view").cursor = (from, i);
        k
    }

    /// Process-level access, with a process view only: loads alone have
    /// no processes to name.
    pub fn processes(&mut self) -> Option<Processes<'_, 'a>> {
        self.view.is_some().then_some(Processes { c: self })
    }

    /// Set process `i` to `v` through the view, under the budget.
    fn try_set(&mut self, i: usize, v: Value) -> bool {
        let view = self.view.as_mut().expect("a process view");
        if view.state[i] == v {
            return true;
        }
        if !self.allowed.contains(v) {
            return false;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if view.touched[word] & bit == 0 {
            if self.count >= self.budget {
                return false;
            }
            view.touched[word] |= bit;
            self.count += 1;
        }
        self.loads.move_balls(view.state[i], v, 1);
        view.state[i] = v;
        if v == view.cursor.0 {
            // A new holder of the scanned source may sit below the cursor.
            view.cursor.1 = 0;
        }
        true
    }
}

/// Process-level writes through a [`Corruptor`] with a process view, under
/// its budget.
pub struct Processes<'c, 'a> {
    c: &'c mut Corruptor<'a>,
}

impl Processes<'_, '_> {
    fn state(&self) -> &[Value] {
        self.c.view.as_ref().expect("a process view").state
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.state().len()
    }

    /// Read a process state (the adversary sees everything).
    pub fn get(&self, i: usize) -> Value {
        self.state()[i]
    }

    /// Distinct processes still corruptible this round.
    pub fn remaining(&self) -> u64 {
        self.c.remaining()
    }

    /// Attempt to set process `i` to `v`. Returns `false` (state untouched)
    /// if `v` is outside the initial value set or the budget is exhausted.
    /// Rewriting an already-touched process is free; writing a process's
    /// current value back costs nothing.
    pub fn try_set(&mut self, i: usize, v: Value) -> bool {
        self.c.try_set(i, v)
    }
}

/// A T-bounded adversary strategy.
pub trait Adversary: Send {
    /// Inspect and corrupt the state at the beginning of round `round`.
    fn corrupt(&mut self, round: u64, c: &mut Corruptor<'_>, rng: &mut dyn RngCore);
}

/// Process-level access for a strategy that [`AdversarySpec::needs_processes`].
fn processes<'c, 'a>(c: &'c mut Corruptor<'a>) -> Processes<'c, 'a> {
    c.processes()
        .expect("a process-level strategy runs with a process view only")
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// The absent adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdversary;

impl Adversary for NoAdversary {
    fn corrupt(&mut self, _round: u64, _c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {}
}

/// Corrupts `T` uniformly random processes to uniformly random initial
/// values — the "noise floor" adversary.
///
/// Without a process view it draws the same `T` (process, value) pairs, a
/// process being a ball in value order at the round's start. Rewriting a
/// process is free and its last write wins, and given the loads what the
/// process-level form changes depends only on which bins the drawn
/// processes sit in, so both forms move the loads by the same law.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomCorruptor;

impl Adversary for RandomCorruptor {
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, rng: &mut dyn RngCore) {
        let allowed = c.allowed();
        let m = allowed.len() as u64;
        if let Some(mut p) = c.processes() {
            let n = p.n() as u64;
            for _ in 0..p.remaining() {
                let i = gen_index(rng, n) as usize;
                let v = allowed.nth(gen_index(rng, m) as usize);
                let _ = p.try_set(i, v);
            }
            return;
        }
        let mut draws = std::mem::take(&mut *c.draws);
        draws.clear();
        for draw in 0..c.remaining() {
            let i = gen_index(rng, c.loads.n());
            draws.push((i, draw, allowed.nth(gen_index(rng, m) as usize)));
        }
        // One entry per process, its last write.
        draws.sort_unstable_by_key(|&(i, draw, _)| (i, Reverse(draw)));
        draws.dedup_by_key(|&mut (i, _, _)| i);
        // Ball `i` sits in the first bin whose cumulative load passes `i`:
        // one sweep over the starting loads, writing each source into the
        // draw slot.
        let (mut bins, mut from, mut end) = (c.loads.live_bins(), 0, 0);
        for (i, source, _) in &mut draws {
            while end <= *i {
                let (v, load) = bins.next().expect("a drawn ball is below n");
                (from, end) = (v, end + load);
            }
            *source = u64::from(from);
        }
        drop(bins);
        for &(_, from, to) in &draws {
            c.move_balls(from as Value, to, 1);
        }
        *c.draws = draws;
    }
}

/// The lower-bound strategy from the Theorem 2 discussion: keep the two
/// largest bins in perfect balance. With budget `T = Ω̃(√n)` this stalls the
/// median rule for polynomially long; with `T ≪ √n` the random drift
/// escapes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoBinBalancer;

impl Adversary for TwoBinBalancer {
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {
        let Some(((big, big_load), (small, small_load))) = c.loads.balanced_pair(c.allowed) else {
            return; // nothing to balance
        };
        // Each flip big→small closes the gap by 2.
        if big_load > small_load {
            c.move_balls(big, small, (big_load - small_load) / 2);
        }
    }
}

/// The §1.1 minimum-rule killer: first erase every holder of the smallest
/// initial value (so the min rule "commits" to the second value), then at
/// `revive_at` reintroduce a single copy of the smallest value, forcing the
/// min rule to restart its cascade. Harmless to the median rule.
#[derive(Debug, Clone, Copy)]
pub struct Reviver {
    /// Round at which the erased value is reintroduced.
    pub revive_at: u64,
}

impl Adversary for Reviver {
    fn corrupt(&mut self, round: u64, c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {
        let allowed = c.allowed();
        let mut p = processes(c);
        let victim = allowed.min();
        if allowed.len() < 2 {
            return;
        }
        let replacement = allowed.nth(1);
        if round < self.revive_at {
            // Erase phase: flip holders of the victim value.
            for i in 0..p.n() {
                if p.remaining() == 0 {
                    break;
                }
                if p.get(i) == victim {
                    let _ = p.try_set(i, replacement);
                }
            }
        } else if round == self.revive_at {
            // Revival: one ball suffices to poison the min rule forever.
            let _ = p.try_set(0, victim);
        }
    }
}

/// Pushes balls *away from the current median bin* toward the extreme
/// initial values, alternating sides — the natural "stall the median"
/// heuristic attack.
///
/// The alternation stops as soon as the next target is the median bin. On
/// two bins one of the extremes *is* the median bin, so the strategy moves
/// at most one ball a round, and only when its coin picks the other bin
/// (probability ½), whatever the budget: a two-bins trial under it is
/// nearly adversary-free, and Figure 1's two-bins median-pusher rows show
/// the unattacked chain plus one coin-flipped ball a round.
/// `tests/two_bin_oracle.rs` pins that law.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianPusher;

impl Adversary for MedianPusher {
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, rng: &mut dyn RngCore) {
        let median = c.lower_median();
        let lo = c.allowed().min();
        let hi = c.allowed().max();
        if lo == hi {
            return;
        }
        let mut flip_low = gen_index(rng, 2) == 0;
        loop {
            let target = if flip_low { lo } else { hi };
            // No move lands once the target is the median itself (on two
            // bins, one of `lo` and `hi` is), the budget is spent, or the
            // median bin is empty.
            if target == median || c.move_balls(median, target, 1) == 0 {
                break;
            }
            flip_low = !flip_low;
        }
    }
}

/// Stubborn agents: processes `0..T` re-assert the smallest initial value
/// every round, no matter what the protocol did to them. The median rule
/// tolerates them with disagreement exactly `T`; order-sensitive rules
/// (min/max) are captured completely.
#[derive(Debug, Clone, Copy, Default)]
pub struct StubbornSet;

impl Adversary for StubbornSet {
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {
        let target = c.allowed().min();
        let mut p = processes(c);
        for i in 0..p.n() {
            if p.remaining() == 0 && p.get(i) != target {
                break;
            }
            if !p.try_set(i, target) {
                break;
            }
        }
    }
}

/// Selector for [`crate::runner::SimSpec`]; builds a fresh strategy object
/// per trial so runs stay independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// No adversary (`T` is ignored).
    None,
    /// Uniform random corruption.
    Random,
    /// Keep the top-two bins balanced (lower-bound strategy).
    Balancer,
    /// Hide the smallest value, revive it at the given round.
    Reviver {
        /// Round of reintroduction.
        revive_at: u64,
    },
    /// Push balls from the median bin to the extremes.
    MedianPusher,
    /// T processes permanently re-assert the smallest initial value.
    Stubborn,
}

impl AdversarySpec {
    /// Instantiate the strategy.
    pub fn build(&self) -> Box<dyn Adversary> {
        match *self {
            AdversarySpec::None => Box::new(NoAdversary),
            AdversarySpec::Random => Box::new(RandomCorruptor),
            AdversarySpec::Balancer => Box::new(TwoBinBalancer),
            AdversarySpec::Reviver { revive_at } => Box::new(Reviver { revive_at }),
            AdversarySpec::MedianPusher => Box::new(MedianPusher),
            AdversarySpec::Stubborn => Box::new(StubbornSet),
        }
    }

    /// Whether the strategy names processes ([`Corruptor::processes`]),
    /// which keeps its trials dense, with a process view. The others run
    /// with or without one: they decide from the loads alone, or (random)
    /// name processes only uniformly at random.
    pub fn needs_processes(&self) -> bool {
        match self {
            AdversarySpec::Reviver { .. } | AdversarySpec::Stubborn => true,
            AdversarySpec::None
            | AdversarySpec::Random
            | AdversarySpec::Balancer
            | AdversarySpec::MedianPusher => false,
        }
    }

    /// Table label; the reviver's names its delay, `reviver(50)`.
    pub fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            AdversarySpec::None => "none",
            AdversarySpec::Random => "random",
            AdversarySpec::Balancer => "balancer",
            AdversarySpec::Reviver { revive_at } => {
                return Cow::Owned(format!("reviver({revive_at})"));
            }
            AdversarySpec::MedianPusher => "median-pusher",
            AdversarySpec::Stubborn => "stubborn",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_util::rng::Xoshiro256pp;

    fn setup(values: Vec<Value>) -> (Vec<Value>, ValueSet) {
        let set = ValueSet::from_values(&values);
        (values, set)
    }

    /// Loads of `state` as a value-inventing rule keeps them: open bins.
    fn open(state: &mut [Value]) -> LoadCounts {
        let mut loads = LoadCounts::default();
        loads.rebuild(state, &mut Vec::new(), false);
        loads
    }

    /// Loads of a trial on the histogram engine, in value space.
    fn aggregated(bins: &[Bin]) -> LoadCounts {
        let mut loads = LoadCounts::default();
        loads.rebuild_aggregated(bins.iter().copied());
        loads
    }

    /// Run `f` on a [`Corruptor`] with a process view of `state` and fresh
    /// value-space loads, then check the loads it kept against a recount of
    /// the state.
    fn with_corruptor<R>(
        state: &mut [Value],
        set: &ValueSet,
        budget: u64,
        f: impl FnOnce(&mut Corruptor<'_>) -> R,
    ) -> R {
        let mut loads = open(state);
        let (mut touched, mut draws) = (Vec::new(), Vec::new());
        let mut c =
            Corruptor::new(&mut loads, set, budget, &mut draws).with_processes(state, &mut touched);
        let out = f(&mut c);
        assert_eq!(loads, open(state), "loads kept");
        out
    }

    #[test]
    fn corruptor_enforces_budget() {
        let (mut state, set) = setup(vec![0, 0, 0, 0, 1, 1]);
        with_corruptor(&mut state, &set, 2, |c| {
            let mut p = c.processes().expect("dense");
            assert!(p.try_set(0, 1));
            assert!(p.try_set(1, 1));
            assert!(!p.try_set(2, 1), "third distinct process must be refused");
            assert_eq!(c.touched(), 2);
        });
        assert_eq!(state, vec![1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn corruptor_enforces_value_set() {
        let (mut state, set) = setup(vec![0, 1]);
        with_corruptor(&mut state, &set, 10, |c| {
            let mut p = c.processes().expect("dense");
            assert!(!p.try_set(0, 99), "99 not an initial value");
            assert!(p.try_set(0, 1));
            assert_eq!(c.move_balls(1, 99, 1), 0, "99 not an initial value");
        });
        assert_eq!(state, vec![1, 1]);
    }

    #[test]
    fn corruptor_noop_writes_are_free() {
        let (mut state, set) = setup(vec![0, 1]);
        with_corruptor(&mut state, &set, 1, |c| {
            assert!(c.processes().expect("dense").try_set(0, 0));
            assert_eq!(c.touched(), 0, "same-value write is free");
            assert!(c.processes().expect("dense").try_set(1, 0));
            assert_eq!(c.touched(), 1);
        });
    }

    #[test]
    fn corruptor_retouching_is_free() {
        let (mut state, set) = setup(vec![0, 1, 0, 1]);
        with_corruptor(&mut state, &set, 1, |c| {
            let mut p = c.processes().expect("dense");
            assert!(p.try_set(0, 1));
            assert!(p.try_set(0, 0), "retouching the same process is free");
            assert_eq!(c.touched(), 1);
        });
    }

    #[test]
    fn dense_move_balls_rescans_after_a_process_write() {
        let (mut state, set) = setup(vec![1, 0, 0]);
        with_corruptor(&mut state, &set, 4, |c| {
            assert_eq!(c.move_balls(0, 1, 1), 1, "flips ball 1");
            assert!(c.processes().expect("dense").try_set(0, 0));
            assert_eq!(c.move_balls(0, 1, 2), 2, "ball 0 is below the cursor");
        });
        assert_eq!(state, vec![1, 1, 1]);
    }

    #[test]
    fn balancer_balances() {
        let (mut state, set) = setup(vec![0, 0, 0, 0, 0, 0, 1, 1]);
        let mut rng = Xoshiro256pp::seed(1);
        let mut adv = TwoBinBalancer;
        with_corruptor(&mut state, &set, 10, |c| adv.corrupt(0, c, &mut rng));
        let zeros = state.iter().filter(|&&v| v == 0).count();
        let ones = state.iter().filter(|&&v| v == 1).count();
        assert_eq!(zeros, 4);
        assert_eq!(ones, 4);
    }

    #[test]
    fn balancer_respects_budget() {
        let (mut state, set) = setup(vec![0; 100].into_iter().chain(vec![1; 10]).collect());
        let mut rng = Xoshiro256pp::seed(2);
        let mut adv = TwoBinBalancer;
        with_corruptor(&mut state, &set, 5, |c| adv.corrupt(0, c, &mut rng));
        let ones = state.iter().filter(|&&v| v == 1).count();
        assert_eq!(ones, 15, "exactly budget-many flips");
    }

    #[test]
    fn balancer_picks_top_two_in_stable_order() {
        // Ties go to the smaller value, and an empty allowed bin still
        // counts as a candidate: 0 holds 6, 1 and 2 hold none.
        let set = ValueSet::from_values(&[0, 1, 2]);
        let mut state = vec![0; 6];
        let mut rng = Xoshiro256pp::seed(10);
        let mut adv = TwoBinBalancer;
        with_corruptor(&mut state, &set, 10, |c| adv.corrupt(0, c, &mut rng));
        assert_eq!(state, vec![1, 1, 1, 0, 0, 0]);
        // Loads 6, 2, 2: the second bin is the smaller of the tied pair.
        let mut state = vec![0, 0, 0, 0, 0, 0, 1, 1, 2, 2];
        with_corruptor(&mut state, &set, 10, |c| adv.corrupt(0, c, &mut rng));
        assert_eq!(state, vec![1, 1, 0, 0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn reviver_erases_then_revives() {
        let (mut state, set) = setup(vec![0, 0, 1, 1, 1, 1]);
        let mut rng = Xoshiro256pp::seed(3);
        let mut adv = Reviver { revive_at: 5 };
        with_corruptor(&mut state, &set, 10, |c| adv.corrupt(0, c, &mut rng));
        assert!(
            state.iter().all(|&v| v == 1),
            "victim value erased: {state:?}"
        );
        // Rounds in between do nothing.
        with_corruptor(&mut state, &set, 10, |c| adv.corrupt(3, c, &mut rng));
        assert!(state.iter().all(|&v| v == 1));
        // Revival.
        with_corruptor(&mut state, &set, 10, |c| adv.corrupt(5, c, &mut rng));
        assert_eq!(state.iter().filter(|&&v| v == 0).count(), 1);
    }

    #[test]
    fn lower_median_matches_a_sorted_copy() {
        let (mut state, set) = setup(vec![5, 1, 9, 9, 2, 7, 1, 9]);
        let mut sorted = state.clone();
        sorted.sort_unstable();
        let median = with_corruptor(&mut state, &set, 0, |c| c.lower_median());
        assert_eq!(median, sorted[(sorted.len() - 1) / 2]);
    }

    #[test]
    fn median_pusher_attacks_median_bin() {
        let (mut state, set) = setup(vec![0, 5, 5, 5, 9]);
        let mut rng = Xoshiro256pp::seed(4);
        let mut adv = MedianPusher;
        with_corruptor(&mut state, &set, 2, |c| adv.corrupt(0, c, &mut rng));
        let fives = state.iter().filter(|&&v| v == 5).count();
        assert_eq!(fives, 1, "two median balls pushed out: {state:?}");
        for &v in &state {
            assert!(set.contains(v));
        }
    }

    #[test]
    fn stubborn_pins_exactly_budget_processes() {
        let (mut state, set) = setup(vec![5, 5, 5, 5, 5, 5, 1, 1]);
        let mut rng = Xoshiro256pp::seed(8);
        let mut adv = StubbornSet;
        with_corruptor(&mut state, &set, 3, |c| adv.corrupt(0, c, &mut rng));
        // Budget 3: the first three non-holders of value 1 get pinned.
        let ones = state.iter().filter(|&&v| v == 1).count();
        assert_eq!(ones, 5, "{state:?}"); // 2 original + 3 pinned
        assert_eq!(&state[0..3], &[1, 1, 1]);
    }

    #[test]
    fn stubborn_repins_every_round() {
        let (mut state, set) = setup(vec![9, 9, 9, 9]);
        let mut rng = Xoshiro256pp::seed(9);
        let mut adv = StubbornSet;
        for round in 0..3 {
            // Protocol "heals" the stubborn agent between rounds.
            state[0] = 9;
            with_corruptor(&mut state, &set, 1, |c| adv.corrupt(round, c, &mut rng));
            assert_eq!(state[0], 9, "single allowed value: nothing to assert");
        }
        // With two allowed values the pin is real.
        let (mut state, set) = setup(vec![3, 9, 9, 9]);
        for round in 0..3 {
            state[0] = 9;
            with_corruptor(&mut state, &set, 1, |c| adv.corrupt(round, c, &mut rng));
            assert_eq!(state[0], 3, "round {round}: stubborn pin lost");
        }
    }

    #[test]
    fn all_specs_build() {
        for spec in [
            AdversarySpec::None,
            AdversarySpec::Random,
            AdversarySpec::Balancer,
            AdversarySpec::Reviver { revive_at: 10 },
            AdversarySpec::MedianPusher,
            AdversarySpec::Stubborn,
        ] {
            let _ = spec.build();
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn random_corruptor_stays_within_bounds() {
        let (mut state, set) = setup(vec![3, 7, 3, 7, 3, 7, 3, 7]);
        let before = state.clone();
        let mut rng = Xoshiro256pp::seed(5);
        let mut adv = RandomCorruptor;
        with_corruptor(&mut state, &set, 3, |c| adv.corrupt(0, c, &mut rng));
        let changed = state.iter().zip(&before).filter(|(a, b)| a != b).count();
        assert!(changed <= 3, "budget violated: {changed}");
        for &v in &state {
            assert!(set.contains(v));
        }
    }

    // --- without a process view ---

    /// The live bins of `loads`.
    fn bins(loads: &LoadCounts) -> Vec<Bin> {
        loads.live_bins().collect()
    }

    #[test]
    fn hist_corruptor_moves_and_enforces() {
        let set = ValueSet::from_values(&[1, 2, 3]);
        let mut h = aggregated(&[(1, 100), (2, 50)]);
        let mut draws = Vec::new();
        let mut c = Corruptor::new(&mut h, &set, 30, &mut draws);
        assert_eq!(c.move_balls(1, 2, 20), 20);
        assert_eq!(c.remaining(), 10);
        // Out-of-set target refused.
        assert_eq!(c.move_balls(1, 99, 5), 0);
        // Budget-limited.
        assert_eq!(c.move_balls(1, 3, 50), 10);
        assert_eq!(c.remaining(), 0);
        assert_eq!(bins(&h), [(1, 70), (2, 70), (3, 10)]);
    }

    #[test]
    fn hist_corruptor_drains_bin() {
        let set = ValueSet::from_values(&[1, 2]);
        let mut h = aggregated(&[(1, 5), (2, 5)]);
        let mut draws = Vec::new();
        let mut c = Corruptor::new(&mut h, &set, 100, &mut draws);
        assert!(c.processes().is_none(), "no processes to name");
        assert_eq!(c.move_balls(1, 2, 100), 5);
        assert_eq!(bins(&h), [(2, 10)]);
    }

    #[test]
    fn hist_balancer_balances() {
        let set = ValueSet::from_values(&[0, 1]);
        let mut h = aggregated(&[(0, 80), (1, 20)]);
        let mut rng = Xoshiro256pp::seed(6);
        let mut draws = Vec::new();
        let mut c = Corruptor::new(&mut h, &set, 1000, &mut draws);
        TwoBinBalancer.corrupt(0, &mut c, &mut rng);
        assert_eq!(bins(&h), [(0, 50), (1, 50)]);
    }

    #[test]
    fn hist_balancer_resurrects_dead_bin() {
        let set = ValueSet::from_values(&[0, 1]);
        let mut h = aggregated(&[(0, 100)]);
        let mut rng = Xoshiro256pp::seed(7);
        let mut draws = Vec::new();
        let mut c = Corruptor::new(&mut h, &set, 8, &mut draws);
        TwoBinBalancer.corrupt(0, &mut c, &mut rng);
        assert_eq!(bins(&h), [(0, 92), (1, 8)]);
    }

    /// The balancer's pair as a walk over the whole allowed set, dead
    /// values included, picks it.
    fn allowed_set_pair(c: &Corruptor<'_>) -> Option<(Bin, Bin)> {
        let (top, second) = top_two(c.allowed().values().iter().map(|&v| (v, c.load(v))));
        top.zip(second)
    }

    /// The balancer's pair the loads name.
    fn balanced_pair(c: &Corruptor<'_>) -> Option<(Bin, Bin)> {
        c.loads.balanced_pair(c.allowed)
    }

    use crate::engine::adaptive::{top_two, Bin, Table, SCAN_CHUNK};
    use proptest::prelude::*;

    proptest! {
        /// The live-bin walk names the allowed-set walk's pair, one live bin
        /// included, on the rank table, open bins and aggregated bins.
        #[test]
        fn live_bin_pair_is_the_allowed_set_pair(
            values in prop::collection::vec(0u32..6, 1..40),
            extra in prop::collection::vec(0u32..9, 0..4),
            one_live in any::<bool>(),
            ranked in any::<bool>(),
        ) {
            let mut state = values.clone();
            let mut loads = LoadCounts::default();
            loads.rebuild(&mut state, &mut Vec::new(), ranked);
            let mut set = ValueSet::default();
            if ranked {
                loads.rebuild_value_set(&mut set);
            } else {
                set = ValueSet::from_values(&[values.clone(), extra].concat());
            }
            if one_live {
                let only = state[0];
                for v in state.iter_mut() {
                    loads.move_balls(*v, only, 1);
                    *v = only;
                }
            }
            let balls: Vec<Bin> = state.iter().map(|&v| (v, 1)).collect();
            let mut hist = aggregated(crate::histogram::Histogram::new(&balls).bins());
            let (mut touched, mut draws) = (Vec::new(), Vec::new());
            let dense = Corruptor::new(&mut loads, &set, 0, &mut draws)
                .with_processes(&mut state, &mut touched);
            let want = allowed_set_pair(&dense);
            prop_assert_eq!(balanced_pair(&dense), want);
            let hist = Corruptor::new(&mut hist, &set, 0, &mut draws);
            prop_assert_eq!(balanced_pair(&hist), want);
        }

        /// The rank-table passes give the bin walks' answers on ranked
        /// states with dead ranks, tied loads and a single live bin, over
        /// tables that span several scan chunks. With `chunks > 0` the
        /// state is `2 · chunks` all-distinct scan chunks, so the median's
        /// prefix ends exactly at a chunk end; a kill moves a ball to the
        /// first rank of its chunk, which keeps every chunk's sum. The same
        /// loads in sorted bins, with a process view (open bins) and without
        /// (aggregated), answer `load`, `lower_median`, `live_bins` and the
        /// balancer's pair alike, the dead-bin fallback of one live bin
        /// included.
        #[test]
        fn ranked_queries_match_the_bin_walks(
            raw in prop::collection::vec(0u32..1000, 1..400),
            spread in 1u32..300,
            chunks in 0usize..4,
            kill in prop::collection::vec(any::<bool>(), 0..300),
            one_live in any::<bool>(),
        ) {
            let mut state: Vec<Value> = match chunks {
                0 => raw.iter().map(|v| v % spread).collect(),
                _ => (0..(2 * chunks * SCAN_CHUNK) as Value).collect(),
            };
            let mut loads = LoadCounts::default();
            loads.rebuild(&mut state, &mut Vec::new(), true);
            let mut set = ValueSet::default();
            loads.rebuild_value_set(&mut set);
            let only = one_live.then_some(state[0]);
            for v in state.iter_mut() {
                let to = match only {
                    Some(only) => only,
                    None if kill.get(*v as usize) == Some(&true) => {
                        *v - *v % SCAN_CHUNK as Value
                    }
                    None => *v,
                };
                loads.move_balls(*v, to, 1);
                *v = to;
            }
            let mut sorted = state.clone();
            sorted.sort_unstable();
            let mut open_state = state.clone();
            let mut open_loads = open(&mut open_state);
            let mut hist = aggregated(&bins(&loads));
            let (mut touched, mut open_touched, mut draws) = (Vec::new(), Vec::new(), Vec::new());
            let dense = Corruptor::new(&mut loads, &set, 0, &mut draws)
                .with_processes(&mut state, &mut touched);
            prop_assert_eq!(dense.loads.table, Table::Ranks);
            let median = sorted[(sorted.len() - 1) / 2];
            prop_assert_eq!(dense.lower_median(), median);
            let pair = allowed_set_pair(&dense);
            prop_assert_eq!(balanced_pair(&dense), pair);
            let live: Vec<Bin> = dense.live_bins().collect();
            let mut no_draws = Vec::new();
            let open = Corruptor::new(&mut open_loads, &set, 0, &mut no_draws)
                .with_processes(&mut open_state, &mut open_touched);
            let mut hist_draws = Vec::new();
            let hist = Corruptor::new(&mut hist, &set, 0, &mut hist_draws);
            for (name, c) in [("open", &open), ("aggregated", &hist)] {
                for &v in set.values() {
                    prop_assert_eq!(c.load(v), dense.load(v), "{} load({})", name, v);
                }
                prop_assert_eq!(c.lower_median(), median, "{} median", name);
                prop_assert_eq!(c.live_bins().collect::<Vec<_>>(), live.clone(), "{} bins", name);
                prop_assert_eq!(balanced_pair(c), pair, "{} pair", name);
            }
        }
    }
}
