//! The T-bounded adversary framework and the paper's concrete strategies.
//!
//! Model (§1.1): at the beginning of each round the adversary — who knows
//! the full history — may change the state of up to `T` processes, but only
//! to values from the initial set `{v₁, …, v_n}`.
//!
//! Both constraints are enforced **by construction**: strategies never touch
//! raw state, they go through a [`Corruptor`] (dense engines) or
//! [`HistCorruptor`] (histogram engine) that refuses over-budget writes and
//! out-of-set values. A strategy cannot cheat even if buggy.
//!
//! The [`Corruptor`] also keeps the runner's [`LoadCounts`]: every accepted
//! write is one load move, and strategies read loads and the lower median
//! from it instead of recounting the state. On the ranked path the state,
//! the allowed set and every write are ranks; every strategy uses values
//! only through order and equality, so it flips the same balls either way.

use rand::RngCore;
use stabcon_util::rng::gen_index;

use crate::engine::adaptive::LoadCounts;
use crate::value::{Value, ValueSet};

// ---------------------------------------------------------------------------
// Dense corruption API
// ---------------------------------------------------------------------------

/// Budget- and validity-enforcing write handle over dense state, which
/// keeps the state's [`LoadCounts`] in step with every write.
pub struct Corruptor<'a> {
    state: &'a mut [Value],
    loads: &'a mut LoadCounts,
    allowed: &'a ValueSet,
    budget: u64,
    /// One bit per process: written this round.
    touched: &'a mut Vec<u64>,
    /// Processes written this round.
    count: u64,
}

impl<'a> Corruptor<'a> {
    /// Wrap `state` and its `loads` with budget `T` and the initial-value-set
    /// constraint. `touched` is a caller-parked bitmap, cleared here, that
    /// marks this round's writes, so a warm round allocates nothing.
    pub fn new(
        state: &'a mut [Value],
        loads: &'a mut LoadCounts,
        allowed: &'a ValueSet,
        budget: u64,
        touched: &'a mut Vec<u64>,
    ) -> Self {
        touched.clear();
        touched.resize(state.len().div_ceil(64), 0);
        Self {
            state,
            loads,
            allowed,
            budget,
            touched,
            count: 0,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.state.len()
    }

    /// Read a process state (the adversary sees everything).
    pub fn get(&self, i: usize) -> Value {
        self.state[i]
    }

    /// Balls currently holding `v`.
    pub fn load(&self, v: Value) -> u64 {
        self.loads.count_of(v)
    }

    /// The lower median of the state, `sorted[(n − 1) / 2]`: the first
    /// value whose cumulative load reaches `⌈n/2⌉`.
    pub fn lower_median(&self) -> Value {
        self.loads.observe().median_value
    }

    /// Distinct processes still corruptible this round.
    pub fn remaining(&self) -> u64 {
        self.budget - self.count
    }

    /// Processes changed so far this round.
    pub fn touched(&self) -> u64 {
        self.count
    }

    /// Attempt to set process `i` to `v`. Returns `false` (state untouched)
    /// if `v` is outside the initial value set or the budget is exhausted.
    /// Rewriting an already-touched process is free; writing a process's
    /// current value back costs nothing.
    pub fn try_set(&mut self, i: usize, v: Value) -> bool {
        if self.state[i] == v {
            return true;
        }
        if !self.allowed.contains(v) {
            return false;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.touched[word] & bit == 0 {
            if self.count >= self.budget {
                return false;
            }
            self.touched[word] |= bit;
            self.count += 1;
        }
        self.loads.record_move(self.state[i], v);
        self.state[i] = v;
        true
    }

    /// The allowed (initial) value set.
    pub fn allowed(&self) -> &ValueSet {
        self.allowed
    }
}

/// A T-bounded adversary strategy over dense state.
pub trait Adversary: Send {
    /// Short identifier for tables.
    fn name(&self) -> &'static str;

    /// Inspect and corrupt the state at the beginning of round `round`.
    fn corrupt(&mut self, round: u64, c: &mut Corruptor<'_>, rng: &mut dyn RngCore);
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// The absent adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdversary;

impl Adversary for NoAdversary {
    fn name(&self) -> &'static str {
        "none"
    }
    fn corrupt(&mut self, _round: u64, _c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {}
}

/// Corrupts `T` uniformly random processes to uniformly random initial
/// values — the "noise floor" adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomCorruptor;

impl Adversary for RandomCorruptor {
    fn name(&self) -> &'static str {
        "random"
    }
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, rng: &mut dyn RngCore) {
        let n = c.n() as u64;
        let m = c.allowed().len() as u64;
        let budget = c.remaining();
        for _ in 0..budget {
            let i = gen_index(rng, n) as usize;
            let v = c.allowed().nth(gen_index(rng, m) as usize);
            let _ = c.try_set(i, v);
        }
    }
}

/// The lower-bound strategy from the Theorem 2 discussion: keep the two
/// largest bins in perfect balance. With budget `T = Ω̃(√n)` this stalls the
/// median rule for polynomially long; with `T ≪ √n` the random drift
/// escapes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoBinBalancer;

impl Adversary for TwoBinBalancer {
    fn name(&self) -> &'static str {
        "balancer"
    }
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {
        // Two most loaded allowed values; an empty one still counts.
        let allowed = c.allowed().values().iter();
        let Some(((big, big_load), (small, small_load))) =
            top_two(allowed.map(|&v| (v, c.load(v))))
        else {
            return; // single allowed value: nothing to balance
        };
        if big_load <= small_load {
            return;
        }
        // Each flip big→small closes the gap by 2.
        let flips = ((big_load - small_load) / 2).min(c.remaining());
        if flips == 0 {
            return;
        }
        let mut done = 0u64;
        for i in 0..c.n() {
            if done == flips {
                break;
            }
            if c.get(i) == big && c.try_set(i, small) {
                done += 1;
            }
        }
    }
}

/// The two most loaded of value-ascending `(value, load)` bins, ties to the
/// smaller value (the first two after a stable sort by descending load);
/// `None` with fewer than two bins.
fn top_two(bins: impl Iterator<Item = (Value, u64)>) -> Option<((Value, u64), (Value, u64))> {
    let mut top: Option<(Value, u64)> = None;
    let mut second = None;
    for (v, load) in bins {
        match top {
            Some((_, t)) if load <= t => {
                if second.is_none_or(|(_, s)| load > s) {
                    second = Some((v, load));
                }
            }
            _ => {
                second = top;
                top = Some((v, load));
            }
        }
    }
    top.zip(second)
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
    fn name(&self) -> &'static str {
        "reviver"
    }
    fn corrupt(&mut self, round: u64, c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {
        let victim = c.allowed().min();
        if c.allowed().len() < 2 {
            return;
        }
        let replacement = c.allowed().nth(1);
        if round < self.revive_at {
            // Erase phase: flip holders of the victim value.
            for i in 0..c.n() {
                if c.remaining() == 0 {
                    break;
                }
                if c.get(i) == victim {
                    let _ = c.try_set(i, replacement);
                }
            }
        } else if round == self.revive_at {
            // Revival: one ball suffices to poison the min rule forever.
            let _ = c.try_set(0, victim);
        }
    }
}

/// Pushes balls *away from the current median bin* toward the extreme
/// initial values, alternating sides — the natural "stall the median"
/// heuristic attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianPusher;

impl Adversary for MedianPusher {
    fn name(&self) -> &'static str {
        "median-pusher"
    }
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, rng: &mut dyn RngCore) {
        let median = c.lower_median();
        let lo = c.allowed().min();
        let hi = c.allowed().max();
        if lo == hi {
            return;
        }
        let mut flip_low = gen_index(rng, 2) == 0;
        for i in 0..c.n() {
            let target = if flip_low { lo } else { hi };
            // `flip_low` changes only on a landed write, and no write lands
            // once the target is the median itself (on two bins, one of
            // `lo` and `hi` is): the rest of the scan could change nothing.
            if c.remaining() == 0 || target == median {
                break;
            }
            if c.get(i) == median && c.try_set(i, target) {
                flip_low = !flip_low;
            }
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
    fn name(&self) -> &'static str {
        "stubborn"
    }
    fn corrupt(&mut self, _round: u64, c: &mut Corruptor<'_>, _rng: &mut dyn RngCore) {
        let target = c.allowed().min();
        for i in 0..c.n() {
            if c.remaining() == 0 && c.get(i) != target {
                break;
            }
            if !c.try_set(i, target) {
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

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            AdversarySpec::None => "none",
            AdversarySpec::Random => "random",
            AdversarySpec::Balancer => "balancer",
            AdversarySpec::Reviver { .. } => "reviver",
            AdversarySpec::MedianPusher => "median-pusher",
            AdversarySpec::Stubborn => "stubborn",
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram-level corruption (for the O(m²) engine at huge n)
// ---------------------------------------------------------------------------

/// Budget-enforcing ball mover over aggregated loads.
pub struct HistCorruptor<'a> {
    loads: &'a mut Vec<(Value, u64)>,
    allowed: &'a ValueSet,
    budget: u64,
    moved: u64,
}

impl<'a> HistCorruptor<'a> {
    /// Wrap sorted `(value, load)` pairs with budget `T`.
    pub fn new(loads: &'a mut Vec<(Value, u64)>, allowed: &'a ValueSet, budget: u64) -> Self {
        Self {
            loads,
            allowed,
            budget,
            moved: 0,
        }
    }

    /// Read-only view of the loads.
    pub fn loads(&self) -> &[(Value, u64)] {
        self.loads
    }

    /// Remaining budget.
    pub fn remaining(&self) -> u64 {
        self.budget - self.moved
    }

    /// The allowed value set.
    pub fn allowed(&self) -> &ValueSet {
        self.allowed
    }

    /// Move up to `k` balls from bin `from` to bin `to`; returns how many
    /// moved (limited by budget, availability, and `to ∈ allowed`).
    pub fn move_balls(&mut self, from: Value, to: Value, k: u64) -> u64 {
        if from == to || !self.allowed.contains(to) {
            return 0;
        }
        let k = k.min(self.remaining());
        if k == 0 {
            return 0;
        }
        let Some(src) = self.loads.iter().position(|&(v, _)| v == from) else {
            return 0;
        };
        let take = self.loads[src].1.min(k);
        if take == 0 {
            return 0;
        }
        self.loads[src].1 -= take;
        match self.loads.iter().position(|&(v, _)| v == to) {
            Some(dst) => self.loads[dst].1 += take,
            None => {
                self.loads.push((to, take));
                self.loads.sort_unstable_by_key(|&(v, _)| v);
            }
        }
        self.loads.retain(|&(_, c)| c > 0);
        self.moved += take;
        take
    }
}

/// A T-bounded adversary over aggregated loads.
pub trait HistAdversary: Send {
    /// Short identifier for tables.
    fn name(&self) -> &'static str;
    /// Inspect and corrupt the loads at the beginning of a round.
    fn corrupt(&mut self, round: u64, c: &mut HistCorruptor<'_>, rng: &mut dyn RngCore);
}

/// No-op histogram adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistNoAdversary;

impl HistAdversary for HistNoAdversary {
    fn name(&self) -> &'static str {
        "none"
    }
    fn corrupt(&mut self, _round: u64, _c: &mut HistCorruptor<'_>, _rng: &mut dyn RngCore) {}
}

/// Histogram-level two-bin balancer (the Ω̃(√n) lower-bound strategy at
/// populations far beyond dense-engine reach).
#[derive(Debug, Clone, Copy, Default)]
pub struct HistBalancer;

impl HistAdversary for HistBalancer {
    fn name(&self) -> &'static str {
        "balancer"
    }
    fn corrupt(&mut self, _round: u64, c: &mut HistCorruptor<'_>, _rng: &mut dyn RngCore) {
        let Some(((big, big_load), (small, small_load))) = top_two(c.loads().iter().copied())
        else {
            // Try to resurrect a second allowed value if the budget allows.
            if let Some(&(only, _)) = c.loads().first() {
                if let Some(&other) = c.allowed().values().iter().find(|&&v| v != only) {
                    let want = c.remaining();
                    c.move_balls(only, other, want);
                }
            }
            return;
        };
        if big_load > small_load {
            let flips = (big_load - small_load) / 2;
            c.move_balls(big, small, flips);
        }
    }
}

/// Histogram selector for [`crate::runner::HistSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistAdversarySpec {
    /// No adversary.
    None,
    /// Load balancer over the top two bins.
    Balancer,
}

impl HistAdversarySpec {
    /// Instantiate the strategy.
    pub fn build(&self) -> Box<dyn HistAdversary> {
        match self {
            HistAdversarySpec::None => Box::new(HistNoAdversary),
            HistAdversarySpec::Balancer => Box::new(HistBalancer),
        }
    }

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            HistAdversarySpec::None => "none",
            HistAdversarySpec::Balancer => "balancer",
        }
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

    /// Run `f` on a [`Corruptor`] over `state` with fresh value-space loads,
    /// then check the loads it kept against a recount of the state.
    fn with_corruptor<R>(
        state: &mut [Value],
        set: &ValueSet,
        budget: u64,
        f: impl FnOnce(&mut Corruptor<'_>) -> R,
    ) -> R {
        let mut loads = LoadCounts::rebuild(None, state, &mut Vec::new(), false);
        let mut touched = Vec::new();
        let mut c = Corruptor::new(state, &mut loads, set, budget, &mut touched);
        let out = f(&mut c);
        assert_eq!(
            loads,
            LoadCounts::rebuild(None, state, &mut Vec::new(), false),
            "loads kept"
        );
        out
    }

    #[test]
    fn corruptor_enforces_budget() {
        let (mut state, set) = setup(vec![0, 0, 0, 0, 1, 1]);
        with_corruptor(&mut state, &set, 2, |c| {
            assert!(c.try_set(0, 1));
            assert!(c.try_set(1, 1));
            assert!(!c.try_set(2, 1), "third distinct process must be refused");
            assert_eq!(c.touched(), 2);
        });
        assert_eq!(state, vec![1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn corruptor_enforces_value_set() {
        let (mut state, set) = setup(vec![0, 1]);
        with_corruptor(&mut state, &set, 10, |c| {
            assert!(!c.try_set(0, 99), "99 not an initial value");
            assert!(c.try_set(0, 1));
        });
        assert_eq!(state, vec![1, 1]);
    }

    #[test]
    fn corruptor_noop_writes_are_free() {
        let (mut state, set) = setup(vec![0, 1]);
        with_corruptor(&mut state, &set, 1, |c| {
            assert!(c.try_set(0, 0), "same-value write is free");
            assert_eq!(c.touched(), 0);
            assert!(c.try_set(1, 0));
            assert_eq!(c.touched(), 1);
        });
    }

    #[test]
    fn corruptor_retouching_is_free() {
        let (mut state, set) = setup(vec![0, 1, 0, 1]);
        with_corruptor(&mut state, &set, 1, |c| {
            assert!(c.try_set(0, 1));
            assert!(c.try_set(0, 0), "retouching the same process is free");
            assert_eq!(c.touched(), 1);
        });
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
            let adv = spec.build();
            assert!(!adv.name().is_empty());
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

    // --- histogram level ---

    #[test]
    fn hist_corruptor_moves_and_enforces() {
        let set = ValueSet::from_values(&[1, 2, 3]);
        let mut loads = vec![(1u32, 100u64), (2, 50)];
        let mut c = HistCorruptor::new(&mut loads, &set, 30);
        assert_eq!(c.move_balls(1, 2, 20), 20);
        assert_eq!(c.remaining(), 10);
        // Out-of-set target refused.
        assert_eq!(c.move_balls(1, 99, 5), 0);
        // Budget-limited.
        assert_eq!(c.move_balls(1, 3, 50), 10);
        assert_eq!(c.remaining(), 0);
        assert_eq!(loads, vec![(1, 70), (2, 70), (3, 10)]);
    }

    #[test]
    fn hist_corruptor_drains_bin() {
        let set = ValueSet::from_values(&[1, 2]);
        let mut loads = vec![(1u32, 5u64), (2, 5)];
        let mut c = HistCorruptor::new(&mut loads, &set, 100);
        assert_eq!(c.move_balls(1, 2, 100), 5);
        assert_eq!(loads, vec![(2, 10)]);
    }

    #[test]
    fn hist_balancer_balances() {
        let set = ValueSet::from_values(&[0, 1]);
        let mut loads = vec![(0u32, 80u64), (1, 20)];
        let mut rng = Xoshiro256pp::seed(6);
        let mut adv = HistBalancer;
        let mut c = HistCorruptor::new(&mut loads, &set, 1000);
        adv.corrupt(0, &mut c, &mut rng);
        assert_eq!(loads, vec![(0, 50), (1, 50)]);
    }

    #[test]
    fn hist_balancer_resurrects_dead_bin() {
        let set = ValueSet::from_values(&[0, 1]);
        let mut loads = vec![(0u32, 100u64)];
        let mut rng = Xoshiro256pp::seed(7);
        let mut adv = HistBalancer;
        let mut c = HistCorruptor::new(&mut loads, &set, 8);
        adv.corrupt(0, &mut c, &mut rng);
        assert_eq!(loads, vec![(0, 92), (1, 8)]);
    }
}
