//! Initial condition generators for every workload in the paper.

use std::sync::Arc;

use rand::RngCore;
use stabcon_util::rng::gen_index;

use crate::histogram::Histogram;
use crate::value::Value;

/// How the `n` balls are initially assigned to bins.
#[derive(Debug, Clone)]
pub enum InitialCondition {
    /// The "all-one" assignment `b₀ᵢ = i` (§2.1): every ball in its own bin —
    /// the finest configuration, worst case for `m = n`.
    AllDistinct,
    /// Two bins, `left` balls holding value 0 and the rest value 1
    /// (the §3 two-bin analysis; `left = n/2` is the worst case).
    TwoBins {
        /// Balls assigned to the left (value-0) bin.
        left: usize,
    },
    /// `m` bins with loads as equal as possible, consecutive blocks
    /// (the worst-case m-bin workload of Theorem 3).
    MBinsEqual {
        /// Number of bins.
        m: u32,
    },
    /// Every ball independently uniform over `m` bins
    /// (the Theorem 4/21 average-case workload).
    UniformRandom {
        /// Number of bins.
        m: u32,
    },
    /// Explicit assignment (shared so `SimSpec` clones stay cheap).
    Custom(Arc<Vec<Value>>),
}

impl InitialCondition {
    /// Produce the ball values for a population of size `n`.
    ///
    /// # Panics
    /// Panics on inconsistent parameters (`left > n`, `m == 0`, custom
    /// length ≠ `n`).
    pub fn materialize<R: RngCore + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Value> {
        let mut out = Vec::new();
        self.materialize_into(n, rng, &mut out);
        out
    }

    /// [`InitialCondition::materialize`] into a reused buffer: same values,
    /// same RNG consumption, no fresh allocation once the buffer has the
    /// capacity.
    ///
    /// # Panics
    /// Panics on inconsistent parameters (`left > n`, `m == 0`, custom
    /// length ≠ `n`).
    pub fn materialize_into<R: RngCore + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<Value>,
    ) {
        assert!(n > 0, "materialize: n = 0");
        out.clear();
        match self {
            InitialCondition::AllDistinct => out.extend(0..n as u32),
            InitialCondition::TwoBins { left } => {
                assert!(*left <= n, "TwoBins: left > n");
                out.resize(*left, 0);
                out.resize(n, 1);
            }
            InitialCondition::MBinsEqual { m } => {
                assert!(*m > 0, "MBinsEqual: m = 0");
                let m = (*m as usize).min(n);
                // Block partition: ball i gets bin ⌊i·m/n⌋ — loads differ by
                // at most one and bins are consecutive.
                out.extend((0..n).map(|i| (i * m / n) as Value));
            }
            InitialCondition::UniformRandom { m } => {
                assert!(*m > 0, "UniformRandom: m = 0");
                out.extend((0..n).map(|_| gen_index(rng, *m as u64) as Value));
            }
            InitialCondition::Custom(values) => {
                assert_eq!(values.len(), n, "Custom: length mismatch");
                out.extend_from_slice(values);
            }
        }
    }

    /// An upper bound on the number of distinct initial values, known
    /// without drawing or materializing the `n` balls.
    pub(crate) fn max_support(&self, n: usize) -> usize {
        match self {
            InitialCondition::AllDistinct | InitialCondition::Custom(_) => n,
            InitialCondition::TwoBins { left } => 1 + usize::from(*left > 0 && *left < n),
            InitialCondition::MBinsEqual { m } | InitialCondition::UniformRandom { m } => {
                (*m as usize).min(n)
            }
        }
    }

    /// The initial loads, `(value, load)` value-ascending with every load
    /// positive: a recount of [`InitialCondition::materialize_into`] from
    /// the same RNG draws, without the `n` balls (in `O(m)` time for the
    /// closed-form starts).
    ///
    /// # Panics
    /// Panics on the parameters [`InitialCondition::materialize_into`]
    /// refuses.
    pub fn loads_into<R: RngCore + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<(Value, u64)>,
    ) {
        assert!(n > 0, "materialize: n = 0");
        out.clear();
        let n64 = n as u64;
        match self {
            InitialCondition::AllDistinct => out.extend((0..n as Value).map(|v| (v, 1))),
            InitialCondition::TwoBins { left } => {
                assert!(*left <= n, "TwoBins: left > n");
                out.extend([(0, *left as u64), (1, (n - left) as u64)]);
            }
            InitialCondition::MBinsEqual { m } => {
                assert!(*m > 0, "MBinsEqual: m = 0");
                let m = (*m as u64).min(n64);
                // Ball i holds ⌊i·m/n⌋, so bin b starts at ball ⌈b·n/m⌉.
                let start = |b: u64| (b as u128 * n as u128).div_ceil(m as u128) as u64;
                out.extend((0..m).map(|b| (b as Value, start(b + 1) - start(b))));
            }
            InitialCondition::UniformRandom { m } => {
                assert!(*m > 0, "UniformRandom: m = 0");
                out.extend((0..*m).map(|v| (v, 0)));
                for _ in 0..n {
                    out[gen_index(rng, *m as u64) as usize].1 += 1;
                }
            }
            InitialCondition::Custom(values) => {
                assert_eq!(values.len(), n, "Custom: length mismatch");
                let balls: Vec<(Value, u64)> = values.iter().map(|&v| (v, 1)).collect();
                out.extend_from_slice(Histogram::new(&balls).bins());
            }
        }
        out.retain(|&(_, load)| load > 0);
    }

    /// Table label.
    pub fn label(&self) -> String {
        match self {
            InitialCondition::AllDistinct => "all-distinct".into(),
            InitialCondition::TwoBins { left } => format!("two-bins({left})"),
            InitialCondition::MBinsEqual { m } => format!("m-equal({m})"),
            InitialCondition::UniformRandom { m } => format!("uniform({m})"),
            InitialCondition::Custom(_) => "custom".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabcon_util::rng::Xoshiro256pp;

    #[test]
    fn all_distinct() {
        let mut rng = Xoshiro256pp::seed(1);
        let v = InitialCondition::AllDistinct.materialize(5, &mut rng);
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_bins_split() {
        let mut rng = Xoshiro256pp::seed(2);
        let v = InitialCondition::TwoBins { left: 3 }.materialize(8, &mut rng);
        assert_eq!(v, vec![0, 0, 0, 1, 1, 1, 1, 1]);
        let all_right = InitialCondition::TwoBins { left: 0 }.materialize(3, &mut rng);
        assert_eq!(all_right, vec![1, 1, 1]);
    }

    #[test]
    fn m_bins_equal_loads() {
        let mut rng = Xoshiro256pp::seed(3);
        let v = InitialCondition::MBinsEqual { m: 3 }.materialize(10, &mut rng);
        // Loads must differ by at most 1 and bins are 0..3 consecutive.
        let mut counts = [0u32; 3];
        let mut prev = 0;
        for &x in &v {
            assert!(x >= prev, "blocks must be consecutive");
            prev = x;
            counts[x as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "loads {counts:?}");
        assert_eq!(counts.iter().sum::<u32>(), 10);
    }

    #[test]
    fn m_bins_caps_at_n() {
        let mut rng = Xoshiro256pp::seed(4);
        let v = InitialCondition::MBinsEqual { m: 100 }.materialize(4, &mut rng);
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn uniform_random_hits_all_bins() {
        let mut rng = Xoshiro256pp::seed(5);
        let v = InitialCondition::UniformRandom { m: 4 }.materialize(10_000, &mut rng);
        let mut counts = [0u32; 4];
        for &x in &v {
            assert!(x < 4);
            counts[x as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!((c as i64 - 2500).abs() < 400, "bin {b}: {c}");
        }
    }

    #[test]
    fn custom_passthrough() {
        let mut rng = Xoshiro256pp::seed(6);
        let vals = Arc::new(vec![9, 9, 3]);
        let v = InitialCondition::Custom(Arc::clone(&vals)).materialize(3, &mut rng);
        assert_eq!(v, vec![9, 9, 3]);
    }

    #[test]
    #[should_panic]
    fn custom_length_mismatch_panics() {
        let mut rng = Xoshiro256pp::seed(7);
        InitialCondition::Custom(Arc::new(vec![1, 2])).materialize(3, &mut rng);
    }

    #[test]
    fn loads_are_a_recount_of_the_materialized_state() {
        let custom = InitialCondition::Custom(Arc::new(vec![9, 2, 9, 4, 2, 9, 7]));
        for (n, init) in [
            (7, custom),
            (7, InitialCondition::AllDistinct),
            (7, InitialCondition::TwoBins { left: 3 }),
            (7, InitialCondition::TwoBins { left: 0 }),
            (7, InitialCondition::TwoBins { left: 7 }),
            (10, InitialCondition::MBinsEqual { m: 3 }),
            (1000, InitialCondition::MBinsEqual { m: 7 }),
            (4, InitialCondition::MBinsEqual { m: 100 }),
            (500, InitialCondition::UniformRandom { m: 6 }),
            (3, InitialCondition::UniformRandom { m: 40 }),
        ] {
            let (mut a, mut b) = (Xoshiro256pp::seed(8), Xoshiro256pp::seed(8));
            let balls: Vec<(Value, u64)> = init
                .materialize(n, &mut a)
                .iter()
                .map(|&v| (v, 1))
                .collect();
            let recount = Histogram::new(&balls);
            let mut loads = vec![(5, 5)];
            init.loads_into(n, &mut b, &mut loads);
            assert_eq!(loads, recount.bins(), "{} at n = {n}", init.label());
            assert!(loads.len() <= init.max_support(n), "{}", init.label());
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "{}: RNG draws differ",
                init.label()
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(InitialCondition::AllDistinct.label(), "all-distinct");
        assert_eq!(InitialCondition::TwoBins { left: 5 }.label(), "two-bins(5)");
        assert_eq!(
            InitialCondition::UniformRandom { m: 7 }.label(),
            "uniform(7)"
        );
    }
}
