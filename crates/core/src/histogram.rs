//! Aggregated configurations: bin loads instead of per-ball values.
//!
//! The histogram view makes two things possible:
//!
//! * the **histogram engine**, whose per-round cost is `O(m)` binomial
//!   draws independent of `n` — where a median-rule ball lands depends only
//!   on the loads, so the movers of each direction travel as one pool;
//! * cheap observables for huge synthetic populations (up to 2^52 balls).

use crate::value::Value;

/// A configuration aggregated by value: sorted `(value, load)` pairs with
/// strictly increasing values and strictly positive loads.
///
/// The `Default` value is an **empty placeholder** kept only so a bin
/// buffer can be parked between trials (see
/// [`crate::engine::adaptive::LoadCounts`]); it must be filled before
/// queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<(Value, u64)>,
    n: u64,
}

impl Histogram {
    /// Build from `(value, load)` pairs (any order; zero loads dropped,
    /// duplicate values merged).
    ///
    /// # Panics
    /// Panics if the total load is zero or exceeds 2^52.
    pub fn new(pairs: &[(Value, u64)]) -> Self {
        let mut h = Self {
            bins: pairs.to_vec(),
            n: 0,
        };
        h.normalize();
        h
    }

    /// Recount from one value per ball, reusing the bin buffer.
    ///
    /// # Panics
    /// Panics if `values` is empty or longer than 2^52.
    pub fn recount(&mut self, values: &[Value]) {
        self.bins.clear();
        self.bins.extend(values.iter().map(|&v| (v, 1)));
        self.normalize();
    }

    /// Sort the bins by value, merge duplicates, drop zero loads, total.
    fn normalize(&mut self) {
        self.bins.sort_unstable_by_key(|&(v, _)| v);
        self.bins.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        self.bins.retain(|&(_, c)| c > 0);
        self.n = self.bins.iter().map(|&(_, c)| c).sum();
        assert!(self.n > 0, "Histogram: empty");
        assert!(self.n <= 1 << 52, "Histogram: n exceeds 2^52");
    }

    /// Total number of balls.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The sorted `(value, load)` pairs.
    #[inline]
    pub fn bins(&self) -> &[(Value, u64)] {
        &self.bins
    }

    /// Number of non-empty bins.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.bins.len()
    }

    /// Balls holding `v`.
    pub fn load(&self, v: Value) -> u64 {
        self.bins
            .binary_search_by_key(&v, |&(bv, _)| bv)
            .map_or(0, |i| self.bins[i].1)
    }

    /// Move `k` balls from bin `from` to bin `to`, dropping `from` if it
    /// empties and inserting `to` if it was dead.
    ///
    /// # Panics
    /// Panics if `from` holds fewer than `k` balls.
    pub fn move_balls(&mut self, from: Value, to: Value, k: u64) {
        if k == 0 || from == to {
            return;
        }
        let src = self
            .bins
            .binary_search_by_key(&from, |&(v, _)| v)
            .ok()
            .filter(|&i| self.bins[i].1 >= k)
            .expect("move_balls: not enough balls in the source bin");
        self.bins[src].1 -= k;
        if self.bins[src].1 == 0 {
            self.bins.remove(src);
        }
        match self.bins.binary_search_by_key(&to, |&(v, _)| v) {
            Ok(dst) => self.bins[dst].1 += k,
            Err(dst) => self.bins.insert(dst, (to, k)),
        }
    }

    /// The median bin `m_t`: value of the ⌈n/2⌉-th smallest ball.
    pub fn median_value(&self) -> Value {
        let target = self.n.div_ceil(2);
        let mut acc = 0u64;
        for &(v, c) in &self.bins {
            acc += c;
            if acc >= target {
                return v;
            }
        }
        unreachable!("loads must cover all balls")
    }

    /// Replace every bin's load in place (bin order unchanged), dropping
    /// bins that went to zero — the allocation-free core of one histogram
    /// engine round.
    ///
    /// # Panics
    /// Panics if `loads.len()` differs from the bin count or the new loads
    /// do not conserve the population.
    pub fn set_loads(&mut self, loads: &[u64]) {
        assert_eq!(loads.len(), self.bins.len(), "set_loads: length mismatch");
        let total: u64 = loads.iter().sum();
        assert_eq!(total, self.n, "set_loads must conserve the population");
        for (slot, &c) in self.bins.iter_mut().zip(loads) {
            slot.1 = c;
        }
        self.bins.retain(|&(_, c)| c > 0);
    }

    /// Refill from already sorted, strictly ascending, positive-load bins,
    /// reusing the bin buffer — the adaptive engine's handoff path.
    ///
    /// # Panics
    /// Panics if the bins are empty or the total exceeds 2^52 (debug builds
    /// also check ordering and positivity).
    pub fn refill(&mut self, bins: impl IntoIterator<Item = (Value, u64)>) {
        self.bins.clear();
        self.n = 0;
        for (v, c) in bins {
            debug_assert!(c > 0, "refill: zero load for {v}");
            debug_assert!(
                self.bins.last().is_none_or(|&(lv, _)| lv < v),
                "refill: bins not strictly ascending"
            );
            self.bins.push((v, c));
            self.n += c;
        }
        assert!(self.n > 0, "Histogram: empty");
        assert!(self.n <= 1 << 52, "Histogram: n exceeds 2^52");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_merges_drops_zeros() {
        let h = Histogram::new(&[(5, 2), (1, 3), (5, 1), (9, 0)]);
        assert_eq!(h.bins(), &[(1, 3), (5, 3)]);
        assert_eq!(h.n(), 6);
        assert_eq!(h.support_size(), 2);
    }

    #[test]
    fn observables_match_dense() {
        let dense = [1u32, 1, 2, 9, 9, 9];
        let h = Histogram::new(&dense.map(|v| (v, 1)));
        assert_eq!(h.median_value(), 2, "the ⌈6/2⌉-th smallest ball");
        for v in [1, 2, 7, 9] {
            let balls = dense.iter().filter(|&&x| x == v).count() as u64;
            assert_eq!(h.load(v), balls, "value {v}");
        }
    }

    #[test]
    fn consensus() {
        let h = Histogram::new(&[(4, 100)]);
        assert_eq!(h.support_size(), 1);
        assert_eq!(h.median_value(), 4);
        assert_eq!(h.load(4), h.n());
    }

    #[test]
    fn huge_population() {
        let big = 1u64 << 40;
        let h = Histogram::new(&[(0, big), (1, big + 7)]);
        assert_eq!(h.n(), 2 * big + 7);
        assert_eq!(h.median_value(), 1);
        assert_eq!(h.load(1), big + 7);
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        Histogram::new(&[(1, 0)]);
    }
}
