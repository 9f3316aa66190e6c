//! Collection strategies: [`vec()`] and [`btree_map`].

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An inclusive-exclusive size bound for collection strategies, converted
/// from the `usize` and `Range<usize>` forms the call sites use.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.lo < self.hi, "empty size range");
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            lo: exact,
            hi: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

/// Strategy for `Vec<E::Value>` with a size drawn from `size`.
pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<E> {
    element: E,
    size: SizeRange,
}

impl<E: Strategy> Strategy for VecStrategy<E> {
    type Value = Vec<E::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<E::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K::Value, V::Value>` with a size drawn from
/// `size`. Duplicate keys are re-rolled a bounded number of times, so the
/// map can come up short only when the key space is nearly exhausted.
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord + Debug,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let target = self.size.pick(rng);
        let mut map = BTreeMap::new();
        let mut attempts = 0;
        while map.len() < target && attempts < target * 10 + 100 {
            attempts += 1;
            map.insert(self.keys.generate(rng), self.values.generate(rng));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_range() {
        let strat = vec(0u32..5, 2..6);
        let mut rng = TestRng::new(11);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn vec_exact_size() {
        let strat = vec(0u32..5, 3);
        let mut rng = TestRng::new(11);
        assert_eq!(strat.generate(&mut rng).len(), 3);
    }

    #[test]
    fn btree_map_reaches_target_size() {
        let strat = btree_map(0u32..1000, 0u32..10, 4..5);
        let mut rng = TestRng::new(11);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut rng).len(), 4);
        }
    }

    #[test]
    fn btree_map_tolerates_small_key_space() {
        // Only 3 possible keys but a target of up to 7: must terminate.
        let strat = btree_map(0u32..3, 0u32..10, 0..8);
        let mut rng = TestRng::new(11);
        for _ in 0..50 {
            assert!(strat.generate(&mut rng).len() <= 3);
        }
    }
}
