//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;
use rand::RngExt;
use std::ops::{Range, RangeInclusive};

/// An element-count range for [`vec()`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    /// Inclusive.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

/// A strategy producing vectors whose elements come from `element`
/// and whose length falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        let n = runner.rng().random_range(self.size.min..=self.size.max);
        (0..n).map(|_| self.element.generate(runner)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn lengths_respect_bounds() {
        let mut r = TestRunner::new("collection-vec");
        let s = vec(Just(7u8), 1..4);
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!((1..=3).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 7));
        }
    }
}
