//! Statistics counters backing the paper's evaluation tables.

use std::fmt;
use std::ops::Sub;

use crate::result::TestKind;

impl TestKind {
    /// Dense index for counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            TestKind::Svpc => 0,
            TestKind::Acyclic => 1,
            TestKind::LoopResidue => 2,
            TestKind::FourierMotzkin => 3,
        }
    }
}

/// Per-test invocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TestCounts {
    /// Number of cascade resolutions credited to each test
    /// (indexed by [`TestKind::index`]).
    pub calls: [u64; 4],
    /// How many of those returned "independent".
    pub independent: [u64; 4],
}

impl TestCounts {
    /// Records one invocation.
    pub fn record(&mut self, kind: TestKind, was_independent: bool) {
        self.calls[kind.index()] += 1;
        if was_independent {
            self.independent[kind.index()] += 1;
        }
    }

    /// Calls credited to `kind`.
    #[must_use]
    pub fn calls_for(&self, kind: TestKind) -> u64 {
        self.calls[kind.index()]
    }

    /// Total calls across all tests.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Adds another counter set into this one.
    pub fn add(&mut self, other: &TestCounts) {
        for i in 0..4 {
            self.calls[i] += other.calls[i];
            self.independent[i] += other.independent[i];
        }
    }
}

impl Sub for TestCounts {
    type Output = TestCounts;
    fn sub(self, rhs: TestCounts) -> TestCounts {
        let mut out = TestCounts::default();
        for i in 0..4 {
            out.calls[i] = self.calls[i] - rhs.calls[i];
            out.independent[i] = self.independent[i] - rhs.independent[i];
        }
        out
    }
}

impl fmt::Display for TestCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, kind) in TestKind::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kind}: {}", self.calls[i])?;
        }
        Ok(())
    }
}

/// Whole-analysis statistics: the raw material of Tables 1–5 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisStats {
    /// Reference pairs examined.
    pub pairs: u64,
    /// Pairs with all-constant subscripts (no dependence testing).
    pub constant: u64,
    /// Pairs proven independent by the extended GCD test alone.
    pub gcd_independent: u64,
    /// Pairs where no test applied (non-affine, overflow, symbolic
    /// disabled): dependence assumed.
    pub assumed: u64,
    /// The test resolving each pair's base (`*`-vector) query — Table 1
    /// semantics.
    pub base_tests: TestCounts,
    /// Every cascade invocation made while refining direction vectors —
    /// Table 4/5 semantics.
    pub direction_tests: TestCounts,
    /// Queries against the full-result memo table.
    pub memo_queries: u64,
    /// Hits in the full-result memo table.
    pub memo_hits: u64,
    /// Queries against the no-bounds (GCD) memo table.
    pub gcd_memo_queries: u64,
    /// Hits in the no-bounds memo table.
    pub gcd_memo_hits: u64,
    /// Pairs whose final answer was independent.
    pub independent_pairs: u64,
    /// Pairs whose final answer was (or had to be assumed) dependent.
    pub dependent_pairs: u64,
    /// Total direction vectors reported.
    pub direction_vectors_found: u64,
}

impl AnalysisStats {
    /// Statistics accumulated since `earlier` (for per-program deltas on a
    /// long-lived analyzer).
    #[must_use]
    pub fn since(&self, earlier: &AnalysisStats) -> AnalysisStats {
        AnalysisStats {
            pairs: self.pairs - earlier.pairs,
            constant: self.constant - earlier.constant,
            gcd_independent: self.gcd_independent - earlier.gcd_independent,
            assumed: self.assumed - earlier.assumed,
            base_tests: self.base_tests - earlier.base_tests,
            direction_tests: self.direction_tests - earlier.direction_tests,
            memo_queries: self.memo_queries - earlier.memo_queries,
            memo_hits: self.memo_hits - earlier.memo_hits,
            gcd_memo_queries: self.gcd_memo_queries - earlier.gcd_memo_queries,
            gcd_memo_hits: self.gcd_memo_hits - earlier.gcd_memo_hits,
            independent_pairs: self.independent_pairs - earlier.independent_pairs,
            dependent_pairs: self.dependent_pairs - earlier.dependent_pairs,
            direction_vectors_found: self.direction_vectors_found - earlier.direction_vectors_found,
        }
    }

    /// Adds another accumulator into this one (for summing per-worker or
    /// per-program partials into batch totals).
    pub fn add(&mut self, other: &AnalysisStats) {
        self.pairs += other.pairs;
        self.constant += other.constant;
        self.gcd_independent += other.gcd_independent;
        self.assumed += other.assumed;
        self.base_tests.add(&other.base_tests);
        self.direction_tests.add(&other.direction_tests);
        self.memo_queries += other.memo_queries;
        self.memo_hits += other.memo_hits;
        self.gcd_memo_queries += other.gcd_memo_queries;
        self.gcd_memo_hits += other.gcd_memo_hits;
        self.independent_pairs += other.independent_pairs;
        self.dependent_pairs += other.dependent_pairs;
        self.direction_vectors_found += other.direction_vectors_found;
    }

    /// Fraction of memo queries that were unique (missed), as a
    /// percentage — the paper's Table 2 metric.
    #[must_use]
    pub fn unique_case_percentage(&self) -> f64 {
        if self.memo_queries == 0 {
            return 100.0;
        }
        let misses = self.memo_queries - self.memo_hits;
        100.0 * misses as f64 / self.memo_queries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut c = TestCounts::default();
        c.record(TestKind::Svpc, true);
        c.record(TestKind::Svpc, false);
        c.record(TestKind::FourierMotzkin, true);
        assert_eq!(c.calls_for(TestKind::Svpc), 2);
        assert_eq!(c.independent[TestKind::Svpc.index()], 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn since_subtracts() {
        let a = AnalysisStats {
            pairs: 10,
            memo_queries: 8,
            memo_hits: 6,
            ..AnalysisStats::default()
        };
        let mut b = a;
        b.pairs = 25;
        b.memo_queries = 20;
        b.memo_hits = 10;
        let d = b.since(&a);
        assert_eq!(d.pairs, 15);
        assert_eq!(d.memo_queries, 12);
        assert_eq!(d.memo_hits, 4);
    }

    #[test]
    fn unique_percentage() {
        let mut s = AnalysisStats::default();
        assert_eq!(s.unique_case_percentage(), 100.0);
        s.memo_queries = 100;
        s.memo_hits = 94;
        assert!((s.unique_case_percentage() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        let idx: Vec<usize> = TestKind::ALL.iter().map(|k| k.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
