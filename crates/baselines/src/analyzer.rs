//! A whole-program driver for the baseline tests, mirroring
//! `dda_core::DependenceAnalyzer` so the Section 7 comparison runs both
//! sides over identical pair universes.

use std::sync::Arc;

use dda_ir::{extract_accesses, reference_pairs, Program, RefPair};

use dda_core::problem::constant_compare;
use dda_core::DirectionVector;

use crate::banerjee::banerjee_independent_star;
use crate::gcd_simple::simple_gcd_independent;
use crate::model::build_model;
use crate::wolfe::wolfe_direction_vectors;

/// The baseline verdict for one pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselinePair {
    /// Name of the shared array.
    pub array: Arc<str>,
    /// Provably independent under the inexact tests.
    pub independent: bool,
    /// Direction vectors the baseline could not rule out (empty when
    /// independent or when vectors were not computed).
    pub direction_vectors: Vec<DirectionVector>,
}

/// Aggregate results of a baseline run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BaselineReport {
    /// Per-pair verdicts, in enumeration order.
    pub pairs: Vec<BaselinePair>,
    /// Banerjee/GCD invocations performed.
    pub tests_run: u64,
}

impl BaselineReport {
    /// Number of pairs proven independent.
    #[must_use]
    pub fn independent_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.independent).count()
    }

    /// Total direction vectors reported.
    #[must_use]
    pub fn direction_vector_count(&self) -> usize {
        self.pairs.iter().map(|p| p.direction_vectors.len()).sum()
    }
}

/// Analyzes one pair with the inexact cascade (simple GCD, then plain
/// Banerjee); optionally enumerates direction vectors with Wolfe's
/// extension.
#[must_use]
pub fn baseline_pair(pair: RefPair<'_>, directions: bool, tests_run: &mut u64) -> BaselinePair {
    let common = pair.common;
    let array = Arc::clone(pair.array_name());
    if let Some(dependent) = constant_compare(pair) {
        return BaselinePair {
            array,
            independent: !dependent,
            direction_vectors: if dependent && directions {
                vec![DirectionVector::any(common)]
            } else {
                Vec::new()
            },
        };
    }
    let Some(model) = build_model(pair) else {
        return BaselinePair {
            array,
            independent: false,
            direction_vectors: if directions {
                vec![DirectionVector::any(common)]
            } else {
                Vec::new()
            },
        };
    };
    if directions {
        let (vectors, n) = wolfe_direction_vectors(&model);
        *tests_run += n + 1; // + the up-front GCD call
        BaselinePair {
            array,
            independent: vectors.is_empty(),
            direction_vectors: vectors,
        }
    } else {
        *tests_run += 1;
        if simple_gcd_independent(&model) {
            return BaselinePair {
                array,
                independent: true,
                direction_vectors: Vec::new(),
            };
        }
        *tests_run += 1;
        BaselinePair {
            array,
            independent: banerjee_independent_star(&model),
            direction_vectors: Vec::new(),
        }
    }
}

/// Runs the baseline analyzer over a whole (normalized) program.
///
/// # Examples
///
/// ```
/// use dda_ir::parse_program;
/// use dda_baselines::analyze_with_baselines;
///
/// let p = parse_program("for i = 1 to 10 { a[i] = a[i + 10]; }")?;
/// let report = analyze_with_baselines(&p, false);
/// assert_eq!(report.independent_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn analyze_with_baselines(program: &Program, directions: bool) -> BaselineReport {
    let set = extract_accesses(program);
    let pairs = reference_pairs(&set, false);
    let mut report = BaselineReport::default();
    for p in pairs {
        let verdict = baseline_pair(p, directions, &mut report.tests_run);
        report.pairs.push(verdict);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::DependenceAnalyzer;
    use dda_ir::parse_program;

    #[test]
    fn baseline_sound_but_weaker_than_exact() {
        // Coupled subscripts: i = i′ (dim 0) and i = i′ + 1 (dim 1) are
        // jointly impossible. The exact analyzer sees it (inconsistent
        // equality system); per-dimension baselines cannot.
        let src = "for i = 1 to 10 { a[i][i] = a[i][i + 1]; }";
        let p = parse_program(src).unwrap();
        let base = analyze_with_baselines(&p, false);
        assert_eq!(base.independent_count(), 0);
        let exact = DependenceAnalyzer::new().analyze_program(&p);
        assert_eq!(exact.independent_count(), 1);
    }

    #[test]
    fn baseline_never_contradicts_exact_independence() {
        // Soundness: whenever the baseline says independent, the exact
        // analyzer agrees.
        let srcs = [
            "for i = 1 to 10 { a[i] = a[i + 10]; }",
            "for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }",
            "for i = 1 to 10 { a[i + 1] = a[i]; }",
            "for i = 1 to 10 { for j = 1 to 10 { a[i][j] = a[j][i]; } }",
        ];
        for src in srcs {
            let p = parse_program(src).unwrap();
            let base = analyze_with_baselines(&p, false);
            let exact = DependenceAnalyzer::new().analyze_program(&p);
            for (bp, ep) in base.pairs.iter().zip(exact.pairs()) {
                if bp.independent {
                    assert!(ep.result.is_independent(), "baseline unsound on {src}");
                }
            }
        }
    }

    #[test]
    fn baseline_direction_vectors_superset_of_exact() {
        let srcs = [
            "for i = 1 to 10 { a[i + 1] = a[i]; }",
            "for i = 1 to 4 { for j = 1 to 4 { a[i][j] = a[j][i]; } }",
            "for i = 1 to 10 { for j = 1 to 10 { a[j + 5] = a[j]; } }",
        ];
        for src in srcs {
            let p = parse_program(src).unwrap();
            let base = analyze_with_baselines(&p, true);
            let exact = DependenceAnalyzer::new().analyze_program(&p);
            let exact_total: usize = exact
                .pairs()
                .iter()
                .map(|r| r.direction_vectors.len())
                .sum();
            assert!(
                base.direction_vector_count() >= exact_total,
                "baseline must over- or equally report on {src}"
            );
        }
    }
}
