//! Typed certificates: evidence shipped with every verdict.
//!
//! The paper's claim is *exactness* — each cascaded test is exact on its
//! input class — but a verdict alone cannot demonstrate it. This module
//! defines the certificate grammar the solver emits and the independent
//! `dda-check` kernel replays. The two sides share only these data types
//! (plus [`DependenceProblem`](crate::problem::DependenceProblem) and
//! [`Matrix`]): the kernel re-derives everything else
//! by direct substitution in exact 128-bit arithmetic.
//!
//! # The proof system
//!
//! All refutations are nonnegative-combination proofs over rows of the
//! reduced `t`-space system `a·t ≤ c` (the paper's constraints after the
//! extended-GCD substitution `x = x₀ + B·t`):
//!
//! - [`Rule::Premise`] introduces a row by *value*; the kernel accepts it
//!   only if the row is a member of the system it recomputed itself (or a
//!   hypothesis row of the surrounding branch/direction split).
//! - [`Rule::Comb`] adds two earlier rows with nonnegative multipliers —
//!   sound for `≤` constraints.
//! - [`Rule::Div`] divides a row whose coefficients are all divisible by
//!   `d ≥ 1`, flooring the right-hand side — sound over the integers.
//!
//! A derivation *seals* when some derived row has all-zero coefficients
//! and a negative right-hand side: `0 ≤ c < 0`, contradiction. Splits
//! ([`FmTree::Split`], [`DirTree::Split`]) cover the integers — the
//! kernel checks `ge ≤ le + 1` for branch splits, and direction splits
//! are the trichotomy `D ≥ 1 ∨ D = 0 ∨ D ≤ −1` — so a refutation in
//! every region refutes the whole system.

use dda_linalg::Matrix;

/// One step of a linear-arithmetic derivation over `≤`-rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Introduce the row `coeffs · t ≤ rhs` by value. Valid only when the
    /// row belongs to the checker's recomputed premise pool.
    Premise {
        /// Row coefficients over the `t` variables.
        coeffs: Vec<i64>,
        /// Right-hand side.
        rhs: i64,
    },
    /// `ca · row[a] + cb · row[b]` with `ca, cb ≥ 0` and `a, b` earlier
    /// steps.
    Comb {
        /// Index of the first earlier step.
        a: usize,
        /// Nonnegative multiplier for step `a`.
        ca: i64,
        /// Index of the second earlier step.
        b: usize,
        /// Nonnegative multiplier for step `b`.
        cb: i64,
    },
    /// Divide step `of` by `d ≥ 1`: every coefficient must be exactly
    /// divisible; the right-hand side floors.
    Div {
        /// Index of the earlier step being divided.
        of: usize,
        /// The divisor (`≥ 1`, divides every coefficient).
        d: i64,
    },
}

/// A straight-line derivation ending in a contradiction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// The steps, each referring only to earlier steps.
    pub rules: Vec<Rule>,
    /// Index of the sealing step: all-zero coefficients, negative rhs.
    pub seal: usize,
}

/// A Fourier–Motzkin refutation: either a sealed derivation, or an
/// integer branch `t_var ≤ le ∨ t_var ≥ ge` (with `ge ≤ le + 1`, so the
/// two sides cover ℤ) refuted on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmTree {
    /// A contradiction derived without further splitting.
    Sealed(Derivation),
    /// Branch on an integer variable; both subtrees refute.
    Split {
        /// The `t` variable split on.
        var: usize,
        /// Left hypothesis: `t_var ≤ le`.
        le: i64,
        /// Right hypothesis: `t_var ≥ ge`. Coverage needs `ge ≤ le + 1`.
        ge: i64,
        /// Refutation under `t_var ≤ le`.
        left: Box<FmTree>,
        /// Refutation under `t_var ≥ ge`.
        right: Box<FmTree>,
    },
}

/// How a whole constraint system is refuted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefProof {
    /// The shared arena itself seals at step `seal` (SVPC interval
    /// emptiness, acyclic substitution, negative residue cycle).
    Arena {
        /// Index into [`SystemRefutation::arena`] of the sealing step.
        seal: usize,
    },
    /// A Fourier–Motzkin elimination / branch-and-bound tree whose leaf
    /// premises draw from the arena rows plus branch hypotheses.
    Fm {
        /// The branch tree.
        tree: FmTree,
    },
}

/// A refutation of one `t`-space constraint system: a derivation arena
/// (premises are checked against the recomputed system by value) plus the
/// proof shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemRefutation {
    /// Shared derivation steps; every step must verify.
    pub arena: Vec<Rule>,
    /// The proof built on top of the arena.
    pub proof: RefProof,
}

/// Exhaustion of direction-vector refinement: a trichotomy tree over
/// common-loop levels whose every leaf refutes its region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirTree {
    /// This region's system (base rows + path direction rows) is refuted.
    Refuted(SystemRefutation),
    /// Split level `level` into `<` (`D ≥ 1`), `=` (`D = 0`), `>`
    /// (`D ≤ −1`), where `D` is the level's reconstructed distance
    /// expression; together the three children cover every integer point.
    Split {
        /// The common-loop level split on.
        level: usize,
        /// Refutation under `D ≥ 1` (direction `<`).
        lt: Box<DirTree>,
        /// Refutation under `D = 0` (direction `=`).
        eq: Box<DirTree>,
        /// Refutation under `D ≤ −1` (direction `>`).
        gt: Box<DirTree>,
    },
}

/// The evidence attached to one pair's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The verdict makes no exact claim (assumed dependence, unknown, or
    /// dependence reported without a witness); there is nothing to check.
    Conservative,
    /// An exact claim whose evidence did not transfer (improved-mode or
    /// mirrored memo hits). `--check` resolves these by re-analysis.
    Unverified,
    /// Dependent: a concrete integer point satisfying every equation and
    /// bound of the problem, checked by substitution.
    Witness {
        /// The point, over the problem's `x` variables in order.
        x: Vec<i64>,
    },
    /// Dependent with constant, equal subscripts (no system was built).
    ConstantsEqual,
    /// Independent with constant subscripts differing in some dimension.
    ConstantsDiffer,
    /// Independent by the extended GCD test: a rational row multiplier
    /// `y = numer / denom` with `yᵀA` integral but `yᵀb` fractional (or
    /// `yᵀA = 0`, `yᵀb ≠ 0`), so `A·x = b` has no integer solution.
    GcdRefutation {
        /// Numerators of `y`, one per equality row.
        numer: Vec<i64>,
        /// Common positive denominator.
        denom: i64,
    },
    /// Independent: the reduced `t`-space system is refuted outright.
    /// The kernel re-derives the `t` rows from the problem's bounds and
    /// the recorded lattice (whose soundness — `A·x₀ = b`, `A·B = 0` — it
    /// also checks).
    Refuted {
        /// Particular solution `x₀` of the equality system.
        particular: Vec<i64>,
        /// Basis `B` of the solution lattice (`x = x₀ + B·t`).
        basis: Matrix,
        /// Refutation of the translated bound system.
        refutation: SystemRefutation,
    },
    /// Independent by exhaustive direction refinement: every region of
    /// the direction trichotomy tree is refuted.
    DirectionsExhausted {
        /// Particular solution `x₀` of the equality system.
        particular: Vec<i64>,
        /// Basis `B` of the solution lattice.
        basis: Matrix,
        /// The refuted trichotomy tree.
        tree: DirTree,
    },
}

// --- provenance tracking (solver side) ------------------------------------

use dda_linalg::SmallVec;

use crate::system::Constraint;

/// A derived (non-premise) rule, `Copy` so the trail can log derivations
/// without touching the heap. Mirrors [`Rule::Comb`] / [`Rule::Div`].
#[derive(Debug, Clone, Copy)]
enum DerivedRule {
    /// `ca · step[a] + cb · step[b]`.
    Comb {
        a: usize,
        ca: i64,
        b: usize,
        cb: i64,
    },
    /// Step `of` divided by `d`.
    Div { of: usize, d: i64 },
}

impl Default for DerivedRule {
    fn default() -> DerivedRule {
        DerivedRule::Div { of: 0, d: 1 }
    }
}

/// Provenance state threaded through the solve pipeline. Arena steps
/// `0..n_premises` are the base system's rows, held *implicitly* — they
/// are cloned into [`Rule::Premise`] values only when a certificate is
/// actually emitted, so the dependent/undecided fast paths never pay for
/// them. `derived` logs the `Comb`/`Div` steps appended after the
/// premises (inline up to 8, covering every single-stage refutation);
/// `row_step` maps each live residual row to its arena step;
/// `lb_step`/`ub_step` map each variable's current bound to the arena
/// step whose row is exactly `−v ≤ −lb` / `v ≤ ub`.
///
/// `ok` poisons the trail: when a stage cannot account for a derivation
/// (a bound with no recorded step, an unextractable negative cycle), it
/// clears `ok` and continues computing the *identical* answer — the
/// certificate is simply withheld.
#[derive(Debug, Clone)]
pub(crate) struct Trail {
    n_premises: usize,
    derived: SmallVec<DerivedRule, 8>,
    pub row_step: SmallVec<usize, 12>,
    pub lb_step: SmallVec<Option<usize>, 6>,
    pub ub_step: SmallVec<Option<usize>, 6>,
    /// Arena step holding a sealed contradiction, set by the stage that
    /// proved infeasibility.
    pub seal: Option<usize>,
    pub ok: bool,
}

impl Trail {
    /// Seeds a trail from a constraint list: one implicit premise per row.
    pub fn for_rows(num_vars: usize, rows: &[Constraint]) -> Trail {
        Trail {
            n_premises: rows.len(),
            derived: SmallVec::new(),
            row_step: (0..rows.len()).collect(),
            lb_step: SmallVec::from_elem(None, num_vars),
            ub_step: SmallVec::from_elem(None, num_vars),
            seal: None,
            ok: true,
        }
    }

    /// Appends a derived rule, returning its arena index.
    ///
    /// # Panics
    ///
    /// Panics on [`Rule::Premise`]: premises are implicit (the base rows,
    /// in order) and must not be re-introduced mid-derivation.
    pub fn push(&mut self, rule: Rule) -> usize {
        let d = match rule {
            Rule::Comb { a, ca, b, cb } => DerivedRule::Comb { a, ca, b, cb },
            Rule::Div { of, d } => DerivedRule::Div { of, d },
            Rule::Premise { .. } => panic!("trail premises are implicit"),
        };
        self.derived.push(d);
        self.n_premises + self.derived.len() - 1
    }

    /// Materializes the arena: one [`Rule::Premise`] per `base` row (which
    /// must be the row list the trail was seeded from), then the logged
    /// derivations. Step numbering is identical to the eager construction
    /// this replaced, so certificates come out byte-for-byte the same.
    pub fn materialize(&self, base: &[Constraint]) -> Vec<Rule> {
        debug_assert_eq!(base.len(), self.n_premises);
        let mut rules = Vec::with_capacity(self.n_premises + self.derived.len());
        rules.extend(base.iter().map(|c| Rule::Premise {
            coeffs: c.coeffs.to_vec(),
            rhs: c.rhs,
        }));
        rules.extend(self.derived.iter().map(|d| match *d {
            DerivedRule::Comb { a, ca, b, cb } => Rule::Comb { a, ca, b, cb },
            DerivedRule::Div { of, d } => Rule::Div { of, d },
        }));
        rules
    }

    /// Converts the trail into a refutation sealed in the arena itself,
    /// if the trail stayed accountable.
    pub fn into_arena_refutation(self, base: &[Constraint]) -> Option<SystemRefutation> {
        if !self.ok {
            return None;
        }
        let seal = self.seal?;
        Some(SystemRefutation {
            arena: self.materialize(base),
            proof: RefProof::Arena { seal },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trail_seals_only_when_ok() {
        let rows = vec![Constraint::new(vec![1], 0)];
        let mut t = Trail::for_rows(1, &rows);
        assert!(
            t.clone().into_arena_refutation(&rows).is_none(),
            "no seal yet"
        );
        t.seal = Some(0);
        assert!(t.clone().into_arena_refutation(&rows).is_some());
        t.ok = false;
        assert!(t.into_arena_refutation(&rows).is_none(), "poisoned");
    }

    #[test]
    fn trail_materializes_premises_then_derivations() {
        let rows = vec![Constraint::new(vec![2], 5), Constraint::new(vec![-1], -3)];
        let mut t = Trail::for_rows(1, &rows);
        let div = t.push(Rule::Div { of: 0, d: 2 });
        assert_eq!(div, 2, "first derived step follows the premises");
        let comb = t.push(Rule::Comb {
            a: div,
            ca: 1,
            b: 1,
            cb: 1,
        });
        assert_eq!(comb, 3);
        let arena = t.materialize(&rows);
        assert_eq!(
            arena,
            vec![
                Rule::Premise {
                    coeffs: vec![2],
                    rhs: 5
                },
                Rule::Premise {
                    coeffs: vec![-1],
                    rhs: -3
                },
                Rule::Div { of: 0, d: 2 },
                Rule::Comb {
                    a: 2,
                    ca: 1,
                    b: 1,
                    cb: 1
                },
            ]
        );
    }
}
