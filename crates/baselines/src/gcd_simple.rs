//! The simple (per-dimension) GCD test — Banerjee's algorithm 5.4.1.
//!
//! For each array dimension, the dependence equation
//! `Σ aₖ·iₖ − Σ bₖ·i′ₖ + … = c` has an integer solution only if the gcd of
//! all variable coefficients divides `c`. Bounds are ignored, dimensions
//! are tested separately (no coupled-subscript reasoning), and a passing
//! gcd check proves nothing — the classic inexact workhorse the paper
//! measures against.

use dda_linalg::num::gcd;

use crate::model::PairModel;

/// Runs the simple GCD test.
///
/// Returns `true` when some dimension's gcd fails to divide its constant:
/// the references are provably independent. `false` means "maybe
/// dependent".
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses, reference_pairs};
/// use dda_baselines::model::build_model;
/// use dda_baselines::gcd_simple::simple_gcd_independent;
///
/// let p = parse_program("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }")?;
/// let set = extract_accesses(&p);
/// let pairs = reference_pairs(&set, false);
/// let m = build_model(pairs[0]).unwrap();
/// assert!(simple_gcd_independent(&m)); // gcd(2,2) = 2 does not divide 1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn simple_gcd_independent(model: &PairModel) -> bool {
    model.dims.iter().any(|dim| {
        if dim.has_symbolic {
            // A symbolic term with unknown value can absorb any residue.
            return false;
        }
        let mut g = 0i64;
        for &(a, b) in &dim.common {
            g = gcd(g, a);
            g = gcd(g, b);
        }
        for &(c, _) in &dim.extra {
            g = gcd(g, c);
        }
        if g == 0 {
            // No variables at all: dependent iff the constant is zero.
            dim.constant != 0
        } else {
            dim.constant % g != 0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_model;
    use dda_ir::{extract_accesses, parse_program, reference_pairs};

    fn run(src: &str) -> bool {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let pairs = reference_pairs(&set, false);
        let m = build_model(pairs[0]).unwrap();
        simple_gcd_independent(&m)
    }

    #[test]
    fn parity_case_independent() {
        assert!(run("for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }"));
    }

    #[test]
    fn divisible_case_unknown() {
        assert!(!run("for i = 1 to 10 { a[2 * i] = a[2 * i + 4]; }"));
    }

    #[test]
    fn misses_bounds_based_independence() {
        // Exactly the weakness the paper's exact suite fixes: gcd(1,1)=1
        // divides 10, so the simple test cannot see the bounds conflict.
        assert!(!run("for i = 1 to 10 { a[i] = a[i + 10]; }"));
    }

    #[test]
    fn multi_dimensional_any_dim_suffices() {
        assert!(run(
            "for i = 1 to 10 { for j = 1 to 10 { a[i][2 * j] = a[i][2 * j + 1]; } }"
        ));
    }

    #[test]
    fn symbolic_blocks_conclusion() {
        assert!(!run(
            "read(n); for i = 1 to 10 { a[2 * i + n] = a[2 * i + 1]; }"
        ));
    }
}
