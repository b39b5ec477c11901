//! Normalization prepasses.
//!
//! The paper (Sections 2 and 8) assumes subscripts and bounds are integral
//! linear functions of loop variables, and notes that "optimization
//! techniques (constant propagation, induction variable and forward
//! substitution)" are used to make programs meet the conditions. These are
//! those passes, plus loop normalization (step → 1), run to a fixpoint by
//! [`normalize`].
//!
//! Every pass rewrites the program in place and returns whether it
//! changed anything; [`normalize`] stops at the first round in which no
//! pass did. A pass with nothing to do allocates nothing: already
//! normalized input without scalar assignments goes through a whole
//! round without touching the heap.
//!
//! Substitution keeps expression growth in check. A scalar definition
//! whose substituted right-hand side exceeds a fixed node budget is not
//! recorded, so a chain of temporaries that doubles or lengthens at
//! each link stops being substituted there; its uses stay mutated
//! scalars, which [`crate::extract_accesses`] marks non-affine (a sound
//! assumed-dependent verdict). Loop normalization substitutes a
//! strided loop's `lower + step·i` past the same budget in its affine
//! normal form, so nested bounds that repeat an enclosing strided
//! variable do not double at every level.

mod forward_subst;
mod induction;
mod loop_normalize;
mod rewrite;

pub use forward_subst::forward_substitute;
pub use induction::substitute_induction_variables;
pub use loop_normalize::normalize_loops;
pub use rewrite::fold_program;

use crate::ast::Program;

/// Largest expression, in nodes, that substitution records as a scalar
/// definition or that loop normalization substitutes for a strided loop
/// variable as written. Generated and hand-written programs stay far
/// below it (the largest in the test suite is 23 nodes); only chains
/// that double or lengthen at every link reach it.
const MAX_NODES: usize = 128;

/// Runs every normalization pass repeatedly until a round changes
/// nothing (bounded at a small fixed number of rounds).
///
/// After this, `extract_accesses` will see affine subscripts whenever the
/// paper's model can express them.
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, extract_accesses, passes::normalize};
///
/// let mut p = parse_program(
///     "k = 3; for i = 1 to 10 { a[k + i] = a[i] + 1; }",
/// )?;
/// normalize(&mut p);
/// let set = extract_accesses(&p);
/// let sub = set.accesses[0].subscripts[0].as_affine().expect("affine");
/// assert_eq!(sub.coeff_by_name(&set.symbols, "i"), 1);
/// assert_eq!(sub.constant_part(), 3);
/// # Ok::<(), dda_ir::ParseError>(())
/// ```
pub fn normalize(program: &mut Program) {
    for _ in 0..10 {
        let mut changed = fold_program(program);
        changed |= forward_substitute(program);
        // Steps must be 1 before induction-variable substitution (its
        // closed form counts one increment per iteration).
        changed |= normalize_loops(program);
        changed |= substitute_induction_variables(program);
        changed |= fold_program(program);
        if !changed {
            break;
        }
    }
}
