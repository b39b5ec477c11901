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
//! pass did. Folding is one forward sweep over the program's expression
//! arena; the other passes walk the statements and append the
//! expressions they rewrite. A pass with nothing to do allocates
//! nothing. Already normalized input without scalar assignments goes
//! through its one round without touching the heap: two linear sweeps
//! of the arena, one walk of the statements for a strided loop, and one
//! for a scalar assignment, after which [`normalize`] skips both
//! substitutions.
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
//!
//! What a rewrite replaces stays in the arena, unreachable. When any
//! pass changed something, [`normalize`] ends with one
//! [`Program::compact`], which keeps only the reachable nodes, in the
//! order the parser writes them.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod forward_subst;
mod induction;
mod loop_normalize;
mod rewrite;

pub use forward_subst::forward_substitute;
pub use induction::substitute_induction_variables;
pub use loop_normalize::normalize_loops;
pub use rewrite::fold_program;

use crate::ast::{Program, Stmt};

/// Largest expression, in nodes, that substitution records as a scalar
/// definition or that loop normalization substitutes for a strided loop
/// variable as written. Generated and hand-written programs stay far
/// below it (the largest in the test suite is 23 nodes); only chains
/// that double or lengthen at every link reach it.
const MAX_NODES: usize = 128;

/// Whether `stmts` assign a scalar anywhere (loop variables aside).
fn has_scalar_assignment(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::ScalarAssign(_) => true,
        Stmt::For(l) => has_scalar_assignment(&l.body),
        Stmt::If(i) => has_scalar_assignment(&i.then_body) || has_scalar_assignment(&i.else_body),
        Stmt::ArrayAssign(_) | Stmt::Read(_) => false,
    })
}

/// Runs every normalization pass repeatedly until a round changes
/// nothing (bounded at a small fixed number of rounds), then compacts
/// the arena if anything changed.
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
/// let sub = set.subscript(&set.accesses[0], 0).expect("affine");
/// assert_eq!(sub.coeff_by_name(&set.symbols, "i"), 1);
/// assert_eq!(sub.constant_part(), 3);
/// # Ok::<(), dda_ir::ParseError>(())
/// ```
pub fn normalize(program: &mut Program) {
    // Both substitutions record definitions only at scalar assignments,
    // and no pass adds or removes a statement: without one, they have
    // nothing to do in any round.
    let substitutes = has_scalar_assignment(&program.stmts);
    let mut rewritten = false;
    for _ in 0..10 {
        let mut changed = fold_program(program);
        changed |= substitutes && forward_substitute(program);
        // Steps must be 1 before induction-variable substitution (its
        // closed form counts one increment per iteration).
        changed |= normalize_loops(program);
        changed |= substitutes && substitute_induction_variables(program);
        changed |= fold_program(program);
        if !changed {
            break;
        }
        rewritten = true;
    }
    if rewritten {
        program.compact();
    }
}
