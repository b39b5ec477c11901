//! Property-based tests for the IR: parsing round-trips and — the
//! important one — semantic preservation of the normalization passes,
//! checked by executing programs before and after with the reference
//! interpreter and comparing the full access streams.

use std::collections::BTreeMap;

use dda_ir::interp::execute;
use dda_ir::{parse_program, passes};
use proptest::prelude::*;

mod common;
use common::arb_program;

/// The observable behaviour of a program: every array touch in execution
/// order, without the access ids (passes may renumber nothing, but ids
/// are an analysis artifact, not semantics).
fn behaviour(src: &str, normalize: bool) -> Vec<(String, Vec<i64>, bool)> {
    let mut p = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    if normalize {
        passes::normalize(&mut p);
    }
    execute(&p, &BTreeMap::new(), 4_000_000)
        .unwrap_or_else(|e| panic!("exec: {e}\n{p}"))
        .into_iter()
        .map(|t| (t.array, t.element, t.is_write))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Normalization must not change which elements are read and written,
    /// in which order.
    #[test]
    fn normalization_preserves_behaviour(src in arb_program()) {
        let before = behaviour(&src, false);
        let after = behaviour(&src, true);
        prop_assert_eq!(before, after, "behaviour changed for\n{}", src);
    }

    /// Display output reparses to a display fixpoint.
    #[test]
    fn display_reaches_fixpoint(src in arb_program()) {
        let p1 = parse_program(&src).unwrap();
        let p2 = parse_program(&p1.to_string()).unwrap();
        let p3 = parse_program(&p2.to_string()).unwrap();
        prop_assert_eq!(&p2, &p3, "not a fixpoint:\n{}", p2);
    }

    /// Normalized programs still display/reparse cleanly.
    #[test]
    fn normalized_display_round_trips(src in arb_program()) {
        let mut p = parse_program(&src).unwrap();
        passes::normalize(&mut p);
        let q = parse_program(&p.to_string())
            .unwrap_or_else(|e| panic!("reparse: {e}\n{p}"));
        let r = parse_program(&q.to_string()).unwrap();
        prop_assert_eq!(q, r);
    }

    /// Normalization is idempotent.
    #[test]
    fn normalization_idempotent(src in arb_program()) {
        let mut once = parse_program(&src).unwrap();
        passes::normalize(&mut once);
        let mut twice = once.clone();
        passes::normalize(&mut twice);
        prop_assert_eq!(&once, &twice, "not idempotent for\n{}", src);
    }
}
