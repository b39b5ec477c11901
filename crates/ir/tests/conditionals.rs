//! Tests for the `if`/`else` extension: parsing, extraction,
//! normalization interplay, and interpretation.

use std::collections::BTreeMap;

use dda_ir::interp::execute;
use dda_ir::{extract_accesses, parse_program, passes, reference_pairs, RelOp, Stmt};

#[test]
fn parse_if_else() {
    let p = parse_program(
        "for i = 1 to 10 {
             if (i <= 5) { a[i] = 1; } else { a[i + 5] = 2; }
         }",
    )
    .unwrap();
    let Stmt::For(l) = &p.stmts[0] else { panic!() };
    let Stmt::If(i) = &l.body[0] else { panic!() };
    assert_eq!(i.op, RelOp::Le);
    assert_eq!(i.then_body.len(), 1);
    assert_eq!(i.else_body.len(), 1);
}

#[test]
fn all_relational_operators() {
    for (text, op) in [
        ("<", RelOp::Lt),
        ("<=", RelOp::Le),
        (">", RelOp::Gt),
        (">=", RelOp::Ge),
        ("==", RelOp::Eq),
        ("!=", RelOp::Ne),
    ] {
        let src = format!("if (i {text} 3) {{ a[1] = 0; }}");
        let p = parse_program(&src).unwrap_or_else(|e| panic!("{text}: {e}"));
        let Stmt::If(i) = &p.stmts[0] else { panic!() };
        assert_eq!(i.op, op, "{text}");
    }
}

#[test]
fn display_round_trips() {
    let src = "for i = 1 to 10 {
        if (i != 5) { a[i] = a[i - 1]; } else { a[0] = 0; }
    }";
    let p1 = parse_program(src).unwrap();
    let p2 = parse_program(&p1.to_string()).unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn branch_accesses_marked_conditional() {
    let p = parse_program(
        "for i = 1 to 10 {
             b[i] = 1;
             if (i > 5) { a[i] = a[i - 1]; }
         }",
    )
    .unwrap();
    let set = extract_accesses(&p);
    let b = set
        .accesses
        .iter()
        .find(|a| set.symbols.name(a.array) == "b")
        .unwrap();
    assert!(!b.conditional);
    for a in set
        .accesses
        .iter()
        .filter(|a| set.symbols.name(a.array) == "a")
    {
        assert!(a.conditional, "{}", a.display(&set));
    }
}

#[test]
fn condition_reads_are_unconditional_accesses() {
    let p = parse_program("for i = 1 to 10 { if (c[i] > 0) { a[i] = 0; } }").unwrap();
    let set = extract_accesses(&p);
    let c = set
        .accesses
        .iter()
        .find(|a| set.symbols.name(a.array) == "c")
        .unwrap();
    assert!(!c.is_write);
    assert!(!c.conditional, "the guard itself always executes");
}

#[test]
fn interpreter_takes_the_right_branch() {
    let p = parse_program(
        "for i = 1 to 4 {
             if (i <= 2) { a[i] = 0; } else { a[i + 10] = 0; }
         }",
    )
    .unwrap();
    let t = execute(&p, &BTreeMap::new(), 10_000).unwrap();
    let elems: Vec<i64> = t.iter().map(|x| x.element[0]).collect();
    assert_eq!(elems, vec![1, 2, 13, 14]);
    // Access ids stay aligned with extraction despite branch skipping.
    let set = extract_accesses(&p);
    for touch in &t {
        assert_eq!(
            set.symbols.name(set.accesses[touch.access_id].array),
            touch.array
        );
    }
}

#[test]
fn normalization_preserves_conditional_behaviour() {
    let src = "k = 0;
        for i = 1 to 6 {
            k = k + 2;
            if (i != 3) { a[k] = a[k - 1]; }
        }";
    let before = {
        let p = parse_program(src).unwrap();
        execute(&p, &BTreeMap::new(), 10_000).unwrap()
    };
    let after = {
        let mut p = parse_program(src).unwrap();
        passes::normalize(&mut p);
        execute(&p, &BTreeMap::new(), 10_000).unwrap()
    };
    let strip = |ts: &[dda_ir::interp::Touch]| -> Vec<(String, Vec<i64>, bool)> {
        ts.iter()
            .map(|t| (t.array.clone(), t.element.clone(), t.is_write))
            .collect()
    };
    assert_eq!(strip(&before), strip(&after));
}

#[test]
fn forward_subst_does_not_leak_across_branches() {
    // k is reassigned in one branch only: after the if, its value is
    // unknown and must not be substituted.
    let src = "k = 1; if (n > 0) { k = 2; } a[k] = 0;";
    let mut p = parse_program(src).unwrap();
    passes::normalize(&mut p);
    let set = extract_accesses(&p);
    let a = &set.accesses[0];
    assert!(!a.is_affine(), "k is branch-dependent: {}", a.display(&set));
}

#[test]
fn defs_flow_into_both_branches() {
    let src = "k = 7; if (n > 0) { a[k] = 0; } else { a[k + 1] = 0; }";
    let mut p = parse_program(src).unwrap();
    passes::normalize(&mut p);
    let set = extract_accesses(&p);
    let subs: Vec<i64> = set
        .accesses
        .iter()
        .map(|a| set.subscript(a, 0).unwrap().constant_part())
        .collect();
    assert_eq!(subs, vec![7, 8]);
}

#[test]
fn pairs_across_branches_are_enumerated() {
    let p = parse_program(
        "for i = 1 to 10 {
             if (i > 5) { a[i] = 1; } else { a[i + 20] = 2; }
         }",
    )
    .unwrap();
    let set = extract_accesses(&p);
    let pairs = reference_pairs(&set, false);
    assert_eq!(pairs.len(), 1, "then-write vs else-write");
}
