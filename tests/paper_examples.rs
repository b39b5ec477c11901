//! Every worked example in the paper, end to end.

use std::collections::BTreeSet;

use dda::core::{
    AnalyzerConfig, DependenceAnalyzer, Direction, DirectionVector, MemoMode, ResolvedBy, TestKind,
};
use dda::graph::build_graph;
use dda::ir::{parse_program, passes};

fn analyze(src: &str) -> dda::core::ProgramReport {
    let mut program = parse_program(src).expect("parse");
    passes::normalize(&mut program);
    DependenceAnalyzer::new().analyze_program(&program)
}

/// Ids of the loops the dependence graph says carry a dependence.
fn carried_loops(src: &str) -> BTreeSet<usize> {
    let mut program = parse_program(src).expect("parse");
    passes::normalize(&mut program);
    let report = DependenceAnalyzer::new().analyze_program(&program);
    build_graph(&program, &report).carried_loops()
}

#[test]
fn section1_opening_loops() {
    let r = analyze("for i = 1 to 10 { a[i] = a[i + 10] + 3; }");
    assert!(r.pairs()[0].result.is_independent());

    let r = analyze("for i = 1 to 10 { a[i + 1] = a[i] + 3; }");
    let p = &r.pairs()[0];
    assert!(p.result.answer.is_dependent());
    assert_eq!(p.distance.0, vec![Some(1)]);
    assert_eq!(
        p.direction_vectors,
        vec![DirectionVector(vec![Direction::Lt])]
    );
}

#[test]
fn section31_gcd_change_of_variables() {
    // "for i = 1 to 10 do a[i+10] = a[i]": exact answer independent via
    // the transformed single-variable constraints.
    let r = analyze("for i = 1 to 10 { a[i + 10] = a[i]; }");
    let p = &r.pairs()[0];
    assert!(p.result.is_independent());
    assert_eq!(p.result.resolved_by, ResolvedBy::Test(TestKind::Svpc));
}

#[test]
fn section32_coupled_subscripts() {
    // The SVPC worked example: lower bound of t1 exceeds its upper bound.
    let r = analyze(
        "for i1 = 1 to 10 { for i2 = 1 to 10 {
             a[i1][i2] = a[i2 + 10][i1 + 9];
         } }",
    );
    let p = &r.pairs()[0];
    assert!(p.result.is_independent());
    assert_eq!(p.result.resolved_by, ResolvedBy::Test(TestKind::Svpc));
}

#[test]
fn section32_svpc_friendly_shapes() {
    // The two loop shapes the paper lists as SVPC-amenable despite being
    // multi-dimensional.
    let r = analyze(
        "for i1 = 1 to 10 { for i2 = 1 to 10 {
             a[i1][i2] = a[i1 + 3][i2 + 2];
         } }",
    );
    assert_eq!(
        r.pairs()[0].result.resolved_by,
        ResolvedBy::Test(TestKind::Svpc)
    );
    assert!(r.pairs()[0].result.answer.is_dependent());
    assert_eq!(r.pairs()[0].distance.0, vec![Some(-3), Some(-2)]);
}

#[test]
fn section5_memoization_example() {
    // The two two-loop programs that collapse to the same single-loop
    // problem under the improved scheme.
    let src = "
        for i = 1 to 10 { for j = 1 to 10 { a[i + 10] = a[i] + 3; } }
        for i = 1 to 10 { for j = 1 to 10 { b[j + 10] = b[j] + 3; } }
        for i = 1 to 10 { c[i + 10] = c[i] + 3; }
    ";
    let mut program = parse_program(src).unwrap();
    passes::normalize(&mut program);
    let mut improved = DependenceAnalyzer::new();
    let ri = improved.analyze_program(&program);
    assert_eq!(ri.stats.memo_queries, 3);
    assert_eq!(ri.stats.memo_hits, 2, "all three collapse");

    let mut simple = DependenceAnalyzer::with_config(AnalyzerConfig {
        memo: MemoMode::Simple,
        ..AnalyzerConfig::default()
    });
    let rs = simple.analyze_program(&program);
    assert_eq!(rs.stats.memo_hits, 0, "simple scheme sees three inputs");

    // All verdicts agree regardless of scheme.
    for (a, b) in ri.pairs().iter().zip(rs.pairs()) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.distance, b.distance);
    }
}

#[test]
fn section6_direction_vector_examples() {
    // a[i+1] = a[i]+7: dependent, sequential.
    assert!(!carried_loops("for i = 1 to 10 { a[i + 1] = a[i] + 7; }").is_empty());

    // a[i] = a[i]+7: dependent only at (=): parallel.
    let src = "for i = 1 to 10 { a[i] = a[i] + 7; }";
    let r = analyze(src);
    let p = &r.pairs()[0];
    assert!(p.result.answer.is_dependent());
    assert!(p.direction_vectors[0].is_all_eq());
    assert!(carried_loops(src).is_empty());

    // a[i] = a[i-3]+7: constant distance 3 read straight off the GCD
    // solution, no extra tests.
    let mut program = parse_program("for i = 0 to 10 { a[i] = a[i - 3] + 7; }").unwrap();
    passes::normalize(&mut program);
    let mut an = DependenceAnalyzer::new();
    let r = an.analyze_program(&program);
    // Write a[i] meets read a[i′ − 3] when i′ = i + 3: distance +3.
    assert_eq!(r.pairs()[0].distance.0, vec![Some(3)]);
    assert_eq!(r.stats.direction_tests.total(), 0, "distance pruning");
}

#[test]
fn section6_unused_variable_star() {
    // "Since i does not appear in either the array expression nor in a
    // loop bound, we know that direction for i is *."
    let r = analyze("for i = 1 to 10 { for j = 1 to 10 { a[j + 5] = a[j]; } }");
    let p = &r.pairs()[0];
    assert_eq!(
        p.direction_vectors,
        vec![DirectionVector(vec![Direction::Any, Direction::Lt])]
    );
}

#[test]
fn section8_symbolic_examples() {
    // The induction-variable prepass example, fully symbolic.
    let r = analyze(
        "n = 100;
         iz = 0;
         for i = 1 to 10 {
             iz = iz + 2;
             a[iz + n] = a[iz + 2 * n + 1] + 3;
         }",
    );
    // With n = 100 propagated: a[2i+100] vs a[2i+201]: parity differs.
    assert!(r.pairs()[0].result.is_independent());
    assert_eq!(r.pairs()[0].result.resolved_by, ResolvedBy::Gcd);

    // With n truly unknown the equation i − i' = n + 1 is solvable for
    // some n: dependent.
    let r = analyze("read(n); for i = 1 to 10 { a[i + n] = a[i + 2 * n + 1] + 3; }");
    assert!(r.pairs()[0].result.answer.is_dependent());
    assert!(r.pairs()[0].result.answer.is_exact());
}

#[test]
fn equivalence_reduction_ip_to_dependence() {
    // Section 2.1 reduces integer programming to dependence testing by
    // encoding A x = b in subscripts. Spot-check the encoding style:
    // 3x + 5y = 22 with x, y >= 0 has a solution.
    let r = analyze(
        "for x = 0 to 100 { for y = 0 to 100 {
             a[3 * x + 5 * y] = a[22];
         } }",
    );
    assert!(r.pairs()[0].result.answer.is_dependent());
    // 3x + 6y = 22 does not (gcd 3 does not divide 22).
    let r = analyze(
        "for x = 0 to 100 { for y = 0 to 100 {
             a[3 * x + 6 * y] = a[22];
         } }",
    );
    assert!(r.pairs()[0].result.is_independent());
    assert_eq!(r.pairs()[0].result.resolved_by, ResolvedBy::Gcd);
}
