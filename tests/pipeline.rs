//! Cross-crate pipeline tests: messy sources through parsing,
//! normalization, extraction, and analysis.

use std::collections::BTreeSet;

use dda::core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, ResolvedBy};
use dda::graph::build_graph;
use dda::ir::{extract_accesses, parse_program, passes, reference_pairs};

fn analyze_normalized(src: &str) -> dda::core::ProgramReport {
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
fn scalar_temporaries_are_substituted_away() {
    // Without forward substitution the subscripts are unanalyzable; the
    // prepass makes them affine and the pair exactly independent.
    let r = analyze_normalized(
        "base = 100;
         stride = 2;
         for i = 1 to 10 {
             off = stride * i + base;
             a[off] = a[off + 1] + 3;
         }",
    );
    assert_eq!(r.stats.assumed, 0);
    assert!(r.pairs()[0].result.is_independent());
}

#[test]
fn strided_loops_normalize_then_analyze() {
    // Step-3 loop: after normalization a[3i'+1] vs a[3i'+2]: disjoint
    // residues mod 3.
    let r = analyze_normalized("for i = 1 to 30 step 3 { a[i] = a[i + 1]; }");
    assert!(r.pairs()[0].result.is_independent());
    assert_eq!(r.pairs()[0].result.resolved_by, ResolvedBy::Gcd);

    // Step-3 with offset 3: same residue, truly dependent.
    let r = analyze_normalized("for i = 1 to 30 step 3 { a[i] = a[i + 3]; }");
    assert!(r.pairs()[0].result.answer.is_dependent());
}

#[test]
fn downward_loops() {
    let src = "for i = 10 to 1 step -1 { a[i + 1] = a[i]; }";
    let r = analyze_normalized(src);
    let p = &r.pairs()[0];
    assert!(p.result.answer.is_dependent());
    // In normalized space the write at iteration k touches 12 − k... the
    // dependence is still carried: sequential.
    assert!(!carried_loops(src).is_empty());
}

#[test]
fn induction_chain_through_two_passes() {
    let r = analyze_normalized(
        "k = 0;
         for i = 1 to 20 {
             k = k + 1;
             a[2 * k] = a[2 * k + 1];
         }",
    );
    assert_eq!(r.stats.assumed, 0);
    assert!(r.pairs()[0].result.is_independent(), "odd vs even");
}

#[test]
fn mixed_affine_and_opaque_references() {
    let r = analyze_normalized(
        "for i = 1 to 10 {
             a[i * i] = a[i] + 1;
             b[i] = b[i + 20];
         }",
    );
    // The quadratic pair is assumed dependent; the affine pair is still
    // analyzed exactly.
    assert_eq!(r.stats.assumed, 1);
    let b_pair = r.pairs().iter().find(|p| &*p.array == "b").unwrap();
    assert!(b_pair.result.is_independent());
    let a_pair = r.pairs().iter().find(|p| &*p.array == "a").unwrap();
    assert!(!a_pair.result.answer.is_exact());
}

#[test]
fn multiple_statements_share_memo_entries() {
    let mut src = String::new();
    for k in 0..50 {
        src.push_str(&format!("for i = 1 to 10 {{ x{k}[i + 4] = x{k}[i]; }}\n"));
    }
    let mut program = parse_program(&src).unwrap();
    passes::normalize(&mut program);
    let mut an = DependenceAnalyzer::new();
    let r = an.analyze_program(&program);
    assert_eq!(r.stats.pairs, 50);
    assert_eq!(r.stats.memo_hits, 49);
    assert_eq!(r.stats.base_tests.total(), 1);
    // Every cached answer equals the computed one.
    for p in r.pairs() {
        assert_eq!(p.result, r.pairs()[0].result);
        assert_eq!(p.direction_vectors, r.pairs()[0].direction_vectors);
    }
}

#[test]
fn read_read_pairs_only_when_requested() {
    let src = "for i = 1 to 10 { s[i] = a[i] + a[i + 1]; }";
    let program = parse_program(src).unwrap();
    let set = extract_accesses(&program);
    // s has a single access and a has two reads: nothing to test by
    // default.
    assert_eq!(reference_pairs(&set, false).len(), 0);
    let mut with_input = DependenceAnalyzer::with_config(AnalyzerConfig {
        include_input_deps: true,
        ..AnalyzerConfig::default()
    });
    let r = with_input.analyze_program(&program);
    assert_eq!(r.stats.pairs, 1, "the a-read pair appears");
}

#[test]
fn cache_expansion_matches_fresh_analysis() {
    // The improved memo collapses these; the expanded cached vectors must
    // equal what a fresh analyzer computes.
    let one = "for j = 1 to 10 { z[j + 5] = z[j]; }";
    let two = "for i = 1 to 10 { for j = 1 to 10 { z[j + 5] = z[j]; } }";

    let mut shared = DependenceAnalyzer::new();
    let p1 = {
        let mut p = parse_program(one).unwrap();
        passes::normalize(&mut p);
        p
    };
    let p2 = {
        let mut p = parse_program(two).unwrap();
        passes::normalize(&mut p);
        p
    };
    let r1 = shared.analyze_program(&p1);
    let r2_cached = shared.analyze_program(&p2); // hits the cache
    assert_eq!(r2_cached.stats.memo_hits, 1);

    let r2_fresh = DependenceAnalyzer::new().analyze_program(&p2);
    let (c, f) = (&r2_cached.pairs()[0], &r2_fresh.pairs()[0]);
    assert_eq!(c.result, f.result);
    assert_eq!(c.direction_vectors, f.direction_vectors);
    assert_eq!(c.distance, f.distance);
    assert!(c.from_cache && !f.from_cache);
    let _ = r1;
}

#[test]
fn deep_nest_with_triangular_bounds() {
    let src = "for i = 1 to 8 {
             for j = i to 8 {
                 for k = j to 8 {
                     a[i][j][k] = a[i][j][k - 1] + 1;
                 }
             }
         }";
    let r = analyze_normalized(src);
    let p = &r.pairs()[0];
    assert!(p.result.answer.is_dependent());
    assert_eq!(p.distance.0, vec![Some(0), Some(0), Some(1)]);
    // Only the innermost loop carries the dependence.
    assert_eq!(carried_loops(src), BTreeSet::from([2]));
}

#[test]
fn analyzer_memo_mode_off_still_exact() {
    let src = "for i = 1 to 10 { a[i + 2] = a[i]; }";
    let program = parse_program(src).unwrap();
    let mut off = DependenceAnalyzer::with_config(AnalyzerConfig {
        memo: MemoMode::Off,
        ..AnalyzerConfig::default()
    });
    let r = off.analyze_program(&program);
    assert_eq!(r.stats.memo_queries, 0);
    assert_eq!(r.pairs()[0].distance.0, vec![Some(2)]);
}
