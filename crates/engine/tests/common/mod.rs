//! Random program generators shared by the engine's property tests.
//!
//! Programs span constant subscripts, non-affine subscripts (assumed
//! dependence), symbolic terms, triangular nests and coupled dimensions,
//! so every classification and memo path of the analysis is exercised.

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dda_ir::{parse_program, passes, Program};
use proptest::prelude::*;

pub mod memo_v2;

/// A subscript over up to `depth` loop variables: usually affine, but
/// sometimes symbolic (`n`) and sometimes non-affine (`b[v0 + 1]`), so
/// every classification path gets exercised. Symbolic terms are gated to
/// shallow nests — a symbolic unknown inside a deep coupled triangular
/// nest can push one Fourier–Motzkin query into seconds, which is a
/// property of the analyzer (shared by the engine), not of this test.
pub fn arb_subscript(depth: usize, allow_symbolic: bool) -> impl Strategy<Value = String> {
    let coeffs = proptest::collection::vec(-2i64..=2, depth);
    (coeffs, -6i64..=6, 0u8..=11).prop_map(move |(coeffs, c, kind)| {
        if kind == 0 {
            return "b[v0 + 1]".to_owned();
        }
        let mut s = String::new();
        for (k, a) in coeffs.iter().enumerate() {
            if *a != 0 {
                if !s.is_empty() {
                    s.push_str(" + ");
                }
                s.push_str(&format!("{a} * v{k}"));
            }
        }
        if kind == 1 && allow_symbolic {
            if !s.is_empty() {
                s.push_str(" + ");
            }
            s.push('n');
        }
        if s.is_empty() {
            format!("{c}")
        } else {
            format!("{s} + {c}")
        }
    })
}

/// One random program: a nest of 1–3 loops (possibly triangular) around
/// 1–2 statements of 1–2-D references to a shared array.
pub fn arb_program() -> impl Strategy<Value = String> {
    (1usize..=3)
        .prop_flat_map(|depth| {
            let allow_symbolic = depth <= 2;
            let bounds = proptest::collection::vec((0i64..=2, 2i64..=5, prop::bool::ANY), depth);
            let dims = 1usize..=2;
            let stmts = proptest::collection::vec(
                (
                    proptest::collection::vec(arb_subscript(depth, allow_symbolic), 2),
                    proptest::collection::vec(arb_subscript(depth, allow_symbolic), 2),
                ),
                1..=2,
            );
            (Just(depth), bounds, dims, stmts)
        })
        .prop_map(|(depth, bounds, dims, stmts)| {
            let mut src = String::new();
            for (k, (lo, hi, triangular)) in bounds.iter().enumerate() {
                let lower = if *triangular && k > 0 {
                    format!("v{}", k - 1)
                } else {
                    lo.to_string()
                };
                src.push_str(&format!("for v{k} = {lower} to {hi} {{ "));
            }
            for (wsubs, rsubs) in &stmts {
                let w: Vec<String> = wsubs.iter().take(dims).map(|s| format!("[{s}]")).collect();
                let r: Vec<String> = rsubs.iter().take(dims).map(|s| format!("[{s}]")).collect();
                src.push_str(&format!("a{} = a{} + 1; ", w.concat(), r.concat()));
            }
            for _ in 0..depth {
                src.push_str("} ");
            }
            // The symbolic term needs its declaration.
            if src.contains('n') {
                format!("read(n); {src}")
            } else {
                src
            }
        })
}

pub fn arb_batch() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_program(), 1..=3)
}

pub fn parse_batch(sources: &[String]) -> Vec<Program> {
    sources
        .iter()
        .map(|s| {
            let mut p = parse_program(s).expect("generated programs parse");
            passes::normalize(&mut p);
            p
        })
        .collect()
}

/// A per-process, per-call unique temp path.
pub fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dda_engine_test_{}_{n}.{tag}", std::process::id()))
}
