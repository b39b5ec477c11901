//! Hostile inputs to the front end: chains of scalar temporaries whose
//! full substitution would take minutes (a linear chain) or build trees
//! of millions of nodes (a doubling chain), and subscripts whose
//! lowering overflows `i64`. Each must normalize within a second and
//! extract to a non-affine subscript: a sound assumed-dependent pair.
//! A normalized program's arena holds only what its statements reach.

use std::path::Path;
use std::time::{Duration, Instant};

use dda_ir::{extract_accesses, parse_program, passes, AccessSet, Program};

fn front_end(src: &str) -> (AccessSet, Duration) {
    let mut p = parse_program(src).expect("parses");
    let start = Instant::now();
    passes::normalize(&mut p);
    let elapsed = start.elapsed();
    (extract_accesses(&p), elapsed)
}

fn hostile(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus/hostile")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn scalar_chains_normalize_within_a_second() {
    for name in ["chain_doubling.loop", "chain_linear.loop"] {
        let (set, elapsed) = front_end(&hostile(name));
        assert!(elapsed < Duration::from_secs(1), "{name}: {elapsed:?}");
        // The write's subscript goes through the chain's last link.
        assert!(
            !set.accesses[0].is_affine(),
            "{name}: {}",
            set.accesses[0].display(&set)
        );
        assert!(
            set.accesses[1].is_affine(),
            "{name}: {}",
            set.accesses[1].display(&set)
        );
    }
}

#[test]
fn a_moderate_chain_is_still_substituted_in_full() {
    let mut src = String::from("read(t0);");
    for k in 1..=40 {
        src.push_str(&format!("t{k} = t{} + 1;", k - 1));
    }
    src.push_str("for i = 1 to 10 { a[i + t40] = a[i] + 1; }");
    let (set, _) = front_end(&src);
    let sub = set.subscript(&set.accesses[0], 0).expect("affine");
    assert_eq!(
        (
            sub.coeff_by_name(&set.symbols, "i"),
            sub.coeff_by_name(&set.symbols, "t0"),
            sub.constant_part()
        ),
        (1, 1, 40)
    );
    assert!(set.is_symbolic("t0"));
}

#[test]
fn overflowing_subscripts_are_not_affine() {
    for name in ["overflow_sum.loop", "overflow_product.loop"] {
        let (set, _) = front_end(&hostile(name));
        assert!(
            !set.accesses[0].is_affine(),
            "{name}: {}",
            set.accesses[0].display(&set)
        );
    }
}

/// How much larger than parsed a normalized arena may be. Substitution
/// grows an expression to at most the passes' 128-node budget; the
/// chains reach 22 times their parsed size. Without the budget, the
/// doubling chain would reach 2^23 nodes and each bound of the strided
/// nest 2^12, far past this.
const GROWTH: usize = 32;

#[test]
fn normalized_arenas_stay_bounded_and_hold_no_garbage() {
    for name in [
        "chain_doubling.loop",
        "chain_linear.loop",
        "strided_nest12.loop",
    ] {
        let mut p: Program = parse_program(&hostile(name)).expect("parses");
        let parsed = p.exprs.len();
        passes::normalize(&mut p);
        let normalized = p.exprs.len();
        assert!(
            normalized <= GROWTH * parsed,
            "{name}: {normalized} nodes after normalizing, {parsed} parsed"
        );
        // Compaction kept only the reachable nodes: a second one drops
        // nothing.
        p.compact();
        assert_eq!(p.exprs.len(), normalized, "{name}: garbage survived");
        let set = extract_accesses(&p);
        if name.starts_with("chain") {
            // The cutoff left the chain's last link a mutated scalar.
            assert!(!set.accesses[0].is_affine(), "{name}");
        } else {
            // Past the budget, loop normalization substituted affine
            // normal forms, which lower.
            assert!(set.accesses.iter().all(|a| a.is_affine()), "{name}");
        }
    }
}
