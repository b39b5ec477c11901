//! Exactness validation against an execution oracle.
//!
//! The paper's central claim is that the cascaded tests are *exact* in
//! practice. Here we make that claim executable: run each program with the
//! reference interpreter, enumerate every pair of touches, and check the
//! analyzer's verdicts, direction vectors, and distances against the
//! ground truth — on a fixed corpus and on thousands of random programs.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dda::core::{AnalyzerConfig, DependenceAnalyzer, Direction};
use dda::ir::interp::{execute, Touch};
use dda::ir::{extract_accesses, parse_program, passes, Program};
use proptest::prelude::*;

/// Ground truth for one pair: whether it is dependent and the set of
/// observed direction relations over the common loops.
struct Truth {
    dependent: bool,
    directions: BTreeSet<Vec<Direction>>,
    distances: BTreeSet<Vec<i64>>,
}

fn direction_of(a: i64, b: i64) -> Direction {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => Direction::Lt,
        std::cmp::Ordering::Equal => Direction::Eq,
        std::cmp::Ordering::Greater => Direction::Gt,
    }
}

/// One execution's touches, grouped by access and, within an access, by
/// the element touched: the pairs of touches that overlap are then found
/// by a join on the element instead of comparing every touch of one
/// access with every touch of the other.
struct Touches<'a> {
    by_access: HashMap<usize, HashMap<&'a [i64], Vec<&'a Touch>>>,
}

impl<'a> Touches<'a> {
    fn new(touches: &'a [Touch]) -> Touches<'a> {
        let mut by_access: HashMap<usize, HashMap<&[i64], Vec<&Touch>>> = HashMap::new();
        for t in touches {
            by_access
                .entry(t.access_id)
                .or_default()
                .entry(&t.element)
                .or_default()
                .push(t);
        }
        Touches { by_access }
    }
}

fn ground_truth(touches: &Touches<'_>, a_id: usize, b_id: usize, common: usize) -> Truth {
    let mut truth = Truth {
        dependent: false,
        directions: BTreeSet::new(),
        distances: BTreeSet::new(),
    };
    let (Some(ta), Some(tb)) = (touches.by_access.get(&a_id), touches.by_access.get(&b_id)) else {
        return truth;
    };
    for (element, xs) in ta {
        let Some(ys) = tb.get(element) else {
            continue;
        };
        for x in xs {
            for y in ys {
                truth.dependent = true;
                let dirs: Vec<Direction> = (0..common)
                    .map(|k| direction_of(x.iteration[k], y.iteration[k]))
                    .collect();
                let dist: Vec<i64> = (0..common)
                    .map(|k| y.iteration[k] - x.iteration[k])
                    .collect();
                truth.directions.insert(dirs);
                truth.distances.insert(dist);
            }
        }
    }
    truth
}

/// A reported vector covers an observed relation if every component is
/// `*` or equal.
fn covers(reported: &[Direction], observed: &[Direction]) -> bool {
    reported
        .iter()
        .zip(observed)
        .all(|(r, o)| *r == Direction::Any || r == o)
}

/// Checks one normalized program against the oracle. `symbolics` binds
/// any `read`/free scalars for execution.
fn check_program(program: &Program, symbolics: &BTreeMap<String, i64>) {
    check_program_with(program, symbolics, AnalyzerConfig::default());
}

/// Like [`check_program`] with an explicit analyzer configuration.
fn check_program_with(
    program: &Program,
    symbolics: &BTreeMap<String, i64>,
    config: AnalyzerConfig,
) {
    let touches = match execute(program, symbolics, 2_000_000) {
        Ok(t) => t,
        Err(e) => panic!("oracle execution failed: {e}\n{program}"),
    };
    let touches = Touches::new(&touches);
    let set = extract_accesses(program);
    let has_symbolics = !set.symbolics.is_empty();

    let mut analyzer = DependenceAnalyzer::with_config(config);
    let report = analyzer.analyze_program(program);

    for pair in report.pairs() {
        let common = pair.common_loop_ids.len();
        let truth = ground_truth(&touches, pair.a_access, pair.b_access, common);
        // Accesses under an `if` may not execute: "dependent" is then a
        // may-dependence and need not be realized by this execution.
        let conditional =
            set.accesses[pair.a_access].conditional || set.accesses[pair.b_access].conditional;

        // Soundness of "independent": no execution may contradict it.
        if pair.result.is_independent() {
            assert!(
                !truth.dependent,
                "analyzer claims independent but execution overlaps:\n\
                 pair {} #{}..#{} in\n{program}",
                pair.array, pair.a_access, pair.b_access
            );
            continue;
        }

        // Exactness of "dependent" (only checkable without symbolics or
        // conditionals: a symbolic dependence may need a different
        // binding, a conditional one an untaken branch).
        if pair.result.answer.is_dependent() && !has_symbolics && !conditional {
            assert!(
                truth.dependent,
                "analyzer claims (exact) dependent but execution never \
                 overlaps: pair {} #{}..#{} in\n{program}",
                pair.array, pair.a_access, pair.b_access
            );
        }

        // Every observed direction must be covered by some reported
        // vector.
        for od in &truth.directions {
            assert!(
                pair.direction_vectors.iter().any(|v| covers(&v.0, od)),
                "observed direction {od:?} not covered by {:?} for pair \
                 {} #{}..#{} in\n{program}",
                pair.direction_vectors,
                pair.array,
                pair.a_access,
                pair.b_access
            );
        }

        // Fully-refined vectors (no `*`) must be realized by execution.
        if !has_symbolics && !conditional {
            for v in &pair.direction_vectors {
                if v.0.contains(&Direction::Any) {
                    continue;
                }
                let as_dirs: Vec<Direction> = v.0.to_vec();
                assert!(
                    truth.directions.contains(&as_dirs),
                    "reported vector {v} never observed (observed {:?}) for \
                     pair {} #{}..#{} in\n{program}",
                    truth.directions,
                    pair.array,
                    pair.a_access,
                    pair.b_access
                );
            }
        }

        // Known distances must match every observed instance.
        for (k, d) in pair.distance.0.iter().enumerate() {
            if let Some(d) = d {
                for dist in &truth.distances {
                    assert_eq!(
                        dist[k], *d,
                        "distance mismatch at level {k} for pair {} in\n{program}",
                        pair.array
                    );
                }
            }
        }
    }
}

fn check_source(src: &str) {
    let mut program = parse_program(src).expect("parse");
    passes::normalize(&mut program);
    check_program(&program, &BTreeMap::new());
}

#[test]
fn fixed_corpus() {
    for src in [
        "for i = 1 to 10 { a[i] = a[i + 10] + 3; }",
        "for i = 1 to 10 { a[i + 1] = a[i] + 3; }",
        "for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }",
        "for i = 1 to 10 { a[2 * i] = a[2 * i + 4]; }",
        "for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9]; } }",
        "for i = 0 to 10 { for j = 0 to 10 { a[i][j] = a[2 * i][j] + 7; } }",
        "for i = 1 to 4 { for j = 1 to 4 { a[i][j] = a[j][i] + 1; } }",
        "for i = 1 to 10 { for j = i to 10 { a[j + 2] = a[j] + 1; } }",
        "for i = 1 to 10 { for j = i to i + 3 { a[j] = a[j + 1] + 1; } }",
        "for i = 1 to 8 { for j = 1 to 8 { a[2 * i + j] = a[i + 2 * j + 1] + 1; } }",
        "for i = 1 to 10 { a[i][i] = a[i][i + 1]; }",
        "for i = 1 to 6 { for j = 1 to 6 { for k = 1 to 6 {
             a[2 * i + 3 * j + k] = a[i + j + 5 * k + 1] + 1; } } }",
        "for i = 1 to 9 step 2 { a[i] = a[i + 1]; }",
        "for i = 10 to 1 step -1 { a[i + 1] = a[i]; }",
        "k = 0; for i = 1 to 10 { k = k + 2; a[k] = a[k - 1]; }",
        "for i = 1 to 3 { a[b[i]] = a[i] + 1; }", // non-affine: assumed dep
        "for i = 1 to 5 { a[3] = a[4] + a[3]; }",
        // A loop that shadows its enclosing loop's variable: its bounds
        // read the outer `i`, its body the inner one. The same element is
        // written at (1, 9) and read at (1, 6).
        "for i = 1 to 10 { for i = i + 5 to 20 { a[i] = a[i + 3] + 1; } }",
    ] {
        check_source(src);
    }
}

#[test]
fn symbolic_independence_holds_for_every_binding() {
    // a[i + n] vs a[i + n + 11] over i in 1..10 can never overlap, no
    // matter what n is: the exact answer is independent, and execution
    // with many bindings must agree.
    let mut program =
        parse_program("read(n); for i = 1 to 10 { a[i + n] = a[i + n + 11]; }").unwrap();
    passes::normalize(&mut program);
    let mut analyzer = DependenceAnalyzer::new();
    let report = analyzer.analyze_program(&program);
    assert!(report.pairs()[0].result.is_independent());
    for n in -30..30 {
        let mut env = BTreeMap::new();
        env.insert("n".to_owned(), n);
        let touches = execute(&program, &env, 100_000).unwrap();
        let truth = ground_truth(&Touches::new(&touches), 0, 1, 1);
        assert!(!truth.dependent, "n = {n}");
    }
}

#[test]
fn symbolic_dependence_realized_by_some_binding() {
    let mut program =
        parse_program("read(n); for i = 1 to 10 { a[i + n] = a[i + 2 * n + 1] + 3; }").unwrap();
    passes::normalize(&mut program);
    let mut analyzer = DependenceAnalyzer::new();
    let report = analyzer.analyze_program(&program);
    assert!(report.pairs()[0].result.answer.is_dependent());
    // The witness: i = i' + n + 1; e.g. n = 0 gives distance 1... wait,
    // i + n = i' + 2n + 1 means i - i' = n + 1: realized for n in -10..8.
    let mut found = false;
    for n in -12..12 {
        let mut env = BTreeMap::new();
        env.insert("n".to_owned(), n);
        let touches = execute(&program, &env, 100_000).unwrap();
        if ground_truth(&Touches::new(&touches), 0, 1, 1).dependent {
            found = true;
            break;
        }
    }
    assert!(found, "no binding realizes the symbolic dependence");
}

// ---------------------------------------------------------------------
// Randomized programs.
// ---------------------------------------------------------------------

/// An affine subscript over up to `depth` loop variables.
fn arb_subscript(depth: usize) -> impl Strategy<Value = String> {
    let coeff = -3i64..=3;
    let var_terms = proptest::collection::vec(coeff, depth);
    (var_terms, -6i64..=6).prop_map(move |(coeffs, c)| {
        let mut s = String::new();
        for (k, a) in coeffs.iter().enumerate() {
            if *a != 0 {
                if !s.is_empty() {
                    s.push_str(" + ");
                }
                s.push_str(&format!("{a} * v{k}"));
            }
        }
        if s.is_empty() {
            format!("{c}")
        } else {
            format!("{s} + {c}")
        }
    })
}

/// A whole random program: one nest of `depth` loops with small constant
/// (possibly triangular) bounds and 1–3 statements of 1–2-D references.
/// A loop below the outermost sometimes reuses its enclosing loop's
/// name: its bounds then read the outer variable and everything inside
/// reads its own.
fn arb_program() -> impl Strategy<Value = String> {
    (1usize..=3)
        .prop_flat_map(|depth| {
            let bounds =
                proptest::collection::vec((0i64..=2, 2i64..=5, prop::bool::ANY, 0u8..4), depth);
            let dims = 1usize..=2;
            let stmts = proptest::collection::vec(
                (
                    proptest::collection::vec(arb_subscript(depth), 2),
                    proptest::collection::vec(arb_subscript(depth), 2),
                ),
                1..=2,
            );
            (Just(depth), bounds, dims, stmts)
        })
        .prop_map(|(depth, bounds, dims, stmts)| {
            let mut names: Vec<String> = Vec::with_capacity(depth);
            let mut src = String::new();
            for (k, (lo, hi, triangular, shadow)) in bounds.iter().enumerate() {
                let lower = if *triangular && k > 0 {
                    names[k - 1].clone()
                } else {
                    lo.to_string()
                };
                let name = if *shadow == 0 && k > 0 {
                    names[k - 1].clone()
                } else {
                    format!("v{k}")
                };
                src.push_str(&format!("for {name} = {lower} to {hi} {{ "));
                names.push(name);
            }
            // Subscripts name levels `v0..`: a level hidden by a loop of
            // the same name reads as the inner loop's variable, and a
            // name no loop binds stays out of the program.
            let bound = |s: &str| -> String {
                let mut s = s.to_owned();
                for k in (0..depth).rev() {
                    s = s.replace(&format!("v{k}"), &names[k]);
                }
                s
            };
            for (n, (wsubs, rsubs)) in stmts.iter().enumerate() {
                let w: Vec<String> = wsubs
                    .iter()
                    .take(dims)
                    .map(|s| format!("[{}]", bound(s)))
                    .collect();
                let r: Vec<String> = rsubs
                    .iter()
                    .take(dims)
                    .map(|s| format!("[{}]", bound(s)))
                    .collect();
                let stmt = format!("arr{} = arr{} + 1; ", w.concat(), r.concat());
                if n == 1 {
                    // Exercise the conditional extension: guard the second
                    // statement on the outermost index.
                    src.push_str(&format!("if ({} != 2) {{ {stmt}}} ", names[0]));
                } else {
                    src.push_str(&stmt);
                }
            }
            for _ in 0..depth {
                src.push_str("} ");
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analyzer's verdicts always agree with execution.
    #[test]
    fn random_programs_match_oracle(src in arb_program()) {
        check_source(&src);
    }

    /// The optional extensions (symmetric memoization, separable
    /// direction computation) never compromise exactness.
    #[test]
    fn extensions_match_oracle(src in arb_program()) {
        let mut program = parse_program(&src).expect("parse");
        passes::normalize(&mut program);
        check_program_with(&program, &BTreeMap::new(), AnalyzerConfig {
            memo_symmetry: true,
            separable_directions: true,
            ..AnalyzerConfig::default()
        });
    }
}
