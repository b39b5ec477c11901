//! Properties of the dependence-graph static analysis (`dda-graph`).
//!
//! Three invariants, each pinned over generated programs or the
//! synthetic PERFECT corpus:
//!
//! 1. **Parallel claims are consistent with the reports.** A loop the
//!    graph marks `Parallel` has zero pair reports carrying a
//!    dependence at its level, in every memo mode. The report-level
//!    view is [`carried_dependence_loops`], a frozen copy of the rule
//!    dda-core used to carry, kept here as a differential oracle.
//! 2. **Sequential claims are re-checkable.** Every blocking edge a
//!    `Sequential` verdict cites resolves to a pair report whose
//!    certificate the independent proof-checking kernel accepts — a
//!    verdict is never grounded in a rejected proof.
//! 3. **Rendered output is deterministic.** The engine's graph batch,
//!    rendered to JSONL, is byte-identical to a serial
//!    `build_graph` loop at every worker/shard combination.

use std::collections::BTreeSet;

use dda::check::{check_pair, CheckOutcome};
use dda::core::{AnalyzerConfig, DependenceAnalyzer, Direction, MemoMode, ProgramReport};
use dda::engine::{Engine, EngineConfig};
use dda::graph::render::{graph_json_line, parallel_json_line};
use dda::graph::{build_graph, LoopVerdict, ProgramGraph};
use dda::ir::{extract_accesses, parse_program, passes, Program, RefPair};
use proptest::prelude::*;

/// A small program mixing affine and symbolic subscripts over 1–2
/// loops — the same shape the observability proptests use, enough to
/// produce carried, loop-independent, and assumed dependences.
fn arb_program() -> impl Strategy<Value = String> {
    (1usize..=2)
        .prop_flat_map(|depth| {
            let bounds = proptest::collection::vec((0i64..=2, 2i64..=6), depth);
            let stmts = proptest::collection::vec(
                (
                    proptest::collection::vec(-2i64..=2, depth),
                    -4i64..=4,
                    proptest::collection::vec(-2i64..=2, depth),
                    -4i64..=4,
                    0u8..=9,
                ),
                1..=2,
            );
            (Just(depth), bounds, stmts)
        })
        .prop_map(|(depth, bounds, stmts)| {
            let mut src = String::new();
            for (k, (lo, hi)) in bounds.iter().enumerate() {
                src.push_str(&format!("for v{k} = {lo} to {hi} {{ "));
            }
            let sub = |coeffs: &[i64], c: i64| {
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
            };
            let mut symbolic = false;
            for (wc, w0, rc, r0, kind) in &stmts {
                let mut read = sub(rc, *r0);
                if *kind == 0 {
                    read = format!("{read} + n");
                    symbolic = true;
                }
                src.push_str(&format!("a[{}] = a[{read}] + 1; ", sub(wc, *w0)));
            }
            for _ in 0..depth {
                src.push_str("} ");
            }
            if symbolic {
                format!("read(n); {src}")
            } else {
                src
            }
        })
}

fn parse_batch(sources: &[String]) -> Vec<Program> {
    sources
        .iter()
        .map(|s| {
            let mut p = parse_program(s).expect("generated programs parse");
            passes::normalize(&mut p);
            p
        })
        .collect()
}

/// Frozen oracle: loop ids that (conservatively) carry a dependence,
/// read straight off the pair reports. A loop cannot be run in parallel
/// if some dependent pair has a direction vector carried at that loop's
/// level. Do not edit: the graph's carried-at rule is checked against
/// this copy.
fn carried_dependence_loops(report: &ProgramReport) -> BTreeSet<usize> {
    let mut carried = BTreeSet::new();
    for pair in report.pairs() {
        if pair.result.is_independent() {
            continue;
        }
        if pair.direction_vectors.is_empty() {
            // Dependent but unrefined: every common loop may carry it.
            carried.extend(pair.common_loop_ids.iter().copied());
            continue;
        }
        for v in &pair.direction_vectors {
            for (level, &id) in pair.common_loop_ids.iter().enumerate() {
                let outer_could_be_eq = v.0[..level]
                    .iter()
                    .all(|d| matches!(d, Direction::Eq | Direction::Any));
                let this_could_cross = matches!(
                    v.0.get(level),
                    Some(Direction::Lt | Direction::Gt | Direction::Any)
                );
                if outer_could_be_eq && this_could_cross {
                    carried.insert(id);
                }
            }
        }
    }
    carried
}

/// Invariant 1 for one (program, report): a `Parallel` loop is exactly
/// one the analyzer says no dependence is carried at, and a
/// `Sequential` loop cites at least one blocking edge, every one of
/// which is genuinely carried at that level.
fn assert_verdicts_consistent(program: &Program, report: &ProgramReport) {
    let graph = build_graph(program, report);
    let carried = carried_dependence_loops(report);
    assert_eq!(graph.carried_loops(), carried);
    for id in 0..graph.loops.len() {
        match graph.loop_verdict(id) {
            LoopVerdict::Parallel => {
                assert!(
                    !carried.contains(&id),
                    "loop {id} marked parallel but the report carries a dependence there"
                );
            }
            LoopVerdict::Sequential { blocking_edges } => {
                assert!(
                    carried.contains(&id),
                    "loop {id} marked sequential but no report carries a dependence there"
                );
                assert!(
                    !blocking_edges.is_empty(),
                    "sequential verdict for loop {id} cites no blocking edge"
                );
                for &e in &blocking_edges {
                    assert!(
                        graph.edge_carries_at(&graph.edges[e], id),
                        "cited edge {e} is not carried at loop {id}"
                    );
                }
            }
        }
    }
}

/// Invariant 2 for one graph: every blocking edge's pair report passes
/// the independent checker.
fn assert_blocking_certificates_check(program: &Program, report: &ProgramReport) {
    let graph = build_graph(program, report);
    let set = extract_accesses(program);
    for id in 0..graph.loops.len() {
        let LoopVerdict::Sequential { blocking_edges } = graph.loop_verdict(id) else {
            continue;
        };
        for e in blocking_edges {
            let pair_index = graph.edges[e].pair;
            let pair = &graph.pairs[pair_index];
            let pair_report = &report.pairs()[pair_index];
            let ref_pair = RefPair {
                a: &set.accesses[pair.a_access],
                b: &set.accesses[pair.b_access],
                common: pair.common_loop_ids.len(),
                set: &set,
            };
            let outcome = check_pair(ref_pair, pair_report);
            assert!(
                !matches!(outcome, CheckOutcome::Rejected(_)),
                "blocking edge {e} of loop {id} rests on a rejected certificate: {outcome:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A loop marked `Parallel` has zero pair reports carrying a
    /// dependence at its level, in every memo mode; `Sequential`
    /// verdicts cite carried edges whose certificates the checker
    /// accepts.
    #[test]
    fn parallel_verdicts_match_carried_reports_in_every_memo_mode(
        sources in proptest::collection::vec(arb_program(), 1..=3),
    ) {
        let programs = parse_batch(&sources);
        for memo in [MemoMode::Off, MemoMode::Simple, MemoMode::Improved] {
            let config = AnalyzerConfig { memo, ..AnalyzerConfig::default() };
            let mut analyzer = DependenceAnalyzer::with_config(config);
            for p in &programs {
                let report = analyzer.analyze_program(p);
                assert_verdicts_consistent(p, &report);
                assert_blocking_certificates_check(p, &report);
            }
        }
    }

    /// Engine-built graphs, rendered to both JSONL forms, are
    /// byte-identical to a serial `build_graph` loop at every
    /// worker/shard combination.
    #[test]
    fn rendered_graphs_bit_identical_across_workers_and_shards(
        sources in proptest::collection::vec(arb_program(), 1..=3),
    ) {
        let programs = parse_batch(&sources);
        let render = |graphs: &[ProgramGraph]| -> String {
            let mut out = String::new();
            for (k, g) in graphs.iter().enumerate() {
                out.push_str(&graph_json_line(&format!("p{k}"), g));
                out.push('\n');
                out.push_str(&parallel_json_line(&format!("p{k}"), g));
                out.push('\n');
            }
            out
        };
        let want = {
            let mut analyzer = DependenceAnalyzer::new();
            let graphs: Vec<ProgramGraph> = programs
                .iter()
                .map(|p| build_graph(p, &analyzer.analyze_program(p)))
                .collect();
            render(&graphs)
        };
        for workers in [1usize, 3] {
            for shards in [1usize, 4] {
                let config = EngineConfig { workers, shards, ..EngineConfig::default() };
                let mut engine = Engine::with_config(config);
                let out = engine.graph_programs(&programs);
                prop_assert_eq!(
                    &render(&out.graphs),
                    &want,
                    "workers={} shards={}",
                    workers,
                    shards
                );
            }
        }
    }
}

/// Every loop in the synthetic PERFECT corpus gets a verdict, the
/// verdicts agree with the analyzer's carried-loop view, and the
/// corpus exercises both sides (some parallel loops, some sequential,
/// blocking certificates all checkable).
#[test]
fn perfect_corpus_classifies_every_loop() {
    let mut parallel = 0usize;
    let mut sequential = 0usize;
    for prog in dda::perfect::perfect_suite(0.2) {
        let mut program = parse_program(&prog.source).expect("PERFECT programs parse");
        passes::normalize(&mut program);
        let mut analyzer = DependenceAnalyzer::new();
        let report = analyzer.analyze_program(&program);
        assert_verdicts_consistent(&program, &report);
        assert_blocking_certificates_check(&program, &report);
        let graph = build_graph(&program, &report);
        let verdicts = graph.loop_verdicts();
        assert_eq!(
            verdicts.len(),
            graph.loops.len(),
            "{}: every loop needs a verdict",
            prog.name()
        );
        for v in &verdicts {
            if v.is_parallel() {
                parallel += 1;
            } else {
                sequential += 1;
            }
        }
    }
    assert!(parallel > 0, "corpus should contain parallel loops");
    assert!(sequential > 0, "corpus should contain sequential loops");
}

/// The graph's carried loops equal the frozen report-level view on
/// carried, nested, wavefront, assumed and reduction dependences.
#[test]
fn verdicts_match_the_report_summary() {
    for src in [
        "for i = 1 to 100 { a[i + 1] = a[i]; }",
        "for i = 1 to 100 { for j = 1 to 100 { a[i][j + 1] = a[i][j]; } }",
        "for i = 2 to 100 { for j = 2 to 100 { a[i][j] = a[i - 1][j] + a[i][j - 1]; } }",
        "for i = 1 to 10 { a[i * i] = a[i]; }",
        "for i = 1 to 40 { s[0] = s[0] + c[i]; }",
    ] {
        let p = parse_program(src).unwrap();
        let report = DependenceAnalyzer::new().analyze_program(&p);
        let g = build_graph(&p, &report);
        assert_eq!(
            g.carried_loops(),
            carried_dependence_loops(&report),
            "{src}"
        );
    }
}
