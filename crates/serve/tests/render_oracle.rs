//! `batch_json_line` against a frozen copy of its earlier form.
//!
//! The renderer writes every field straight into its output string
//! through an escaping writer. The frozen copy below built each field as
//! its own escaped `String`, with its own character-by-character
//! escaper, and joined them; the bytes of the two must agree on any
//! report, including file and array names that need escaping (quotes,
//! backslashes, control characters) or are not ASCII.

use std::sync::Arc;

use dda_core::stats::{AnalysisStats, TestCounts};
use dda_core::{
    Answer, Certificate, DependenceResult, Direction, DirectionVector, DistanceVector, PairReport,
    ProgramReport, ResolvedBy, TestKind,
};
use dda_serve::render::batch_json_line;
use proptest::prelude::*;

/// The escaper as it was before it became a `fmt::Write` adapter.
fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The renderer as it was before it wrote in place: the oracle.
fn frozen_batch_json_line(file: &str, report: &ProgramReport) -> String {
    use std::fmt::Write as _;
    let mut line = format!("{{\"file\":\"{}\",\"pairs\":[", json_escape(file));
    for (i, pair) in report.pairs().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let answer = if pair.result.answer.is_independent() {
            "independent"
        } else if pair.result.answer.is_dependent() {
            "dependent"
        } else {
            "unknown"
        };
        let directions: Vec<String> = pair
            .direction_vectors
            .iter()
            .map(|v| format!("\"{}\"", json_escape(&v.to_string())))
            .collect();
        let _ = write!(
            line,
            "{{\"array\":\"{}\",\"a\":{},\"b\":{},\"answer\":\"{answer}\",\
             \"by\":\"{}\",\"cached\":{},\"directions\":[{}],\"distance\":\"{}\"}}",
            json_escape(&pair.array),
            pair.a_access,
            pair.b_access,
            json_escape(&pair.result.resolved_by.to_string()),
            pair.from_cache,
            directions.join(","),
            json_escape(&pair.distance.to_string()),
        );
    }
    let s = &report.stats;
    let _ = write!(
        line,
        "],\"stats\":{{\"pairs\":{},\"constant\":{},\"gcd_independent\":{},\
         \"assumed\":{},\"base_tests\":{},\"direction_tests\":{},\
         \"memo_queries\":{},\"memo_hits\":{},\"gcd_memo_queries\":{},\
         \"gcd_memo_hits\":{},\"independent_pairs\":{},\"dependent_pairs\":{},\
         \"direction_vectors_found\":{}}}}}",
        s.pairs,
        s.constant,
        s.gcd_independent,
        s.assumed,
        s.base_tests.total(),
        s.direction_tests.total(),
        s.memo_queries,
        s.memo_hits,
        s.gcd_memo_queries,
        s.gcd_memo_hits,
        s.independent_pairs,
        s.dependent_pairs,
        s.direction_vectors_found,
    );
    line
}

/// Names built from pieces that need escaping, pieces that are not
/// ASCII, and plain ones.
fn name() -> impl Strategy<Value = String> {
    let pieces = vec![
        "a", "b_1", "x", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}", "\u{7f}", "é",
        "ü", "日本", "𝔸", "/", " ",
    ];
    proptest::collection::vec(proptest::sample::select(pieces), 0..=6).prop_map(|p| p.concat())
}

fn resolved_by() -> impl Strategy<Value = ResolvedBy> {
    proptest::sample::select(vec![
        ResolvedBy::Constant,
        ResolvedBy::Gcd,
        ResolvedBy::Assumed,
        ResolvedBy::Test(TestKind::Svpc),
        ResolvedBy::Test(TestKind::Acyclic),
        ResolvedBy::Test(TestKind::LoopResidue),
        ResolvedBy::Test(TestKind::FourierMotzkin),
    ])
}

fn answer() -> impl Strategy<Value = Answer> {
    proptest::sample::select(vec![
        Answer::Independent,
        Answer::Dependent(None),
        Answer::Dependent(Some(vec![1, 2])),
        Answer::Unknown,
    ])
}

fn direction() -> impl Strategy<Value = Direction> {
    proptest::sample::select(vec![
        Direction::Lt,
        Direction::Eq,
        Direction::Gt,
        Direction::Any,
    ])
}

fn distance() -> impl Strategy<Value = Option<i64>> {
    proptest::sample::select(vec![
        None,
        Some(0),
        Some(1),
        Some(-3),
        Some(i64::MIN),
        Some(i64::MAX),
    ])
}

/// A pair with up to six common levels (past the inline capacity) and
/// up to three direction vectors.
fn pair() -> impl Strategy<Value = PairReport> {
    (0usize..=6, name(), 0usize..=3)
        .prop_flat_map(|(levels, array, vectors)| {
            (
                Just(array),
                (any::<u16>(), any::<u16>(), any::<bool>()),
                (answer(), resolved_by()),
                proptest::collection::vec(proptest::collection::vec(direction(), levels), vectors),
                proptest::collection::vec(distance(), levels),
            )
        })
        .prop_map(
            |(array, (a, b, from_cache), (answer, resolved_by), vectors, distance)| PairReport {
                array: Arc::from(array),
                a_access: usize::from(a),
                b_access: usize::from(b),
                common_loop_ids: (0..distance.len()).collect(),
                result: DependenceResult {
                    answer,
                    resolved_by,
                },
                witness: None,
                direction_vectors: vectors
                    .iter()
                    .map(|v| DirectionVector(v.as_slice().into()))
                    .collect(),
                distance: DistanceVector(distance.as_slice().into()),
                from_cache,
                certificate: Certificate::Conservative,
            },
        )
}

fn stats() -> impl Strategy<Value = AnalysisStats> {
    proptest::collection::vec(any::<u32>(), 13).prop_map(|v| {
        let n = |i: usize| u64::from(v[i]);
        let mut base_tests = TestCounts::default();
        base_tests.calls[0] = n(4);
        let mut direction_tests = TestCounts::default();
        direction_tests.calls[3] = n(5);
        AnalysisStats {
            pairs: n(0),
            constant: n(1),
            gcd_independent: n(2),
            assumed: n(3),
            base_tests,
            direction_tests,
            memo_queries: n(6),
            memo_hits: n(7),
            gcd_memo_queries: n(8),
            gcd_memo_hits: n(9),
            independent_pairs: n(10),
            dependent_pairs: n(11),
            direction_vectors_found: n(12),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn renders_the_bytes_of_the_frozen_renderer(
        file in name(),
        pairs in proptest::collection::vec(pair(), 0..=5),
        stats in stats(),
    ) {
        let report = ProgramReport::from_parts(pairs, stats);
        prop_assert_eq!(batch_json_line(&file, &report), frozen_batch_json_line(&file, &report));
    }
}

#[test]
fn renders_analyzed_programs_like_the_frozen_renderer() {
    let mut analyzer = dda_core::DependenceAnalyzer::new();
    for sp in dda_perfect::perfect_suite(0.05) {
        let report = analyzer.analyze_program(&sp.program);
        let file = format!("perfect/{}.loop", sp.name());
        assert_eq!(
            batch_json_line(&file, &report),
            frozen_batch_json_line(&file, &report)
        );
    }
}
