//! JSONL rendering of program reports — the one serializer shared by
//! `dda batch` and the `/analyze` / `/batch` service endpoints, so a
//! report rendered over the socket is byte-identical to the CLI's
//! output for the same analysis state.

use dda_core::json::json_escape;
use dda_core::ProgramReport;

/// One JSONL record for a program's report.
#[must_use]
pub fn batch_json_line(file: &str, report: &ProgramReport) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_report_as_one_json_object() {
        let program = dda_ir::parse_program("for i = 1 to 9 { a[i + 1] = a[i]; }").unwrap();
        let mut analyzer = dda_core::DependenceAnalyzer::new();
        let report = analyzer.analyze_program(&program);
        let line = batch_json_line("k.loop", &report);
        assert!(
            line.starts_with("{\"file\":\"k.loop\",\"pairs\":["),
            "{line}"
        );
        assert!(line.contains("\"answer\":\"dependent\""), "{line}");
        assert!(line.ends_with("}}"), "{line}");
        assert!(!line.contains('\n'));
    }
}
