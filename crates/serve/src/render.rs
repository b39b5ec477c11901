//! JSONL rendering of program reports — the one serializer shared by
//! `dda batch` and the `/analyze` / `/batch` service endpoints, so a
//! report rendered over the socket is byte-identical to the CLI's
//! output for the same analysis state.

use std::fmt::{self, Write as _};

use dda_core::json::JsonEscaper;
use dda_core::{PairReport, ProgramReport};

/// One JSONL record for a program's report.
///
/// Every field is written straight into the one output string, names
/// and rendered vectors through the escaping [`JsonEscaper`], and the
/// string is sized up front from the report, so a record costs one
/// allocation however many pairs it holds.
#[must_use]
pub fn batch_json_line(file: &str, report: &ProgramReport) -> String {
    let mut line = String::with_capacity(line_estimate(file, report));
    // Writing into a `String` cannot fail.
    let _ = write_line(&mut line, file, report);
    line
}

/// Bytes of a record with no escaping and distances of at most two
/// digits: rarely under the rendered length, so the line rarely grows.
fn line_estimate(file: &str, report: &ProgramReport) -> usize {
    const RECORD: usize = 400;
    const PAIR: usize = 160;
    report.pairs().iter().fold(RECORD + file.len(), |n, p| {
        let levels = p.distance.0.len();
        n + PAIR + p.array.len() + (p.direction_vectors.len() + 1) * (4 * levels + 4)
    })
}

fn write_line(line: &mut String, file: &str, report: &ProgramReport) -> fmt::Result {
    line.push_str("{\"file\":\"");
    JsonEscaper(&mut *line).write_str(file)?;
    line.push_str("\",\"pairs\":[");
    for (i, pair) in report.pairs().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_pair(line, pair)?;
    }
    let s = &report.stats;
    write!(
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
    )
}

fn write_pair(line: &mut String, pair: &PairReport) -> fmt::Result {
    let answer = if pair.result.answer.is_independent() {
        "independent"
    } else if pair.result.answer.is_dependent() {
        "dependent"
    } else {
        "unknown"
    };
    line.push_str("{\"array\":\"");
    JsonEscaper(&mut *line).write_str(&pair.array)?;
    write!(
        line,
        "\",\"a\":{},\"b\":{},\"answer\":\"{answer}\",\"by\":\"",
        pair.a_access, pair.b_access
    )?;
    write!(JsonEscaper(&mut *line), "{}", pair.result.resolved_by)?;
    write!(line, "\",\"cached\":{},\"directions\":[", pair.from_cache)?;
    for (i, v) in pair.direction_vectors.iter().enumerate() {
        line.push_str(if i > 0 { ",\"" } else { "\"" });
        write!(JsonEscaper(&mut *line), "{v}")?;
        line.push('"');
    }
    line.push_str("],\"distance\":\"");
    write!(JsonEscaper(&mut *line), "{}", pair.distance)?;
    line.push_str("\"}");
    Ok(())
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
