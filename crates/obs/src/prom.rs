//! A small Prometheus text-exposition parser and validator.
//!
//! Just enough of the format to let tests and CI validate what
//! [`MetricsSnapshot::to_prometheus`](crate::MetricsSnapshot::to_prometheus)
//! emits: `# HELP`/`# TYPE` headers, samples with optional labels, and
//! the structural rules that matter (every sample's metric has a
//! declared type, no duplicate type declarations, no duplicate
//! samples, finite non-negative counter values).

use std::collections::{BTreeMap, BTreeSet};

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name as written (may carry `_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// A parsed exposition: declared types plus all samples.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Metric name → declared type (`counter`, `gauge`, `summary`, ...).
    pub types: BTreeMap<String, String>,
    /// All samples, in source order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The value of the sample with this exact name and label set (label
    /// order ignored), if present.
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let want: BTreeSet<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().cloned().collect::<BTreeSet<_>>() == want)
            .map(|s| s.value)
    }

    /// All samples whose name equals `name`.
    pub fn samples_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// The metric (base) name a sample belongs to: strips a
    /// `_sum`/`_count` suffix when the remainder is a declared summary
    /// or histogram.
    #[must_use]
    pub fn base_name<'a>(&self, sample_name: &'a str) -> &'a str {
        for suffix in ["_sum", "_count", "_bucket"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                if matches!(
                    self.types.get(base).map(String::as_str),
                    Some("summary" | "histogram")
                ) {
                    return base;
                }
            }
        }
        sample_name
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without `=`"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_name(&key) {
            return Err(format!("line {line_no}: bad label name `{key}`"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value not quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    let (_, esc) = chars
                        .next()
                        .ok_or_else(|| format!("line {line_no}: dangling escape"))?;
                    match esc {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => return Err(format!("line {line_no}: bad escape `\\{other}`")),
                    }
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: junk after label value"));
        }
    }
    Ok(labels)
}

/// Parses and validates a text exposition.
///
/// Errors on: malformed header or sample lines, invalid metric/label
/// names, duplicate `# TYPE` declarations, unknown metric types,
/// samples whose metric has no declared type, duplicate samples (same
/// name and label set), non-finite values, and negative values on
/// metrics declared `counter`.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    const KNOWN_TYPES: [&str; 5] = ["counter", "gauge", "summary", "histogram", "untyped"];
    let mut exp = Exposition::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: TYPE without name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: TYPE without type"))?;
            if parts.next().is_some() {
                return Err(format!("line {line_no}: junk after TYPE"));
            }
            if !valid_name(name) {
                return Err(format!("line {line_no}: bad metric name `{name}`"));
            }
            if !KNOWN_TYPES.contains(&kind) {
                return Err(format!("line {line_no}: unknown type `{kind}`"));
            }
            // The `_total` suffix is the counter convention; a gauge
            // wearing it would read as monotone to every scraper.
            if kind == "gauge" && name.ends_with("_total") {
                return Err(format!(
                    "line {line_no}: `{name}` declared gauge but named like a counter (`_total`)"
                ));
            }
            if exp
                .types
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return Err(format!("line {line_no}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            // HELP and comments: free-form.
            continue;
        }
        // Sample: name[{labels}] value
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated labels"))?;
                if close < brace {
                    return Err(format!("line {line_no}: unterminated labels"));
                }
                (&line[..brace], {
                    let labels = &line[brace + 1..close];
                    let value = &line[close + 1..];
                    (Some(labels), value)
                })
            }
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| format!("line {line_no}: sample without value"))?;
                (&line[..sp], (None, &line[sp..]))
            }
        };
        let (labels_body, value_part) = rest;
        let name = name_part.trim();
        if !valid_name(name) {
            return Err(format!("line {line_no}: bad metric name `{name}`"));
        }
        let labels = match labels_body {
            Some(body) => parse_labels(body, line_no)?,
            None => Vec::new(),
        };
        let mut toks = value_part.split_whitespace();
        let value_tok = toks
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        if toks.next().is_some() {
            return Err(format!("line {line_no}: unexpected trailing tokens"));
        }
        let value: f64 = value_tok
            .parse()
            .map_err(|_| format!("line {line_no}: bad value `{value_tok}`"))?;
        if !value.is_finite() {
            return Err(format!("line {line_no}: non-finite value"));
        }
        let sample = Sample {
            name: name.to_string(),
            labels,
            value,
        };
        let base = exp.base_name(&sample.name).to_string();
        let kind = exp
            .types
            .get(&base)
            .ok_or_else(|| format!("line {line_no}: `{base}` has no TYPE declaration"))?;
        if kind == "counter" && value < 0.0 {
            return Err(format!("line {line_no}: negative counter `{name}`"));
        }
        let mut ident: Vec<String> = sample
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        ident.sort();
        let ident = format!("{name}|{}", ident.join(","));
        if !seen.insert(ident) {
            return Err(format!("line {line_no}: duplicate sample `{name}`"));
        }
        exp.samples.push(sample);
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_headers_labels_and_values() {
        let text = "\
# HELP dda_x_total Things.
# TYPE dda_x_total counter
dda_x_total{kind=\"a\"} 3
dda_x_total{kind=\"b\"} 4
# TYPE dda_lat summary
dda_lat{quantile=\"0.5\"} 10
dda_lat_sum 30
dda_lat_count 2
";
        let exp = parse_exposition(text).unwrap();
        assert_eq!(exp.types["dda_x_total"], "counter");
        assert_eq!(exp.value("dda_x_total", &[("kind", "b")]), Some(4.0));
        assert_eq!(exp.value("dda_lat_count", &[]), Some(2.0));
        assert_eq!(exp.base_name("dda_lat_sum"), "dda_lat");
        assert_eq!(exp.base_name("dda_x_total"), "dda_x_total");
        assert_eq!(exp.samples.len(), 5);
    }

    #[test]
    fn rejects_duplicate_types_and_samples() {
        let dup_type = "# TYPE a counter\n# TYPE a counter\n";
        assert!(parse_exposition(dup_type)
            .unwrap_err()
            .contains("duplicate TYPE"));
        let dup_sample = "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n";
        assert!(parse_exposition(dup_sample)
            .unwrap_err()
            .contains("duplicate sample"));
    }

    #[test]
    fn rejects_untyped_samples_and_bad_values() {
        assert!(parse_exposition("a 1\n").unwrap_err().contains("no TYPE"));
        assert!(parse_exposition("# TYPE a counter\na -1\n")
            .unwrap_err()
            .contains("negative counter"));
        assert!(parse_exposition("# TYPE a gauge\na nope\n")
            .unwrap_err()
            .contains("bad value"));
        assert!(parse_exposition("# TYPE a wat\n")
            .unwrap_err()
            .contains("unknown type"));
    }

    #[test]
    fn gauges_may_be_fractional() {
        let exp = parse_exposition("# TYPE u gauge\nu 0.8333333333333334\n").unwrap();
        assert!((exp.value("u", &[]).unwrap() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn gauges_may_be_negative_but_not_named_total() {
        // Negative gauge values are legal (unlike counters)…
        let exp = parse_exposition("# TYPE inflight gauge\ninflight -2\n").unwrap();
        assert_eq!(exp.value("inflight", &[]), Some(-2.0));
        // …but a gauge must not wear the counter naming convention.
        assert!(parse_exposition("# TYPE x_total gauge\nx_total 1\n")
            .unwrap_err()
            .contains("named like a counter"));
        // Counters named `_total` stay fine.
        assert!(parse_exposition("# TYPE x_total counter\nx_total 1\n").is_ok());
    }

    #[test]
    fn own_exposition_round_trips() {
        use crate::{MetricsRegistry, MetricsSnapshot};
        use dda_core::pipeline::StageVerdict;
        use dda_core::stats::AnalysisStats;
        use dda_core::{SharedMemo, TestKind};
        let reg = MetricsRegistry::with_workers(2);
        reg.record_stage(TestKind::Svpc, StageVerdict::Independent, 100);
        let (stats, memo) = (AnalysisStats::default(), SharedMemo::new(2));
        let text = MetricsSnapshot::new(&reg, &stats, &memo, None).to_prometheus();
        let exp = parse_exposition(&text).expect("our own exposition must validate");
        assert_eq!(
            exp.value(
                "dda_stage_verdicts_total",
                &[("stage", "svpc"), ("verdict", "independent")]
            ),
            Some(1.0)
        );
        assert_eq!(exp.types["dda_stage_latency_nanos"], "summary");
    }
}
