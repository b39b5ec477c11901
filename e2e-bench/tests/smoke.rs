//! Smoke test: every workload at `--quick` size, untraced and traced.
//! Every metric `BENCHMARK.json` names must be emitted and finite, no
//! operation may fail, and the traced run's deterministic counters must
//! repeat exactly for one seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "perfect-cold",
    "unique-solve",
    "incremental-warm",
    "serve-open",
];

/// Per-layer counters that depend only on the seed, never on timing.
const DETERMINISTIC: [&str; 22] = [
    "ir.pairs",
    "engine.waves",
    "engine.leaders.full",
    "engine.leaders.gcd",
    "engine.leader_ratio",
    "core.gcd_solves",
    "core.gcd_cache_hits",
    "core.cascade_calls.svpc",
    "core.cascade_calls.acyclic",
    "core.cascade_calls.residue",
    "core.cascade_calls.fm",
    "core.refine_calls",
    "core.refine_tests",
    "memo.full.hit_ratio",
    "memo.gcd.hit_ratio",
    "memo.entries",
    "memo.bytes",
    "memo.archive_faults",
    "memo.splice_ratio",
    "render.bytes",
    "serve.shed",
    "trace.ops",
];

/// The `"name"` values of the objects in `BENCHMARK.json`'s `section`
/// array.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("quoted name")].to_owned()
        })
        .collect()
}

struct Run {
    values: BTreeMap<String, f64>,
    json: String,
}

fn run(workload: &str, trace: bool, spans: Option<&Path>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dda-e2e-bench"));
    cmd.args(["--workload", workload, "--seed", "7", "--quick"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut values = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, _unit] = fields[..] {
            assert_eq!(w, workload);
            values.insert(name.to_owned(), value.parse().expect("numeric value"));
        }
    }
    let json = stdout.lines().last().expect("output").to_owned();
    Run { values, json }
}

fn check_emitted(run: &Run, names: &[String], workload: &str) {
    assert!(!names.is_empty());
    for name in names {
        let v = run
            .values
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(
            run.json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from the JSON line"
        );
    }
    assert_eq!(
        run.json.matches("{\"value\": ").count(),
        names.len(),
        "{workload}: the JSON line holds exactly the listed metrics"
    );
    assert_eq!(run.values["error_rate"], 0.0, "{workload}");
    assert!(run.json.starts_with("{\"correct\": true,"), "{}", run.json);
    assert!(run.json.contains("\"failed\": 0,"), "{}", run.json);
}

fn smoke(workload: &str) {
    let untraced = run(workload, false, None);
    check_emitted(&untraced, &benchmark_names("end_to_end"), workload);
    assert!(untraced.values["p50_ms"] > 0.0);
    assert!(untraced.values["setup_s"] > 0.0);

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let spans = dir.join(format!("smoke-{workload}.jsonl"));
    let first = run(workload, true, Some(&spans));
    check_emitted(&first, &benchmark_names("per_layer"), workload);
    let second = run(workload, true, None);
    for key in DETERMINISTIC {
        assert_eq!(
            first.values[key], second.values[key],
            "{workload}: {key} differs between two runs of one seed"
        );
    }
    assert!(first.values["ir.pairs"] > 0.0, "{workload}");

    let text = std::fs::read_to_string(&spans).expect("span JSONL written");
    let number = |line: &str, key: &str| -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        let rest = &line[at..];
        rest[..rest.find([',', '}']).expect("field ends")]
            .parse()
            .expect("integer field")
    };
    assert!(!text.is_empty());
    for line in text.lines() {
        for field in ["\"id\":", "\"parent\":", "\"name\":", "\"op\":"] {
            assert!(line.contains(field), "{line}");
        }
        let (start, end) = (number(line, "\"start_ns\":"), number(line, "\"end_ns\":"));
        assert!(start > 0 && end >= start, "{workload}: span times: {line}");
    }
}

#[test]
fn perfect_cold() {
    smoke(WORKLOADS[0]);
}

#[test]
fn unique_solve() {
    smoke(WORKLOADS[1]);
}

#[test]
fn incremental_warm() {
    smoke(WORKLOADS[2]);
}

#[test]
fn serve_open() {
    smoke(WORKLOADS[3]);
}
