//! End-to-end tests of `--metrics` and `--profile`, validated with the
//! in-repo Prometheus exposition parser ([`dda::obs::prom`]).
//!
//! The warm-start test doubles as the CI smoke property: counters are
//! monotone across two runs when the second warm-starts from the
//! first's persisted memo (same queries, at least as many hits, and a
//! nonzero warm-load count).

use std::io::Write;
use std::process::{Command, Stdio};

use dda::obs::prom::{parse_exposition, Exposition};

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dda"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn manifest_path() -> String {
    format!("{}/examples/loops/manifest.txt", env!("CARGO_MANIFEST_DIR"))
}

fn loop_files() -> Vec<String> {
    let dir = format!("{}/examples/loops", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/loops exists")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            p.extension()
                .is_some_and(|x| x == "loop")
                .then(|| p.to_string_lossy().into_owned())
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "examples/loops has .loop files");
    files
}

/// Unique scratch path (tests in one binary run concurrently).
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dda-metrics-{}-{name}", std::process::id()))
}

fn batch_exposition(extra: &[&str]) -> Exposition {
    let manifest = manifest_path();
    let mut args = vec!["batch", manifest.as_str(), "--metrics=prom"];
    args.extend_from_slice(extra);
    let (_, stderr, ok) = run_cli(&args, "");
    assert!(ok, "batch run failed:\n{stderr}");
    parse_exposition(&stderr).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{stderr}"))
}

#[test]
fn batch_prom_exposition_is_valid_and_covers_the_pipeline() {
    // `parse_exposition` itself rejects duplicate metric names, unknown
    // or redeclared types, samples without a TYPE, non-finite values and
    // negative counters — so a successful parse is most of the test.
    let exp = batch_exposition(&[]);

    for (name, kind) in [
        ("dda_stage_latency_nanos", "summary"),
        ("dda_gcd_latency_nanos", "summary"),
        ("dda_refinement_latency_nanos", "summary"),
        ("dda_stage_verdicts_total", "counter"),
        ("dda_memo_hits_total", "counter"),
        ("dda_memo_misses_total", "counter"),
        ("dda_memo_warm_loads_total", "counter"),
        ("dda_memo_shard_ops_total", "counter"),
        ("dda_memo_entries", "gauge"),
        ("dda_engine_workers", "gauge"),
        ("dda_engine_utilization_ratio", "gauge"),
        ("dda_engine_tasks_total", "counter"),
    ] {
        assert_eq!(
            exp.types.get(name).map(String::as_str),
            Some(kind),
            "metric {name} must be declared as a {kind}"
        );
    }

    // Stage latency summaries cover all four cascade stages at the
    // three advertised quantiles.
    for stage in ["svpc", "acyclic", "residue", "fm"] {
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                exp.value(
                    "dda_stage_latency_nanos",
                    &[("stage", stage), ("quantile", q)]
                )
                .is_some(),
                "missing stage latency quantile {q} for {stage}"
            );
        }
        assert!(
            exp.value("dda_stage_latency_nanos_count", &[("stage", stage)])
                .is_some(),
            "missing latency count for {stage}"
        );
    }

    // The manifest's programs produce real traffic: pairs were
    // analyzed and both memo tables were queried.
    assert!(exp.value("dda_pairs_total", &[]).unwrap_or(0.0) > 0.0);
    for table in ["full", "gcd"] {
        assert!(
            exp.value("dda_memo_queries_total", &[("table", table)])
                .unwrap_or(0.0)
                > 0.0,
            "{table} memo saw no queries"
        );
    }
    let util = exp
        .value("dda_engine_utilization_ratio", &[])
        .expect("utilization present");
    assert!(
        (0.0..=1.0).contains(&util),
        "utilization {util} outside [0, 1]"
    );
}

#[test]
fn parallel_exposition_includes_the_graph_section() {
    // `dda parallel` routes through the engine's graph batch, so the
    // exposition gains the graph section: edge counters by dependence
    // class, loop verdict counters, and the build-time summary. The
    // parser validates shape; the values must match the manifest's
    // known contents (9 pairs over 6 programs, 12 loops of which 4 are
    // parallel — see tests/cli.rs and the CI smoke step).
    let manifest = manifest_path();
    let (_, stderr, ok) = run_cli(&["parallel", manifest.as_str(), "--metrics=prom"], "");
    assert!(ok, "parallel run failed:\n{stderr}");
    let exp =
        parse_exposition(&stderr).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{stderr}"));

    assert_eq!(
        exp.types.get("dda_graph_edges_total").map(String::as_str),
        Some("counter")
    );
    let flow = exp
        .value("dda_graph_edges_total", &[("kind", "flow")])
        .expect("flow edge counter present");
    assert!(flow > 0.0, "manifest programs have flow dependences");
    let parallel = exp
        .value("dda_graph_parallel_loops_total", &[])
        .expect("parallel loop counter");
    let sequential = exp
        .value("dda_graph_sequential_loops_total", &[])
        .expect("sequential loop counter");
    assert_eq!(parallel, 4.0, "parallel loops over examples/loops");
    assert_eq!(sequential, 8.0, "sequential loops over examples/loops");
    let builds = exp
        .value("dda_graph_build_latency_nanos_count", &[])
        .expect("build latency count");
    assert_eq!(builds, 6.0, "one graph build per manifest program");

    // A plain batch run must NOT grow a graph section: graph metrics
    // exist only once a graph has actually been built.
    let exp = batch_exposition(&[]);
    assert!(
        !exp.types.contains_key("dda_graph_edges_total"),
        "batch exposition must not contain graph metrics"
    );
}

#[test]
fn counters_are_monotone_across_warm_started_runs() {
    let memo = scratch("warm.memo");
    let memo_str = memo.to_string_lossy().into_owned();
    let cold = batch_exposition(&["--memo-save", &memo_str]);
    let warm = batch_exposition(&["--memo-load", &memo_str]);
    let _ = std::fs::remove_file(&memo);

    let v = |exp: &Exposition, name: &str, table: &str| {
        exp.value(name, &[("table", table)])
            .unwrap_or_else(|| panic!("{name}{{table={table}}} missing"))
    };
    for table in ["full", "gcd"] {
        // Same batch, so table traffic is identical...
        assert_eq!(
            v(&cold, "dda_memo_queries_total", table),
            v(&warm, "dda_memo_queries_total", table),
            "{table}: queries must not depend on warm start"
        );
        // ...but the warm run is pre-populated: it loaded entries from
        // the persisted file and can only hit more, never less.
        assert!(
            v(&warm, "dda_memo_warm_loads_total", table) > 0.0,
            "{table}: warm run loaded no entries"
        );
        assert_eq!(v(&cold, "dda_memo_warm_loads_total", table), 0.0);
        assert!(
            v(&warm, "dda_memo_hits_total", table) >= v(&cold, "dda_memo_hits_total", table),
            "{table}: hits regressed across warm start"
        );
    }
    // Verdict counters are deterministic batch-to-batch.
    assert_eq!(
        cold.value("dda_pairs_total", &[]),
        warm.value("dda_pairs_total", &[])
    );
}

#[test]
fn analyze_warm_start_reports_memo_load_figures() {
    // `dda analyze --memo-load` reports the same memo-load figures as
    // `dda batch`, and its one-shard tables their shard spread.
    let memo = scratch("analyze-warm.memo");
    let memo_str = memo.to_string_lossy().into_owned();
    let file = format!(
        "{}/examples/loops/paper_example.loop",
        env!("CARGO_MANIFEST_DIR")
    );
    let (_, stderr, ok) = run_cli(&["batch", &file, "--memo-save", &memo_str], "");
    assert!(ok, "{stderr}");
    let warm = |format: &str| {
        let (_, stderr, ok) = run_cli(&["analyze", &file, "--memo-load", &memo_str, format], "");
        assert!(ok, "{stderr}");
        stderr
    };
    let (prom, json) = (warm("--metrics=prom"), warm("--metrics=json"));
    let _ = std::fs::remove_file(&memo);

    let exp = parse_exposition(&prom).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{prom}"));
    assert_eq!(
        exp.value("dda_memo_load_files_total", &[]),
        Some(1.0),
        "{prom}"
    );
    for table in ["full", "gcd"] {
        let ops = exp.value(
            "dda_memo_shard_ops_total",
            &[("table", table), ("shard", "0")],
        );
        assert!(ops.unwrap_or(0.0) > 0.0, "{table} shard ops: {prom}");
    }
    assert!(json.contains("\"memo_load\":{\"files\":1,"), "{json}");
    assert!(!json.contains("\"shard_ops\":[]"), "{json}");
}

#[test]
fn serial_warm_start_reports_the_incremental_split() {
    // A pair spliced from a warm entry counts as spliced in `dda
    // analyze` exactly as in `dda batch`: both warm-start from the same
    // archive and splice every pair of the example.
    let memo = scratch("split.memo");
    let memo_str = memo.to_string_lossy().into_owned();
    let mut train: Vec<String> = vec!["batch".into()];
    train.extend(loop_files());
    train.extend(["--memo-save".into(), memo_str.clone()]);
    let train: Vec<&str> = train.iter().map(String::as_str).collect();
    let (_, stderr, ok) = run_cli(&train, "");
    assert!(ok, "{stderr}");
    let file = format!(
        "{}/examples/loops/paper_example.loop",
        env!("CARGO_MANIFEST_DIR")
    );
    let split = |command: &str| {
        let (_, stderr, ok) = run_cli(
            &[command, &file, "--memo-load", &memo_str, "--metrics=prom"],
            "",
        );
        assert!(ok, "{stderr}");
        let exp = parse_exposition(&stderr)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{stderr}"));
        let value = |name: &str| {
            exp.value(name, &[])
                .unwrap_or_else(|| panic!("{name}: {stderr}"))
        };
        (
            value("dda_pairs_total"),
            value("dda_incremental_spliced_total"),
            value("dda_incremental_resolved_total"),
        )
    };
    let (analyze, batch) = (split("analyze"), split("batch"));
    let _ = std::fs::remove_file(&memo);
    assert_eq!(
        analyze,
        (2.0, 2.0, 0.0),
        "analyze: pairs, spliced, resolved"
    );
    assert_eq!(batch, analyze, "batch and analyze disagree");
}

#[test]
fn metrics_json_is_emitted_on_stderr_for_serial_analyze() {
    let (stdout, stderr, ok) = run_cli(
        &["analyze", "-", "--metrics=json"],
        "for i = 1 to 9 { a[i + 1] = a[i]; }",
    );
    assert!(ok, "{stderr}");
    // Verdicts stay on stdout, the snapshot on stderr.
    assert!(stdout.contains("Dependent"), "{stdout}");
    let line = stderr.trim();
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not a JSON object: {stderr}"
    );
    for key in ["\"stages\":", "\"gcd\":", "\"pairs\":", "\"memo\":"] {
        assert!(line.contains(key), "missing {key}: {stderr}");
    }
    // Serial runs have no worker pool; the engine section is absent.
    assert!(!line.contains("\"engine\":"), "{stderr}");
}

#[test]
fn batch_accepts_loop_files_directly_and_profiles_them() {
    let dir = scratch("profile");
    let dir_str = dir.to_string_lossy().into_owned();
    let files = loop_files();
    let mut args = vec!["batch"];
    args.extend(files.iter().map(String::as_str));
    args.extend_from_slice(&["--profile", &dir_str]);
    let (stdout, stderr, ok) = run_cli(&args, "");
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout.lines().count(),
        files.len(),
        "one JSON report per .loop input:\n{stdout}"
    );

    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans.jsonl written");
    let folded =
        std::fs::read_to_string(dir.join("profile.folded")).expect("profile.folded written");
    let _ = std::fs::remove_dir_all(&dir);

    // One root span per program, seq numbers monotone from 0, and no
    // wall-clock timestamps anywhere (byte-stable by design).
    let roots = spans.lines().filter(|l| l.contains("\"depth\":0")).count();
    assert_eq!(roots, files.len(), "{spans}");
    for (i, line) in spans.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},")),
            "seq not monotone at line {i}: {line}"
        );
        assert!(!line.contains("timestamp"), "{line}");
    }
    // Folded stacks are rooted at the analyze spans and carry counts.
    assert!(!folded.is_empty());
    for line in folded.lines() {
        assert!(line.starts_with("analyze:"), "unrooted stack: {line}");
        let (_, count) = line.rsplit_once(' ').expect("folded line has a count");
        assert!(count.parse::<u64>().is_ok(), "bad folded line: {line}");
    }
}
