//! End-to-end tests of the `dda` command-line binary.

use std::io::Write;
use std::process::{Command, Stdio};

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

/// A path in the repository, as a string for the command line.
fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_reports_pairs() {
    let (stdout, _, ok) = run_cli(
        &["analyze", "-", "--stats"],
        "for i = 1 to 9 { a[i + 1] = a[i]; }",
    );
    assert!(ok);
    assert!(stdout.contains("Dependent"), "{stdout}");
    assert!(stdout.contains("(<)"), "{stdout}");
    assert!(stdout.contains("distance: (1)"), "{stdout}");
    assert!(stdout.contains("stats:"), "{stdout}");
}

#[test]
fn parallel_annotates_loops() {
    let (stdout, _, ok) = run_cli(
        &["parallel", "-", "--annotate"],
        "for i = 1 to 9 { for j = 1 to 9 { a[i][j + 1] = a[i][j]; } }",
    );
    assert!(ok);
    assert!(stdout.contains("// parallel"), "{stdout}");
    assert!(stdout.contains("// sequential"), "{stdout}");
}

#[test]
fn parallel_defaults_to_verdict_jsonl_with_blocking_citations() {
    let (stdout, _, ok) = run_cli(
        &["parallel", "-"],
        "for i = 1 to 9 { for j = 1 to 9 { a[i][j + 1] = a[i][j]; } }",
    );
    assert!(ok);
    let line = stdout.lines().next().expect("one JSONL record");
    assert!(line.starts_with("{\"file\":\"-\",\"loops\":["), "{stdout}");
    // The i-loop is parallel; the j-loop is sequential and must cite
    // the blocking edge back to its pair report (the certificate).
    assert!(
        line.contains("\"id\":0,\"var\":\"i\",\"depth\":0,\"parallel\":true,\"blocking\":[]"),
        "{stdout}"
    );
    assert!(
        line.contains("\"id\":1,\"var\":\"j\",\"depth\":1,\"parallel\":false"),
        "{stdout}"
    );
    assert!(
        line.contains("\"pair\":0,\"array\":\"a\"") && line.contains("\"level\":1"),
        "{stdout}"
    );
    assert!(line.contains("\"interchange\":["), "{stdout}");
}

#[test]
fn parallel_reports_interchange_legality() {
    // (<, >): interchange would reverse the dependence — illegal.
    let (stdout, _, ok) = run_cli(
        &["parallel", "-"],
        "for i = 1 to 9 { for j = 1 to 9 { b[i + 1][j] = b[i][j + 1]; } }",
    );
    assert!(ok);
    assert!(
        stdout.contains("\"interchange\":[{\"outer\":0,\"inner\":1,\"legal\":false"),
        "{stdout}"
    );
    // (<, <): stays lexicographically positive under the swap — legal.
    let (stdout, _, ok) = run_cli(
        &["parallel", "-"],
        "for i = 1 to 9 { for j = 1 to 9 { b[i + 1][j + 1] = b[i][j]; } }",
    );
    assert!(ok);
    assert!(
        stdout
            .contains("\"interchange\":[{\"outer\":0,\"inner\":1,\"legal\":true,\"blocking\":[]}]"),
        "{stdout}"
    );
}

#[test]
fn parse_errors_are_rendered_with_location() {
    let (_, stderr, ok) = run_cli(&["analyze", "-"], "for i = 1 to { }");
    assert!(!ok);
    assert!(stderr.contains("parse error at 1:"), "{stderr}");
}

#[test]
fn unknown_flags_rejected_with_usage() {
    let (_, stderr, ok) = run_cli(&["analyze", "-", "--bogus"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown option"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run_cli(&["help"], "");
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn memo_save_and_load_round_trip() {
    let dir = std::env::temp_dir().join("dda_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let memo = dir.join("memo.txt");
    let memo_str = memo.to_str().unwrap();

    let (_, _, ok) = run_cli(
        &["analyze", "-", "--memo-save", memo_str],
        "for i = 1 to 9 { a[i + 1] = a[i]; }",
    );
    assert!(ok);
    assert!(memo.exists());

    // Warm start: the same pattern (different array) hits the cache.
    let (stdout, _, ok) = run_cli(
        &["analyze", "-", "--memo-load", memo_str, "--stats"],
        "for i = 1 to 9 { z[i + 1] = z[i]; }",
    );
    assert!(ok);
    assert!(stdout.contains("[cached]"), "{stdout}");
    let (inspect, _, ok) = run_cli(&["memo", "inspect", memo_str], "");
    assert!(ok);
    assert!(
        inspect.contains("dda-memo v3, 16 shards/section"),
        "{inspect}"
    );

    // Text tables still load: the committed v2 fixture answers an
    // example it was trained on, and inline v1 text is accepted.
    let example = std::fs::read_to_string(repo_path("examples/loops/interchange.loop")).unwrap();
    let fixture = repo_path("tests/corpus/memo/loops.v2.memo");
    let (stdout, _, ok) = run_cli(&["analyze", "-", "--memo-load", &fixture], &example);
    assert!(ok);
    assert!(stdout.contains("[cached]"), "{stdout}");
    std::fs::write(&memo, "dda-memo v1\ngcd 1 7 I\n").unwrap();
    let (_, stderr, ok) = run_cli(&["analyze", "-", "--memo-load", memo_str], &example);
    assert!(ok, "{stderr}");
    // `memo convert` rewrites a text table as a v3 archive.
    let (_, stderr, ok) = run_cli(
        &["memo", "convert", &fixture, memo_str, "--shards", "2"],
        "",
    );
    assert!(ok, "{stderr}");
    let (inspect, _, ok) = run_cli(&["memo", "inspect", memo_str], "");
    assert!(ok);
    assert!(
        inspect.contains("dda-memo v3, 2 shards/section, 15 records"),
        "{inspect}"
    );
    std::fs::remove_file(&memo).ok();
}

#[test]
fn graph_emits_dot() {
    let (stdout, _, ok) = run_cli(&["graph", "-"], "for i = 1 to 9 { a[i + 1] = a[i]; }");
    assert!(ok);
    assert!(stdout.contains("digraph dependences"), "{stdout}");
    assert!(stdout.contains("flow (<) @L0"), "{stdout}");
    assert!(stdout.contains("shape=box"), "{stdout}");
}

#[test]
fn graph_json_emits_nodes_edges_and_loops() {
    let (stdout, _, ok) = run_cli(
        &["graph", "-", "--json"],
        "for i = 1 to 9 { a[i + 1] = a[i]; }",
    );
    assert!(ok);
    let line = stdout.lines().next().expect("one JSONL record");
    assert!(line.starts_with("{\"file\":\"-\",\"nodes\":["), "{stdout}");
    assert!(
        line.contains("\"label\":\"a[i + 1] (write)\",\"write\":true"),
        "{stdout}"
    );
    assert!(
        line.contains(
            "\"pair\":0,\"array\":\"a\",\"source\":0,\"sink\":1,\"kind\":\"flow\",\
             \"vector\":\"(<)\",\"distance\":\"(1)\",\"level\":0"
        ),
        "{stdout}"
    );
    assert!(
        line.contains("\"loops\":[{\"id\":0,\"var\":\"i\",\"depth\":0,\"parent\":null}]"),
        "{stdout}"
    );
}

#[test]
fn graph_and_parallel_are_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join("dda_cli_graph_workers");
    let manifest = write_perfect_batch(&dir, 0.2);
    let manifest = manifest.to_str().unwrap();

    for command in ["graph", "parallel"] {
        let (serial, _, ok) = run_cli(&[command, manifest, "--workers", "1"], "");
        assert!(ok);
        let (parallel, _, ok) = run_cli(&[command, manifest, "--workers", "4"], "");
        assert!(ok);
        assert_eq!(
            serial, parallel,
            "{command}: workers must not change output"
        );
        let (sharded, _, ok) = run_cli(&[command, manifest, "--workers", "4", "--shards", "3"], "");
        assert!(ok);
        assert_eq!(serial, sharded, "{command}: shards must not change output");
    }

    let (jsonl, _, ok) = run_cli(&["parallel", manifest], "");
    assert!(ok);
    assert_eq!(jsonl.lines().count(), 13, "one JSONL record per program");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes the 13 synthetic PERFECT programs to `dir` and returns a
/// manifest file listing them.
fn write_perfect_batch(dir: &std::path::Path, scale: f64) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let mut manifest = String::from("# synthetic PERFECT suite\n");
    for prog in dda::perfect::perfect_suite(scale) {
        let name = format!("{}.loop", prog.name());
        std::fs::write(dir.join(&name), &prog.source).unwrap();
        manifest.push_str(&name);
        manifest.push('\n');
    }
    let path = dir.join("manifest.txt");
    std::fs::write(&path, manifest).unwrap();
    path
}

#[test]
fn batch_output_is_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join("dda_cli_batch_workers");
    let manifest = write_perfect_batch(&dir, 0.2);
    let manifest = manifest.to_str().unwrap();

    let (serial, _, ok) = run_cli(&["batch", manifest, "--workers", "1"], "");
    assert!(ok);
    assert_eq!(serial.lines().count(), 13, "one JSONL record per program");
    assert!(
        serial.lines().all(|l| l.starts_with("{\"file\":\"")),
        "{serial}"
    );

    let (parallel, _, ok) = run_cli(&["batch", manifest, "--workers", "4"], "");
    assert!(ok);
    assert_eq!(serial, parallel, "worker count must not change output");

    let (sharded, _, ok) = run_cli(&["batch", manifest, "--workers", "4", "--shards", "3"], "");
    assert!(ok);
    assert_eq!(serial, sharded, "shard count must not change output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_memo_round_trips_and_warm_starts() {
    let dir = std::env::temp_dir().join("dda_cli_batch_memo");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("p.loop"), "for i = 1 to 9 { a[i + 1] = a[i]; }").unwrap();
    std::fs::write(dir.join("q.loop"), "for i = 1 to 9 { z[i + 1] = z[i]; }").unwrap();
    std::fs::write(dir.join("manifest.txt"), "p.loop\nq.loop\n").unwrap();
    let manifest = dir.join("manifest.txt");
    let manifest = manifest.to_str().unwrap();
    let memo = dir.join("memo.txt");
    let memo_str = memo.to_str().unwrap();

    let (cold, _, ok) = run_cli(&["batch", manifest, "--memo-save", memo_str], "");
    assert!(ok);
    assert!(memo.exists());
    // The second program is the same pattern: an in-batch memo hit.
    assert!(
        cold.lines().nth(1).unwrap().contains("\"cached\":true"),
        "{cold}"
    );

    let (warm, _, ok) = run_cli(&["batch", manifest, "--memo-load", memo_str], "");
    assert!(ok);
    // Warm-started, even the first program hits the cache.
    assert!(
        warm.lines().next().unwrap().contains("\"cached\":true"),
        "{warm}"
    );

    // Text tables still load: the committed v2 fixture warms the
    // examples it was trained on, and inline v1 text is accepted.
    let example = repo_path("examples/loops/interchange.loop");
    let fixture = repo_path("tests/corpus/memo/loops.v2.memo");
    let (warm, _, ok) = run_cli(&["batch", &example, "--memo-load", &fixture], "");
    assert!(ok);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    std::fs::write(&memo, "dda-memo v1\ngcd 1 7 I\n").unwrap();
    let (_, stderr, ok) = run_cli(&["batch", manifest, "--memo-load", memo_str], "");
    assert!(ok, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_reads_manifest_from_stdin() {
    let dir = std::env::temp_dir().join("dda_cli_batch_stdin");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("p.loop");
    std::fs::write(&file, "for i = 1 to 9 { a[i] = a[i + 20]; }").unwrap();
    let (stdout, _, ok) = run_cli(&["batch", "-", "--stats"], &format!("{}\n", file.display()));
    assert!(ok);
    assert!(stdout.contains("\"answer\":\"independent\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_missing_program_file_fails_with_context() {
    let (_, stderr, ok) = run_cli(&["batch", "-"], "no_such_file.loop\n");
    assert!(!ok);
    assert!(stderr.contains("no_such_file.loop"), "{stderr}");
}

/// Zeroes every `"nanos":N` field so trace output is comparable across
/// runs (wall times are the only non-deterministic part of a trace).
fn normalize_nanos(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find("\"nanos\":") {
        let (head, tail) = rest.split_at(at + "\"nanos\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Snapshot of the `--trace` JSONL stream on the paper's worked example
/// `a[i + 1] = a[i]`: one typed event per line, from `pair_started`
/// through GCD, cascade stage, witness, refinement, to `pair_finished`.
#[test]
fn trace_emits_jsonl_event_stream() {
    let (stdout, _, ok) = run_cli(
        &["analyze", "-", "--trace"],
        "for i = 1 to 10 { a[i + 1] = a[i]; }",
    );
    assert!(ok);
    let normalized: Vec<String> = stdout.lines().map(normalize_nanos).collect();
    // `seq` is a monotonic event index; there are deliberately no
    // wall-clock timestamps, so the stream is byte-stable run to run
    // (modulo the measured `nanos` durations normalized away here).
    let expected = [
        r#"{"seq":0,"event":"pair_started","array":"a","a":0,"b":1,"common":1}"#,
        r#"{"seq":1,"event":"classified","kind":"problem","vars":2,"equations":1,"bounds":4}"#,
        r#"{"seq":2,"event":"gcd","verdict":"lattice","cached":false,"nanos":0}"#,
        r#"{"seq":3,"event":"reduced","free_vars":1,"system":["-t0 <= -2","t0 <= 11","-t0 <= -1","t0 <= 10"]}"#,
        r#"{"seq":4,"event":"stage_entered","test":"svpc","vars":1,"constraints":4,"bounded":0}"#,
        r#"{"seq":5,"event":"stage","test":"svpc","verdict":"dependent","nanos":0}"#,
        r#"{"seq":6,"event":"witness","x":[1,2]}"#,
        r#"{"seq":7,"event":"refinement_started"}"#,
        r#"{"seq":8,"event":"directions","vectors":["(<)"],"distance":"(1)","tests":0,"exact":true,"nanos":0}"#,
        r#"{"seq":9,"event":"pair_finished","answer":"dependent","by":"SVPC","cached":false}"#,
    ];
    assert_eq!(normalized, expected, "full stream:\n{stdout}");
}

#[test]
fn trace_and_plain_analyze_agree() {
    // The probe must not change the verdict: the traced run's final event
    // and the plain run's listing agree.
    let src = "for i = 1 to 10 { a[2 * i] = a[2 * i + 1]; }";
    let (traced, _, ok) = run_cli(&["analyze", "-", "--trace"], src);
    assert!(ok);
    assert!(
        traced.contains(r#""event":"pair_finished","answer":"independent""#),
        "{traced}"
    );
    let (plain, _, ok) = run_cli(&["analyze", "-"], src);
    assert!(ok);
    assert!(plain.contains("Independent"), "{plain}");
}

#[test]
fn tests_flag_reconfigures_the_pipeline() {
    // SVPC resolves this pair under the full cascade; with --tests fm the
    // same answer must come from Fourier–Motzkin instead.
    let src = "for i = 1 to 10 { a[i + 1] = a[i]; }";
    let (full, _, ok) = run_cli(&["analyze", "-"], src);
    assert!(ok);
    assert!(full.contains("by SVPC"), "{full}");
    let (fm_only, _, ok) = run_cli(&["analyze", "-", "--tests", "fm"], src);
    assert!(ok);
    assert!(fm_only.contains("by Fourier-Motzkin"), "{fm_only}");
    // The equals form and long aliases parse too.
    let (aliased, _, ok) = run_cli(&["analyze", "-", "--tests=svpc,fourier-motzkin"], src);
    assert!(ok);
    assert!(aliased.contains("by SVPC"), "{aliased}");
}

#[test]
fn tests_flag_rejects_unknown_names() {
    let (_, stderr, ok) = run_cli(&["analyze", "-", "--tests", "bogus"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown test 'bogus'"), "{stderr}");
}

#[test]
fn conditional_programs_analyze() {
    let (stdout, _, ok) = run_cli(
        &["analyze", "-"],
        "for i = 1 to 9 { if (i != 5) { a[i] = a[i + 20]; } }",
    );
    assert!(ok);
    assert!(stdout.contains("Independent"), "{stdout}");
}

/// Subscripts whose lowering overflows `i64` used to panic the binary
/// (exit 101). They are not affine: the pair is assumed dependent.
#[test]
fn overflowing_subscripts_are_assumed_dependent() {
    for src in [
        "for i = 1 to 10 { a[9223372036854775807 + i + 1] = a[i] + 1; }",
        "for i = 1 to 10 { a[4611686018427387904 * 2 * i] = a[i] + 1; }",
    ] {
        let (stdout, stderr, ok) = run_cli(&["analyze", "-"], src);
        assert!(ok, "{src}: {stderr}");
        assert!(stdout.contains("(by assumed)"), "{src}: {stdout}");
    }
}

/// Every checked-in hostile input is answered, quickly: the overflow
/// cases and chains of scalar temporaries that used to run for minutes.
#[test]
fn hostile_corpus_is_answered() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/hostile");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("hostile corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "loop"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "{paths:?}");
    for path in paths {
        let path = path.to_str().expect("utf-8 path");
        let start = std::time::Instant::now();
        let (stdout, stderr, ok) = run_cli(&["batch", path], "");
        assert!(ok, "{path}: {stderr}");
        assert_eq!(stdout.lines().count(), 1, "{path}: {stdout}");
        assert!(stdout.contains("\"pairs\":[{"), "{path}: {stdout}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "{path} took {:?}",
            start.elapsed()
        );
    }
}

/// Satellite regression: a manifest with a broken entry must fail the
/// whole batch with a located error — the path as written plus the OS
/// reason — and never emit partial JSONL for the entries before it.
#[test]
fn batch_bad_manifest_entry_is_a_located_error_and_nothing_half_runs() {
    let dir = std::env::temp_dir().join("dda_cli_batch_located");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.loop"), "for i = 1 to 9 { a[i + 1] = a[i]; }").unwrap();
    let manifest = dir.join("m.txt");
    std::fs::write(&manifest, "ok.loop\nmissing.loop\n").unwrap();

    let (stdout, stderr, ok) = run_cli(&["batch", manifest.to_str().unwrap()], "");
    assert!(!ok, "broken manifest entry must exit nonzero");
    assert!(stderr.contains("missing.loop"), "{stderr}");
    assert!(stderr.contains("No such file"), "{stderr}");
    assert!(stdout.is_empty(), "no partial output: {stdout}");

    // A parse error is located too: path plus rendered excerpt.
    std::fs::write(dir.join("bad.loop"), "for i = 1 to { }").unwrap();
    std::fs::write(&manifest, "bad.loop\n").unwrap();
    let (_, stderr, ok) = run_cli(&["batch", manifest.to_str().unwrap()], "");
    assert!(!ok);
    assert!(stderr.contains("bad.loop"), "{stderr}");
    assert!(stderr.contains("parse error"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `dda serve` end to end through the binary: the service's JSONL for a
/// cold sequential submission is byte-identical to `dda batch` on the
/// same input, and graceful shutdown persists the memo table.
#[test]
fn serve_smoke_matches_batch_and_persists_memo() {
    use std::io::{BufRead, BufReader, Read as _};

    let dir = std::env::temp_dir().join("dda_cli_serve_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("p.loop");
    std::fs::write(&program, "for i = 1 to 9 { a[i + 1] = a[i]; }").unwrap();
    let memo = dir.join("memo.dda");

    let (want, _, ok) = run_cli(&["batch", program.to_str().unwrap()], "");
    assert!(ok);

    let mut child = Command::new(env!("CARGO_BIN_EXE_dda"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--memo",
            memo.to_str().unwrap(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("listening address")
        .to_owned();

    let post = |target: &str, body: &str| -> String {
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            conn,
            "POST {target} HTTP/1.1\r\nHost: dda\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("recv");
        reply
    };

    // The manifest route, loading the same file `dda batch` read.
    let reply = post("/batch?check=1", &format!("{}\n", program.display()));
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let body = reply.split_once("\r\n\r\n").expect("body").1;
    assert_eq!(body, want, "service JSONL must match `dda batch` exactly");

    let reply = post("/shutdown", "");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "clean shutdown");
    assert!(memo.exists(), "shutdown persists the memo");
    // The memo path did not exist before the server started: what it
    // persists is a v3 archive.
    let (inspect, _, ok) = run_cli(&["memo", "inspect", memo.to_str().unwrap()], "");
    assert!(ok);
    assert!(inspect.contains("dda-memo v3"), "{inspect}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `POST /parallel` answers with the same per-loop verdict JSONL as
/// `dda parallel` on a cold memo, and the graph metrics show up in the
/// service's `/metrics` exposition afterwards.
#[test]
fn serve_parallel_matches_cli_and_exposes_graph_metrics() {
    use std::io::{BufRead, BufReader, Read as _};

    let src = "for i = 1 to 9 { for j = 1 to 9 { b[i + 1][j] = b[i][j + 1]; } }";
    let (want, _, ok) = run_cli(&["parallel", "-"], src);
    assert!(ok);

    let mut child = Command::new(env!("CARGO_BIN_EXE_dda"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("listening address")
        .to_owned();

    let request = |method: &str, target: &str, body: &str| -> String {
        let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            conn,
            "{method} {target} HTTP/1.1\r\nHost: dda\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("recv");
        reply
    };

    let reply = request("POST", "/parallel?check=1", src);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let body = reply.split_once("\r\n\r\n").expect("body").1;
    assert_eq!(
        body, want,
        "service JSONL must match `dda parallel` exactly"
    );

    let metrics = request("GET", "/metrics", "");
    assert!(
        metrics.contains("dda_graph_edges_total{kind=\"flow\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dda_graph_sequential_loops_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dda_graph_parallel_loops_total 1"),
        "{metrics}"
    );

    let reply = request("POST", "/shutdown", "");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "clean shutdown");
}

/// SIGTERM on a running `dda serve` shuts it down promptly and still
/// persists the memo table: the signal wakes the blocked acceptor.
#[cfg(unix)]
#[test]
fn serve_exits_on_sigterm_and_persists_memo() {
    use std::io::{BufRead, BufReader, Read as _};
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join("dda_cli_serve_sigterm");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let memo = dir.join("memo.dda");

    let mut child = Command::new(env!("CARGO_BIN_EXE_dda"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--memo",
            memo.to_str().unwrap(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("listening address")
        .to_owned();

    let src = "for i = 1 to 9 { a[i + 1] = a[i]; }";
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    write!(
        conn,
        "POST /analyze HTTP/1.1\r\nHost: dda\r\nContent-Length: {}\r\n\r\n{src}",
        src.len()
    )
    .expect("send");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("recv");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(2) {
            let _ = child.kill();
            panic!("dda serve still running 2 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "clean shutdown: {status}");
    let (out, err, ok) = run_cli(
        &["analyze", "-", "--memo-load", memo.to_str().unwrap()],
        src,
    );
    assert!(ok, "{err}");
    assert!(
        out.contains("[cached]"),
        "the persisted memo is warm:\n{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
