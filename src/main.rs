//! `dda` — command-line exact data dependence analysis.
//!
//! ```text
//! dda analyze kernel.loop            # per-pair verdicts + vectors
//! dda parallel kernel.loop           # per-loop verdict JSONL (+ interchange)
//! dda graph kernel.loop              # dependence graph (DOT or --json)
//! dda serve --addr 127.0.0.1:8053    # long-running analysis service
//! echo 'for i = 1 to 9 { a[i+1] = a[i]; }' | dda analyze -
//! ```

use std::io::Read;
use std::process::ExitCode;

use dda::core::json::json_escape;
use dda::core::pipeline::{ClassifiedKind, Probe, TraceEvent};
use dda::core::{AnalyzerConfig, DependenceAnalyzer, MemoMode, RecordingProbe};
use dda::engine::{Engine, EngineConfig};
use dda::graph::render::{annotate_source, graph_json_line, parallel_json_line, to_dot};
use dda::ir::{parse_program, passes, Program};
use dda::obs::registry::{gcd_verdict_index, GCD_VERDICT_LABELS};
use dda::obs::{MetricsProbe, MetricsRegistry, MetricsSnapshot, SpanRecorder};
use dda::serve::manifest::{self, BatchInput};
use dda::serve::render::batch_json_line;

const USAGE: &str = "\
dda — efficient and exact data dependence analysis (PLDI 1991)

USAGE:
    dda <COMMAND> <FILE|-> [OPTIONS]
    dda serve [OPTIONS]

COMMANDS:
    analyze     report every reference pair: verdict, resolving test,
                direction and distance vectors
    parallel    per-loop parallelism verdicts as JSONL: each loop is
                Parallel or Sequential with the blocking dependence
                edges cited by pair index, plus interchange legality
                for every directly nested loop pair. `--annotate`
                prints the program source with each loop marked
                parallel/sequential instead. Accepts multiple inputs
                like `batch` (`.loop` = program, else manifest;
                `-` reads one program from stdin) and runs on the
                parallel engine — output is byte-identical for any
                --workers/--shards
    graph       print the oriented dependence graph: Graphviz DOT by
                default, one JSON object per program with `--json`
                (nodes, classified edges with distance/direction and
                carrying level, loop table). Same inputs and engine
                as `parallel`
    batch       analyze every input with the parallel engine, emitting one
                JSON report per line. Inputs ending in `.loop` are DSL
                programs; anything else is a manifest file (one DSL path
                per line; `#` comments and blanks skipped). Multiple
                inputs are allowed and analyzed in order. Output is
                byte-identical for any --workers/--shards.
    memo        operate on persisted memo files:
                  `dda memo inspect <FILE>` prints the layout — for v3
                  binary archives the header, per-shard offsets/record
                  counts/checksums; for v2 text the entry counts.
                  Corrupt files fail with a located error.
                  `dda memo convert <IN> <OUT> [--shards N]` rewrites a
                  memo file (v1/v2 text or v3) as a v3 binary archive
                  with N hash-partitioned shards (default 16). v1/v2
                  text still loads everywhere, but only v3 is written
    bench       benchmark snapshots and the regression gate:
                  `dda bench record [--quick] [--out FILE]` re-runs the
                  standing measurements (per-stage resolving latency,
                  corpus analyze wall, memo archive load) with exact
                  sorted percentiles and writes a schema-versioned
                  JSON snapshot (default `BENCH_<date>.json`).
                  `dda bench gate <CURRENT> --baseline <FILE>
                  [--tolerance-pct N]` compares two snapshots and
                  exits nonzero on any p99 regression beyond the
                  tolerance (default 25%)
    serve       run a persistent analysis service over HTTP: POST .loop
                programs to /analyze (or manifests to /batch) and read
                the same JSONL `batch` emits. All requests share one
                warm memo table (optionally byte-capped with eviction),
                run under per-request deadlines, and are admission-
                controlled; GET /metrics serves the Prometheus
                exposition, /healthz liveness, /shutdown (or SIGTERM)
                drains and persists the memo atomically
    help        show this message

OPTIONS:
    --workers <N>        batch worker threads (0 = one per core; default 0)
    --shards <N>         batch memo-table shards, and the archive shards
                         --memo-save writes (default 16)
    --no-directions      skip direction/distance vectors
    --no-symbolic        assume dependence for pairs with symbolic terms
    --no-normalize       skip the normalization prepasses
    --memo <MODE>        off | simple | improved   (default improved)
    --symmetric          enable symmetric-pair memoization
    --separable          enable dimension-by-dimension direction vectors
    --input-deps         also test read-read pairs
    --json               (graph) emit one JSON object per program
                         instead of DOT
    --annotate           (parallel) print annotated source instead of
                         the JSONL verdict stream
    --check              (analyze/batch) re-verify every verdict's
                         certificate with the independent proof-checking
                         kernel; rejections are listed on stderr, a
                         minimized .loop reproducer is dumped, and the
                         run exits nonzero
    --explain            narrate each pair's analysis step by step
    --trace              (analyze) emit the typed trace-event stream as
                         JSONL instead of the verdict listing; every
                         event carries a monotonic `seq` field and no
                         wall-clock timestamp, so traces are byte-stable
    --metrics[=FMT]      print a metrics snapshot to stderr after the
                         run: stage latencies (p50/p90/p99), verdict
                         counters, memo traffic, engine utilization.
                         FMT is `prom` (Prometheus text exposition,
                         default) or `json`
    --profile <DIR>      write span profiles to DIR: `spans.jsonl`
                         (hierarchical analyze → pair → stage spans
                         with monotonic seq numbers) and
                         `profile.folded` (flamegraph folded stacks).
                         Batch profiles replay the programs serially so
                         span nesting is deterministic
    --tests <LIST>       comma-separated exact-test pipeline, in order
                         (svpc,acyclic,residue,fm — default all four);
                         partial lists are ablations and may assume
                         dependence where a disabled test would decide
    --memo-load <FILE>   import a persisted memo table before analyzing
    --memo-save <FILE>   write the memo table afterwards as a dda-memo v3
                         archive with --shards shards per section
    --stats              print analysis statistics (with per-stage wall
                         times for analyze/batch)

SERVE OPTIONS:
    --addr <HOST:PORT>     bind address (default 127.0.0.1:8053; port 0
                           picks a free port, printed on stderr)
    --memo <FILE>          memo persistence path: loaded at startup when
                           present, written back atomically on graceful
                           shutdown (for serve, --memo is a path; the
                           service always memoizes in improved mode)
    --memo-max-bytes <N>   cap the warm memo tables at ~N bytes with
                           second-chance eviction (0 = unbounded;
                           eviction never changes verdicts)
    --deadline-ms <N>      default per-request deadline (0 = none;
                           requests may override with ?deadline_ms=N).
                           Timed-out requests answer with sound
                           conservative partial results
    --workers / --shards   as for batch
    --slow-ms <N>          capture any request slower than N ms into the
                           flight recorder's on-disk store (0 = latency
                           trigger off; deadline-exceeded requests are
                           always captured). Needs --capture-dir
    --capture-dir <DIR>    directory for slow-request captures
                           (`spans-<traceid>.jsonl` + folded flamegraph;
                           bounded, oldest evicted). Unset = no captures
    --flight-capacity <N>  completed-request summaries kept in the
                           in-memory ring behind GET /debug/requests
                           (default 256)
";

/// Output format for `--metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Prom,
    Json,
}

struct Options {
    command: String,
    file: String,
    /// Additional positional inputs (batch/graph/parallel).
    extra_files: Vec<String>,
    /// `graph`: emit JSONL instead of DOT.
    json: bool,
    /// `parallel`: print annotated source instead of JSONL.
    annotate: bool,
    config: AnalyzerConfig,
    normalize: bool,
    memo_load: Option<String>,
    memo_save: Option<String>,
    stats: bool,
    explain: bool,
    trace: bool,
    check: bool,
    metrics: Option<MetricsFormat>,
    profile: Option<String>,
    workers: usize,
    shards: usize,
    /// `serve`: bind address.
    addr: String,
    /// `serve`: memo persistence path (`--memo` means a path here).
    memo_path: Option<String>,
    /// `serve`: memo byte cap (0 = unbounded).
    memo_max_bytes: u64,
    /// `serve`: default per-request deadline in ms (0 = none).
    deadline_ms: u64,
    /// `serve`: slow-request capture threshold in ms (0 = off).
    slow_ms: u64,
    /// `serve`: slow-request capture directory.
    capture_dir: Option<String>,
    /// `serve`: flight-recorder ring capacity.
    flight_capacity: usize,
    /// `bench record`: shrink every measurement for CI smoke runs.
    quick: bool,
    /// `bench record`: output path (default `BENCH_<date>.json`).
    out: Option<String>,
    /// `bench gate`: baseline snapshot path.
    baseline: Option<String>,
    /// `bench gate`: p99 regression tolerance in percent.
    tolerance_pct: f64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| "missing command".to_owned())?
        .clone();
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(Options {
            command: "help".into(),
            file: String::new(),
            extra_files: Vec::new(),
            json: false,
            annotate: false,
            config: AnalyzerConfig::default(),
            normalize: true,
            memo_load: None,
            memo_save: None,
            stats: false,
            explain: false,
            trace: false,
            check: false,
            metrics: None,
            profile: None,
            workers: 0,
            shards: 16,
            addr: String::new(),
            memo_path: None,
            memo_max_bytes: 0,
            deadline_ms: 0,
            slow_ms: 0,
            capture_dir: None,
            flight_capacity: 256,
            quick: false,
            out: None,
            baseline: None,
            tolerance_pct: dda::bench::record::DEFAULT_TOLERANCE_PCT,
        });
    }
    if command != "analyze"
        && command != "parallel"
        && command != "graph"
        && command != "batch"
        && command != "serve"
        && command != "memo"
        && command != "bench"
    {
        return Err(format!("unknown command `{command}`"));
    }
    // `serve` binds a socket instead of reading an input file; `memo`
    // and `bench` read a subcommand into the file slot.
    let file = if command == "serve" {
        String::new()
    } else if command == "memo" {
        it.next()
            .ok_or_else(|| "memo needs a subcommand (inspect or convert)".to_owned())?
            .clone()
    } else if command == "bench" {
        it.next()
            .ok_or_else(|| "bench needs a subcommand (record or gate)".to_owned())?
            .clone()
    } else {
        it.next()
            .ok_or_else(|| "missing input file (use `-` for stdin)".to_owned())?
            .clone()
    };

    let mut extra_files = Vec::new();
    let mut json = false;
    let mut annotate = false;
    let mut config = AnalyzerConfig::default();
    let mut normalize = true;
    let mut memo_load = None;
    let mut memo_save = None;
    let mut stats = false;
    let mut explain = false;
    let mut trace = false;
    let mut check = false;
    let mut metrics = None;
    let mut profile = None;
    let mut workers = 0;
    let mut shards = 16;
    let mut addr = "127.0.0.1:8053".to_owned();
    let mut memo_path = None;
    let mut memo_max_bytes = 0u64;
    let mut deadline_ms = 0u64;
    let mut slow_ms = 0u64;
    let mut capture_dir = None;
    let mut flight_capacity = 256usize;
    let mut quick = false;
    let mut out = None;
    let mut baseline = None;
    let mut tolerance_pct = dda::bench::record::DEFAULT_TOLERANCE_PCT;
    while let Some(flag) = it.next() {
        if let Some(list) = flag.strip_prefix("--tests=") {
            config.pipeline = list.parse().map_err(|e| format!("--tests: {e}"))?;
            continue;
        }
        if let Some(fmt) = flag.strip_prefix("--metrics=") {
            metrics = Some(match fmt {
                "prom" => MetricsFormat::Prom,
                "json" => MetricsFormat::Json,
                other => return Err(format!("bad metrics format `{other}` (prom or json)")),
            });
            continue;
        }
        if !flag.starts_with('-') {
            if command == "batch"
                || command == "graph"
                || command == "parallel"
                || command == "memo"
                || command == "bench"
            {
                extra_files.push(flag.clone());
                continue;
            }
            return Err(format!(
                "unexpected extra input `{flag}` (only `batch`, `graph`, \
                 `parallel`, `memo`, and `bench` accept multiple inputs)"
            ));
        }
        match flag.as_str() {
            "--no-directions" => config.compute_directions = false,
            "--no-symbolic" => config.symbolic = false,
            "--no-normalize" => normalize = false,
            "--symmetric" => config.memo_symmetry = true,
            "--separable" => config.separable_directions = true,
            "--input-deps" => config.include_input_deps = true,
            "--json" => json = true,
            "--annotate" => annotate = true,
            "--stats" => stats = true,
            "--explain" => explain = true,
            "--trace" => trace = true,
            "--check" => check = true,
            "--metrics" => metrics = Some(MetricsFormat::Prom),
            "--profile" => {
                profile = Some(it.next().ok_or("--profile needs a directory")?.clone());
            }
            "--tests" => {
                let list = it.next().ok_or("--tests needs a comma-separated list")?;
                config.pipeline = list.parse().map_err(|e| format!("--tests: {e}"))?;
            }
            "--memo" if command == "serve" => {
                // For the service, `--memo` is the persistence path;
                // the memo *mode* is always improved server-side.
                memo_path = Some(it.next().ok_or("--memo needs a path")?.clone());
            }
            "--memo" => {
                let mode = it.next().ok_or("--memo needs a mode")?;
                config.memo = match mode.as_str() {
                    "off" => MemoMode::Off,
                    "simple" => MemoMode::Simple,
                    "improved" => MemoMode::Improved,
                    other => return Err(format!("bad memo mode `{other}`")),
                };
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs host:port")?.clone();
            }
            "--memo-max-bytes" => {
                let n = it.next().ok_or("--memo-max-bytes needs a byte count")?;
                memo_max_bytes = n.parse().map_err(|_| format!("bad byte count `{n}`"))?;
            }
            "--deadline-ms" => {
                let n = it.next().ok_or("--deadline-ms needs a count")?;
                deadline_ms = n.parse().map_err(|_| format!("bad deadline `{n}`"))?;
            }
            "--slow-ms" => {
                let n = it.next().ok_or("--slow-ms needs a count")?;
                slow_ms = n.parse().map_err(|_| format!("bad threshold `{n}`"))?;
            }
            "--capture-dir" => {
                capture_dir = Some(it.next().ok_or("--capture-dir needs a directory")?.clone());
            }
            "--flight-capacity" => {
                let n = it.next().ok_or("--flight-capacity needs a count")?;
                flight_capacity = n.parse().map_err(|_| format!("bad capacity `{n}`"))?;
            }
            "--quick" => quick = true,
            "--out" => {
                out = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            "--baseline" => {
                baseline = Some(it.next().ok_or("--baseline needs a path")?.clone());
            }
            "--tolerance-pct" => {
                let n = it.next().ok_or("--tolerance-pct needs a percentage")?;
                tolerance_pct = n
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("bad tolerance `{n}`"))?;
            }
            "--memo-load" => {
                memo_load = Some(it.next().ok_or("--memo-load needs a path")?.clone());
            }
            "--memo-save" => {
                memo_save = Some(it.next().ok_or("--memo-save needs a path")?.clone());
            }
            "--workers" => {
                let n = it.next().ok_or("--workers needs a count")?;
                workers = n.parse().map_err(|_| format!("bad worker count `{n}`"))?;
            }
            "--shards" => {
                let n = it.next().ok_or("--shards needs a count")?;
                shards = n.parse().map_err(|_| format!("bad shard count `{n}`"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Options {
        command,
        file,
        extra_files,
        json,
        annotate,
        config,
        normalize,
        memo_load,
        memo_save,
        stats,
        explain,
        trace,
        check,
        metrics,
        profile,
        workers,
        shards,
        addr,
        memo_path,
        memo_max_bytes,
        deadline_ms,
        slow_ms,
        capture_dir,
        flight_capacity,
        quick,
        out,
        baseline,
        tolerance_pct,
    })
}

fn read_source(file: &str) -> std::io::Result<String> {
    if file == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(file)
    }
}

fn answer_token(answer: &dda::core::Answer) -> &'static str {
    if answer.is_independent() {
        "independent"
    } else if answer.is_dependent() {
        "dependent"
    } else {
        "unknown"
    }
}

/// One JSONL record per trace event: a monotonic `seq` field followed by
/// the event payload. Wall-clock timestamps are absent by design — the
/// stream must be byte-stable run to run, so the only time figures are
/// the per-phase `nanos` durations the events already measure, and `seq`
/// gives consumers a total order without one.
fn trace_json_line(seq: u64, event: &TraceEvent) -> String {
    let body = trace_event_json(event);
    format!("{{\"seq\":{seq},{}", &body[1..])
}

/// The event payload object (hand-rolled: no serde in this tree).
fn trace_event_json(event: &TraceEvent) -> String {
    use std::fmt::Write as _;
    match event {
        TraceEvent::PairStarted {
            array,
            a_access,
            b_access,
            common,
        } => format!(
            "{{\"event\":\"pair_started\",\"array\":\"{}\",\"a\":{a_access},\
             \"b\":{b_access},\"common\":{common}}}",
            json_escape(array)
        ),
        TraceEvent::Classified { kind } => match kind {
            ClassifiedKind::Constant { dependent } => format!(
                "{{\"event\":\"classified\",\"kind\":\"constant\",\"dependent\":{dependent}}}"
            ),
            ClassifiedKind::Unbuildable => {
                "{\"event\":\"classified\",\"kind\":\"unbuildable\"}".to_owned()
            }
            ClassifiedKind::Problem {
                vars,
                equations,
                bounds,
            } => format!(
                "{{\"event\":\"classified\",\"kind\":\"problem\",\"vars\":{vars},\
                 \"equations\":{equations},\"bounds\":{bounds}}}"
            ),
        },
        TraceEvent::CacheHit => "{\"event\":\"cache_hit\"}".to_owned(),
        TraceEvent::Gcd {
            verdict,
            cached,
            nanos,
        } => format!(
            "{{\"event\":\"gcd\",\"verdict\":\"{}\",\"cached\":{cached},\"nanos\":{nanos}}}",
            GCD_VERDICT_LABELS[gcd_verdict_index(*verdict)]
        ),
        TraceEvent::Reduced { free_vars, system } => {
            let rows: Vec<String> = system
                .constraints
                .iter()
                .map(|c| format!("\"{}\"", json_escape(&c.to_string())))
                .collect();
            format!(
                "{{\"event\":\"reduced\",\"free_vars\":{free_vars},\"system\":[{}]}}",
                rows.join(",")
            )
        }
        TraceEvent::ReduceOverflow => "{\"event\":\"reduce_overflow\"}".to_owned(),
        TraceEvent::StageEntered {
            test,
            vars,
            constraints,
            bounded,
        } => format!(
            "{{\"event\":\"stage_entered\",\"test\":\"{}\",\"vars\":{vars},\
             \"constraints\":{constraints},\"bounded\":{bounded}}}",
            test.token()
        ),
        TraceEvent::Stage {
            test,
            verdict,
            nanos,
        } => format!(
            "{{\"event\":\"stage\",\"test\":\"{}\",\"verdict\":\"{verdict}\",\"nanos\":{nanos}}}",
            test.token()
        ),
        TraceEvent::Witness { x } => {
            let vals: Vec<String> = x.iter().map(ToString::to_string).collect();
            format!("{{\"event\":\"witness\",\"x\":[{}]}}", vals.join(","))
        }
        TraceEvent::RefinementStarted => "{\"event\":\"refinement_started\"}".to_owned(),
        TraceEvent::Directions {
            vectors,
            distance,
            tests,
            exact,
            nanos,
        } => {
            let vecs: Vec<String> = vectors
                .iter()
                .map(|v| format!("\"{}\"", json_escape(&v.to_string())))
                .collect();
            format!(
                "{{\"event\":\"directions\",\"vectors\":[{}],\"distance\":\"{}\",\
                 \"tests\":{tests},\"exact\":{exact},\"nanos\":{nanos}}}",
                vecs.join(","),
                json_escape(&distance.to_string())
            )
        }
        TraceEvent::PairFinished { result, from_cache } => {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"event\":\"pair_finished\",\"answer\":\"{}\",\"by\":\"{}\",\
                 \"cached\":{from_cache}}}",
                answer_token(&result.answer),
                json_escape(&result.resolved_by.to_string())
            );
            line
        }
    }
}

/// Engine configuration used for `--check` verification runs: same
/// analyzer settings as the main run, but with the engine's own
/// panic-on-failure hook off — the CLI reports rejections itself.
fn check_engine_config(opts: &Options) -> EngineConfig {
    EngineConfig {
        workers: opts.workers,
        shards: opts.shards,
        memo_mode: opts.config.memo,
        analyzer: opts.config,
        check: false,
    }
}

/// `--check`: re-verify every verdict's certificate with the independent
/// proof-checking kernel. Rejections are listed on stderr; for each
/// failing program a greedily minimized reproducer is dumped as
/// `dda-check-repro-<k>.loop`, and the run returns an error (nonzero
/// exit).
fn run_check(
    opts: &Options,
    labels: &[String],
    programs: &[Program],
    reports: &[dda::core::ProgramReport],
) -> Result<(), String> {
    let engine = Engine::with_config(check_engine_config(opts));
    let summary = engine.check_programs(programs, reports);
    eprintln!(
        "check: {} verified, {} unverified, {} rejected",
        summary.verified,
        summary.unverified,
        summary.failures.len()
    );
    if summary.failures.is_empty() {
        return Ok(());
    }
    for f in &summary.failures {
        eprintln!(
            "check failure: {} pair {} array `{}`: {}",
            labels[f.program], f.pair, f.array, f.reason
        );
    }
    let mut failing: Vec<usize> = summary.failures.iter().map(|f| f.program).collect();
    failing.sort_unstable();
    failing.dedup();
    for (k, &idx) in failing.iter().enumerate() {
        let cfg = check_engine_config(opts);
        let still_fails = |p: &Program| {
            let mut fresh = Engine::with_config(cfg);
            let batch = [p.clone()];
            let r = fresh.analyze_programs(&batch);
            !fresh.check_programs(&batch, &r).failures.is_empty()
        };
        let minimized = dda::engine::minimize_program(&programs[idx], still_fails);
        let path = format!("dda-check-repro-{k}.loop");
        std::fs::write(&path, format!("{minimized}")).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("minimized reproducer for {} written to {path}", labels[idx]);
    }
    Err(format!(
        "{} certificate check failure(s)",
        summary.failures.len()
    ))
}

/// Prints a metrics snapshot to stderr in the requested format.
///
/// Stderr so that `--metrics` composes with the JSONL report stream on
/// stdout — `dda batch --metrics=prom m 2>metrics.prom | jq` works.
fn emit_metrics(format: MetricsFormat, snapshot: &MetricsSnapshot) {
    match format {
        MetricsFormat::Prom => eprint!("{}", snapshot.to_prometheus()),
        MetricsFormat::Json => eprintln!("{}", snapshot.to_json()),
    }
}

/// Writes `spans.jsonl` and `profile.folded` from a span recording into
/// `dir`, creating it if needed.
fn write_profile_dir(dir: &str, spans: &SpanRecorder) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let base = std::path::Path::new(dir);
    let jsonl = base.join("spans.jsonl");
    std::fs::write(&jsonl, spans.to_jsonl()).map_err(|e| format!("{}: {e}", jsonl.display()))?;
    let folded = base.join("profile.folded");
    std::fs::write(&folded, spans.to_folded()).map_err(|e| format!("{}: {e}", folded.display()))?;
    Ok(())
}

/// Loads one batch input via the shared loader in `dda-serve` (also
/// behind the service's `/batch` endpoint): a `.loop` file is a program
/// itself; anything else is a manifest listing one program path per
/// line, relative entries resolving against the manifest's directory.
/// `-` reads a manifest from stdin, entries resolving against the
/// working directory. Errors are located (path + reason) and abort the
/// load — a batch with a broken entry never half-runs.
fn load_batch_input(opts: &Options, input: &str, out: &mut BatchInput) -> Result<(), String> {
    if input == "-" {
        let text = read_source(input).map_err(|e| format!("{input}: {e}"))?;
        return manifest::load_manifest_text(&text, std::path::Path::new(""), opts.normalize, out);
    }
    manifest::load_input_file(input, opts.normalize, out)
}

/// `--profile` for `dda batch`: replay the batch through a serial
/// analyzer (same analyzer configuration and warm start as the engine's
/// workers) with a [`SpanRecorder`] attached. The replay is what makes
/// the span hierarchy deterministic — engine waves interleave pairs
/// across threads, while the serial replay produces the same verdicts
/// (pinned by the engine's equivalence proptests) with stable nesting.
fn profile_batch(opts: &Options, files: &[String], programs: &[Program]) -> Result<(), String> {
    let dir = opts.profile.as_deref().expect("caller checked --profile");
    let config = check_engine_config(opts).effective_analyzer_config();
    let mut analyzer = DependenceAnalyzer::with_config(config);
    if let Some(path) = &opts.memo_load {
        analyzer
            .load_memo_file(path)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let mut spans = SpanRecorder::new();
    for (file, program) in files.iter().zip(programs) {
        spans.begin_program(file);
        analyzer.analyze_program_probed(program, &mut spans);
    }
    spans.finish();
    write_profile_dir(dir, &spans)
}

/// The shared tail of `batch`, `graph` and `parallel`: the `--metrics`
/// snapshot, the `--profile` replay, `--memo-save` and `--check`, in
/// that order.
fn finish_engine_run(
    opts: &Options,
    engine: &Engine,
    files: &[String],
    programs: &[Program],
    reports: &[dda::core::ProgramReport],
) -> Result<(), String> {
    if let Some(format) = opts.metrics {
        let snapshot = MetricsSnapshot::new(engine.metrics(), engine.stats(), engine.memo(), None);
        emit_metrics(format, &snapshot);
    }
    if opts.profile.is_some() {
        profile_batch(opts, files, programs)?;
    }

    if let Some(path) = &opts.memo_save {
        engine
            .save_memo_file_v3(path, opts.shards)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.check {
        run_check(opts, files, programs, reports)?;
    }
    Ok(())
}

/// `dda batch`: analyze every program from the inputs with the parallel
/// engine and emit one JSON report per line, in input order.
fn run_batch(opts: &Options) -> Result<(), String> {
    let mut batch = BatchInput::default();
    load_batch_input(opts, &opts.file, &mut batch)?;
    for input in &opts.extra_files {
        load_batch_input(opts, input, &mut batch)?;
    }
    let (files, programs) = (batch.labels, batch.programs);

    let mut engine = Engine::with_config(check_engine_config(opts));
    if let Some(path) = &opts.memo_load {
        engine
            .load_memo_file(path)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let reports = engine.analyze_programs(&programs);

    let mut stdout = String::new();
    for (file, report) in files.iter().zip(&reports) {
        stdout.push_str(&batch_json_line(file, report));
        stdout.push('\n');
    }
    print!("{stdout}");

    if opts.stats {
        let s = engine.stats();
        eprintln!(
            "batch: {} programs, {} pairs | constant {} | gcd-independent {} | assumed {}",
            reports.len(),
            s.pairs,
            s.constant,
            s.gcd_independent,
            s.assumed
        );
        eprintln!(
            "tests: {} base + {} direction | memo {}/{} hits | gcd memo {}/{} hits",
            s.base_tests.total(),
            s.direction_tests.total(),
            s.memo_hits,
            s.memo_queries,
            s.gcd_memo_hits,
            s.gcd_memo_queries
        );
        eprintln!("stage times: {}", engine.stage_timings());
    }

    finish_engine_run(opts, &engine, &files, &programs, &reports)
}

/// `dda graph` / `dda parallel`: build the dependence graph for every
/// input with the parallel engine and render per-program output in
/// input order. Inputs load exactly as for `batch` (`.loop` = program,
/// anything else = manifest) except that `-` reads a single program
/// from stdin, matching the other single-program commands. Graph
/// construction is a pure function of each (program, report), so the
/// rendered output is byte-identical for any --workers/--shards and to
/// the service's `/parallel` endpoint on a cold memo.
fn run_graph(opts: &Options) -> Result<(), String> {
    let mut batch = BatchInput::default();
    for input in std::iter::once(&opts.file).chain(&opts.extra_files) {
        if input == "-" {
            let text = read_source(input).map_err(|e| format!("{input}: {e}"))?;
            manifest::push_program_source("-", &text, opts.normalize, &mut batch)?;
        } else {
            manifest::load_input_file(input, opts.normalize, &mut batch)?;
        }
    }
    let (files, programs) = (batch.labels, batch.programs);

    let mut engine = Engine::with_config(check_engine_config(opts));
    if let Some(path) = &opts.memo_load {
        engine
            .load_memo_file(path)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let out = engine.graph_programs(&programs);

    let mut stdout = String::new();
    for ((file, program), graph) in files.iter().zip(&programs).zip(&out.graphs) {
        if opts.command == "graph" {
            if opts.json {
                stdout.push_str(&graph_json_line(file, graph));
                stdout.push('\n');
            } else {
                stdout.push_str(&to_dot(graph));
            }
        } else if opts.annotate {
            stdout.push_str(&annotate_source(program, graph));
        } else {
            stdout.push_str(&parallel_json_line(file, graph));
            stdout.push('\n');
        }
    }
    print!("{stdout}");

    if opts.stats {
        let s = engine.stats();
        let edges: usize = out.graphs.iter().map(|g| g.edges.len()).sum();
        eprintln!(
            "graph: {} programs, {} edges | {} parallel loops, {} sequential",
            out.graphs.len(),
            edges,
            engine.metrics().graph_parallel_loops(),
            engine.metrics().graph_sequential_loops()
        );
        eprintln!(
            "pairs: {} | constant {} | gcd-independent {} | assumed {}",
            s.pairs, s.constant, s.gcd_independent, s.assumed
        );
        eprintln!("stage times: {}", engine.stage_timings());
    }

    finish_engine_run(opts, &engine, &files, &programs, &out.batch.reports)
}

/// `dda serve`: run the persistent analysis service until SIGTERM,
/// SIGINT, or a `/shutdown` request, then drain and persist the memo.
fn run_serve(opts: &Options) -> Result<(), String> {
    let cfg = dda::serve::ServeConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        shards: opts.shards,
        memo_max_bytes: opts.memo_max_bytes,
        deadline_ms: opts.deadline_ms,
        memo_path: opts.memo_path.clone().map(Into::into),
        normalize: opts.normalize,
        slow_ms: opts.slow_ms,
        capture_dir: opts.capture_dir.clone().map(Into::into),
        flight_capacity: opts.flight_capacity,
        ..dda::serve::ServeConfig::default()
    };
    let server = dda::serve::Server::bind(&cfg)?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    eprintln!("dda serve: listening on {addr}");
    server.run()
}

/// `dda memo inspect <FILE>`: print a persisted memo file's layout.
/// v3 archives get the full header/shard/checksum listing; v2 text gets
/// an entry count. Corrupt files fail with the located error.
fn memo_inspect(path: &str) -> Result<(), String> {
    let memo = dda::core::SharedMemo::new(1);
    memo.load_memo_file(path)
        .map_err(|e| format!("{path}: {e}"))?;
    // A fresh table attaches the first archive it loads.
    if let Some(archive) = memo.archive_ref() {
        println!(
            "{path}: dda-memo v3, {} shards/section, {} records, {} bytes",
            archive.shard_count(),
            archive.total_records(),
            archive.file_len(),
        );
        for s in archive.shard_infos() {
            println!(
                "  {} shard {:>4}: offset {:#x}, {} bytes, {} records, checksum {:#018x}",
                s.section, s.shard, s.offset, s.len, s.records, s.checksum
            );
        }
    } else {
        println!(
            "{path}: dda-memo v2 text, {} full + {} gcd entries",
            memo.full.unique_entries(),
            memo.gcd.unique_entries()
        );
    }
    Ok(())
}

/// `dda memo convert <IN> <OUT>`: load a memo file (v2 text or v3
/// binary) and write it back as a v3 archive with `--shards` shards.
fn memo_convert(input: &str, output: &str, shards: usize) -> Result<(), String> {
    let memo = dda::core::SharedMemo::new(shards.max(1));
    let format = memo
        .load_memo_file(input)
        .map_err(|e| format!("{input}: {e}"))?;
    memo.save_memo_file_v3(output, shards)
        .map_err(|e| format!("{output}: {e}"))?;
    let from = match format {
        dda::core::MemoFormat::V2Text => "v2 text",
        dda::core::MemoFormat::V3Binary => "v3 binary",
    };
    let entries = memo.full.unique_entries() + memo.gcd.unique_entries();
    let loaded = memo.memo_load_stats();
    eprintln!(
        "converted {input} ({from}, {} records) -> {output} (v3, {shards} shards)",
        loaded.records.max(entries as u64)
    );
    Ok(())
}

/// `dda bench`: record a benchmark snapshot or gate one against a
/// committed baseline.
fn run_bench(opts: &Options) -> Result<(), String> {
    use dda::bench::record as bench;
    match opts.file.as_str() {
        "record" => {
            if !opts.extra_files.is_empty() {
                return Err("bench record takes no positional inputs".into());
            }
            let report = bench::record(opts.quick);
            let path = opts
                .out
                .clone()
                .unwrap_or_else(|| format!("BENCH_{}.json", report.date));
            std::fs::write(&path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "bench record: wrote {path} ({} stages, {} corpus programs, \
                 {} memo records{})",
                report.stages.len(),
                report.corpus_programs,
                report.memo_records,
                if report.quick { ", --quick" } else { "" }
            );
            Ok(())
        }
        "gate" => {
            let [current] = opts.extra_files.as_slice() else {
                return Err("bench gate needs exactly one current snapshot file".into());
            };
            let baseline = opts
                .baseline
                .as_deref()
                .ok_or("bench gate needs --baseline <FILE>")?;
            let cur = std::fs::read_to_string(current).map_err(|e| format!("{current}: {e}"))?;
            let base = std::fs::read_to_string(baseline).map_err(|e| format!("{baseline}: {e}"))?;
            let report = bench::gate(&cur, &base, opts.tolerance_pct)?;
            for line in &report.lines {
                println!("{line}");
            }
            if report.passed() {
                println!("bench gate: pass (tolerance {}%)", opts.tolerance_pct);
                Ok(())
            } else {
                for failure in &report.failures {
                    eprintln!("bench gate failure: {failure}");
                }
                Err(format!(
                    "{} p99 regression(s) beyond {}% tolerance",
                    report.failures.len(),
                    opts.tolerance_pct
                ))
            }
        }
        other => Err(format!(
            "unknown bench subcommand `{other}` (record or gate)"
        )),
    }
}

/// `dda memo`: inspect or convert persisted memo files.
fn run_memo(opts: &Options) -> Result<(), String> {
    match opts.file.as_str() {
        "inspect" => {
            let [path] = opts.extra_files.as_slice() else {
                return Err("memo inspect needs exactly one file".into());
            };
            memo_inspect(path)
        }
        "convert" => {
            let [input, output] = opts.extra_files.as_slice() else {
                return Err("memo convert needs an input and an output file".into());
            };
            memo_convert(input, output, opts.shards)
        }
        other => Err(format!(
            "unknown memo subcommand `{other}` (inspect or convert)"
        )),
    }
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.command == "serve" {
        return run_serve(opts);
    }
    if opts.command == "memo" {
        return run_memo(opts);
    }
    if opts.command == "bench" {
        return run_bench(opts);
    }
    if opts.command == "batch" {
        return run_batch(opts);
    }
    if opts.command == "graph" || opts.command == "parallel" {
        return run_graph(opts);
    }
    let source = read_source(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
    let mut program = parse_program(&source).map_err(|e| e.render(&source))?;
    if opts.normalize {
        passes::normalize(&mut program);
    }

    let mut analyzer = DependenceAnalyzer::with_config(opts.config);
    if let Some(path) = &opts.memo_load {
        analyzer
            .load_memo_file(path)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    // One analysis, observed as needed. When a consumer of the event
    // stream itself is active (--trace, --profile), record the events
    // once and replay them into the metrics registry too; --stats or
    // --metrics alone feed the registry directly, and otherwise the
    // zero-cost null probe runs. Answers are identical in all modes —
    // the probe only watches (pinned by the determinism proptests in
    // tests/obs.rs).
    let record_events = opts.trace || opts.profile.is_some();
    let registry = MetricsRegistry::new();
    let mut probe = MetricsProbe::new(&registry);
    let mut recorder = RecordingProbe::default();
    let report = if record_events {
        let report = analyzer.analyze_program_probed(&program, &mut recorder);
        for event in &recorder.events {
            probe.record(event.clone());
        }
        report
    } else if opts.stats || opts.metrics.is_some() {
        analyzer.analyze_program_probed(&program, &mut probe)
    } else {
        analyzer.analyze_program(&program)
    };
    // The analyzer is fresh: every spliced pair is this program's.
    let spliced = analyzer.spliced_pairs();
    registry.record_incremental(spliced, report.stats.pairs - spliced);

    match opts.command.as_str() {
        "analyze" if opts.trace => {
            for (seq, event) in recorder.events.iter().enumerate() {
                println!("{}", trace_json_line(seq as u64, event));
            }
        }
        "analyze" if opts.explain => {
            let set = dda::ir::extract_accesses(&program);
            let pairs = dda::ir::reference_pairs(&set, opts.config.include_input_deps);
            for p in &pairs {
                print!(
                    "{}",
                    dda::core::explain::explain_pair_with(&opts.config, *p)
                );
                println!();
            }
        }
        "analyze" => {
            if report.pairs().is_empty() {
                println!("no reference pairs to test");
            }
            for pair in report.pairs() {
                let cache = if pair.from_cache { " [cached]" } else { "" };
                println!(
                    "{} #{} vs #{}: {:?} (by {}){}",
                    pair.array,
                    pair.a_access,
                    pair.b_access,
                    pair.result.answer,
                    pair.result.resolved_by,
                    cache
                );
                if !pair.direction_vectors.is_empty() {
                    let vecs: Vec<String> = pair
                        .direction_vectors
                        .iter()
                        .map(ToString::to_string)
                        .collect();
                    println!(
                        "    directions: {}   distance: {}",
                        vecs.join(" "),
                        pair.distance
                    );
                }
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    }

    if opts.stats {
        let s = &report.stats;
        println!(
            "\nstats: {} pairs | constant {} | gcd-independent {} | assumed {}",
            s.pairs, s.constant, s.gcd_independent, s.assumed
        );
        println!(
            "tests: {} base + {} direction | memo {}/{} hits | {} direction vectors",
            s.base_tests.total(),
            s.direction_tests.total(),
            s.memo_hits,
            s.memo_queries,
            s.direction_vectors_found
        );
        println!("stage times: {}", registry.stage_timings());
    }

    if let Some(format) = opts.metrics {
        let snapshot = MetricsSnapshot::new(&registry, &report.stats, analyzer.memo(), None);
        emit_metrics(format, &snapshot);
    }
    if let Some(dir) = &opts.profile {
        let mut spans = SpanRecorder::new();
        spans.begin_program(&opts.file);
        for event in &recorder.events {
            spans.record(event.clone());
        }
        spans.finish();
        write_profile_dir(dir, &spans)?;
    }

    if let Some(path) = &opts.memo_save {
        analyzer
            .memo()
            .save_memo_file_v3(path, opts.shards)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.check {
        run_check(
            opts,
            std::slice::from_ref(&opts.file),
            std::slice::from_ref(&program),
            std::slice::from_ref(&report),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) if opts.command == "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
