//! End-to-end tests of the analysis service over real sockets:
//! JSONL parity with the CLI serializer, concurrent-client verdict
//! identity, bounded-memory eviction, deadlines, admission control,
//! and graceful shutdown with atomic memo persistence.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dda_core::{AnalyzerConfig, DependenceAnalyzer, SharedMemo};
use dda_serve::render::batch_json_line;
use dda_serve::{ServeConfig, Server, ServerHandle};
use proptest::prelude::*;

/// Binds a server on a free port and runs it on a background thread.
fn start(cfg: ServeConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// Stops a started server and joins its thread: `shutdown` alone must
/// end `run`, within two seconds.
fn stop(handle: &ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    let start = Instant::now();
    while !join.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "run() outlived ServerHandle::shutdown"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    join.join().expect("server thread");
}

/// One raw HTTP exchange; returns (status, whole head, body).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let msg = format!(
        "{method} {target} HTTP/1.1\r\nHost: dda\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("recv");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_owned(), body.to_owned())
}

/// What the serial reference analyzer (the engine's semantics) says,
/// rendered through the same JSONL serializer the service uses.
fn serial_lines(labelled: &[(&str, &str)]) -> Vec<String> {
    let mut analyzer = DependenceAnalyzer::with_config(AnalyzerConfig::default());
    labelled
        .iter()
        .map(|(label, source)| {
            let mut program = dda_ir::parse_program(source).expect("test programs parse");
            dda_ir::passes::normalize(&mut program);
            batch_json_line(label, &analyzer.analyze_program(&program))
        })
        .collect()
}

/// Strips the fields that legitimately vary with memo-table warmth —
/// `"by"` (memo vs fresh resolution), `"cached"`, and the per-program
/// stats object — leaving the semantic verdict: array, accesses,
/// answer, direction vectors, distance.
fn semantic_view(line: &str) -> String {
    let mut s = line
        .split_once("],\"stats\":")
        .map_or(line, |(pairs, _)| pairs)
        .to_owned();
    for marker in [",\"by\":\"", ",\"cached\":"] {
        while let Some(start) = s.find(marker) {
            let rest = &s[start + marker.len()..];
            let len = rest.find(",\"").expect("another field follows");
            s.replace_range(start..start + marker.len() + len, "");
        }
    }
    s
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dda_serve_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const FLOW: &str = "for i = 1 to 100 { a[i + 1] = a[i]; }";
const COUPLED: &str =
    "for i = 1 to 10 { for j = 1 to 10 { b[2 * i + j] = b[i + 2 * j + 1] + 1; } }";
const INDEP: &str = "for i = 1 to 50 { c[2 * i] = c[2 * i + 1]; }";

#[test]
fn healthz_and_metrics_answer() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, _, body) = request(addr, "POST", "/analyze?file=flow.loop", FLOW);
    assert_eq!(status, 200, "{body}");

    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exp = dda_obs::prom::parse_exposition(&metrics).expect("valid exposition");
    for name in [
        "dda_serve_requests_total",
        "dda_serve_in_flight_requests",
        "dda_serve_max_in_flight_requests",
        "dda_memo_bytes",
        "dda_memo_capacity_bytes",
        "dda_memo_evictions_total",
        "dda_pairs_total",
    ] {
        assert!(
            exp.samples.iter().any(|s| s.name == name),
            "missing {name} in:\n{metrics}"
        );
    }

    let (status, _, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "PUT", "/analyze", FLOW);
    assert_eq!(status, 405);

    stop(&handle, join);
}

#[test]
fn cold_sequential_requests_match_the_cli_serializer_byte_for_byte() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    // A cold server answering sequential requests replays exactly the
    // serial analyzer's history, so the JSONL must be byte-identical —
    // `cached`, `by`, stats and all.
    let labelled = [
        ("flow.loop", FLOW),
        ("coupled.loop", COUPLED),
        ("indep.loop", INDEP),
    ];
    let want = serial_lines(&labelled);
    for ((label, source), want_line) in labelled.iter().zip(&want) {
        let (status, _, body) = request(
            addr,
            "POST",
            &format!("/analyze?file={label}&check=1"),
            source,
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, format!("{want_line}\n"), "label {label}");
    }
    assert_eq!(handle.deadline_exceeded(), 0);
    stop(&handle, join);
}

#[test]
fn batch_manifests_resolve_and_located_errors_come_back_as_400() {
    let dir = tmpdir("batch");
    std::fs::write(dir.join("x.loop"), FLOW).unwrap();
    std::fs::write(dir.join("y.loop"), INDEP).unwrap();
    let manifest = format!(
        "# absolute entries, as a remote client would submit\n{}\n{}\n",
        dir.join("x.loop").display(),
        dir.join("y.loop").display()
    );

    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let (status, _, body) = request(addr, "POST", "/batch?check=1", &manifest);
    assert_eq!(status, 200, "{body}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("x.loop"), "{body}");
    assert!(lines[1].contains("y.loop"), "{body}");

    let bad = format!("{}\n", dir.join("missing.loop").display());
    let (status, _, body) = request(addr, "POST", "/batch", &bad);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("missing.loop"), "{body}");
    assert!(body.contains("No such file"), "{body}");

    let (status, _, body) = request(addr, "POST", "/analyze", "for i = 1 to { }");
    assert_eq!(status, 400);
    assert!(body.contains("parse error"), "{body}");

    stop(&handle, join);
}

#[test]
fn deeply_nested_programs_are_rejected_and_the_server_lives_on() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    // An 8 KB body of 4,000 nested parentheses used to overflow a
    // worker's stack and abort the whole process.
    let parens = format!(
        "for i = 1 to 10 {{ a[{}i{}] = 0; }}",
        "(".repeat(4000),
        ")".repeat(4000)
    );
    let loops = format!(
        "{}a[1] = 0;{}",
        "for i = 1 to 2 { ".repeat(4000),
        "}".repeat(4000)
    );
    let chain = format!("for i = 1 to 10 {{ a[i{}] = 0; }}", "+1".repeat(50_000));
    for body in [&parens, &loops, &chain] {
        for endpoint in ["/analyze", "/parallel"] {
            let (status, _, reply) = request(addr, "POST", endpoint, body);
            assert_eq!(status, 400, "{endpoint}: {reply}");
            assert!(reply.contains("nesting deeper than"), "{reply}");
        }
    }
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    stop(&handle, join);
}

#[test]
fn overflowing_subscripts_are_assumed_dependent_and_every_worker_survives() {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let requests = 2 * cfg.max_in_flight + 1;
    let (addr, handle, join) = start(cfg);
    // Lowering these subscripts overflows i64. That used to panic the
    // request worker, and a handful of such requests left no worker to
    // answer anything.
    let bodies = [
        "for i = 1 to 10 { a[9223372036854775807 + i + 1] = a[i] + 1; }",
        "for i = 1 to 10 { a[4611686018427387904 * 2 * i] = a[i] + 1; }",
    ];
    for k in 0..requests {
        let (status, _, reply) = request(addr, "POST", "/analyze", bodies[k % 2]);
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"assumed\""), "{reply}");
    }
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    stop(&handle, join);
}

#[test]
fn eviction_under_a_byte_cap_never_changes_verdicts() {
    // A cap small enough that three distinct programs cannot all stay
    // resident. Eviction may only cost recomputation, never answers.
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        memo_max_bytes: 2048,
        ..ServeConfig::default()
    });
    let labelled = [
        ("flow.loop", FLOW),
        ("coupled.loop", COUPLED),
        ("indep.loop", INDEP),
    ];
    let want: Vec<String> = serial_lines(&labelled)
        .iter()
        .map(|l| semantic_view(l))
        .collect();
    for round in 0..4 {
        for ((label, source), want_line) in labelled.iter().zip(&want) {
            let (status, _, body) =
                request(addr, "POST", &format!("/analyze?file={label}"), source);
            assert_eq!(status, 200, "{body}");
            assert_eq!(
                semantic_view(body.trim_end()),
                *want_line,
                "round {round}, label {label}"
            );
        }
    }
    assert!(
        handle.memo_evictions() > 0,
        "the cap never forced an eviction"
    );
    assert!(
        handle.memo_bytes() <= 2048,
        "resident bytes {} exceed the cap",
        handle.memo_bytes()
    );
    stop(&handle, join);
}

#[test]
fn a_tight_deadline_returns_conservative_partials_not_a_hang() {
    // ~60 statements over one array: ~3.5k pairs, far more than 1ms of
    // work, so the deadline trips mid-batch.
    let mut big = String::from("for i = 1 to 100 { for j = 1 to 100 { ");
    for k in 0..60 {
        big.push_str(&format!("a[i + {k}][j] = a[i][j + {k}] + 1; "));
    }
    big.push_str("} }");

    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let (status, head, body) = request(addr, "POST", "/analyze?deadline_ms=1", &big);
    assert_eq!(status, 200, "{body}");
    assert!(
        head.contains("X-DDA-Deadline-Exceeded: true"),
        "expected the deadline header:\n{head}"
    );
    assert!(body.contains("\"assumed\":"), "{body}");
    assert_eq!(handle.deadline_exceeded(), 1);

    // Checking partial results is refused: assumed pairs carry no
    // checkable certificate by design.
    let (status, _, body) = request(addr, "POST", "/analyze?deadline_ms=1&check=1", &big);
    assert_eq!(status, 422, "{body}");

    // The same program without a deadline completes and self-checks.
    let (status, head, _) = request(addr, "POST", "/analyze?check=1", &big);
    assert_eq!(status, 200);
    assert!(!head.contains("X-DDA-Deadline-Exceeded"), "{head}");

    stop(&handle, join);
}

#[test]
fn admission_control_sheds_with_429_when_saturated() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_in_flight: 1,
        queue_depth: 1, // the minimum (0 is clamped up): one waiter, then shed
        ..ServeConfig::default()
    });
    let healthz = "GET /healthz HTTP/1.1\r\nHost: dda\r\nContent-Length: 0\r\n\r\n";

    // Occupy the only worker: connect and go silent — it blocks in
    // read_request until we finish the exchange. Wait until the worker
    // has demonstrably picked the connection up.
    let mut holder = TcpStream::connect(addr).expect("connect holder");
    for _ in 0..250 {
        if handle.in_flight() == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(handle.in_flight(), 1, "worker never picked up the holder");

    // Fill the single queue slot. The acceptor is sequential, so this
    // connection is enqueued before anything accepted later.
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued.write_all(healthz.as_bytes()).expect("send queued");

    // Worker busy + queue full: the next connection is shed.
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("busy"), "{body}");
    assert!(handle.shed() >= 1);

    // Release the worker; it finishes the held request, then drains the
    // queued one, and the service takes new connections again.
    holder
        .write_all(healthz.as_bytes())
        .expect("send held request");
    let mut reply = String::new();
    holder.read_to_string(&mut reply).expect("recv held reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let mut reply = String::new();
    queued
        .read_to_string(&mut reply)
        .expect("recv queued reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let (status, _, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    stop(&handle, join);
}

#[test]
fn a_silent_shed_client_does_not_stall_the_acceptor() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_in_flight: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let healthz = "GET /healthz HTTP/1.1\r\nHost: dda\r\nContent-Length: 0\r\n\r\n";

    // Saturate: a silent holder occupies the only worker, a second
    // connection fills the only queue slot.
    let mut holder = TcpStream::connect(addr).expect("connect holder");
    for _ in 0..250 {
        if handle.in_flight() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.in_flight(), 1, "worker never picked up the holder");
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued.write_all(healthz.as_bytes()).expect("send queued");

    // A shed client that connects and never sends a byte...
    let mut silent = TcpStream::connect(addr).expect("connect silent");
    let start = Instant::now();
    // ...must not hold up the 429 of the connection after it.
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    let took = start.elapsed();
    assert_eq!(status, 429, "{body}");
    assert!(
        took < Duration::from_millis(100),
        "the next shed took {took:?}: the acceptor waited on the silent client"
    );
    // The silent client still reads its 429, not a reset.
    let mut reply = String::new();
    silent
        .read_to_string(&mut reply)
        .expect("silent client reads");
    assert!(reply.starts_with("HTTP/1.1 429"), "{reply}");
    assert_eq!(handle.shed(), 2);

    holder.write_all(healthz.as_bytes()).expect("send held");
    let mut reply = String::new();
    holder.read_to_string(&mut reply).expect("recv held");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let mut reply = String::new();
    queued.read_to_string(&mut reply).expect("recv queued");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    stop(&handle, join);
}

#[test]
fn shutdown_wakes_a_server_bound_to_the_unspecified_address() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ServeConfig::default()
    });
    let local = SocketAddr::from(([127, 0, 0, 1], addr.port()));
    let (status, _, _) = request(local, "GET", "/healthz", "");
    assert_eq!(status, 200);
    stop(&handle, join);
}

#[test]
fn shutdown_before_run_returns_at_once() {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    handle.shutdown();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    stop(&handle, join);
}

#[test]
fn sequential_round_trips_on_an_idle_server_wait_on_no_timer() {
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let start = Instant::now();
    for _ in 0..100 {
        let (status, _, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(300),
        "100 idle /healthz round trips took {took:?}"
    );
    stop(&handle, join);
}

#[test]
fn graceful_shutdown_drains_and_persists_the_memo_atomically() {
    let dir = tmpdir("persist");
    let memo_path = dir.join("memo.dda");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        memo_path: Some(memo_path.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start(cfg.clone());
    let (status, _, first) = request(addr, "POST", "/analyze?file=flow.loop", FLOW);
    assert_eq!(status, 200);
    let (status, _, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    join.join().expect("server thread");
    drop(handle);

    assert!(memo_path.exists(), "shutdown must persist the memo");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "memo.dda")
        .collect();
    assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");

    let memo = SharedMemo::new(4);
    memo.load_memo_file(&memo_path)
        .expect("persisted memo loads");
    assert!(!memo.merged_entries().1.is_empty(), "warm entries survived");

    // A restarted server is warm: same verdicts, now served from memo.
    let (addr2, handle2, join2) = start(cfg);
    let (status, _, warm) = request(addr2, "POST", "/analyze?file=flow.loop", FLOW);
    assert_eq!(status, 200);
    assert_eq!(
        semantic_view(warm.trim_end()),
        semantic_view(first.trim_end())
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");
    stop(&handle2, join2);
}

/// A server started on a memo path that does not exist yet persists a
/// v3 archive; restarted on it, it serves warm verdicts, exposes
/// load/fault metrics, and persists v3 again.
#[test]
fn fresh_memo_path_persists_v3_and_restarts_warm() {
    let dir = tmpdir("persist_v3");
    let path = dir.join("memo.dda3");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        memo_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start(cfg.clone());
    let (status, _, cold) = request(addr, "POST", "/analyze?file=flow.loop", FLOW);
    assert_eq!(status, 200);
    stop(&handle, join);
    assert!(dda_core::persist_v3::is_v3_file(&path).expect("readable"));

    // Restart on the archive: warm verdicts, load metrics exposed.
    let (addr2, handle2, join2) = start(cfg);
    let (status, _, warm) = request(addr2, "POST", "/analyze?file=flow.loop", FLOW);
    assert_eq!(status, 200);
    assert_eq!(
        semantic_view(warm.trim_end()),
        semantic_view(cold.trim_end())
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");

    let (status, _, metrics) = request(addr2, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for name in [
        "dda_memo_load_files_total",
        "dda_memo_load_records_total",
        "dda_memo_load_bytes_total",
        "dda_memo_archive_faults_total",
        "dda_incremental_spliced_total",
    ] {
        assert!(metrics.contains(name), "missing {name} in:\n{metrics}");
    }

    let (status, _, _) = request(addr2, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    join2.join().expect("server thread");
    drop(handle2);

    let reread = SharedMemo::new(4);
    assert_eq!(
        reread.load_memo_file(&path).expect("persisted v3 loads"),
        dda_core::MemoFormat::V3Binary
    );
}

/// A server started on v2 text (here the committed fixture) loads it,
/// answers warm from it, and persists the table back as a v3 archive
/// that keeps every loaded entry.
#[test]
fn v2_memo_loads_warm_and_persists_back_as_v3() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = tmpdir("persist_v2");
    let path = dir.join("memo.dda");
    std::fs::copy(format!("{root}/tests/corpus/memo/loops.v2.memo"), &path).expect("fixture");
    let before = SharedMemo::new(1);
    before.load_memo_file(&path).expect("v2 fixture loads");

    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        memo_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let program = std::fs::read_to_string(format!("{root}/examples/loops/interchange.loop"))
        .expect("example reads");
    let (status, _, warm) = request(addr, "POST", "/analyze?file=interchange.loop", &program);
    assert_eq!(status, 200);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    stop(&handle, join);

    assert!(dda_core::persist_v3::is_v3_file(&path).expect("readable"));
    let after = SharedMemo::new(1);
    after.load_memo_file(&path).expect("persisted v3 loads");
    assert_eq!(after.merged_entries(), before.merged_entries());
}

/// Satellite 3: N concurrent clients hammering one warm server get
/// verdicts bit-identical to the serial analyzer, across worker and
/// shard settings.
#[test]
fn concurrent_clients_get_serial_verdicts_across_workers_and_shards() {
    let corpus = [
        ("flow.loop", FLOW),
        ("coupled.loop", COUPLED),
        ("indep.loop", INDEP),
    ];
    let want: Vec<String> = serial_lines(&corpus)
        .iter()
        .map(|l| semantic_view(l))
        .collect();
    for (workers, shards) in [(1usize, 1usize), (4, 8)] {
        let (addr, handle, join) = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            shards,
            max_in_flight: 4,
            ..ServeConfig::default()
        });
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let want = want.clone();
                std::thread::spawn(move || {
                    for ((label, source), want_line) in corpus.iter().zip(&want) {
                        let (status, _, body) =
                            request(addr, "POST", &format!("/analyze?file={label}"), source);
                        assert_eq!(status, 200, "{body}");
                        assert_eq!(
                            semantic_view(body.trim_end()),
                            *want_line,
                            "workers={workers} shards={shards} label={label}"
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        assert_eq!(handle.requests(), 12);
        stop(&handle, join);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 3, generalized: random small programs submitted by
    /// concurrent clients to a shared warm server still answer with the
    /// serial analyzer's verdicts — memoization across requests and
    /// worker parallelism are invisible in the semantics.
    #[test]
    fn random_programs_survive_concurrency_and_warmth(
        seeds in proptest::collection::vec((1i64..=4, -3i64..=3, 2i64..=6), 2..=4)
    ) {
        let sources: Vec<(String, String)> = seeds
            .iter()
            .enumerate()
            .map(|(i, (stride, offset, hi))| {
                (
                    format!("p{i}.loop"),
                    format!(
                        "for i = 1 to {hi} {{ a[{stride} * i + {offset}] = a[i] + 1; }}"
                    ),
                )
            })
            .collect();
        let labelled: Vec<(&str, &str)> =
            sources.iter().map(|(l, s)| (l.as_str(), s.as_str())).collect();
        let want: Vec<String> =
            serial_lines(&labelled).iter().map(|l| semantic_view(l)).collect();

        let (addr, handle, join) = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 4,
            ..ServeConfig::default()
        });
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let sources = sources.clone();
                let want = want.clone();
                std::thread::spawn(move || {
                    for ((label, source), want_line) in sources.iter().zip(&want) {
                        let (status, _, body) =
                            request(addr, "POST", &format!("/analyze?file={label}"), source);
                        assert_eq!(status, 200, "{body}");
                        assert_eq!(semantic_view(body.trim_end()), *want_line, "{label}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        stop(&handle, join);
    }
}

/// Like [`request`] but with one extra request header.
fn request_with_header(
    addr: SocketAddr,
    method: &str,
    target: &str,
    header: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let msg = format!(
        "{method} {target} HTTP/1.1\r\nHost: dda\r\n{header}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("recv");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_owned(), body.to_owned())
}

/// The `X-DDA-Trace-Id` value from a response head.
fn trace_id_of(head: &str) -> String {
    head.lines()
        .find_map(|l| l.strip_prefix("X-DDA-Trace-Id: "))
        .expect("analysis responses carry a trace id")
        .trim()
        .to_owned()
}

#[test]
fn debug_endpoints_expose_traced_requests_and_slow_captures() {
    let dir = std::env::temp_dir().join(format!("dda-serve-capture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle, join) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        capture_dir: Some(dir.clone()),
        flight_capacity: 8,
        ..ServeConfig::default()
    });

    // An inbound trace id is honored and echoed back.
    let (status, head, _) = request_with_header(
        addr,
        "POST",
        "/analyze",
        "X-DDA-Trace-Id: 00000000000000ab",
        "for i = 1 to 9 { a[i + 1] = a[i]; }",
    );
    assert_eq!(status, 200);
    assert_eq!(trace_id_of(&head), "00000000000000ab");

    // Without the header the service assigns a fresh nonzero id.
    let (status, head, _) = request(addr, "POST", "/analyze", "for i = 1 to 9 { a[i] = a[i]; }");
    assert_eq!(status, 200);
    let assigned = trace_id_of(&head);
    assert_eq!(assigned.len(), 16);
    assert_ne!(assigned, "0000000000000000");

    // A deadline-exceeded request is always captured, latency trigger
    // or not.
    let mut big = String::from("for i = 1 to 100 { for j = 1 to 100 { ");
    for k in 0..60 {
        big.push_str(&format!("a[i + {k}][j] = a[i][j + {k}] + 1; "));
    }
    big.push_str("} }");
    let (status, head, _) = request(addr, "POST", "/analyze?deadline_ms=1", &big);
    assert_eq!(status, 200);
    assert!(head.contains("X-DDA-Deadline-Exceeded: true"), "{head}");
    let slow_id = trace_id_of(&head);

    // The ring lists all three requests, newest last, with outcomes.
    let (status, _, ring) = request(addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200);
    let lines: Vec<&str> = ring.lines().collect();
    assert_eq!(lines.len(), 3, "{ring}");
    assert!(
        lines[0].contains("\"trace\":\"00000000000000ab\""),
        "{ring}"
    );
    assert!(lines[0].contains("\"outcome\":\"ok\""), "{ring}");
    assert!(
        lines[2].contains(&format!("\"trace\":\"{slow_id}\"")),
        "{ring}"
    );
    assert!(lines[2].contains("\"outcome\":\"deadline\""), "{ring}");
    assert_eq!(handle.flight_recorded(), 3);

    // The slow request's span capture is retrievable by trace id and
    // every line of it carries that id.
    assert_eq!(handle.captures(), 1);
    let (status, _, capture) = request(addr, "GET", &format!("/debug/requests/{slow_id}"), "");
    assert_eq!(status, 200, "{capture}");
    assert!(!capture.is_empty());
    for line in capture.lines() {
        assert!(line.contains(&format!("\"trace\":\"{slow_id}\"")), "{line}");
    }
    assert!(
        capture.contains("\"name\":\"request:/analyze\""),
        "{capture}"
    );

    // Unknown ids 404, malformed ids 400.
    let (status, _, _) = request(addr, "GET", "/debug/requests/ffffffffffffffff", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "GET", "/debug/requests/not-hex", "");
    assert_eq!(status, 400);

    // /debug/memo reports table occupancy and flight-recorder state.
    let (status, _, memo) = request(addr, "GET", "/debug/memo", "");
    assert_eq!(status, 200);
    for needle in [
        "\"tables\":[",
        "\"table\":\"full\"",
        "\"table\":\"gcd\"",
        "\"entries\":",
        "\"bytes\":",
        "\"shard_ops\":[",
        "\"archive_faults\":",
        "\"flight\":{",
        "\"recorded\":3",
        "\"captured\":1",
    ] {
        assert!(memo.contains(needle), "missing {needle} in {memo}");
    }

    // The labeled request counters appear on /metrics and validate.
    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exp = dda_obs::prom::parse_exposition(&metrics).expect("exposition parses");
    assert_eq!(
        exp.value(
            "dda_serve_requests_total",
            &[("endpoint", "/analyze"), ("outcome", "ok")],
        ),
        Some(2.0)
    );
    assert_eq!(
        exp.value(
            "dda_serve_requests_total",
            &[("endpoint", "/analyze"), ("outcome", "deadline")],
        ),
        Some(1.0)
    );

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}
