//! The long-running analysis server: a bounded accept queue feeding a
//! fixed pool of request workers, all sharing one warm
//! [`SharedMemo`] with bounded-capacity eviction, one
//! [`MetricsRegistry`], and one cumulative statistics accumulator.
//!
//! ```text
//!            blocking accept
//! acceptor ──try_send──▶ bounded queue ──▶ worker × max_in_flight
//!  ▲  │ (full → 429, half-close)                 │
//!  │  └──▶ linger thread (drain ≤ 250 ms, close)   ▼
//!  └── wake() ◀── ServerHandle::shutdown / POST /shutdown / SIGTERM watcher
//!                                  then: drain ──▶ atomic memo persist
//! ```
//!
//! The acceptor blocks in `accept` with no timer: nothing sits between
//! a connection arriving and it being queued. Shutdown sets a flag and
//! then makes one loopback connection to the listen port, which is what
//! returns the acceptor from `accept` to read the flag. Shedding costs
//! the acceptor one small write: draining the shed client's request
//! bytes, so that it reads the 429 rather than an RST, is handed to a
//! separate linger thread.
//!
//! Admission control is two-layered: the queue bound caps waiting
//! connections (overflow is shed with 429 and counted), and the worker
//! count caps in-flight analysis. Each request runs under a
//! [`Deadline`] — the server default, or a per-request
//! `?deadline_ms=` override — and a timed-out request still answers
//! with sound conservative partial results (see
//! [`dda_engine::analyze_batch`]).

use std::io::Read as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dda_core::stats::AnalysisStats;
use dda_core::SharedMemo;
use dda_engine::{analyze_batch, check_batch, graph_batch, Deadline, EngineConfig};
use dda_graph::render::parallel_json_line;
use dda_obs::{
    memo_load_json, memo_tables_json, CaptureStore, Counter, FlightRecorder, Gauge,
    MetricsRegistry, MetricsSnapshot, RequestOutcome, RequestSummary, ServiceSection, TraceContext,
    TraceId, TraceIdGen,
};

use crate::http::{self, Request, Response};
use crate::manifest::{self, BatchInput};
use crate::render;

/// Server configuration. `Default` gives a localhost server with an
/// unbounded memo table, no default deadline, and a small worker pool.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8053` (`:0` picks a free port).
    pub addr: String,
    /// Engine worker threads per request (`0` = one per core).
    pub workers: usize,
    /// Memo-table shard count (contention knob only).
    pub shards: usize,
    /// Memo capacity in bytes across both tables; `0` = unbounded.
    /// When bounded, second-chance eviction keeps resident bytes at or
    /// under the cap without ever changing verdicts (evicted entries
    /// are simply recomputed).
    pub memo_max_bytes: u64,
    /// Default per-request deadline in milliseconds; `0` = none.
    /// Requests may override with `?deadline_ms=N`.
    pub deadline_ms: u64,
    /// Memo persistence path: loaded at startup when present, written
    /// back atomically (temp file + rename) on graceful shutdown.
    pub memo_path: Option<PathBuf>,
    /// Request workers = maximum in-flight requests.
    pub max_in_flight: usize,
    /// Bounded accept queue depth; connections beyond it are shed with
    /// 429. Clamped to at least 1 — a zero-capacity (rendezvous) queue
    /// would shed whenever every worker is merely *between* requests,
    /// not actually backlogged.
    pub queue_depth: usize,
    /// Run the normalization prepasses on submitted programs (matches
    /// the CLI default).
    pub normalize: bool,
    /// Slow-request capture threshold in milliseconds; `0` disables the
    /// latency trigger (deadline-exceeded requests are still captured).
    /// Only effective with a `capture_dir`.
    pub slow_ms: u64,
    /// Directory for slow-request captures (`spans-<traceid>.jsonl` +
    /// folded flamegraph, bounded, oldest evicted). `None` disables
    /// capture entirely.
    pub capture_dir: Option<PathBuf>,
    /// Completed-request summaries remembered by the flight recorder
    /// ring (served at `GET /debug/requests`).
    pub flight_capacity: usize,
}

/// Captures kept on disk before the oldest is evicted.
const MAX_CAPTURES: usize = 64;

/// How long a shed connection is kept open after its 429 to drain the
/// request bytes the client is still sending.
const SHED_LINGER: Duration = Duration::from_millis(250);

/// Shed connections waiting for the linger thread; beyond this they are
/// closed at once.
const SHED_LINGER_DEPTH: usize = 64;

/// Bound on the wake-up connect. It only waits when the listen backlog
/// is full, and then the acceptor has connections to return with anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8053".into(),
            workers: 0,
            shards: 16,
            memo_max_bytes: 0,
            deadline_ms: 0,
            memo_path: None,
            max_in_flight: 4,
            queue_depth: 64,
            normalize: true,
            slow_ms: 0,
            capture_dir: None,
            flight_capacity: 256,
        }
    }
}

/// Endpoint labels for the by-(endpoint, outcome) request split.
/// `(accept)` is the acceptor itself (shed connections never reach an
/// endpoint); `(other)` covers unknown paths and unparsable requests.
const ENDPOINTS: [&str; 10] = [
    "/analyze",
    "/batch",
    "/parallel",
    "/metrics",
    "/healthz",
    "/shutdown",
    "/debug/requests",
    "/debug/memo",
    "(accept)",
    "(other)",
];

/// Outcome labels, indexed by [`outcome_index`].
const OUTCOMES: [&str; 4] = ["ok", "shed", "deadline", "error"];

fn endpoint_index(path: &str) -> usize {
    if path.starts_with("/debug/requests") {
        return 6;
    }
    ENDPOINTS
        .iter()
        .position(|&e| e == path)
        .unwrap_or(ENDPOINTS.len() - 1)
}

fn outcome_index(outcome: &str) -> usize {
    OUTCOMES.iter().position(|&o| o == outcome).unwrap_or(3)
}

/// Lock-free request counts per (endpoint, outcome) cell. Bounded
/// cardinality by construction: the endpoint set is the fixed
/// [`ENDPOINTS`] table, never attacker-controlled paths.
#[derive(Debug)]
struct RequestsByOutcome([[Counter; 4]; ENDPOINTS.len()]);

impl RequestsByOutcome {
    fn new() -> RequestsByOutcome {
        RequestsByOutcome(std::array::from_fn(|_| {
            std::array::from_fn(|_| Counter::new())
        }))
    }

    fn inc(&self, path: &str, outcome: &str) {
        self.0[endpoint_index(path)][outcome_index(outcome)].inc();
    }

    /// Non-zero cells as `(endpoint, outcome, count)`, in table order.
    fn snapshot(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut out = Vec::new();
        for (e, row) in self.0.iter().enumerate() {
            for (o, cell) in row.iter().enumerate() {
                let count = cell.get();
                if count > 0 {
                    out.push((ENDPOINTS[e], OUTCOMES[o], count));
                }
            }
        }
        out
    }
}

/// Shared server state: everything a request worker needs.
#[derive(Debug)]
struct State {
    engine: EngineConfig,
    memo: SharedMemo,
    obs: MetricsRegistry,
    stats: Mutex<AnalysisStats>,
    in_flight: Gauge,
    requests: Counter,
    shed: Counter,
    deadline_exceeded: Counter,
    requests_by: RequestsByOutcome,
    trace_ids: TraceIdGen,
    flight: FlightRecorder,
    capture: Option<CaptureStore>,
    shutdown: AtomicBool,
    /// Where `State::wake` connects: the listen address, with an
    /// unspecified IP replaced by the loopback address of its family.
    wake_addr: SocketAddr,
    default_deadline_ms: u64,
    max_in_flight: u64,
    normalize: bool,
}

impl State {
    /// Sets the shutdown flag, then connects once to the listen port so
    /// the acceptor returns from its blocking `accept` and reads it.
    fn wake(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }
}

/// A cloneable handle onto a running (or not-yet-run) server: request
/// shutdown and read service counters without HTTP. Used by tests and
/// by embedders that run the server on a background thread.
#[derive(Debug, Clone)]
pub struct ServerHandle(Arc<State>);

impl ServerHandle {
    /// Stops the accept loop: sets the shutdown flag and wakes the
    /// acceptor with one loopback connection, so no other nudge is
    /// needed. Returns at once; [`Server::run`] then drains in-flight
    /// and queued requests and persists the memo table. Called before
    /// `run`, it makes `run` return as soon as it starts.
    pub fn shutdown(&self) {
        self.0.wake();
    }

    /// Requests handled so far (shed connections not included).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.0.requests.get()
    }

    /// Requests being processed right now.
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.0.in_flight.get()
    }

    /// Connections shed with 429 because the accept queue was full.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.0.shed.get()
    }

    /// Requests whose deadline expired (they answered with partials).
    #[must_use]
    pub fn deadline_exceeded(&self) -> u64 {
        self.0.deadline_exceeded.get()
    }

    /// Estimated resident bytes across both memo tables.
    #[must_use]
    pub fn memo_bytes(&self) -> u64 {
        self.0.memo.bytes()
    }

    /// Entries evicted from the memo tables so far.
    #[must_use]
    pub fn memo_evictions(&self) -> u64 {
        self.0.memo.evictions()
    }

    /// Completed requests recorded by the flight recorder.
    #[must_use]
    pub fn flight_recorded(&self) -> u64 {
        self.0.flight.recorded()
    }

    /// Slow-request captures written so far (0 without a capture dir).
    #[must_use]
    pub fn captures(&self) -> u64 {
        self.0.capture.as_ref().map_or(0, CaptureStore::captured)
    }

    /// Capture writes that failed and were degraded to this counter.
    #[must_use]
    pub fn capture_errors(&self) -> u64 {
        self.0.capture.as_ref().map_or(0, CaptureStore::errors)
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    memo_path: Option<PathBuf>,
    memo_shards: usize,
    max_in_flight: usize,
    queue_depth: usize,
}

impl Server {
    /// Binds the listen socket, builds the shared memo table (loading
    /// `memo_path` when it exists), and prepares the worker state.
    ///
    /// # Errors
    ///
    /// Bind failures and unreadable/corrupt memo files, located.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("{}: {e}", cfg.addr))?;
        let mut wake_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shards = cfg.shards.max(1);
        let memo = SharedMemo::with_capacity(shards, cfg.memo_max_bytes);
        if let Some(path) = &cfg.memo_path {
            if path.exists() {
                memo.load_memo_file(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let engine = EngineConfig {
            workers: cfg.workers,
            shards,
            check: false,
            ..EngineConfig::default()
        };
        let engine_workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let state = Arc::new(State {
            obs: MetricsRegistry::with_workers(engine_workers),
            engine,
            memo,
            stats: Mutex::new(AnalysisStats::default()),
            in_flight: Gauge::new(),
            requests: Counter::new(),
            shed: Counter::new(),
            deadline_exceeded: Counter::new(),
            requests_by: RequestsByOutcome::new(),
            trace_ids: TraceIdGen::new(),
            flight: FlightRecorder::with_capacity(cfg.flight_capacity),
            capture: cfg
                .capture_dir
                .clone()
                .map(|dir| CaptureStore::new(dir, cfg.slow_ms, MAX_CAPTURES)),
            shutdown: AtomicBool::new(false),
            wake_addr,
            default_deadline_ms: cfg.deadline_ms,
            max_in_flight: cfg.max_in_flight.max(1) as u64,
            normalize: cfg.normalize,
        });
        Ok(Server {
            listener,
            state,
            memo_path: cfg.memo_path.clone(),
            memo_shards: shards,
            max_in_flight: cfg.max_in_flight.max(1),
            queue_depth: cfg.queue_depth,
        })
    }

    /// The bound address (useful with `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutdown and counter reads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(Arc::clone(&self.state))
    }

    /// Runs the accept loop until shutdown (SIGTERM/SIGINT, a
    /// `/shutdown` request, or [`ServerHandle::shutdown`]), then drains
    /// queued and in-flight requests and atomically persists the memo
    /// table when a `memo_path` is configured.
    ///
    /// # Errors
    ///
    /// Fatal accept errors and memo-persistence failures.
    pub fn run(self) -> Result<(), String> {
        #[cfg(unix)]
        let (watcher_stop, watcher) = signals::install(&self.state);

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(self.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.max_in_flight);
        for _ in 0..self.max_in_flight {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            workers.push(std::thread::spawn(move || loop {
                // Hold the lock only to dequeue, not while handling. No
                // code runs under it but `recv`, so a poisoned lock still
                // guards a usable receiver.
                let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match next {
                    Ok(stream) => handle_connection(&state, stream),
                    Err(_) => break, // acceptor dropped the sender: drain done
                }
            }));
        }

        let (linger_tx, linger_rx) = mpsc::sync_channel::<(TcpStream, Instant)>(SHED_LINGER_DEPTH);
        let linger = std::thread::spawn(move || {
            for (stream, until) in linger_rx {
                drain_until(stream, until);
            }
        });

        // No timer on this path: `accept` blocks until a client connects
        // or `State::wake` does, and the flag is re-read after every accept.
        loop {
            let accepted = self.listener.accept();
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(mut stream)) => {
                        self.state.shed.inc();
                        self.state.requests_by.inc("(accept)", "shed");
                        refuse(&mut stream);
                        // A full linger queue drops the socket at once.
                        let _ = linger_tx.try_send((stream, Instant::now() + SHED_LINGER));
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                },
                Err(e) => return Err(format!("accept: {e}")),
            }
        }

        // Graceful drain: close the queue, let the workers finish
        // everything already accepted, then persist the warm table.
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        drop(linger_tx);
        let _ = linger.join();
        #[cfg(unix)]
        {
            drop(watcher_stop);
            let _ = watcher.join();
        }
        if let Some(path) = &self.memo_path {
            self.state
                .memo
                .save_memo_file_v3(path, self.memo_shards)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// SIGTERM/SIGINT handling without external crates: a `signal(2)` FFI
/// binding flips an atomic (store-only, so async-signal-safe by
/// construction), and a watcher thread turns it into `State::wake`.
/// The acceptor cannot rely on `accept` failing with EINTR instead:
/// glibc's `signal` sets `SA_RESTART`, and the signal may land on any
/// thread. The watcher's poll bounds only how long a signal takes to
/// shut the server down, never request latency.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    use super::State;

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    const POLL: Duration = Duration::from_millis(50);

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the handlers and starts the watcher, which exits once
    /// it has woken the server or the returned sender is dropped.
    pub fn install(state: &Arc<State>) -> (mpsc::Sender<()>, JoinHandle<()>) {
        unsafe {
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        }
        let (stop, stopped) = mpsc::channel::<()>();
        let state = Arc::clone(state);
        let watcher = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(POLL) {
                if TRIGGERED.load(Ordering::SeqCst) {
                    state.wake();
                    return;
                }
            }
        });
        (stop, watcher)
    }
}

/// Refuses a connection with 429 and half-closes it, without reading:
/// a small write into an empty send buffer, so it never blocks the
/// acceptor. The client sees the 429 and then end of stream.
fn refuse(stream: &mut TcpStream) {
    let resp = Response::text(429, "server busy: accept queue full\n");
    let _ = http::write_response(stream, &resp);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Drains a refused connection's incoming bytes until the client closes
/// or `until` passes, then drops it. Closing with unread data would RST
/// the peer, possibly before it has read the 429; past `until`, only
/// bytes that already arrived are read.
fn drain_until(mut stream: TcpStream, until: Instant) {
    let mut sink = [0u8; 4096];
    loop {
        let left = until.saturating_duration_since(Instant::now());
        let set = if left.is_zero() {
            stream.set_nonblocking(true)
        } else {
            stream.set_read_timeout(Some(left))
        };
        if set.is_err() || !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

fn handle_connection(state: &State, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    state.in_flight.inc();
    state.requests.inc();
    let (path, resp) = match http::read_request(&mut stream) {
        Err(e) => ("(other)".to_owned(), Response::text(400, &format!("{e}\n"))),
        Ok(req) => (req.path.clone(), route(state, &req)),
    };
    // Outcome classification for the (endpoint, outcome) split: a
    // deadline-exceeded analysis still answers 200, so the header — not
    // the status — marks it.
    let outcome = if resp
        .headers
        .iter()
        .any(|(n, _)| n == "X-DDA-Deadline-Exceeded")
    {
        "deadline"
    } else if resp.status < 400 {
        "ok"
    } else {
        "error"
    };
    state.requests_by.inc(&path, outcome);
    let _ = http::write_response(&mut stream, &resp);
    state.in_flight.dec();
}

fn route(state: &State, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/analyze") => analyze(state, req, InputKind::Program, Output::Reports),
        ("POST", "/batch") => analyze(state, req, InputKind::Manifest, Output::Reports),
        ("POST", "/parallel") => {
            // Body is one program by default; `?manifest=1` switches to
            // a manifest body, mirroring the /analyze–/batch split.
            let kind = if req.query.get("manifest").is_some_and(|v| v != "0") {
                InputKind::Manifest
            } else {
                InputKind::Program
            };
            analyze(state, req, kind, Output::Parallel)
        }
        ("GET", "/metrics") => Response::ok(metrics_text(state), "text/plain; version=0.0.4"),
        ("GET", "/healthz") => Response::ok("ok\n".into(), "text/plain"),
        ("GET", "/debug/requests") => Response::ok(state.flight.to_jsonl(), "application/x-ndjson"),
        ("GET", "/debug/memo") => Response::ok(debug_memo_json(state), "application/json"),
        ("GET", p) if p.starts_with("/debug/requests/") => {
            debug_request(state, &p["/debug/requests/".len()..])
        }
        ("GET" | "POST", "/shutdown") => {
            state.wake();
            Response::ok("shutting down\n".into(), "text/plain")
        }
        ("GET" | "POST", _) => Response::text(404, "not found\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

/// `GET /debug/requests/<traceid>`: one slow-request capture's span
/// JSONL, read back from the capture directory.
fn debug_request(state: &State, traceid: &str) -> Response {
    let Some(id) = TraceId::from_hex(traceid) else {
        return Response::text(400, &format!("bad trace id `{traceid}`\n"));
    };
    let Some(capture) = &state.capture else {
        return Response::text(404, "capture disabled: no --capture-dir configured\n");
    };
    match capture.read(id) {
        Some(body) => Response::ok(body, "application/x-ndjson"),
        None => Response::text(404, &format!("no capture for trace {id}\n")),
    }
}

/// `GET /debug/memo`: shard occupancy, byte usage, and archive fault
/// stats for both memo tables, plus flight-recorder/capture health.
fn debug_memo_json(state: &State) -> String {
    format!(
        "{{\"tables\":{},\"load\":{},\"flight\":{{\"capacity\":{},\"recorded\":{},\
         \"dropped\":{},\"captured\":{},\"capture_errors\":{}}}}}",
        memo_tables_json(&state.memo),
        memo_load_json(&state.memo),
        state.flight.capacity(),
        state.flight.recorded(),
        state.flight.dropped(),
        state.capture.as_ref().map_or(0, CaptureStore::captured),
        state.capture.as_ref().map_or(0, CaptureStore::errors),
    )
}

/// What the request body holds.
enum InputKind {
    /// One `.loop` program (label from `?file=`, default `-`).
    Program,
    /// A batch manifest; relative entries resolve against the server's
    /// working directory.
    Manifest,
}

/// What the response stream carries.
enum Output {
    /// Per-pair dependence reports (`/analyze`, `/batch`).
    Reports,
    /// Per-loop parallelism verdicts from the dependence graph
    /// (`/parallel`), byte-identical to `dda parallel` on a cold memo.
    Parallel,
}

fn analyze(state: &State, req: &Request, kind: InputKind, output: Output) -> Response {
    // Every analysis response carries its trace id; an inbound
    // `X-DDA-Trace-Id` (16 hex digits) is adopted for correlation,
    // otherwise one is generated.
    let trace_id = req
        .header("x-dda-trace-id")
        .and_then(TraceId::from_hex)
        .unwrap_or_else(|| state.trace_ids.next_id());
    let mut resp = analyze_traced(state, req, kind, output, trace_id);
    resp.headers
        .push(("X-DDA-Trace-Id".into(), trace_id.to_string()));
    resp
}

fn analyze_traced(
    state: &State,
    req: &Request,
    kind: InputKind,
    output: Output,
    trace_id: TraceId,
) -> Response {
    let endpoint = ENDPOINTS[endpoint_index(&req.path)];
    let mut input = BatchInput::default();
    let loaded = match kind {
        InputKind::Program => {
            let label = req.query.get("file").map_or("-", String::as_str);
            manifest::push_program_source(label, &req.body, state.normalize, &mut input)
        }
        InputKind::Manifest => {
            manifest::load_manifest_text(&req.body, Path::new(""), state.normalize, &mut input)
        }
    };
    if let Err(e) = loaded {
        return Response::text(400, &format!("{e}\n"));
    }

    let deadline = match req.query.get("deadline_ms") {
        None => deadline_from_ms(state.default_deadline_ms),
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => deadline_from_ms(ms),
            Err(_) => return Response::text(400, &format!("bad deadline_ms `{v}`\n")),
        },
    };

    // Per-request attribution: the trace context tees the engine's
    // telemetry into its local delta, and the memo counters are
    // differenced around the batch.
    let ctx = TraceContext::new(trace_id);
    let faults_before = state.memo.memo_load_stats().archive_faults;
    let bytes_before = state.memo.bytes();
    let start = Instant::now();
    let (out, graphs) = match output {
        Output::Reports => (
            analyze_batch(
                &state.engine,
                &state.memo,
                &state.obs,
                &input.programs,
                deadline,
                Some(&ctx),
            ),
            None,
        ),
        Output::Parallel => {
            let g = graph_batch(
                &state.engine,
                &state.memo,
                &state.obs,
                &input.programs,
                deadline,
                Some(&ctx),
            );
            (g.batch, Some(g.graphs))
        }
    };
    if out.deadline_exceeded {
        state.deadline_exceeded.inc();
    }
    // Plain counters: a request that panicked mid-update leaves at worst
    // one partial delta, so a poisoned lock is still worth reading.
    state
        .stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .add(&out.stats);

    let resp = 'resp: {
        if req.query.get("check").is_some_and(|v| v != "0") {
            if out.deadline_exceeded {
                break 'resp Response::text(
                    422,
                    "deadline exceeded: partial results are conservative, not checkable\n",
                );
            }
            let summary = check_batch(&state.engine, &state.obs, &input.programs, &out.reports);
            if !summary.failures.is_empty() {
                break 'resp Response::text(
                    422,
                    &format!("check: {} certificate failure(s)\n", summary.failures.len()),
                );
            }
        }

        let mut body = String::new();
        if let Some(graphs) = &graphs {
            for (label, graph) in input.labels.iter().zip(graphs) {
                body.push_str(&parallel_json_line(label, graph));
                body.push('\n');
            }
        } else {
            for (label, report) in input.labels.iter().zip(&out.reports) {
                body.push_str(&render::batch_json_line(label, report));
                body.push('\n');
            }
        }
        let mut resp = Response::ok(body, "application/x-ndjson");
        if out.deadline_exceeded {
            resp.headers
                .push(("X-DDA-Deadline-Exceeded".into(), "true".into()));
        }
        resp
    };

    // Flight-record the completed request. Everything here is either
    // lock-free (ring push) or post-response best-effort I/O (capture),
    // so the analysis path never blocks on observability.
    let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut summary = RequestSummary::blank(trace_id, endpoint).with_local(ctx.local());
    summary.outcome = if out.deadline_exceeded {
        RequestOutcome::DeadlineExceeded
    } else if resp.status >= 400 {
        RequestOutcome::Error
    } else {
        RequestOutcome::Ok
    };
    summary.status = resp.status;
    summary.wall_nanos = wall_nanos;
    summary.programs = input.programs.len() as u64;
    summary.pairs = out.stats.pairs;
    summary.spliced = out.spliced;
    summary.resolved = out.resolved;
    summary.archive_faults = state
        .memo
        .memo_load_stats()
        .archive_faults
        .saturating_sub(faults_before);
    // May go negative under concurrent eviction by another request.
    summary.memo_bytes_delta = state.memo.bytes() as i64 - bytes_before as i64;
    if let Some(capture) = &state.capture {
        if capture.should_capture(&summary) {
            capture.capture(&summary);
        }
    }
    state.flight.push(summary);
    resp
}

fn deadline_from_ms(ms: u64) -> Deadline {
    if ms == 0 {
        Deadline::none()
    } else {
        Deadline::after(Duration::from_millis(ms))
    }
}

fn metrics_text(state: &State) -> String {
    let service = ServiceSection {
        in_flight: state.in_flight.get(),
        max_in_flight: state.max_in_flight,
        requests: state.requests.get(),
        shed: state.shed.get(),
        deadline_exceeded: state.deadline_exceeded.get(),
        requests_by: state.requests_by.snapshot(),
    };
    let stats = state.stats.lock().unwrap_or_else(PoisonError::into_inner);
    MetricsSnapshot::new(&state.obs, &stats, &state.memo, Some(service)).to_prometheus()
}
