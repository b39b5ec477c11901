//! The `serve-open` workload: an in-process `dda_serve::Server` on a
//! thread, driven over loopback HTTP by a load generator in the same
//! process with at most one connection per core.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dda_engine::{Engine, EngineConfig};
use dda_serve::{ServeConfig, Server, ServerHandle};

use crate::check;
use crate::corpus::{self, Corpus};
use crate::layers::{self, Calls};
use crate::report::{
    mean, ms_between, peak_rss_mb, quantile, ratio, Accum, Outcome, Spans, SETUP_REPEATS,
};
use crate::Opts;

/// The two open-loop rates, in requests per second.
const RATES: [f64; 2] = [100.0, 150.0];
/// Shares of the time budget: closed-loop capacity, then each rate.
const CAPACITY_SHARE: f64 = 0.2;
const RATE_SHARE: f64 = 0.4;

/// Workload sizes: the full sizes, or smoke sizes under `--quick`.
struct Sizes {
    perfect_scale: f64,
    bodies: usize,
    nests_per_body: usize,
    /// Under `--quick`: fixed request counts for the capacity phase and
    /// each rate instead of the time budget.
    quick_requests: Option<usize>,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                perfect_scale: 0.05,
                bodies: 16,
                nests_per_body: 10,
                quick_requests: Some(20),
            }
        } else {
            Sizes {
                perfect_scale: 1.0,
                bodies: 256,
                nests_per_body: 10,
                quick_requests: None,
            }
        }
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    body: usize,
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    send: Instant,
    done: Instant,
    /// HTTP status; 0 when the exchange failed.
    status: u16,
    digest: u64,
    /// The `X-DDA-Trace-Id` sent, if any.
    trace: Option<u64>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms_between(self.due, self.done)
    }

    fn late_ms(&self) -> f64 {
        ms_between(self.due, self.send)
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes each
/// connection after one response). Returns (status, body).
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    trace: Option<u64>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(id) = trace {
        req.push_str(&format!("X-DDA-Trace-Id: {id:016x}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .find("\r\n\r\n")
        .map_or(String::new(), |i| text[i + 4..].to_owned());
    Ok((status, body))
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<Result<(), String>>,
}

fn start_server() -> Result<Running, String> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running {
        addr,
        handle,
        thread,
    })
}

fn stop_server(server: Running) -> Result<(), String> {
    server.handle.shutdown();
    server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Each connection sends its next request when the previous one
    /// completes, until `n` requests or the deadline.
    Closed { n: usize, until: Option<Instant> },
    /// Request `k` is due at `k / rate` seconds after the start; `n`
    /// requests. `trace_tag` marks every second request with a trace id.
    Open {
        rate: f64,
        n: usize,
        trace_tag: Option<u64>,
    },
}

/// Sends `bodies[order[k % len]]` for k = 0, 1, … over `threads`
/// connections, paced by `pace`. Samples come back in completion order.
fn drive(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    threads: usize,
    pace: Pace,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let (due, trace) = match pace {
                        Pace::Closed { n, until } => {
                            if k >= n || until.is_some_and(|u| Instant::now() >= u) {
                                break;
                            }
                            (Instant::now(), None)
                        }
                        Pace::Open { rate, n, trace_tag } => {
                            if k >= n {
                                break;
                            }
                            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let trace = trace_tag
                                .filter(|_| k.is_multiple_of(2))
                                .map(|tag| tag << 48 | (k as u64 + 1));
                            (due, trace)
                        }
                    };
                    let body = order[k % order.len()];
                    let send = Instant::now();
                    let (status, digest) =
                        match exchange(addr, "POST", "/analyze", &bodies[body], trace) {
                            Ok((status, text)) => (status, check::verdict_digest(&text)),
                            Err(_) => (0, 0),
                        };
                    local.push(Sample {
                        body,
                        due,
                        send,
                        done: Instant::now(),
                        status,
                        digest,
                        trace,
                    });
                }
                samples
                    .lock()
                    .expect("no sampler panicked holding the lock")
                    .extend(local);
            });
        }
    });
    samples
        .into_inner()
        .expect("no sampler panicked holding the lock")
}

/// A seeded request order over `n` bodies, `len` long.
fn order(n: usize, len: usize, seed: u64, salt: u64) -> Vec<usize> {
    use rand::Rng;
    let mut rng = corpus::rng(seed, salt);
    (0..len).map(|_| rng.gen_range(0..n)).collect()
}

/// Server wall time per trace id from the flight recorder
/// (`GET /debug/requests`), in ms.
fn flight_walls(addr: SocketAddr) -> Result<HashMap<u64, f64>, String> {
    let (status, text) =
        exchange(addr, "GET", "/debug/requests", "", None).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("GET /debug/requests answered {status}"));
    }
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_owned())
    };
    Ok(text
        .lines()
        .filter_map(|line| {
            let trace = u64::from_str_radix(&field(line, "\"trace\":\"")?, 16).ok()?;
            let wall: f64 = field(line, "\"wall_nanos\":")?.parse().ok()?;
            Some((trace, wall / 1e6))
        })
        .collect())
}

/// What the measured phases recorded.
struct Phases {
    capacity: Vec<Sample>,
    capacity_rps: f64,
    /// One sample set per entry of [`RATES`].
    open: Vec<Vec<Sample>>,
    /// Server wall per trace id (traced runs only).
    walls: HashMap<u64, f64>,
}

/// The measured phases against a warm server: closed-loop capacity,
/// then the open loop at each rate, reading the flight recorder after
/// each rate when traced.
fn phases(
    addr: SocketAddr,
    bodies: &[String],
    sizes: &Sizes,
    threads: usize,
    opts: &Opts,
) -> Result<Phases, String> {
    let (cap_n, cap_until) = match sizes.quick_requests {
        Some(n) => (n, None),
        None => (
            usize::MAX,
            Some(Instant::now() + Duration::from_secs_f64(CAPACITY_SHARE * opts.seconds)),
        ),
    };
    let cap_order = order(bodies.len(), 4 * bodies.len(), opts.seed, 0xCA9);
    let cap_start = Instant::now();
    let capacity = drive(
        addr,
        bodies,
        &cap_order,
        threads,
        Pace::Closed {
            n: cap_n,
            until: cap_until,
        },
    );
    let cap_end = capacity.iter().map(|s| s.done).max().unwrap_or(cap_start);
    let capacity_rps = ratio(capacity.len() as f64, (cap_end - cap_start).as_secs_f64());

    let mut open = Vec::new();
    let mut walls = HashMap::new();
    for (i, rate) in RATES.into_iter().enumerate() {
        let n = sizes
            .quick_requests
            .unwrap_or((rate * RATE_SHARE * opts.seconds).round() as usize);
        let phase_order = order(bodies.len(), n.max(1), opts.seed, 0x0BE + i as u64);
        let samples = drive(
            addr,
            bodies,
            &phase_order,
            threads,
            Pace::Open {
                rate,
                n,
                trace_tag: opts.traced.then_some(i as u64 + 1),
            },
        );
        if opts.traced {
            walls.extend(flight_walls(addr)?);
        }
        open.push(samples);
    }
    Ok(Phases {
        capacity,
        capacity_rps,
        open,
        walls,
    })
}

/// Runs the `serve-open` workload.
///
/// # Errors
///
/// Set-up failures, which leave nothing to measure.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    // Created first: span times are offsets from its creation, and the
    // request spans are recorded after the fact from client timestamps.
    let mut spans = Spans::new(opts.traced);
    let sizes = Sizes::new(opts.quick);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let corpus = corpus::perfect(sizes.perfect_scale, opts.seed);
    let bodies = corpus::bodies(&corpus, sizes.bodies, sizes.nests_per_body, opts.seed);
    let warm_order: Vec<usize> = (0..bodies.len()).collect();

    // Set-up: bind, start, and send every body once.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            stop_server(s)?;
        }
        let start = Instant::now();
        let s = start_server()?;
        let warm = drive(
            s.addr,
            &bodies,
            &warm_order,
            threads,
            Pace::Closed {
                n: bodies.len(),
                until: None,
            },
        );
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(bad) = warm.iter().find(|x| x.status != 200) {
            stop_server(s)?;
            return Err(format!("warm-up request answered {}", bad.status));
        }
        server = Some(s);
    }
    let server = server.expect("at least one set-up ran");
    let measured = phases(server.addr, &bodies, &sizes, threads, opts);
    let rss = peak_rss_mb();
    let shed = server.handle.shed();
    stop_server(server)?;
    let Phases {
        capacity,
        capacity_rps,
        open,
        walls,
    } = measured?;

    let mut out = Outcome {
        attempted: (capacity.len() + open.iter().map(Vec::len).sum::<usize>()) as u64,
        ..Outcome::default()
    };
    verify(
        &bodies,
        capacity.iter().chain(open.iter().flatten()),
        &mut out,
    )?;

    let pooled: Vec<f64> = open.iter().flatten().map(Sample::latency_ms).collect();
    out.set("p50_ms", quantile(&pooled, 0.5));
    out.set("ops_per_s", capacity_rps);
    out.set("setup_s", quantile(&setup_s, 0.5));
    out.set("peak_rss_mb", rss);
    out.extra
        .push(("samples".into(), pooled.len() as f64, "count"));
    out.extra
        .push(("p99_ms".into(), quantile(&pooled, 0.99), "ms"));
    out.extra
        .push(("capacity_requests".into(), capacity.len() as f64, "count"));
    if opts.traced {
        let lat =
            |s: &[Sample], q| quantile(&s.iter().map(Sample::latency_ms).collect::<Vec<_>>(), q);
        let late =
            |s: &[Sample], q| quantile(&s.iter().map(Sample::late_ms).collect::<Vec<_>>(), q);
        out.set("serve.lat_ms_p50.r100", lat(&open[0], 0.5));
        out.set("serve.lat_ms_p50.r150", lat(&open[1], 0.5));
        out.set("serve.lat_ms_p99.r100", lat(&open[0], 0.99));
        out.set("serve.lat_ms_p99.r150", lat(&open[1], 0.99));
        out.set("serve.gen_late_ms_p99.r100", late(&open[0], 0.99));
        out.set("serve.gen_late_ms_p99.r150", late(&open[1], 0.99));
        out.set("serve.capacity_rps", capacity_rps);
        out.set("serve.shed", shed as f64);
        traced_layers(&mut out, &bodies, &open, &walls, &mut spans)?;
        if let Some(path) = &opts.spans {
            spans
                .write_jsonl(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(out)
}

/// Every response must be a 200 whose verdict digest equals the same
/// body analyzed in-process on a cold single-worker engine, and the
/// in-process reports must pass the certificate kernel.
fn verify<'a>(
    bodies: &[String],
    samples: impl Iterator<Item = &'a Sample>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut want = Vec::with_capacity(bodies.len());
    let off = &mut Spans::new(false);
    for (i, body) in bodies.iter().enumerate() {
        let c = one_program(body);
        let mut engine = Engine::with_config(check::reference_config());
        let root = off.open("reference", None, "request", i as u64);
        let analyzed = layers::pipeline(
            &mut engine,
            &c,
            off,
            (root, "request", 0),
            &mut Calls::default(),
        )?;
        want.push(check::verdict_digest(&analyzed.output));
        for e in check::certificates(&c.labels, &analyzed.programs, &analyzed.reports) {
            out.fail(format!("body {i}: {e}"), out.attempted);
        }
    }
    let (mut refused, mut wrong) = (0u64, 0u64);
    for s in samples {
        if s.status != 200 {
            refused += 1;
        } else if s.digest != want[s.body] {
            wrong += 1;
        }
    }
    if refused > 0 {
        out.fail(
            format!("{refused} request(s) failed or were refused"),
            refused,
        );
    }
    if wrong > 0 {
        out.fail(
            format!("{wrong} response(s) differ from the in-process verdicts"),
            wrong,
        );
    }
    Ok(())
}

/// A request body as the one-program corpus `/analyze` sees (label `-`).
fn one_program(body: &str) -> Corpus {
    Corpus {
        labels: vec!["-".into()],
        sources: vec![body.to_owned()],
    }
}

/// The traced run's per-layer split. The client side comes from the
/// open-loop samples joined to the flight recorder's server wall by
/// trace id; the server side from an in-process replay of each body on
/// a warm engine, as the server runs it after warm-up.
fn traced_layers(
    out: &mut Outcome,
    bodies: &[String],
    open: &[Vec<Sample>],
    walls: &HashMap<u64, f64>,
    spans: &mut Spans,
) -> Result<(), String> {
    let joined: Vec<(&Sample, f64)> = open
        .iter()
        .flatten()
        .filter_map(|s| Some((s, *walls.get(&s.trace?)?)))
        .collect();
    for (s, server_ms) in &joined {
        let id = s.trace.unwrap_or(0);
        let root = spans.record("request", None, ("request", id), (s.due, s.done));
        spans.record("gen.late", Some(root), ("request", id), (s.due, s.send));
        let http = spans.record("http", Some(root), ("request", id), (s.send, s.done));
        // The server reports a duration, not a start: place it against
        // the end of the exchange.
        let server_end = s.done;
        let server_start = server_end
            .checked_sub(Duration::from_secs_f64(server_ms / 1e3))
            .unwrap_or(s.send);
        spans.record(
            "server",
            Some(http),
            ("request", id),
            (server_start, server_end),
        );
    }
    let server: Vec<f64> = joined.iter().map(|&(_, w)| w).collect();
    let outside: Vec<f64> = joined
        .iter()
        .map(|&(s, w)| ms_between(s.send, s.done) - w)
        .collect();
    let late: Vec<f64> = joined.iter().map(|&(s, _)| s.late_ms()).collect();
    let wall: Vec<f64> = joined.iter().map(|&(s, _)| s.latency_ms()).collect();
    out.set("serve.server_ms_p50", quantile(&server, 0.5));
    out.set("serve.outside_engine_ms_p50", quantile(&outside, 0.5));
    out.set("serve.outside_engine_ms", mean(&outside));
    out.set("serve.gen_late_ms", mean(&late));

    // Replay: warm the engine with every body once, then time each body.
    let mut engine = Engine::with_config(EngineConfig::default());
    let off = &mut Spans::new(false);
    let corpora: Vec<Corpus> = bodies.iter().map(|b| one_program(b)).collect();
    for c in &corpora {
        let root = off.open("warm", None, "replay", 0);
        layers::pipeline(
            &mut engine,
            c,
            off,
            (root, "replay", 0),
            &mut Calls::default(),
        )?;
    }
    let mut times = Accum::default();
    let mut counts = Accum::default();
    for (i, c) in corpora.iter().enumerate() {
        let before = layers::engine_sample(&engine);
        let root = spans.open("replay", None, "replay", i as u64);
        let mut calls = Calls::default();
        let analyzed = layers::pipeline(
            &mut engine,
            c,
            spans,
            (root, "replay", i as u64),
            &mut calls,
        )?;
        spans.close(root);
        let (extract_ms, _) =
            layers::replay_extract(&analyzed.programs, spans, ("replay", i as u64));
        let sample = layers::op_sample(
            layers::delta(&before, &layers::engine_sample(&engine)),
            &calls,
            extract_ms,
            analyzed.output.len(),
        );
        times.add(&sample);
        counts.add(&sample);
    }
    let mean_wall = mean(&wall);
    layers::set_layer_metrics(out, &times, &counts, mean_wall);
    let replayed = times.mean("ir.parse_ms")
        + times.mean("ir.normalize_ms")
        + times.mean("engine.analyze_ms")
        + times.mean("render.ms");
    let covered = mean(&late) + mean(&outside) + replayed;
    out.set("budget.wall_ms", mean_wall);
    out.set("budget.covered_pct", 100.0 * ratio(covered, mean_wall));
    out.set("budget.unaccounted_ms", mean_wall - covered);
    let traced: Vec<f64> = open
        .iter()
        .flatten()
        .filter(|s| s.trace.is_some())
        .map(Sample::latency_ms)
        .collect();
    let untraced: Vec<f64> = open
        .iter()
        .flatten()
        .filter(|s| s.trace.is_none())
        .map(Sample::latency_ms)
        .collect();
    let base = quantile(&untraced, 0.5);
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(quantile(&traced, 0.5) - base, base),
    );
    out.set("trace.ops", joined.len() as f64);
    Ok(())
}
