//! Always-on observability for the dependence analyzer.
//!
//! The paper's central empirical claim (§6) is that cascaded exact
//! tests are *cheap in practice*; this crate provides the measurement
//! layer that defends it. Three pieces:
//!
//! 1. **Metrics** ([`Counter`], [`Histogram`], [`MetricsRegistry`]) —
//!    lock-free atomics, log2-bucketed latency histograms with
//!    p50/p90/p99 summaries, no allocation on the hot path (pinned by
//!    `tests/alloc.rs` with a counting global allocator).
//! 2. **Probes and spans** ([`MetricsProbe`], [`SpanRecorder`]) — both
//!    implement [`dda_core::pipeline::Probe`]; the former feeds the
//!    registry, the latter rebuilds the analyze → pair → stage
//!    hierarchy with monotonic sequence numbers and renders JSONL or
//!    flamegraph folded stacks.
//! 3. **Snapshots** ([`MetricsSnapshot`]) — a view over the registry,
//!    the authoritative `AnalysisStats` and the memo's own counters,
//!    rendered as Prometheus text exposition or JSON; [`prom`] parses
//!    and validates the exposition for tests and CI.
//! 4. **Request-scoped tracing and the flight recorder**
//!    ([`TraceContext`], [`FlightRecorder`], [`CaptureStore`]) — a
//!    64-bit trace id plus a request-local registry delta threaded
//!    from the service through the engine's waves into the probes, a
//!    lock-free ring of completed-request summaries, and bounded
//!    on-disk slow-request captures (span JSONL + folded flamegraph).
//!
//! Determinism is a hard invariant: nothing here feeds back into
//! analysis results, metrics stay outside the bit-compared
//! `AnalysisStats`, and span/trace output carries **no wall-clock
//! timestamps** — only the per-phase durations the trace events
//! already measure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod metrics;
pub mod probe;
pub mod prom;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use flight::{CaptureStore, FlightRecorder, RequestOutcome, RequestSummary};
pub use metrics::{Counter, Gauge, Histogram, LatencySummary, HISTOGRAM_BUCKETS};
pub use probe::MetricsProbe;
pub use registry::{
    MemoTableKind, MetricsRegistry, StageTimings, WaveReport, WorkerWork, GRAPH_EDGE_LABELS,
};
pub use snapshot::{memo_load_json, memo_tables_json, MetricsSnapshot, ServiceSection};
pub use span::{Span, SpanRecorder};
pub use trace::{TraceContext, TraceId, TraceIdGen};
