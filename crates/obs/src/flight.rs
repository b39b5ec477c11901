//! The flight recorder: a fixed-capacity ring of completed-request
//! summaries plus automatic slow-request capture to disk.
//!
//! Two invariants shape everything here:
//!
//! 1. **The analysis path is never blocked and never fails.** The ring
//!    push is one atomic `fetch_add` plus a slot `try_lock` — if a
//!    reader happens to hold the slot, the summary is counted as
//!    dropped rather than waited for. Capture-file writes happen after
//!    the response is already computed, and any I/O failure degrades to
//!    a metered counter ([`CaptureStore::errors`]), never an error on
//!    the request.
//! 2. **Bounded everything.** The ring holds a fixed number of
//!    summaries; the capture directory holds at most
//!    its configured `max_captures` captures, oldest evicted first.
//!
//! Summaries are built from a request's [`TraceContext`] delta (plus
//! figures the service measures around the engine call), so the span
//! tree a capture renders is derived entirely from telemetry already
//! recorded on the allocation-free hot path — capturing a
//! deadline-exceeded request costs no re-analysis.
//!
//! [`TraceContext`]: crate::TraceContext

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Counter;
use crate::registry::STAGE_LABELS;
use crate::MetricsRegistry;
use dda_core::json::json_escape;
use dda_core::pipeline::TraceId;
use dda_core::TestKind;

/// How a recorded request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Answered normally.
    Ok,
    /// Deadline expired; answered with sound conservative partials.
    DeadlineExceeded,
    /// Answered with an error status (bad input, failed check, ...).
    Error,
}

impl RequestOutcome {
    /// The stable label used in metrics and JSONL (`ok`, `deadline`,
    /// `error`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::DeadlineExceeded => "deadline",
            RequestOutcome::Error => "error",
        }
    }
}

/// One completed request, as remembered by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSummary {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// Endpoint label (`/analyze`, `/batch`, `/parallel`, ...).
    pub endpoint: &'static str,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// HTTP status answered.
    pub status: u16,
    /// End-to-end wall time, nanoseconds.
    pub wall_nanos: u64,
    /// Programs in the request.
    pub programs: u64,
    /// Reference pairs analyzed.
    pub pairs: u64,
    /// Pairs spliced from warm memo entries.
    pub spliced: u64,
    /// Pairs actually re-solved.
    pub resolved: u64,
    /// Cascade calls per stage, indexed like
    /// [`STAGE_LABELS`].
    pub stage_calls: [u64; 4],
    /// Cascade nanoseconds per stage, same indexing.
    pub stage_nanos: [u64; 4],
    /// Non-cached GCD solves.
    pub gcd_calls: u64,
    /// Nanoseconds in non-cached GCD solves.
    pub gcd_nanos: u64,
    /// GCD results served from the memo.
    pub gcd_cache_hits: u64,
    /// Direction-vector refinements run.
    pub refinement_calls: u64,
    /// Nanoseconds in refinements.
    pub refinement_nanos: u64,
    /// Records faulted out of the v3 memo archive by this request.
    pub archive_faults: u64,
    /// Resident memo-byte growth over the request (may be negative
    /// under concurrent eviction).
    pub memo_bytes_delta: i64,
}

impl RequestSummary {
    /// Fills the telemetry columns (stage/GCD/refinement) from a
    /// request-local registry delta, leaving the service-level columns
    /// as the caller set them.
    #[must_use]
    pub fn with_local(mut self, local: &MetricsRegistry) -> RequestSummary {
        for &t in &TestKind::ALL {
            let s = local.stage_latency(t);
            self.stage_calls[t.index()] = s.count;
            self.stage_nanos[t.index()] = s.sum;
        }
        let gcd = local.gcd_latency();
        self.gcd_calls = gcd.count;
        self.gcd_nanos = gcd.sum;
        self.gcd_cache_hits = local.gcd_cache_hits();
        let refine = local.refinement_latency();
        self.refinement_calls = refine.count;
        self.refinement_nanos = refine.sum;
        self
    }

    /// A blank summary for `trace_id` on `endpoint` (everything else
    /// zero / `Ok`).
    #[must_use]
    pub fn blank(trace_id: TraceId, endpoint: &'static str) -> RequestSummary {
        RequestSummary {
            trace_id,
            endpoint,
            outcome: RequestOutcome::Ok,
            status: 200,
            wall_nanos: 0,
            programs: 0,
            pairs: 0,
            spliced: 0,
            resolved: 0,
            stage_calls: [0; 4],
            stage_nanos: [0; 4],
            gcd_calls: 0,
            gcd_nanos: 0,
            gcd_cache_hits: 0,
            refinement_calls: 0,
            refinement_nanos: 0,
            archive_faults: 0,
            memo_bytes_delta: 0,
        }
    }

    /// Renders the summary as one JSON object (no trailing newline).
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace\":\"{}\",\"endpoint\":\"{}\",\"outcome\":\"{}\",\"status\":{},\
             \"wall_nanos\":{},\"programs\":{},\"pairs\":{},\"spliced\":{},\"resolved\":{},",
            self.trace_id,
            json_escape(self.endpoint),
            self.outcome.label(),
            self.status,
            self.wall_nanos,
            self.programs,
            self.pairs,
            self.spliced,
            self.resolved,
        );
        out.push_str("\"stages\":{");
        for (i, label) in STAGE_LABELS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{label}\":{{\"calls\":{},\"nanos\":{}}}",
                self.stage_calls[i], self.stage_nanos[i]
            );
        }
        let _ = write!(
            out,
            "}},\"gcd\":{{\"calls\":{},\"nanos\":{},\"cache_hits\":{}}},\
             \"refinement\":{{\"calls\":{},\"nanos\":{}}},\
             \"archive_faults\":{},\"memo_bytes_delta\":{}}}",
            self.gcd_calls,
            self.gcd_nanos,
            self.gcd_cache_hits,
            self.refinement_calls,
            self.refinement_nanos,
            self.archive_faults,
            self.memo_bytes_delta,
        );
        out
    }

    /// Renders the request's span tree as JSONL: a `request:<endpoint>`
    /// root plus one child per timed phase that actually ran, every
    /// line stamped with the trace id. Same field shape as
    /// [`SpanRecorder::to_jsonl`](crate::SpanRecorder::to_jsonl) plus
    /// `calls`.
    #[must_use]
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"trace\":\"{}\",\"seq\":0,\"parent\":null,\"depth\":0,\
             \"name\":\"request:{}\",\"nanos\":{},\"calls\":1}}",
            self.trace_id,
            json_escape(self.endpoint),
            self.wall_nanos
        );
        let mut seq = 0u64;
        for (name, calls, nanos) in self.phase_rows() {
            seq += 1;
            let _ = writeln!(
                out,
                "{{\"trace\":\"{}\",\"seq\":{seq},\"parent\":0,\"depth\":1,\
                 \"name\":\"{name}\",\"nanos\":{nanos},\"calls\":{calls}}}",
                self.trace_id
            );
        }
        out
    }

    /// Renders the span tree as flamegraph folded stacks. The root
    /// line carries the wall time not attributed to any timed phase.
    #[must_use]
    pub fn spans_folded(&self) -> String {
        let root = format!("request:{}", self.endpoint);
        let mut out = String::new();
        let mut attributed = 0u64;
        for (name, _, nanos) in self.phase_rows() {
            attributed = attributed.saturating_add(nanos);
            let _ = writeln!(out, "{root};{name} {nanos}");
        }
        let _ = writeln!(out, "{root} {}", self.wall_nanos.saturating_sub(attributed));
        out
    }

    /// The timed phases that actually ran: (name, calls, nanos).
    fn phase_rows(&self) -> Vec<(String, u64, u64)> {
        let mut rows = Vec::new();
        if self.gcd_calls > 0 {
            rows.push(("gcd".to_string(), self.gcd_calls, self.gcd_nanos));
        }
        for (i, label) in STAGE_LABELS.iter().enumerate() {
            if self.stage_calls[i] > 0 {
                rows.push((
                    format!("stage:{label}"),
                    self.stage_calls[i],
                    self.stage_nanos[i],
                ));
            }
        }
        if self.refinement_calls > 0 {
            rows.push((
                "refinement".to_string(),
                self.refinement_calls,
                self.refinement_nanos,
            ));
        }
        rows
    }
}

/// A fixed-capacity ring of the most recent completed-request
/// summaries.
///
/// Writers claim a slot with one atomic `fetch_add` and fill it under a
/// `try_lock` — a contended slot (a reader mid-snapshot) increments
/// [`dropped`](FlightRecorder::dropped) instead of blocking, so
/// recording can never stall a request worker. Readers snapshot by
/// locking slots one at a time; summaries come back oldest-first.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, RequestSummary)>>>,
    next: AtomicU64,
    dropped: Counter,
}

impl FlightRecorder {
    /// Creates a recorder remembering the last `capacity` requests
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            dropped: Counter::new(),
        }
    }

    /// Slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Requests recorded (including any later overwritten or dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Summaries dropped because their slot was contended at push time.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Records one completed request. Never blocks: a contended slot
    /// counts as dropped.
    pub fn push(&self, summary: RequestSummary) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => *guard = Some((seq, summary)),
            Err(_) => self.dropped.inc(),
        }
    }

    /// The remembered summaries, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RequestSummary> {
        let mut entries: Vec<(u64, RequestSummary)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().ok().and_then(|guard| guard.clone()))
            .collect();
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, s)| s).collect()
    }

    /// The ring as JSONL, oldest first.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push_str(&s.json_line());
            out.push('\n');
        }
        out
    }
}

/// Writes slow-request captures (`spans-<traceid>.jsonl` + folded
/// flamegraph) into a bounded directory.
#[derive(Debug)]
pub struct CaptureStore {
    dir: PathBuf,
    slow_nanos: u64,
    max_captures: usize,
    /// Trace ids in write order, for oldest-first eviction. Locked only
    /// on the capture path (slow requests) and the debug read path —
    /// never on the analysis path.
    written: Mutex<VecDeque<u64>>,
    captured: Counter,
    errors: Counter,
}

impl CaptureStore {
    /// Creates a store writing into `dir`, capturing requests slower
    /// than `slow_ms` milliseconds (0 disables the latency trigger —
    /// deadline-exceeded requests are always captured) and keeping at
    /// most `max_captures` captures (clamped to at least 1). The
    /// directory is created lazily on first capture.
    #[must_use]
    pub fn new(dir: PathBuf, slow_ms: u64, max_captures: usize) -> CaptureStore {
        CaptureStore {
            dir,
            slow_nanos: slow_ms.saturating_mul(1_000_000),
            max_captures: max_captures.max(1),
            written: Mutex::new(VecDeque::new()),
            captured: Counter::new(),
            errors: Counter::new(),
        }
    }

    /// The capture directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this request warrants a capture: it hit its deadline, or
    /// the latency trigger is enabled and its wall time reached it.
    #[must_use]
    pub fn should_capture(&self, summary: &RequestSummary) -> bool {
        summary.outcome == RequestOutcome::DeadlineExceeded
            || (self.slow_nanos > 0 && summary.wall_nanos >= self.slow_nanos)
    }

    /// Captures written successfully so far.
    #[must_use]
    pub fn captured(&self) -> u64 {
        self.captured.get()
    }

    /// Capture writes that failed (the metered degradation — a full
    /// disk or bad directory never turns into a request error).
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    fn jsonl_path(&self, id: TraceId) -> PathBuf {
        self.dir.join(format!("spans-{id}.jsonl"))
    }

    fn folded_path(&self, id: TraceId) -> PathBuf {
        self.dir.join(format!("spans-{id}.folded"))
    }

    /// Writes the capture for `summary`, evicting the oldest capture(s)
    /// beyond the bound. Best-effort by design: every failure path
    /// increments [`errors`](Self::errors) and returns.
    pub fn capture(&self, summary: &RequestSummary) {
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(self.jsonl_path(summary.trace_id), summary.spans_jsonl())?;
            std::fs::write(self.folded_path(summary.trace_id), summary.spans_folded())?;
            Ok(())
        };
        if write().is_err() {
            self.errors.inc();
            return;
        }
        self.captured.inc();
        let evict: Vec<u64> = {
            let mut written = match self.written.lock() {
                Ok(w) => w,
                Err(_) => {
                    return;
                }
            };
            written.push_back(summary.trace_id.0);
            let excess = written.len().saturating_sub(self.max_captures);
            written.drain(..excess).collect()
        };
        for old in evict {
            let _ = std::fs::remove_file(self.jsonl_path(TraceId(old)));
            let _ = std::fs::remove_file(self.folded_path(TraceId(old)));
        }
    }

    /// Reads one capture's span JSONL back, if present on disk.
    #[must_use]
    pub fn read(&self, id: TraceId) -> Option<String> {
        std::fs::read_to_string(self.jsonl_path(id)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(id: u64, wall_ms: u64) -> RequestSummary {
        let mut s = RequestSummary::blank(TraceId(id), "/analyze");
        s.wall_nanos = wall_ms * 1_000_000;
        s.pairs = 3;
        s.resolved = 3;
        s.stage_calls[0] = 2;
        s.stage_nanos[0] = 500;
        s.gcd_calls = 3;
        s.gcd_nanos = 900;
        s
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_summaries_in_order() {
        let ring = FlightRecorder::with_capacity(3);
        for i in 1..=5u64 {
            ring.push(summary(i, i));
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|s| s.trace_id.0).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"trace\":\"0000000000000004\""));
    }

    #[test]
    fn summary_json_line_has_the_documented_fields() {
        let line = summary(0xab, 2).json_line();
        for needle in [
            "\"trace\":\"00000000000000ab\"",
            "\"endpoint\":\"/analyze\"",
            "\"outcome\":\"ok\"",
            "\"wall_nanos\":2000000",
            "\"pairs\":3",
            "\"spliced\":0",
            "\"resolved\":3",
            "\"svpc\":{\"calls\":2,\"nanos\":500}",
            "\"gcd\":{\"calls\":3,\"nanos\":900,\"cache_hits\":0}",
            "\"archive_faults\":0",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn span_tree_attributes_phases_under_the_request_root() {
        let s = summary(7, 1);
        let jsonl = s.spans_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"name\":\"request:/analyze\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines.iter().any(|l| l.contains("\"name\":\"gcd\"")));
        assert!(lines.iter().any(|l| l.contains("\"name\":\"stage:svpc\"")));
        assert!(lines.iter().all(|l| l.contains("\"trace\":\"")));
        let folded = s.spans_folded();
        assert!(folded.contains("request:/analyze;gcd 900"));
        assert!(folded.contains("request:/analyze;stage:svpc 500"));
    }

    #[test]
    fn capture_store_bounds_the_directory_and_serves_reads() {
        let dir = std::env::temp_dir().join(format!("dda-capture-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CaptureStore::new(dir.clone(), 0, 2);
        for i in 1..=3u64 {
            let mut s = summary(i, 1);
            s.outcome = RequestOutcome::DeadlineExceeded;
            assert!(store.should_capture(&s), "deadline always captures");
            store.capture(&s);
        }
        assert_eq!(store.captured(), 3);
        assert_eq!(store.errors(), 0);
        // Oldest capture evicted; the two newest readable.
        assert!(store.read(TraceId(1)).is_none());
        for i in 2..=3u64 {
            let body = store.read(TraceId(i)).expect("capture readable");
            assert!(body.contains(&format!("\"trace\":\"{}\"", TraceId(i))));
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 4, "2 captures x (jsonl + folded)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latency_trigger_respects_the_threshold() {
        let store = CaptureStore::new(PathBuf::from("/nonexistent"), 10, 4);
        assert!(!store.should_capture(&summary(1, 9)));
        assert!(store.should_capture(&summary(1, 10)));
        let disabled = CaptureStore::new(PathBuf::from("/nonexistent"), 0, 4);
        assert!(!disabled.should_capture(&summary(1, u64::MAX / 2_000_000)));
    }

    #[test]
    fn capture_write_failure_degrades_to_a_counter() {
        // Point the store at a path that cannot be a directory (a
        // file), so create_dir_all fails.
        let blocker = std::env::temp_dir().join(format!("dda-capture-blk-{}", std::process::id()));
        std::fs::write(&blocker, b"x").unwrap();
        let store = CaptureStore::new(blocker.clone(), 0, 2);
        let mut s = summary(9, 1);
        s.outcome = RequestOutcome::DeadlineExceeded;
        store.capture(&s);
        assert_eq!(store.captured(), 0);
        assert_eq!(store.errors(), 1, "failure is metered, not raised");
        assert!(store.read(TraceId(9)).is_none());
        let _ = std::fs::remove_file(&blocker);
    }
}
