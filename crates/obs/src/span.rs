//! Hierarchical span recording: analyze → pair → stage.
//!
//! The recorder is itself a [`Probe`]: it rebuilds the analysis
//! hierarchy from the trace-event stream and assigns every span a
//! monotonic sequence number. Durations come exclusively from the
//! per-phase `nanos` the events already carry — there are **no
//! wall-clock timestamps anywhere**, by design: two runs over the same
//! input produce structurally identical profiles (same spans, same
//! seqs, same nesting), differing only in measured durations.
//!
//! Output comes in two shapes: one JSON object per span
//! ([`SpanRecorder::to_jsonl`]) and the folded-stack format consumed by
//! `flamegraph.pl` / speedscope ([`SpanRecorder::to_folded`]).

use dda_core::json::json_escape;
use dda_core::pipeline::{Probe, TraceEvent, TraceId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Monotonic sequence number, assigned when the span opens.
    pub seq: u64,
    /// Sequence number of the parent span, if any.
    pub parent: Option<u64>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Span name, e.g. `analyze:foo.loop`, `pair:a#0-1`, `stage:svpc`.
    pub name: String,
    /// Duration in nanoseconds. Leaves carry the event's measured
    /// duration; containers carry the sum of their children.
    pub nanos: u64,
}

#[derive(Debug)]
struct Node {
    span: Span,
    has_children: bool,
}

/// Rebuilds the analyze → pair → stage hierarchy from trace events.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    nodes: Vec<Node>,
    /// Indices into `nodes` of the currently open spans, root first.
    stack: Vec<usize>,
    next_seq: u64,
    trace: Option<TraceId>,
    /// Root labels of the programs of a run, by index (see
    /// [`for_programs`](Self::for_programs)).
    programs: Vec<String>,
}

impl SpanRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder whose output is stamped with a
    /// request trace id: every [`to_jsonl`](Self::to_jsonl) line gains
    /// a `"trace"` field, so captured profiles correlate with service
    /// logs and the flight recorder.
    pub fn with_trace(trace: TraceId) -> Self {
        SpanRecorder {
            trace: Some(trace),
            ..Self::default()
        }
    }

    /// Creates an empty recorder that opens a program root named
    /// `analyze:<labels[i]>` when the analysis driver enters program `i`
    /// of a run (see [`Probe::enter_program`]). A plain recorder leaves
    /// that to [`begin_program`](Self::begin_program).
    pub fn for_programs(labels: &[String]) -> Self {
        SpanRecorder {
            programs: labels.to_vec(),
            ..Self::default()
        }
    }

    fn open(&mut self, name: String) -> usize {
        let parent = self.stack.last().copied();
        if let Some(p) = parent {
            self.nodes[p].has_children = true;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.nodes.len();
        self.nodes.push(Node {
            span: Span {
                seq,
                parent: parent.map(|p| self.nodes[p].span.seq),
                depth: self.stack.len(),
                name,
                nanos: 0,
            },
            has_children: false,
        });
        self.stack.push(idx);
        idx
    }

    /// Adds a leaf child under the current top of stack.
    fn leaf(&mut self, name: String, nanos: u64) {
        let idx = self.open(name);
        self.nodes[idx].span.nanos = nanos;
        self.stack.pop();
        // Containers accumulate the sum of their children.
        for &anc in &self.stack {
            self.nodes[anc].span.nanos += nanos;
        }
    }

    /// Pops open spans until the stack is `depth` deep.
    fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.stack.pop();
        }
    }

    /// Opens a new program root span named `analyze:<label>`, closing
    /// anything still open from a previous program.
    pub fn begin_program(&mut self, label: &str) {
        self.close_to(0);
        self.open(format!("analyze:{label}"));
    }

    fn ensure_root(&mut self) {
        if self.stack.is_empty() {
            self.open("analyze".to_string());
        }
    }

    /// Closes all open spans. Call once the event stream is done.
    pub fn finish(&mut self) {
        self.close_to(0);
    }

    /// All spans recorded so far, in sequence order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.nodes.iter().map(|n| &n.span)
    }

    /// Renders one JSON object per span, in sequence order.
    ///
    /// Fields: `seq`, `parent` (null for roots), `depth`, `name`,
    /// `nanos`, plus `trace` when the recorder carries a trace id. No
    /// timestamps, by design (see module docs).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let trace = self
            .trace
            .map_or(String::new(), |t| format!("\"trace\":\"{t}\","));
        for node in &self.nodes {
            let s = &node.span;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{{trace}\"seq\":{},\"parent\":{parent},\"depth\":{},\"name\":\"{}\",\"nanos\":{}}}",
                s.seq,
                s.depth,
                json_escape(&s.name),
                s.nanos
            );
        }
        out
    }

    /// Renders flamegraph-compatible folded stacks: one
    /// `root;child;leaf <nanos>` line per distinct leaf stack,
    /// aggregated and sorted for determinism.
    pub fn to_folded(&self) -> String {
        // seq -> index, to walk parent chains.
        let by_seq: BTreeMap<u64, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.span.seq, i))
            .collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for node in self.nodes.iter().filter(|n| !n.has_children) {
            let mut frames = vec![node.span.name.as_str()];
            let mut cur = node.span.parent;
            while let Some(pseq) = cur {
                let pnode = &self.nodes[by_seq[&pseq]];
                frames.push(pnode.span.name.as_str());
                cur = pnode.span.parent;
            }
            frames.reverse();
            *folded.entry(frames.join(";")).or_insert(0) += node.span.nanos;
        }
        let mut out = String::new();
        for (stack, nanos) in folded {
            let _ = writeln!(out, "{stack} {nanos}");
        }
        out
    }
}

impl Probe for SpanRecorder {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PairStarted {
                array,
                a_access,
                b_access,
                ..
            } => {
                self.ensure_root();
                // A pair can only nest directly under the program root.
                self.close_to(1);
                self.open(format!("pair:{array}#{a_access}-{b_access}"));
            }
            TraceEvent::Gcd { nanos, .. } => {
                self.ensure_root();
                self.leaf("gcd".to_string(), nanos);
            }
            TraceEvent::Stage { test, nanos, .. } => {
                self.ensure_root();
                self.leaf(format!("stage:{}", test.token()), nanos);
            }
            TraceEvent::RefinementStarted => {
                self.ensure_root();
                self.open("refinement".to_string());
            }
            TraceEvent::Directions { nanos, .. } => {
                // Close the refinement container (if one is open) and
                // book the portion of the refinement wall time not
                // already attributed to its cascade stages.
                if let Some(&top) = self.stack.last() {
                    if self.nodes[top].span.name == "refinement" {
                        let attributed = self.nodes[top].span.nanos;
                        let overhead = nanos.saturating_sub(attributed);
                        if overhead > 0 || !self.nodes[top].has_children {
                            self.leaf("directions".to_string(), overhead);
                        }
                        self.stack.pop();
                    }
                }
            }
            TraceEvent::PairFinished { .. } => {
                // Close everything down to the pair, then the pair.
                self.close_to(2);
                self.close_to(1);
            }
            _ => {}
        }
    }

    fn enter_program(&mut self, index: usize) {
        if let Some(label) = self.programs.get(index).cloned() {
            self.begin_program(&label);
        }
    }

    fn trace(&self) -> Option<TraceId> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::pipeline::{GcdVerdict, StageVerdict};
    use dda_core::result::{Answer, DependenceResult, DistanceVector, ResolvedBy};
    use dda_core::TestKind;

    #[test]
    fn trace_id_is_stamped_on_every_jsonl_line() {
        let mut rec = SpanRecorder::with_trace(TraceId(0xfeed));
        rec.begin_program("p");
        feed_pair(&mut rec);
        rec.finish();
        assert_eq!(rec.trace(), Some(TraceId(0xfeed)));
        let jsonl = rec.to_jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                line.starts_with("{\"trace\":\"000000000000feed\","),
                "line missing trace stamp: {line}"
            );
        }
        // An untraced recorder's output is unchanged: no trace field.
        let mut bare = SpanRecorder::new();
        bare.begin_program("p");
        feed_pair(&mut bare);
        bare.finish();
        assert!(!bare.to_jsonl().contains("\"trace\""));
    }

    fn feed_pair(rec: &mut SpanRecorder) {
        rec.record(TraceEvent::PairStarted {
            array: "a".into(),
            a_access: 0,
            b_access: 1,
            common: 1,
        });
        rec.record(TraceEvent::Gcd {
            verdict: GcdVerdict::Lattice,
            cached: false,
            nanos: 100,
        });
        rec.record(TraceEvent::Stage {
            test: TestKind::Svpc,
            verdict: StageVerdict::Dependent,
            nanos: 200,
        });
        rec.record(TraceEvent::RefinementStarted);
        rec.record(TraceEvent::Stage {
            test: TestKind::Svpc,
            verdict: StageVerdict::Independent,
            nanos: 40,
        });
        rec.record(TraceEvent::Directions {
            vectors: Vec::new(),
            distance: DistanceVector::default(),
            tests: 1,
            exact: true,
            nanos: 65,
        });
        rec.record(TraceEvent::PairFinished {
            result: DependenceResult {
                answer: Answer::Independent,
                resolved_by: ResolvedBy::Gcd,
            },
            from_cache: false,
        });
    }

    #[test]
    fn spans_nest_and_sum() {
        let mut rec = SpanRecorder::new();
        rec.begin_program("t.loop");
        feed_pair(&mut rec);
        rec.finish();
        let spans: Vec<_> = rec.spans().cloned().collect();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "analyze:t.loop",
                "pair:a#0-1",
                "gcd",
                "stage:svpc",
                "refinement",
                "stage:svpc",
                "directions",
            ]
        );
        // Seqs are monotonic from zero.
        assert_eq!(
            spans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
        // Refinement = 40 (stage) + 25 (directions overhead) = 65.
        assert_eq!(spans[4].nanos, 65);
        // Pair = 100 + 200 + 65; root matches the pair.
        assert_eq!(spans[1].nanos, 365);
        assert_eq!(spans[0].nanos, 365);
        // Parent links by seq.
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[5].parent, Some(4));
    }

    #[test]
    fn folded_output_aggregates_leaf_stacks() {
        let mut rec = SpanRecorder::new();
        rec.begin_program("t.loop");
        feed_pair(&mut rec);
        feed_pair(&mut rec);
        rec.finish();
        let folded = rec.to_folded();
        let expected = "\
analyze:t.loop;pair:a#0-1;gcd 200
analyze:t.loop;pair:a#0-1;refinement;directions 50
analyze:t.loop;pair:a#0-1;refinement;stage:svpc 80
analyze:t.loop;pair:a#0-1;stage:svpc 400
";
        assert_eq!(folded, expected);
    }

    #[test]
    fn jsonl_has_no_timestamps_and_carries_seq() {
        let mut rec = SpanRecorder::new();
        rec.begin_program("t.loop");
        feed_pair(&mut rec);
        rec.finish();
        let jsonl = rec.to_jsonl();
        let first = jsonl.lines().next().unwrap();
        assert_eq!(
            first,
            "{\"seq\":0,\"parent\":null,\"depth\":0,\"name\":\"analyze:t.loop\",\"nanos\":365}"
        );
        for line in jsonl.lines() {
            assert!(line.contains("\"seq\":"));
            assert!(!line.contains("timestamp"));
        }
    }

    #[test]
    fn multiple_programs_get_separate_roots() {
        let mut rec = SpanRecorder::new();
        rec.begin_program("a.loop");
        feed_pair(&mut rec);
        rec.begin_program("b.loop");
        feed_pair(&mut rec);
        rec.finish();
        let roots: Vec<_> = rec.spans().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].name, "analyze:a.loop");
        assert_eq!(roots[1].name, "analyze:b.loop");
        // Seq keeps climbing across programs.
        assert!(roots[1].seq > roots[0].seq);
    }
}
