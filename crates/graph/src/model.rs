//! Graph construction and the loop-legality oracle.
//!
//! Every direction vector reported for a pair of references becomes one
//! or two *oriented* edges (source executes before sink). Orientation
//! follows the vector's leading non-`=` component: `<` keeps the pair
//! order, `>` reverses it (and mirrors the vector), `*` is conservatively
//! both. All-`=` vectors are loop-independent edges ordered by execution
//! position within the iteration (reads of a statement execute before its
//! write).

use std::collections::BTreeSet;
use std::sync::Arc;

use dda_core::symmetry::{flip_direction, flip_distance};
use dda_core::{DependenceKind, Direction, DirectionVector, DistanceVector, ProgramReport};
use dda_ir::{extract_accesses, loop_table, AccessSet, LoopTable, Program, SymbolTable};

/// One oriented dependence edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceEdge {
    /// Index of the [`PairReport`](dda_core::PairReport) this edge was
    /// lowered from (into [`ProgramReport::pairs`]) — the handle that
    /// lets a consumer fetch the certificate backing the edge.
    pub pair: usize,
    /// Access id of the source (executes first).
    pub source: usize,
    /// Access id of the sink.
    pub sink: usize,
    /// Flow / anti / output / input.
    pub kind: DependenceKind,
    /// Direction vector oriented source → sink.
    pub vector: DirectionVector,
    /// Distance vector oriented source → sink (per-level `None` where
    /// the distance is not constant).
    pub distance: DistanceVector,
    /// The loop level carrying the dependence (outermost first), or
    /// `None` for a loop-independent edge.
    pub carrying_level: Option<usize>,
}

impl DependenceEdge {
    /// Whether the edge crosses iterations of some common loop.
    #[must_use]
    pub fn is_loop_carried(&self) -> bool {
        self.carrying_level.is_some()
    }
}

/// The leading non-`=` component, if any. `Err(())` signals a leading `*`
/// (ambiguous orientation).
fn leading(v: &DirectionVector) -> Result<Option<Direction>, ()> {
    for d in &v.0 {
        match d {
            Direction::Eq => continue,
            Direction::Any => return Err(()),
            other => return Ok(Some(*other)),
        }
    }
    Ok(None)
}

/// The outermost level whose component is `<` with an all-`=` prefix
/// (the carrying level of a source→sink-oriented vector).
fn carrying_level(v: &DirectionVector) -> Option<usize> {
    for (k, d) in v.0.iter().enumerate() {
        match d {
            Direction::Eq => continue,
            _ => return Some(k),
        }
    }
    None
}

/// Execution position of an access within one iteration: statements run
/// in order, and a statement's reads run before its write.
fn execution_pos(set: &AccessSet, access: usize) -> (usize, usize) {
    let a = &set.accesses[access];
    (a.stmt_index, usize::from(a.is_write))
}

/// `v` seen from the other end of the pair.
fn mirror(v: &DirectionVector) -> DirectionVector {
    DirectionVector(v.0.iter().map(|&d| flip_direction(d)).collect())
}

/// Lowers an analysis report to oriented edges, in pair then vector
/// order. `set` must be the access set of the same program the report
/// was produced from (it supplies read/write kinds and statement
/// positions).
fn dependence_graph(report: &ProgramReport, set: &AccessSet) -> Vec<DependenceEdge> {
    let mut edges = Vec::new();
    for (pair_index, pair) in report.pairs().iter().enumerate() {
        if pair.result.is_independent() {
            continue;
        }
        let vectors: &[DirectionVector] = &pair.direction_vectors;
        let a = pair.a_access;
        let b = pair.b_access;
        let distance = &pair.distance;
        let push = |edges: &mut Vec<DependenceEdge>,
                    src: usize,
                    dst: usize,
                    v: DirectionVector,
                    flipped: bool| {
            let kind =
                DependenceKind::classify(set.accesses[src].is_write, set.accesses[dst].is_write);
            let carrying_level = carrying_level(&v);
            edges.push(DependenceEdge {
                pair: pair_index,
                source: src,
                sink: dst,
                kind,
                vector: v,
                distance: if flipped {
                    flip_distance(distance)
                } else {
                    distance.clone()
                },
                carrying_level,
            });
        };
        if vectors.is_empty() {
            // Unrefined (assumed) dependence: conservative both ways.
            let n = pair.common_loop_ids.len();
            push(&mut edges, a, b, DirectionVector::any(n), false);
            push(&mut edges, b, a, DirectionVector::any(n), true);
            continue;
        }
        for v in vectors {
            match leading(v) {
                Ok(Some(Direction::Lt)) | Ok(Some(Direction::Any)) => {
                    push(&mut edges, a, b, v.clone(), false);
                }
                Ok(Some(Direction::Gt)) => push(&mut edges, b, a, mirror(v), true),
                Ok(Some(Direction::Eq)) | Ok(None) => {
                    // Loop-independent: order by execution position.
                    if execution_pos(set, a) <= execution_pos(set, b) {
                        push(&mut edges, a, b, v.clone(), false);
                    } else {
                        push(&mut edges, b, a, mirror(v), true);
                    }
                }
                Err(()) => {
                    // Leading `*`: could run either way.
                    push(&mut edges, a, b, v.clone(), false);
                    push(&mut edges, b, a, mirror(v), true);
                }
            }
        }
    }
    edges
}

/// One node of the dependence graph: a statement access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The access id (index into the program's extraction order).
    pub access: usize,
    /// Rendered reference, e.g. `a[i + 1] (write)`.
    pub label: String,
    /// Whether the access writes.
    pub is_write: bool,
    /// Index of the statement the access belongs to.
    pub stmt_index: usize,
}

/// The per-pair context an edge's `pair` index resolves to: enough to
/// name the pair in an explanation (and to fetch its certificate from
/// the originating [`ProgramReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSummary {
    /// Array both references touch.
    pub array: Arc<str>,
    /// First access id of the pair, as analyzed.
    pub a_access: usize,
    /// Second access id of the pair, as analyzed.
    pub b_access: usize,
    /// Ids of the common enclosing loops, outermost first; direction
    /// vector component `k` talks about `common_loop_ids[k]`.
    pub common_loop_ids: Vec<usize>,
}

/// The verdict for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopVerdict {
    /// No dependence is carried at this loop's level: iterations are
    /// race-free and may run in parallel.
    Parallel,
    /// Some dependence crosses iterations of this loop.
    Sequential {
        /// Indices into [`ProgramGraph::edges`] of every edge carried
        /// at this loop's level. Each names its pair report (and hence
        /// its certificate) via [`DependenceEdge::pair`].
        blocking_edges: Vec<usize>,
    },
}

impl LoopVerdict {
    /// Whether the verdict is [`LoopVerdict::Parallel`].
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        matches!(self, LoopVerdict::Parallel)
    }
}

/// The verdict for interchanging one directly nested loop pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterchangeVerdict {
    /// Id of the outer loop.
    pub outer: usize,
    /// Id of the inner loop (directly nested in `outer`).
    pub inner: usize,
    /// Whether the interchange is legal (no dependence vector becomes
    /// lexicographically negative under the component swap).
    pub legal: bool,
    /// Indices into [`ProgramGraph::edges`] of the edges that block the
    /// interchange. Empty for a legal interchange — and also when the
    /// loops are not directly nested, in which case `legal` is `false`
    /// for structural reasons rather than because of any edge.
    pub blocking_edges: Vec<usize>,
}

/// The program dependence graph plus the loop structure it hangs off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramGraph {
    /// Every access of the program, in extraction order (node id =
    /// access id).
    pub nodes: Vec<GraphNode>,
    /// Oriented dependence edges, in pair then vector order —
    /// deterministic for a given report.
    pub edges: Vec<DependenceEdge>,
    /// The program's loops, keyed by pre-order id.
    pub loops: LoopTable,
    /// The program's symbol table, naming the loop variables.
    pub symbols: Arc<SymbolTable>,
    /// Per-pair context, indexed by [`DependenceEdge::pair`].
    pub pairs: Vec<PairSummary>,
}

/// Builds the dependence graph of `program` from its analysis report.
///
/// `program` must be the same (identically normalized) program the
/// report was produced from: node identity comes from re-running access
/// extraction, which is deterministic.
#[must_use]
pub fn build_graph(program: &Program, report: &ProgramReport) -> ProgramGraph {
    let set = extract_accesses(program);
    let edges = dependence_graph(report, &set);
    let nodes = set
        .accesses
        .iter()
        .map(|a| GraphNode {
            access: a.id,
            label: a.display(&set.symbols).to_string(),
            is_write: a.is_write,
            stmt_index: a.stmt_index,
        })
        .collect();
    let pairs = report
        .pairs()
        .iter()
        .map(|p| PairSummary {
            array: p.array.clone(),
            a_access: p.a_access,
            b_access: p.b_access,
            common_loop_ids: p.common_loop_ids.to_vec(),
        })
        .collect();
    ProgramGraph {
        nodes,
        edges,
        loops: loop_table(program),
        pairs,
        symbols: Arc::clone(&program.symbols),
    }
}

impl ProgramGraph {
    /// Whether `edge` crosses iterations of loop `loop_id`: the loop
    /// appears at some level `k` of the edge's pair, every outer
    /// component of the direction vector admits `=`, and component `k`
    /// admits `<` or `>`. This is the one carried-at rule; the predicate
    /// is invariant under the vector mirroring edge orientation
    /// performs, so it agrees with reading the pair reports directly.
    #[must_use]
    pub fn edge_carries_at(&self, edge: &DependenceEdge, loop_id: usize) -> bool {
        let Some(pair) = self.pairs.get(edge.pair) else {
            return false;
        };
        pair.common_loop_ids.iter().enumerate().any(|(k, &id)| {
            id == loop_id
                && edge
                    .vector
                    .0
                    .get(k)
                    .is_some_and(|d| matches!(d, Direction::Lt | Direction::Gt | Direction::Any))
                && edge.vector.0[..k]
                    .iter()
                    .all(|d| matches!(d, Direction::Eq | Direction::Any))
        })
    }

    /// The verdict for loop `loop_id`: parallel, or sequential with the
    /// blocking edges.
    #[must_use]
    pub fn loop_verdict(&self, loop_id: usize) -> LoopVerdict {
        let blocking: Vec<usize> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| self.edge_carries_at(e, loop_id))
            .map(|(i, _)| i)
            .collect();
        if blocking.is_empty() {
            LoopVerdict::Parallel
        } else {
            LoopVerdict::Sequential {
                blocking_edges: blocking,
            }
        }
    }

    /// Verdicts for every loop, in pre-order id order.
    #[must_use]
    pub fn loop_verdicts(&self) -> Vec<LoopVerdict> {
        self.loops
            .loops()
            .iter()
            .map(|l| self.loop_verdict(l.id))
            .collect()
    }

    /// Whether loop `loop_id` may run in parallel (no cross-iteration
    /// race).
    #[must_use]
    pub fn is_parallel(&self, loop_id: usize) -> bool {
        !self.edges.iter().any(|e| self.edge_carries_at(e, loop_id))
    }

    /// Ids of all loops carrying some dependence (pinned by proptest in
    /// the workspace test suite against a frozen report-level copy of
    /// the rule).
    #[must_use]
    pub fn carried_loops(&self) -> BTreeSet<usize> {
        self.loops
            .loops()
            .iter()
            .filter(|l| !self.is_parallel(l.id))
            .map(|l| l.id)
            .collect()
    }

    /// Whether `edge` blocks interchanging loops at pair positions
    /// found for `outer`/`inner`: after swapping the two components,
    /// the direction vector must not be (possibly) lexicographically
    /// negative. An edge whose pair sees only one of the two loops
    /// (imperfect nesting around the inner loop) conservatively blocks.
    fn edge_blocks_interchange(&self, edge: &DependenceEdge, outer: usize, inner: usize) -> bool {
        let Some(pair) = self.pairs.get(edge.pair) else {
            return false;
        };
        let po = pair.common_loop_ids.iter().position(|&id| id == outer);
        let pi = pair.common_loop_ids.iter().position(|&id| id == inner);
        match (po, pi) {
            (None, None) => false,
            // The pair straddles the nest: it runs under one of the
            // two loops but not the other, so the interchange would
            // reorder it against the nest in ways the vector can't
            // describe. Conservatively illegal.
            (Some(_), None) | (None, Some(_)) => true,
            (Some(po), Some(pi)) => {
                let mut v = edge.vector.0.clone();
                if po >= v.len() || pi >= v.len() {
                    return true; // malformed vector: conservative
                }
                v.swap(po, pi);
                for d in &v {
                    match d {
                        Direction::Eq => continue,
                        // Leading `<`: still lexicographically
                        // positive, the source stays before the sink.
                        Direction::Lt => return false,
                        // Leading `>` (or a `*` that could be `>`):
                        // the permuted dependence would run backwards.
                        Direction::Gt | Direction::Any => return true,
                    }
                }
                // All `=`: loop-independent, interchange preserves it.
                false
            }
        }
    }

    /// The direction-vector permutation test for interchanging `outer`
    /// with `inner`, which must be directly nested in `outer`
    /// (structurally illegal otherwise — `legal: false` with no
    /// blocking edges).
    #[must_use]
    pub fn interchange_legal(&self, outer: usize, inner: usize) -> InterchangeVerdict {
        if !self.loops.directly_nested(outer, inner) {
            return InterchangeVerdict {
                outer,
                inner,
                legal: false,
                blocking_edges: Vec::new(),
            };
        }
        let blocking: Vec<usize> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| self.edge_blocks_interchange(e, outer, inner))
            .map(|(i, _)| i)
            .collect();
        InterchangeVerdict {
            outer,
            inner,
            legal: blocking.is_empty(),
            blocking_edges: blocking,
        }
    }

    /// Interchange verdicts for every directly nested loop pair, in
    /// inner-loop id order.
    #[must_use]
    pub fn interchange_verdicts(&self) -> Vec<InterchangeVerdict> {
        self.loops
            .loops()
            .iter()
            .filter_map(|l| l.parent.map(|outer| self.interchange_legal(outer, l.id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::DependenceAnalyzer;
    use dda_ir::parse_program;

    fn graph(src: &str) -> ProgramGraph {
        let p = parse_program(src).unwrap();
        let report = DependenceAnalyzer::new().analyze_program(&p);
        build_graph(&p, &report)
    }

    #[test]
    fn carried_flow_makes_the_loop_sequential() {
        let g = graph("for i = 1 to 100 { a[i + 1] = a[i]; }");
        match g.loop_verdict(0) {
            LoopVerdict::Sequential { blocking_edges } => {
                assert_eq!(blocking_edges.len(), 1);
                let e = &g.edges[blocking_edges[0]];
                assert_eq!(&*g.pairs[e.pair].array, "a");
            }
            LoopVerdict::Parallel => panic!("a[i+1] = a[i] is carried"),
        }
        assert!(!g.is_parallel(0));
    }

    #[test]
    fn independent_references_leave_the_loop_parallel() {
        let g = graph("for i = 1 to 100 { a[2 * i] = a[2 * i + 1]; }");
        assert!(g.is_parallel(0));
        assert!(g.loop_verdict(0).is_parallel());
        assert!(g.carried_loops().is_empty());
    }

    #[test]
    fn inner_carried_dependence_spares_the_outer_loop() {
        let g = graph("for i = 1 to 100 { for j = 1 to 100 { a[i][j + 1] = a[i][j]; } }");
        assert!(g.is_parallel(0));
        assert!(!g.is_parallel(1));
        assert_eq!(g.carried_loops(), std::iter::once(1).collect());
    }

    #[test]
    fn interchange_legal_for_all_lt_vectors() {
        // (<, <): swapping gives (<, <), still positive.
        let g = graph("for i = 1 to 30 { for j = 1 to 30 { a[i + 1][j + 1] = a[i][j] + 1; } }");
        let v = g.interchange_legal(0, 1);
        assert!(v.legal, "{v:?}");
        assert!(v.blocking_edges.is_empty());
        assert_eq!(g.interchange_verdicts(), vec![v]);
    }

    #[test]
    fn interchange_illegal_for_lt_gt_vectors() {
        // (<, >): swapping gives (>, <), lexicographically negative.
        let g = graph("for i = 1 to 30 { for j = 1 to 30 { b[i + 1][j] = b[i][j + 1] + 1; } }");
        let v = g.interchange_legal(0, 1);
        assert!(!v.legal);
        assert_eq!(v.blocking_edges.len(), 1);
        let e = &g.edges[v.blocking_edges[0]];
        assert_eq!(&*g.pairs[e.pair].array, "b");
    }

    /// Per-nest verdicts of two sibling nests, one interchangeable and
    /// one not, in both orders: each verdict talks about its own loops.
    #[test]
    fn sibling_nests_get_their_own_interchange_verdicts() {
        let legal = "for i = 1 to 30 { for j = 1 to 30 { a[i + 1][j + 1] = a[i][j]; } }";
        let illegal = "for p = 1 to 30 { for q = 1 to 30 { b[p + 1][q] = b[p][q + 1]; } }";
        for (src, want) in [
            (format!("{legal} {illegal}"), [true, false]),
            (format!("{illegal} {legal}"), [false, true]),
        ] {
            let g = graph(&src);
            let verdicts = g.interchange_verdicts();
            let got: Vec<(usize, usize, bool)> = verdicts
                .iter()
                .map(|v| (v.outer, v.inner, v.legal))
                .collect();
            assert_eq!(got, vec![(0, 1, want[0]), (2, 3, want[1])], "{src}");
            assert_eq!(g.carried_loops(), BTreeSet::from([0, 2]), "{src}");
        }
    }

    #[test]
    fn interchange_of_non_nested_loops_is_structurally_illegal() {
        let g = graph("for i = 1 to 9 { a[i] = 0; } for j = 1 to 9 { a[j] = 1; }");
        let v = g.interchange_legal(0, 1);
        assert!(!v.legal);
        assert!(v.blocking_edges.is_empty());
        assert!(g.interchange_verdicts().is_empty());
    }

    #[test]
    fn pair_straddling_the_nest_blocks_interchange() {
        // The a-pair lives only under i (statement between the loops):
        // interchanging i and j must be conservatively rejected even
        // though the j-body pair is interchange-clean.
        let g = graph(
            "for i = 1 to 30 { a[i + 1] = a[i]; \
             for j = 1 to 30 { c[i + 1][j + 1] = c[i][j]; } }",
        );
        let v = g.interchange_legal(0, 1);
        assert!(!v.legal);
        assert!(v
            .blocking_edges
            .iter()
            .any(|&i| &*g.pairs[g.edges[i].pair].array == "a"));
    }

    #[test]
    fn reduction_loop_is_sequential_with_certificate_backed_edges() {
        let g = graph("for i = 1 to 40 { s[0] = s[0] + c[i]; }");
        match g.loop_verdict(0) {
            LoopVerdict::Sequential { blocking_edges } => {
                assert!(!blocking_edges.is_empty());
            }
            LoopVerdict::Parallel => panic!("a reduction carries an output/flow dependence"),
        }
    }

    #[test]
    fn nodes_cover_every_access_and_loops_every_loop() {
        let g = graph("for i = 1 to 9 { for j = i to 9 { a[i] = a[j] + b[i][j]; } }");
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.nodes[0].label, "a[i] (write)");
        assert!(g.nodes[0].is_write);
        assert_eq!(g.loops.len(), 2);
    }
}

/// The edge-lowering tests, kept apart from the oracle tests above.
#[cfg(test)]
mod lowering_tests {
    use super::*;
    use dda_core::DependenceAnalyzer;
    use dda_ir::{extract_accesses, parse_program};

    fn graph(src: &str) -> (Vec<DependenceEdge>, dda_ir::AccessSet) {
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let report = DependenceAnalyzer::new().analyze_program(&p);
        (dependence_graph(&report, &set), set)
    }

    #[test]
    fn flow_dependence_oriented_forward() {
        let (edges, _) = graph("for i = 1 to 10 { a[i + 1] = a[i]; }");
        assert_eq!(edges.len(), 1);
        let e = &edges[0];
        assert_eq!(e.kind, DependenceKind::Flow);
        assert_eq!(e.source, 0); // the write
        assert_eq!(e.sink, 1);
        assert_eq!(e.vector.to_string(), "(<)");
        assert_eq!(e.carrying_level, Some(0));
        assert_eq!(e.pair, 0);
        assert_eq!(e.distance.0[..], [Some(1)]);
    }

    #[test]
    fn anti_dependence_from_reversed_vector() {
        // Write a[i] meets read a[i+1] at i = i′ + 1: raw vector (>),
        // oriented edge read → write with (<): an anti dependence.
        let (edges, _) = graph("for i = 1 to 10 { a[i] = a[i + 1]; }");
        assert_eq!(edges.len(), 1);
        let e = &edges[0];
        assert_eq!(e.kind, DependenceKind::Anti);
        assert_eq!(e.source, 1); // the read executes (one iteration) first
        assert_eq!(e.sink, 0);
        assert_eq!(e.vector.to_string(), "(<)");
        // The stored pair distance is mirrored along with the vector.
        assert_eq!(e.distance.0[..], [Some(1)]);
    }

    #[test]
    fn loop_independent_same_statement() {
        // a[i] = a[i] + 1: same-iteration read before write: anti,
        // not carried.
        let (edges, _) = graph("for i = 1 to 10 { a[i] = a[i] + 1; }");
        assert_eq!(edges.len(), 1);
        let e = &edges[0];
        assert_eq!(e.kind, DependenceKind::Anti);
        assert_eq!(e.source, 1);
        assert_eq!(e.sink, 0);
        assert!(!e.is_loop_carried());
    }

    #[test]
    fn output_dependence_between_statements() {
        let (edges, _) = graph("for i = 1 to 10 { a[i + 1] = 1; a[i] = 2; }");
        // Write a[i+1] at i meets write a[i'] at i′ = i + 1: carried WAW
        // (source: first statement) — vector (<) from access 0 to 1.
        assert_eq!(edges.len(), 1);
        let e = &edges[0];
        assert_eq!(e.kind, DependenceKind::Output);
        assert_eq!((e.source, e.sink), (0, 1));
        assert_eq!(e.carrying_level, Some(0));
    }

    #[test]
    fn star_leading_vector_goes_both_ways() {
        // Unused outer loop: vector (*, <) is ambiguous at level 0.
        let (edges, _) = graph("for i = 1 to 10 { for j = 1 to 10 { a[j + 2] = a[j]; } }");
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].source, 0);
        assert_eq!(edges[1].source, 1);
        assert_eq!(edges[1].vector.to_string(), "(*, >)");
    }

    #[test]
    fn assumed_pairs_become_bidirectional_any_edges() {
        let (edges, _) = graph("for i = 1 to 10 { a[i * i] = a[i]; }");
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|e| e.vector.to_string() == "(*)"));
    }

    #[test]
    fn independent_pairs_produce_no_edges() {
        let (edges, _) = graph("for i = 1 to 10 { a[i] = a[i + 10]; }");
        assert!(edges.is_empty());
    }
}
