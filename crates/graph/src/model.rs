//! Graph construction and the loop-legality oracle.

use std::collections::BTreeSet;
use std::sync::Arc;

use dda_core::graph::{dependence_graph, DependenceEdge};
use dda_core::{Direction, ProgramReport};
use dda_ir::{extract_accesses, loop_table, LoopTable, Program, SymbolTable};

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
            common_loop_ids: p.common_loop_ids.clone(),
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
    /// admits `<` or `>`. Mirrors
    /// [`ProgramReport::carried_dependence_loops`] exactly (the
    /// predicate is invariant under the vector mirroring edge
    /// orientation performs).
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

    /// Ids of all loops carrying some dependence — equal, by
    /// construction, to
    /// [`ProgramReport::carried_dependence_loops`] of the originating
    /// report (pinned by proptest in the workspace test suite).
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
    fn verdicts_match_the_report_summary() {
        for src in [
            "for i = 1 to 100 { a[i + 1] = a[i]; }",
            "for i = 1 to 100 { for j = 1 to 100 { a[i][j + 1] = a[i][j]; } }",
            "for i = 2 to 100 { for j = 2 to 100 { a[i][j] = a[i - 1][j] + a[i][j - 1]; } }",
            "for i = 1 to 10 { a[i * i] = a[i]; }",
            "for i = 1 to 40 { s[0] = s[0] + c[i]; }",
        ] {
            let p = parse_program(src).unwrap();
            let report = DependenceAnalyzer::new().analyze_program(&p);
            let g = build_graph(&p, &report);
            assert_eq!(
                g.carried_loops(),
                report.carried_dependence_loops(),
                "{src}"
            );
        }
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
