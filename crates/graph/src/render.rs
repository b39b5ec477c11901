//! Renderers over [`ProgramGraph`]: Graphviz DOT, JSONL, and annotated
//! source.
//!
//! Both the CLI (`dda graph`, `dda parallel`) and the `dda-serve`
//! `/parallel` endpoint call these — one implementation is what makes
//! their outputs byte-identical for the same inputs.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use dda_core::json::json_escape;
use dda_ir::{ForLoop, Program, Stmt};

use crate::model::{DependenceEdge, LoopVerdict, ProgramGraph};

/// Renders the graph in Graphviz DOT: edge-incident accesses as nodes
/// (writes boxed, reads elliptic), one edge per oriented dependence,
/// solid when loop-carried (labelled with its carrying level), dashed
/// when loop-independent.
#[must_use]
pub fn to_dot(graph: &ProgramGraph) -> String {
    let mut out = String::new();
    out.push_str("digraph dependences {\n");
    out.push_str("    rankdir=LR;\n");
    let mut nodes = BTreeSet::new();
    for e in &graph.edges {
        nodes.insert(e.source);
        nodes.insert(e.sink);
    }
    for n in nodes {
        let node = &graph.nodes[n];
        let _ = writeln!(
            out,
            "    n{n} [label=\"#{n} {}\" shape={}];",
            node.label,
            if node.is_write { "box" } else { "ellipse" }
        );
    }
    for e in &graph.edges {
        let style = if e.is_loop_carried() {
            "solid"
        } else {
            "dashed"
        };
        let level = e
            .carrying_level
            .map_or(String::new(), |l| format!(" @L{l}"));
        let _ = writeln!(
            out,
            "    n{} -> n{} [label=\"{} {}{level}\" style={style}];",
            e.source, e.sink, e.kind, e.vector
        );
    }
    out.push_str("}\n");
    out
}

/// One blocking-edge citation: edge index, pair index, array, oriented
/// endpoints, kind, and vector. `level` (the position of the loop under
/// discussion in the pair's common nest) is present only when the
/// citation explains a per-loop verdict.
fn edge_object(
    graph: &ProgramGraph,
    index: usize,
    edge: &DependenceEdge,
    level: Option<usize>,
) -> String {
    let array = graph.pairs.get(edge.pair).map_or("", |p| &*p.array);
    let mut out = format!(
        "{{\"edge\":{index},\"pair\":{},\"array\":\"{}\",\"source\":{},\"sink\":{},\
         \"kind\":\"{}\",\"vector\":\"{}\"",
        edge.pair,
        json_escape(array),
        edge.source,
        edge.sink,
        edge.kind,
        edge.vector
    );
    if let Some(level) = level {
        let _ = write!(out, ",\"level\":{level}");
    }
    out.push('}');
    out
}

/// One JSONL record for the full graph: nodes, oriented edges (with
/// direction/distance summaries and carrying level), and the loop
/// table.
#[must_use]
pub fn graph_json_line(file: &str, graph: &ProgramGraph) -> String {
    let mut line = format!("{{\"file\":\"{}\",\"nodes\":[", json_escape(file));
    for (i, n) in graph.nodes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"id\":{},\"label\":\"{}\",\"write\":{},\"stmt\":{}}}",
            n.access,
            json_escape(&n.label),
            n.is_write,
            n.stmt_index
        );
    }
    line.push_str("],\"edges\":[");
    for (i, e) in graph.edges.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let array = graph.pairs.get(e.pair).map_or("", |p| &*p.array);
        let _ = write!(
            line,
            "{{\"pair\":{},\"array\":\"{}\",\"source\":{},\"sink\":{},\"kind\":\"{}\",\
             \"vector\":\"{}\",\"distance\":\"{}\",\"level\":{}}}",
            e.pair,
            json_escape(array),
            e.source,
            e.sink,
            e.kind,
            e.vector,
            e.distance,
            e.carrying_level
                .map_or("null".to_owned(), |l| l.to_string())
        );
    }
    line.push_str("],\"loops\":[");
    for (id, l) in graph.loops.iter().enumerate() {
        if id > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"id\":{},\"var\":\"{}\",\"depth\":{},\"parent\":{}}}",
            id,
            json_escape(graph.symbols.name(l.var)),
            l.depth,
            l.parent.map_or("null".to_owned(), |p| p.to_string())
        );
    }
    line.push_str("]}");
    line
}

/// One JSONL record for the per-loop parallelism verdicts and
/// interchange legality of a program. Every `Sequential` loop and
/// every illegal interchange cites its blocking edges — pair index,
/// array, oriented endpoints, kind, vector — so the claim can be
/// re-checked against the pair's certificate.
#[must_use]
pub fn parallel_json_line(file: &str, graph: &ProgramGraph) -> String {
    let mut line = format!("{{\"file\":\"{}\",\"loops\":[", json_escape(file));
    for (id, l) in graph.loops.iter().enumerate() {
        if id > 0 {
            line.push(',');
        }
        let verdict = graph.loop_verdict(id);
        let _ = write!(
            line,
            "{{\"id\":{},\"var\":\"{}\",\"depth\":{},\"parallel\":{},\"blocking\":[",
            id,
            json_escape(graph.symbols.name(l.var)),
            l.depth,
            verdict.is_parallel()
        );
        if let LoopVerdict::Sequential { blocking_edges } = &verdict {
            for (j, &ei) in blocking_edges.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                let e = &graph.edges[ei];
                let level = graph
                    .pairs
                    .get(e.pair)
                    .and_then(|p| p.common_loop_ids.iter().position(|&x| x == id));
                line.push_str(&edge_object(graph, ei, e, level));
            }
        }
        line.push_str("]}");
    }
    line.push_str("],\"interchange\":[");
    for (i, v) in graph.interchange_verdicts().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "{{\"outer\":{},\"inner\":{},\"legal\":{},\"blocking\":[",
            v.outer, v.inner, v.legal
        );
        for (j, &ei) in v.blocking_edges.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push_str(&edge_object(graph, ei, &graph.edges[ei], None));
        }
        line.push_str("]}");
    }
    line.push_str("]}");
    line
}

/// Prints the program source with every loop header annotated
/// `// parallel` or `// sequential` according to the graph's verdicts.
///
/// The walk visits loops in the order access extraction numbers them
/// into [`ProgramGraph::loops`] (statement order, an `if`'s then-branch
/// before its else-branch), so the counter it carries reproduces the
/// pre-order loop ids.
#[must_use]
pub fn annotate_source(program: &Program, graph: &ProgramGraph) -> String {
    fn go(
        out: &mut String,
        p: &Program,
        stmts: &[Stmt],
        depth: usize,
        next_id: &mut usize,
        graph: &ProgramGraph,
    ) {
        let indent = depth.saturating_mul(4);
        let t = &p.symbols;
        for s in stmts {
            match s {
                Stmt::For(ForLoop {
                    var,
                    lower,
                    upper,
                    body,
                    ..
                }) => {
                    let id = *next_id;
                    *next_id = next_id.saturating_add(1);
                    let tag = if graph.is_parallel(id) {
                        "parallel"
                    } else {
                        "sequential"
                    };
                    let _ = writeln!(
                        out,
                        "{:indent$}for {} = {} to {} {{   // {tag}",
                        "",
                        t.name(*var),
                        p.display_expr(*lower),
                        p.display_expr(*upper)
                    );
                    go(out, p, body, depth.saturating_add(1), next_id, graph);
                    let _ = writeln!(out, "{:indent$}}}", "");
                }
                Stmt::ArrayAssign(a) => {
                    let _ = writeln!(
                        out,
                        "{:indent$}{} = {};",
                        "",
                        p.display_ref(a.target),
                        p.display_expr(a.value)
                    );
                }
                Stmt::ScalarAssign(a) => {
                    let _ = writeln!(
                        out,
                        "{:indent$}{} = {};",
                        "",
                        t.name(a.name),
                        p.display_expr(a.value)
                    );
                }
                Stmt::Read(n) => {
                    let _ = writeln!(out, "{:indent$}read({});", "", t.name(*n));
                }
                Stmt::If(i) => {
                    let _ = writeln!(
                        out,
                        "{:indent$}if ({} {} {}) {{",
                        "",
                        p.display_expr(i.lhs),
                        i.op.as_str(),
                        p.display_expr(i.rhs)
                    );
                    go(
                        out,
                        p,
                        &i.then_body,
                        depth.saturating_add(1),
                        next_id,
                        graph,
                    );
                    if !i.else_body.is_empty() {
                        let _ = writeln!(out, "{:indent$}}} else {{", "");
                        go(
                            out,
                            p,
                            &i.else_body,
                            depth.saturating_add(1),
                            next_id,
                            graph,
                        );
                    }
                    let _ = writeln!(out, "{:indent$}}}", "");
                }
            }
        }
    }
    let mut out = String::new();
    let mut next_id = 0;
    go(&mut out, program, &program.stmts, 0, &mut next_id, graph);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_graph;
    use dda_core::DependenceAnalyzer;
    use dda_ir::parse_program;

    fn graph(src: &str) -> (dda_ir::Program, ProgramGraph) {
        let p = parse_program(src).unwrap();
        let report = DependenceAnalyzer::new().analyze_program(&p);
        let g = build_graph(&p, &report);
        (p, g)
    }

    #[test]
    fn dot_has_the_documented_shape() {
        let (_, g) = graph("for i = 1 to 10 { a[i + 1] = a[i]; }");
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph dependences {\n    rankdir=LR;\n"));
        assert!(dot.contains("n0 [label=\"#0 a[i + 1] (write)\" shape=box];"));
        assert!(dot.contains("n1 [label=\"#1 a[i] (read)\" shape=ellipse];"));
        assert!(dot.contains("n0 -> n1 [label=\"flow (<) @L0\" style=solid];"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn graph_jsonl_is_valid_and_complete() {
        let (_, g) = graph("for i = 1 to 10 { a[i + 1] = a[i]; }");
        let line = graph_json_line("k.loop", &g);
        assert!(line.starts_with("{\"file\":\"k.loop\",\"nodes\":["));
        assert!(line.contains("\"vector\":\"(<)\""));
        assert!(line.contains("\"distance\":\"(1)\""));
        assert!(line.contains("\"kind\":\"flow\""));
        assert!(line.contains("\"loops\":[{\"id\":0,\"var\":\"i\",\"depth\":0,\"parent\":null}]"));
    }

    #[test]
    fn parallel_jsonl_cites_blocking_edges() {
        let (_, g) = graph("for i = 1 to 10 { a[i + 1] = a[i]; }");
        let line = parallel_json_line("k.loop", &g);
        assert!(line.contains("\"parallel\":false"));
        assert!(line.contains("\"array\":\"a\""));
        assert!(line.contains("\"level\":0"));
        assert!(line.contains("\"interchange\":[]"));
    }

    #[test]
    fn parallel_jsonl_reports_interchange() {
        let (_, g) =
            graph("for i = 1 to 30 { for j = 1 to 30 { b[i + 1][j] = b[i][j + 1] + 1; } }");
        let line = parallel_json_line("k.loop", &g);
        assert!(line.contains("{\"outer\":0,\"inner\":1,\"legal\":false,\"blocking\":["));
    }

    #[test]
    fn annotation_marks_parallel_and_sequential_loops() {
        let (p, g) = graph(
            "for i = 1 to 100 { for j = 1 to 100 { a[i][j + 1] = a[i][j]; } } \
             for k = 1 to 100 { b[k] = b[k + 200]; }",
        );
        let text = annotate_source(&p, &g);
        assert_eq!(
            text,
            "for i = 1 to 100 {   // parallel\n\
             \x20   for j = 1 to 100 {   // sequential\n\
             \x20       a[i][j + 1] = a[i][j];\n\
             \x20   }\n\
             }\n\
             for k = 1 to 100 {   // parallel\n\
             \x20   b[k] = b[k + 200];\n\
             }\n"
        );
    }
}
