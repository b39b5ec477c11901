//! Loop interchange legality — the classic consumer of direction vectors.
//!
//! Interchanging two nested loops permutes every dependence's direction
//! vector. The transformation is legal iff no permuted vector becomes
//! lexicographically negative (i.e. has `>` as its first non-`=`
//! component): that would mean a consumer running before its producer.
//! This is exactly why the paper computes *all* vectors, not just a
//! yes/no answer.
//!
//! ```text
//! cargo run --example interchange
//! ```

use dda::core::DependenceAnalyzer;
use dda::graph::build_graph;
use dda::ir::{parse_program, passes};

fn check(label: &str, src: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== {label} ===");
    let mut program = parse_program(src)?;
    passes::normalize(&mut program);
    let report = DependenceAnalyzer::new().analyze_program(&program);
    let graph = build_graph(&program, &report);

    // Ask the graph for the verdict, then show the per-edge reasoning.
    let verdict = graph.interchange_legal(0, 1);
    for (k, edge) in graph.edges.iter().enumerate() {
        if edge.vector.0.len() < 2 {
            continue;
        }
        let mut swapped = edge.vector.clone();
        swapped.0.swap(0, 1);
        println!(
            "  {}: {} -> {swapped}{}",
            graph.pairs[edge.pair].array,
            edge.vector,
            if verdict.blocking_edges.contains(&k) {
                "   ILLEGAL (lexicographically negative)"
            } else {
                ""
            }
        );
    }
    println!(
        "  interchange of the outer two loops is {}\n",
        if verdict.legal { "LEGAL" } else { "ILLEGAL" }
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // (=, <) dependence: stays (=, <) after interchange... swapped it is
    // (<, =): still positive. Legal — and it unlocks stride-1 access.
    check(
        "row-stencil (legal)",
        "for i = 1 to 64 { for j = 1 to 64 {
             a[i][j + 1] = a[i][j] + 1;
         } }",
    )?;

    // The wavefront has (<, >) among its vectors: interchanged it becomes
    // (>, <) — lexicographically negative. Illegal.
    check(
        "skewed recurrence (illegal)",
        "for i = 2 to 64 { for j = 2 to 64 {
             a[i][j] = a[i - 1][j + 1] + 1;
         } }",
    )?;

    // Distance (1, 1): interchange keeps it (1, 1). Legal.
    check(
        "diagonal recurrence (legal)",
        "for i = 2 to 64 { for j = 2 to 64 {
             a[i][j] = a[i - 1][j - 1] + 1;
         } }",
    )?;
    Ok(())
}
