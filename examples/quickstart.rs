//! Quickstart: the paper's two opening loops.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dda::core::DependenceAnalyzer;
use dda::graph::build_graph;
use dda::ir::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // First loop: the write a[i] and read a[i+10] can never overlap
    // inside the bounds — every iteration can run concurrently.
    let independent = parse_program(
        "for i = 1 to 10 {
             a[i] = a[i + 10] + 3;
         }",
    )?;
    // Second loop: each read sees the value written one iteration ago —
    // forced sequential execution.
    let dependent = parse_program(
        "for i = 1 to 10 {
             a[i + 1] = a[i] + 3;
         }",
    )?;

    let mut analyzer = DependenceAnalyzer::new();

    for (label, program) in [("loop 1", &independent), ("loop 2", &dependent)] {
        let report = analyzer.analyze_program(program);
        println!("{label}:");
        for pair in report.pairs() {
            println!(
                "  {} pair -> {:?} (resolved by {})",
                pair.array, pair.result.answer, pair.result.resolved_by
            );
            if !pair.direction_vectors.is_empty() {
                let vecs: Vec<String> = pair
                    .direction_vectors
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                println!(
                    "  direction vectors: {} distance: {}",
                    vecs.join(" "),
                    pair.distance
                );
            }
        }
        let graph = build_graph(program, &report);
        println!("  parallelizable: {}\n", graph.carried_loops().is_empty());
    }
    Ok(())
}
