//! A guided tour of every worked example in the paper, showing which test
//! fires and why.
//!
//! ```text
//! cargo run --example paper_walkthrough
//! ```

use dda::core::fourier_motzkin::FmLimits;
use dda::core::gcd::{gcd_preprocess, GcdOutcome};
use dda::core::loop_residue::{loop_residue, LoopResidueOutcome};
use dda::core::pipeline::{run_pipeline, NullProbe, PipelineConfig};
use dda::core::problem::build_problem;
use dda::core::system::{Constraint, VarBounds};
use dda::core::DependenceAnalyzer;
use dda::ir::{extract_accesses, parse_program, reference_pairs};

fn show(title: &str, src: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("== {title} ==");
    for line in src.lines() {
        println!("    {}", line.trim());
    }
    let program = parse_program(src)?;
    let set = extract_accesses(&program);
    let pairs = reference_pairs(&set, false);
    let pair = &pairs[0];
    let problem = build_problem(*pair, true)?;

    println!(
        "  variables: {:?}",
        problem
            .vars(&set)
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    match gcd_preprocess(&problem).expect("no overflow") {
        GcdOutcome::Independent => {
            println!("  extended GCD: no integer solution -> INDEPENDENT\n");
            return Ok(());
        }
        GcdOutcome::Reduced(reduced) => {
            println!(
                "  extended GCD: {} equalities eliminated, {} free variable(s); constraints:",
                problem.num_equations(),
                reduced.num_t()
            );
            for c in &reduced.system.constraints {
                println!("    {c}");
            }
            let outcome = run_pipeline(
                &reduced.system,
                &PipelineConfig::full(),
                FmLimits::default(),
                &mut NullProbe,
            );
            println!(
                "  cascade: resolved by {} -> {:?}",
                outcome.used, outcome.answer
            );
        }
    }

    let mut analyzer = DependenceAnalyzer::new();
    let report = analyzer.analyze_program(&program);
    let p = &report.pairs()[0];
    if !p.direction_vectors.is_empty() {
        let vecs: Vec<String> = p
            .direction_vectors
            .iter()
            .map(ToString::to_string)
            .collect();
        println!(
            "  direction vectors: {}  distance: {}",
            vecs.join(" "),
            p.distance
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Worked examples from Maydan, Hennessy & Lam (PLDI 1991)\n");

    show(
        "Section 1, loop 1: disjoint windows",
        "for i = 1 to 10 { a[i] = a[i + 10] + 3; }",
    )?;
    show(
        "Section 1, loop 2: loop-carried flow dependence",
        "for i = 1 to 10 { a[i + 1] = a[i] + 3; }",
    )?;
    show(
        "Section 3.1: the extended GCD variable change",
        "for i = 1 to 10 { a[i + 10] = a[i]; }",
    )?;
    show(
        "Section 3.2: coupled subscripts, exact via SVPC",
        "for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9]; } }",
    )?;
    show(
        "Section 6: two direction vectors",
        "for i = 0 to 10 { for j = 0 to 10 { a[i][j] = a[2 * i][j] + 7; } }",
    )?;
    show(
        "Section 6: constant distance",
        "for i = 0 to 10 { a[i] = a[i - 3] + 7; }",
    )?;
    show(
        "Section 8: symbolic terms",
        "read(n); for i = 1 to 10 { a[i + n] = a[i + 2 * n + 1] + 3; }",
    )?;

    // Figure 1: the Loop Residue graph with a negative cycle, fed to the
    // test directly in the paper's own variables (t1, t2, t3).
    println!("== Figure 1: Loop Residue graph ==");
    println!("    t1 >= 1, t3 <= 4, t1 - t3 <= -4  (i.e. t3 >= t1 + 4)");
    let mut bounds = VarBounds::unbounded(3);
    bounds.tighten_lb(0, 1); // t1 >= 1
    bounds.tighten_ub(2, 4); // t3 <= 4
    let residual = vec![Constraint::new(vec![1, 0, -1], -4)];
    match loop_residue(&bounds, &residual) {
        LoopResidueOutcome::Infeasible => {
            println!("  negative cycle t1 -> t3 -> n0 -> t1 of value -1 -> INDEPENDENT")
        }
        other => println!("  unexpected: {other:?}"),
    }
    Ok(())
}
