//! The whole-program dependence analyzer.
//!
//! Ties every piece together the way the paper's SUIF implementation does:
//! enumerate reference pairs and run them through the wave plan of
//! [`driver`] on the calling thread — short-circuit constant subscripts,
//! memoize, run extended-GCD preprocessing, cascade the exact tests,
//! refine direction vectors with pruning — keeping the statistics behind
//! Tables 1–5 and 7.

use std::path::Path;
use std::sync::Arc;

use dda_ir::{extract_accesses, reference_pairs, Program, RefPair};

use crate::certificate::Certificate;
use crate::driver::{self, Inline};
use crate::fourier_motzkin::FmLimits;
use crate::memo::SharedMemo;
use crate::pipeline::{NullProbe, PipelineConfig, Probe};
use crate::result::{DependenceResult, DirectionVector, DistanceVector, LevelVec};
use crate::stats::AnalysisStats;
use crate::steps;

/// Memoization flavour (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoMode {
    /// No memoization (Table 1 semantics).
    Off,
    /// Exact-input matching.
    Simple,
    /// Unused loop variables eliminated before matching.
    #[default]
    Improved,
}

/// Analyzer configuration; the default enables everything the paper's
/// final system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Memoization flavour.
    pub memo: MemoMode,
    /// Whether to compute direction vectors for dependent pairs.
    pub compute_directions: bool,
    /// Direction pruning: free `*` for unused loop indices.
    pub prune_unused: bool,
    /// Direction pruning: constant distances fix the direction.
    pub prune_distance: bool,
    /// Symbolic-term support (Section 8). When off, pairs involving
    /// loop-invariant unknowns are assumed dependent without testing.
    pub symbolic: bool,
    /// Also test read–read (input dependence) pairs.
    pub include_input_deps: bool,
    /// Symmetric-pair canonicalization (the Section 5 "further
    /// optimization"): a pair and its mirror (`a[i+1] = a[i]` vs
    /// `a[i] = a[i+1]`) share one memo entry; cached directions and
    /// distances are flipped on the way out.
    pub memo_symmetry: bool,
    /// Burke–Cytron dimension-by-dimension direction computation for
    /// separable systems (Section 6's "nice cases"): 3·L tests instead of
    /// 3^L when the refinable levels do not interact.
    pub separable_directions: bool,
    /// Fourier–Motzkin effort limits.
    pub fm_limits: FmLimits,
    /// Which exact tests the solve pipeline runs, in order. The default
    /// full cascade is exact; partial configurations (ablations) may
    /// assume dependence where a disabled test would have decided.
    pub pipeline: PipelineConfig,
}

impl Default for AnalyzerConfig {
    fn default() -> AnalyzerConfig {
        AnalyzerConfig {
            memo: MemoMode::Improved,
            compute_directions: true,
            prune_unused: true,
            prune_distance: true,
            symbolic: true,
            include_input_deps: false,
            memo_symmetry: false,
            separable_directions: false,
            fm_limits: FmLimits::default(),
            pipeline: PipelineConfig::full(),
        }
    }
}

/// The analysis of one reference pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairReport {
    /// Name of the shared array, shared with the program's symbol table.
    pub array: Arc<str>,
    /// Access id of the first reference (program order).
    pub a_access: usize,
    /// Access id of the second reference.
    pub b_access: usize,
    /// Ids of the common enclosing loops, outermost first.
    pub common_loop_ids: LevelVec<usize>,
    /// The verdict and what produced it.
    pub result: DependenceResult,
    /// A witness assignment over the problem variables, when dependent.
    pub witness: Option<Vec<i64>>,
    /// All direction vectors under which the pair is dependent.
    pub direction_vectors: Vec<DirectionVector>,
    /// Constant per-level distances where known.
    pub distance: DistanceVector,
    /// Whether the result came from the memo table.
    pub from_cache: bool,
    /// Evidence for the verdict, checkable by `dda-check` without
    /// trusting any solver code.
    pub certificate: Certificate,
}

/// The analysis of a whole program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramReport {
    pairs: Vec<PairReport>,
    /// Statistics for this program alone.
    pub stats: AnalysisStats,
}

impl ProgramReport {
    /// Assembles a report from per-pair reports (in enumeration order)
    /// and the program's statistics delta.
    #[must_use]
    pub fn from_parts(pairs: Vec<PairReport>, stats: AnalysisStats) -> ProgramReport {
        ProgramReport { pairs, stats }
    }

    /// The per-pair reports, in enumeration order.
    #[must_use]
    pub fn pairs(&self) -> &[PairReport] {
        &self.pairs
    }

    /// Pairs proven independent.
    #[must_use]
    pub fn independent_count(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| p.result.is_independent())
            .count()
    }
}

/// What the full-result memo table stores. Direction vectors and
/// distances live in *canonical* space (kept levels only), so a cached
/// entry can be rehydrated for any pair that canonicalizes to the same
/// key — e.g. the same reference pattern under a different number of
/// irrelevant enclosing loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedOutcome {
    /// The verdict and what produced it.
    pub result: DependenceResult,
    /// A witness assignment, when one transfers (identical problems only).
    pub witness: Option<Vec<i64>>,
    /// Direction vectors in canonical (kept-levels) space.
    pub direction_vectors: Vec<DirectionVector>,
    /// Distances in canonical space.
    pub distance: DistanceVector,
    /// The certificate computed for the stored verdict. Transfers
    /// verbatim only to literally identical problems (Simple mode,
    /// unflipped); otherwise hits degrade to
    /// [`Certificate::Unverified`]/[`Certificate::Conservative`].
    pub certificate: Certificate,
}

/// The paper's dependence analyzer.
///
/// It runs the wave plan of [`driver`] on the calling thread, one call
/// per program; the batch engine runs the same plan on a worker pool.
/// The analyzer owns its memo tables, so reusing one instance across
/// programs models the paper's "store the hash table across compilations"
/// extension. They are the same [`SharedMemo`] the batch engine uses, in
/// one shard, so both persist in the same format and warm-start each
/// other.
///
/// # Examples
///
/// ```
/// use dda_ir::parse_program;
/// use dda_core::{DependenceAnalyzer, Direction, DirectionVector};
///
/// let program = parse_program("for i = 1 to 10 { a[i + 1] = a[i] + 7; }")?;
/// let mut analyzer = DependenceAnalyzer::new();
/// let report = analyzer.analyze_program(&program);
/// let pair = &report.pairs()[0];
/// assert!(pair.result.answer.is_dependent());
/// assert_eq!(
///     pair.direction_vectors,
///     vec![DirectionVector([Direction::Lt].into())]
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DependenceAnalyzer {
    config: AnalyzerConfig,
    memo: SharedMemo,
    stats: AnalysisStats,
    spliced: u64,
}

impl Default for DependenceAnalyzer {
    fn default() -> DependenceAnalyzer {
        DependenceAnalyzer::with_config(AnalyzerConfig::default())
    }
}

impl DependenceAnalyzer {
    /// Creates an analyzer with the default configuration.
    #[must_use]
    pub fn new() -> DependenceAnalyzer {
        DependenceAnalyzer::default()
    }

    /// Creates an analyzer with an explicit configuration.
    #[must_use]
    pub fn with_config(config: AnalyzerConfig) -> DependenceAnalyzer {
        DependenceAnalyzer {
            config,
            memo: SharedMemo::new(1),
            stats: AnalysisStats::default(),
            spliced: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Cumulative statistics since construction (or the last
    /// [`reset`](Self::reset)).
    #[must_use]
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// Pairs since construction (or the last [`reset`](Self::reset))
    /// whose verdict was spliced from a warm memo entry: one loaded from
    /// a memo file, or left by an earlier call. The other
    /// `stats().pairs - spliced_pairs()` pairs were resolved.
    #[must_use]
    pub fn spliced_pairs(&self) -> u64 {
        self.spliced
    }

    /// Number of distinct entries in the full-result memo table.
    #[must_use]
    pub fn memo_entries(&self) -> usize {
        self.memo.full.unique_entries()
    }

    /// Number of distinct entries in the no-bounds (GCD) memo table.
    #[must_use]
    pub fn gcd_memo_entries(&self) -> usize {
        self.memo.gcd.unique_entries()
    }

    /// Clears memo tables (including an attached archive tier) and
    /// statistics.
    pub fn reset(&mut self) {
        self.memo = SharedMemo::new(1);
        self.stats = AnalysisStats::default();
        self.spliced = 0;
    }

    /// The memo tables (e.g. for persistence with
    /// [`SharedMemo::save_memo_file_v3`]).
    #[must_use]
    pub fn memo(&self) -> &SharedMemo {
        &self.memo
    }

    /// Warm-starts from a v3 archive (see
    /// [`SharedMemo::load_memo_file`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load_memo_file(&mut self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.memo.load_memo_file(path)
    }

    /// Analyzes every reference pair of `program` (which should already be
    /// normalized; see `dda_ir::passes::normalize`).
    pub fn analyze_program(&mut self, program: &Program) -> ProgramReport {
        self.analyze_program_probed(program, &mut NullProbe)
    }

    /// Analyzes every reference pair of `program`, reporting every step to
    /// `probe` in pair order. With [`NullProbe`] this is exactly
    /// [`analyze_program`](Self::analyze_program); events never influence
    /// answers.
    pub fn analyze_program_probed<P: Probe>(
        &mut self,
        program: &Program,
        probe: &mut P,
    ) -> ProgramReport {
        let set = extract_accesses(program);
        let pairs = reference_pairs(&set, self.config.include_input_deps);
        self.run(&pairs, probe)
    }

    /// Analyzes a single pair of accesses.
    pub fn analyze_pair(&mut self, pair: RefPair<'_>) -> PairReport {
        // One pair in, one report out.
        let mut reports = self.run(&[pair], &mut NullProbe).pairs;
        reports.pop().unwrap_or_else(|| steps::pair_template(pair))
    }

    /// Runs the wave plan over `pairs` on the calling thread. Memo
    /// entries from before the call are warm: a verdict served from one
    /// is spliced.
    fn run<P: Probe>(&mut self, pairs: &[RefPair<'_>], probe: &mut P) -> ProgramReport {
        let run = driver::run(
            &self.config,
            &self.memo,
            &Inline,
            pairs,
            &[pairs.len()],
            probe,
        );
        self.spliced += run.spliced;
        // One program in, one report out.
        let report = run.reports.into_iter().next().unwrap_or_default();
        self.stats.add(&report.stats);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{ResolvedBy, TestKind};
    use dda_ir::parse_program;

    fn analyze(src: &str) -> ProgramReport {
        let program = parse_program(src).unwrap();
        DependenceAnalyzer::new().analyze_program(&program)
    }

    #[test]
    fn paper_opening_examples() {
        let r1 = analyze("for i = 1 to 10 { a[i] = a[i + 10] + 3; }");
        assert!(r1.pairs()[0].result.is_independent());
        let r2 = analyze("for i = 1 to 10 { a[i + 1] = a[i] + 3; }");
        assert!(r2.pairs()[0].result.answer.is_dependent());
        assert_eq!(r2.pairs()[0].distance.0[..], [Some(1)]);
    }

    #[test]
    fn constant_subscripts_short_circuit() {
        let r = analyze("for i = 1 to 10 { a[3] = a[4] + a[3]; }");
        assert_eq!(r.stats.constant, 2); // (w3,r4) and (w3,r3)
        assert_eq!(r.stats.base_tests.total(), 0);
        let dep = r
            .pairs()
            .iter()
            .find(|p| p.result.answer.is_dependent())
            .unwrap();
        assert_eq!(dep.result.resolved_by, ResolvedBy::Constant);
    }

    #[test]
    fn coupled_subscripts_resolved_by_svpc() {
        // The paper's Section 3.2 showpiece.
        let r = analyze(
            "for i1 = 1 to 10 { for i2 = 1 to 10 {
                a[i1][i2] = a[i2 + 10][i1 + 9] + 1;
            } }",
        );
        assert!(r.pairs()[0].result.is_independent());
        assert_eq!(
            r.pairs()[0].result.resolved_by,
            ResolvedBy::Test(TestKind::Svpc)
        );
    }

    #[test]
    fn gcd_independent_counted() {
        let r = analyze("for i = 1 to 10 { a[2 * i] = a[2 * i + 1] + 1; }");
        assert!(r.pairs()[0].result.is_independent());
        assert_eq!(r.pairs()[0].result.resolved_by, ResolvedBy::Gcd);
        assert_eq!(r.stats.gcd_independent, 1);
        assert_eq!(r.stats.base_tests.total(), 0);
    }

    #[test]
    fn memoization_hits_repeated_patterns() {
        let src = "
            for i = 1 to 100 { a[i + 10] = a[i] + 1; }
            for i = 1 to 100 { b[i + 10] = b[i] + 2; }
            for i = 1 to 100 { c[i + 10] = c[i] + 3; }
        ";
        let r = analyze(src);
        assert_eq!(r.stats.memo_queries, 3);
        assert_eq!(r.stats.memo_hits, 2);
        assert_eq!(r.stats.base_tests.total(), 1);
        assert!(r.pairs()[1].from_cache);
        assert_eq!(r.pairs()[0].result, r.pairs()[2].result);
    }

    #[test]
    fn only_entries_from_earlier_calls_are_spliced() {
        let src = "
            for i = 1 to 100 { a[i + 10] = a[i] + 1; }
            for i = 1 to 100 { b[i + 10] = b[i] + 2; }
            for i = 1 to 100 { c[2 * i] = c[2 * i + 1] + 3; }
        ";
        let program = parse_program(src).unwrap();
        let mut an = DependenceAnalyzer::new();
        // Hits on entries this call inserted are resolved, not spliced.
        let cold = an.analyze_program(&program);
        assert_eq!(cold.stats.memo_hits, 1);
        assert_eq!(an.spliced_pairs(), 0);
        // Every entry predates the second call: full hits and the GCD
        // refutation splice alike, with the same statistics.
        let warm = an.analyze_program(&program);
        assert_eq!(an.spliced_pairs(), 3);
        assert_eq!(warm.stats.memo_hits, 2);
        assert_eq!(warm.stats.gcd_memo_hits, 3);
        an.reset();
        assert_eq!(an.spliced_pairs(), 0);
    }

    #[test]
    fn improved_memo_collapses_unused_loops() {
        let src = "
            for i = 1 to 10 { for j = 1 to 10 { a[i + 10] = a[i] + 3; } }
            for i = 1 to 10 { for j = 1 to 10 { b[j + 10] = b[j] + 3; } }
        ";
        let improved = {
            let program = parse_program(src).unwrap();
            let mut an = DependenceAnalyzer::new();
            an.analyze_program(&program).stats
        };
        assert_eq!(improved.memo_hits, 1);
        let simple = {
            let program = parse_program(src).unwrap();
            let mut an = DependenceAnalyzer::with_config(AnalyzerConfig {
                memo: MemoMode::Simple,
                ..AnalyzerConfig::default()
            });
            an.analyze_program(&program).stats
        };
        assert_eq!(simple.memo_hits, 0);
    }

    #[test]
    fn symbolic_support_toggles() {
        let src = "read(n); for i = 1 to 10 { a[i + n] = a[i + 2 * n + 1] + 3; }";
        let program = parse_program(src).unwrap();
        let mut with = DependenceAnalyzer::new();
        let r = with.analyze_program(&program);
        // i + n = i' + 2n + 1 ⇒ i - i' = n + 1: for the pair to overlap
        // some n makes it dependent (e.g. n = 0 gives distance 1).
        assert!(r.pairs()[0].result.answer.is_dependent());
        assert!(r.stats.base_tests.total() > 0);

        let mut without = DependenceAnalyzer::with_config(AnalyzerConfig {
            symbolic: false,
            ..AnalyzerConfig::default()
        });
        let r2 = without.analyze_program(&program);
        assert_eq!(r2.stats.assumed, 1);
        assert_eq!(r2.stats.base_tests.total(), 0);
        assert!(!r2.pairs()[0].result.answer.is_exact());
    }

    #[test]
    fn analyzer_persists_memo_across_programs() {
        let mut an = DependenceAnalyzer::new();
        let p1 = parse_program("for i = 1 to 10 { a[i + 10] = a[i]; }").unwrap();
        let p2 = parse_program("for i = 1 to 10 { z[i + 10] = z[i]; }").unwrap();
        let r1 = an.analyze_program(&p1);
        assert_eq!(r1.stats.memo_hits, 0);
        let r2 = an.analyze_program(&p2);
        assert_eq!(r2.stats.memo_hits, 1, "cross-program reuse");
        an.reset();
        let r3 = an.analyze_program(&p2);
        assert_eq!(r3.stats.memo_hits, 0);
    }

    #[test]
    fn symmetric_memoization_flips_directions() {
        let src = "
            for i = 1 to 10 { a[i + 1] = a[i]; }
            for i = 1 to 10 { z[i] = z[i + 1]; }
        ";
        let program = parse_program(src).unwrap();
        let mut plain = DependenceAnalyzer::new();
        let fresh = plain.analyze_program(&program);
        assert_eq!(fresh.stats.memo_hits, 0, "mirrors differ without symmetry");

        let mut sym = DependenceAnalyzer::with_config(AnalyzerConfig {
            memo_symmetry: true,
            ..AnalyzerConfig::default()
        });
        let cached = sym.analyze_program(&program);
        assert_eq!(cached.stats.memo_hits, 1, "mirror pair shares the entry");
        for (c, f) in cached.pairs().iter().zip(fresh.pairs()) {
            assert_eq!(c.result, f.result);
            assert_eq!(c.direction_vectors, f.direction_vectors, "{}", c.array);
            assert_eq!(c.distance, f.distance);
        }
        // Orientations really are opposite.
        assert_eq!(cached.pairs()[0].direction_vectors[0].to_string(), "(<)");
        assert_eq!(cached.pairs()[1].direction_vectors[0].to_string(), "(>)");
        assert_eq!(cached.pairs()[0].distance.0[..], [Some(1)]);
        assert_eq!(cached.pairs()[1].distance.0[..], [Some(-1)]);
    }

    #[test]
    fn nonaffine_assumed_dependent() {
        let r = analyze("for i = 1 to 10 { a[i * i] = a[i] + 1; }");
        assert_eq!(r.stats.assumed, 1);
        assert!(!r.pairs()[0].result.answer.is_exact());
        assert_eq!(r.pairs()[0].result.resolved_by, ResolvedBy::Assumed);
    }

    #[test]
    fn stats_deltas_per_program() {
        let mut an = DependenceAnalyzer::new();
        let p = parse_program("for i = 1 to 10 { a[i + 1] = a[i]; }").unwrap();
        let r1 = an.analyze_program(&p);
        let r2 = an.analyze_program(&p);
        assert_eq!(r1.stats.pairs, 1);
        assert_eq!(r2.stats.pairs, 1, "per-program delta, not cumulative");
        assert_eq!(an.stats().pairs, 2);
    }
}
