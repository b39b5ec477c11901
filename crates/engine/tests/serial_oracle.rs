//! Differential oracle for the analysis driver.
//!
//! [`Oracle`] below is the serial analyzer's per-pair driver as it stood
//! before the serial analyzer and the engine were merged onto one
//! per-pair step: `pair_inner` and `gcd_phase` copied verbatim, over
//! plain `HashMap` memo tables, calling only the public pure steps of
//! `dda_core::{problem, steps, gcd, memo}`. Two additions model the engine's
//! batch semantics, which the old serial analyzer never had:
//!
//! - *splices*: a memo hit on an entry that was present before the batch
//!   started (a warm start, or an earlier batch) is counted as spliced;
//! - *an expired deadline*: any fresh solve (a memo miss, or a pair
//!   solving for itself with memoization off) is cancelled. The pair
//!   comes back as the bare conservative template, counted as `assumed`
//!   with none of the memo accounting a completed visit would do, and
//!   nothing is inserted.
//!
//! The oracle enumerates its pairs through [`resolve`], a name-resolving
//! adapter: each program's accesses are grouped by array *name* as a
//! `String`, the way the string-keyed front end grouped them, and the
//! resulting `(array, a.id, b.id, common)` list must equal the one the
//! current front end enumerates, with every report naming its array.
//!
//! Both [`DependenceAnalyzer`] and [`Engine`] must agree with the oracle
//! bit for bit — reports, per-program and cumulative statistics, memo
//! populations and the spliced count — for every memo mode, with
//! symmetric canonicalization on and off, at 1, 2 and 8 workers and 1
//! and 16 shards, cold and warm-started from a v3 archive — attached as
//! a lazily-faulted tier, or loaded a second time so that every record
//! is decoded into the resident tables up front — with and without an
//! expired deadline.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dda_core::gcd::{
    expand_lattice, refute_equalities, solve_equalities, solve_system_restricted,
    witness_for_problem, EqOutcome,
};
use dda_core::memo::{
    nobounds_columns, write_full_key, write_nobounds_key, ColumnVec, MemoKey, SharedMemo,
};
use dda_core::problem::{build_problem, constant_compare, DependenceProblem};
use dda_core::result::LevelVec;
use dda_core::stats::AnalysisStats;
use dda_core::steps::{self, ReduceEffects};
use dda_core::{
    AnalyzerConfig, CachedOutcome, DependenceAnalyzer, MemoMode, NullProbe, PairReport,
    ProgramReport,
};
use dda_engine::{analyze_batch, Deadline, Engine, EngineConfig};
use dda_ir::{extract_accesses, reference_pairs, Program, RefPair};
use dda_obs::MetricsRegistry;
use proptest::prelude::*;

mod common;
use common::{arb_batch, parse_batch, temp_path};

/// The name-resolving adapter between the current front end and the
/// oracle's string-keyed view of it.
mod resolve {
    use std::collections::BTreeMap;

    use dda_ir::{Access, AccessSet};

    /// The name of the array `a` touches.
    pub fn array(set: &AccessSet, a: &Access) -> String {
        set.symbols.name(a.array).to_owned()
    }

    /// `(array, a.id, b.id, common)` for every pair, enumerated the way
    /// the string-keyed front end did: group by array name, pair in
    /// program order, sort by access ids.
    pub fn named_pairs(
        set: &AccessSet,
        include_input_deps: bool,
    ) -> Vec<(String, usize, usize, usize)> {
        let mut by_array: BTreeMap<String, Vec<&Access>> = BTreeMap::new();
        for a in &set.accesses {
            by_array.entry(array(set, a)).or_default().push(a);
        }
        let mut pairs = Vec::new();
        for (name, group) in &by_array {
            for (k, &a) in group.iter().enumerate() {
                for &b in &group[k + 1..] {
                    if !include_input_deps && !a.is_write && !b.is_write {
                        continue;
                    }
                    let common = set
                        .loops_of(a)
                        .iter()
                        .zip(set.loops_of(b))
                        .take_while(|(x, y)| x == y)
                        .count();
                    pairs.push((name.clone(), a.id, b.id, common));
                }
            }
        }
        pairs.sort_by_key(|p| (p.1, p.2));
        pairs
    }
}

/// The frozen serial driver.
struct Oracle {
    config: AnalyzerConfig,
    full_memo: HashMap<MemoKey, CachedOutcome>,
    gcd_memo: HashMap<MemoKey, EqOutcome>,
    /// Keys inserted during the current batch; hits on any other key
    /// are splices.
    fresh_full: HashSet<MemoKey>,
    fresh_gcd: HashSet<MemoKey>,
    stats: AnalysisStats,
    /// Whether fresh solves are cancelled (an expired deadline).
    expired: bool,
    spliced: u64,
    cancelled: bool,
}

impl Oracle {
    fn new(config: AnalyzerConfig) -> Oracle {
        Oracle {
            config,
            full_memo: HashMap::new(),
            gcd_memo: HashMap::new(),
            fresh_full: HashSet::new(),
            fresh_gcd: HashSet::new(),
            stats: AnalysisStats::default(),
            expired: false,
            spliced: 0,
            cancelled: false,
        }
    }

    /// Loads a saved table, going through a [`SharedMemo`] for the
    /// decoding.
    fn load(&mut self, path: &Path) {
        let memo = SharedMemo::new(1);
        memo.load_memo_file(path).expect("saved tables load");
        let (gcd, full) = memo.merged_entries().expect("saved tables decode");
        let gcd = gcd.into_iter().map(|(k, v)| (k, Arc::unwrap_or_clone(v)));
        let full = full.into_iter().map(|(k, v)| (k, Arc::unwrap_or_clone(v)));
        self.gcd_memo.extend(gcd);
        self.full_memo.extend(full);
    }

    /// Starts a new batch: every entry present now counts as warm.
    fn begin_batch(&mut self) {
        self.fresh_full.clear();
        self.fresh_gcd.clear();
    }

    fn analyze_program(&mut self, program: &Program) -> ProgramReport {
        let before = self.stats;
        let set = extract_accesses(program);
        let pairs = reference_pairs(&set, self.config.include_input_deps);
        let named = resolve::named_pairs(&set, self.config.include_input_deps);
        let enumerated: Vec<(String, usize, usize, usize)> = pairs
            .iter()
            .map(|p| (resolve::array(&set, p.a), p.a.id, p.b.id, p.common))
            .collect();
        assert_eq!(
            enumerated, named,
            "pair enumeration differs from the named one"
        );
        let mut reports = Vec::with_capacity(pairs.len());
        for (pair, (name, ..)) in pairs.into_iter().zip(&named) {
            let report = self.pair(pair);
            assert_eq!(&*report.array, name.as_str(), "report names another array");
            reports.push(report);
        }
        ProgramReport::from_parts(reports, self.stats.since(&before))
    }

    /// One pair, with the deadline model: a cancelled pair keeps only
    /// `pairs`, `assumed` and its outcome tally.
    fn pair(&mut self, pair: RefPair<'_>) -> PairReport {
        let before = self.stats;
        match self.pair_inner(pair) {
            Some((report, spliced)) => {
                if spliced {
                    self.spliced += 1;
                }
                report
            }
            None => {
                self.cancelled = true;
                self.stats = before;
                self.stats.pairs += 1;
                self.stats.assumed += 1;
                let report = steps::pair_template(pair);
                steps::note_outcome(&mut self.stats, &report);
                report
            }
        }
    }

    /// Today's `pair_inner`; `None` when a fresh solve was cancelled.
    /// The flag says whether the verdict was spliced from a warm entry.
    fn pair_inner(&mut self, pair: RefPair<'_>) -> Option<(PairReport, bool)> {
        self.stats.pairs += 1;
        let template = steps::pair_template(pair);

        if let Some(dependent) = constant_compare(pair) {
            self.stats.constant += 1;
            let report =
                steps::constant_report(template, dependent, self.config.compute_directions);
            steps::note_outcome(&mut self.stats, &report);
            return Some((report, false));
        }
        let problem = match build_problem(pair, self.config.symbolic) {
            Err(_) => {
                self.stats.assumed += 1;
                let report = steps::assumed_report(template, self.config.compute_directions);
                steps::note_outcome(&mut self.stats, &report);
                return Some((report, false));
            }
            Ok(p) => p,
        };

        let (eq_outcome, gcd_warm) = self.gcd_phase(&problem)?;
        let lattice = match eq_outcome {
            None => {
                self.stats.assumed += 1;
                steps::note_outcome(&mut self.stats, &template);
                return Some((template, false)); // overflow: assume dependent
            }
            Some(EqOutcome::Independent { refutation }) => {
                self.stats.gcd_independent += 1;
                let refutation = refutation.or_else(|| refute_equalities(&problem));
                let report = steps::gcd_independent_report(template, refutation);
                steps::note_outcome(&mut self.stats, &report);
                return Some((report, gcd_warm));
            }
            Some(EqOutcome::Lattice(l)) => l,
        };

        let full_key: Option<(CanonicalKey, bool)> = full_key(&self.config, &problem);
        if let Some((ck, flipped)) = &full_key {
            self.stats.memo_queries += 1;
            if let Some(cached) = self.full_memo.get(&ck.key) {
                self.stats.memo_hits += 1;
                let warm = !self.fresh_full.contains(&ck.key);
                let cached = cached.clone();
                let report = steps::rehydrate(
                    self.config.memo,
                    &cached,
                    &ck.kept_levels,
                    *flipped,
                    template,
                );
                steps::note_outcome(&mut self.stats, &report);
                return Some((report, warm));
            }
        }
        if self.expired {
            return None;
        }

        let mut fx = ReduceEffects::default();
        let report = steps::analyze_reduced_probed(
            &self.config,
            &problem,
            &lattice,
            template,
            &mut fx,
            &mut NullProbe,
        );
        fx.apply_to(&mut self.stats);
        if let Some((ck, flipped)) = full_key {
            self.fresh_full.insert(ck.key.clone());
            self.full_memo.insert(
                ck.key.clone(),
                steps::outcome_in_key_space(&report, &ck.kept_levels, flipped),
            );
        }
        steps::note_outcome(&mut self.stats, &report);
        Some((report, false))
    }

    /// Today's `gcd_phase`: the outcome expanded to every problem
    /// variable plus whether it came from a warm entry. `None` when the
    /// solve was cancelled.
    fn gcd_phase(&mut self, problem: &DependenceProblem) -> Option<(Option<EqOutcome>, bool)> {
        if self.config.memo == MemoMode::Off {
            if self.expired {
                return None;
            }
            return Some((solve_equalities(problem), false));
        }
        let improved = self.config.memo == MemoMode::Improved;
        let nk = nobounds_key(problem, improved);
        self.stats.gcd_memo_queries += 1;
        let mut warm = false;
        let canonical = if let Some(hit) = self.gcd_memo.get(&nk.key) {
            self.stats.gcd_memo_hits += 1;
            warm = !self.fresh_gcd.contains(&nk.key);
            Some(hit.clone())
        } else {
            if self.expired {
                return None;
            }
            let computed = solve_system_restricted(problem, &nk.kept_vars);
            if let Some(v) = &computed {
                self.fresh_gcd.insert(nk.key.clone());
                self.gcd_memo.insert(nk.key.clone(), v.clone());
            }
            computed
        };
        let expanded = canonical.map(|eq| match eq {
            EqOutcome::Independent { refutation } => EqOutcome::Independent {
                refutation: refutation
                    .and_then(|w| witness_for_problem(problem, &nk.kept_vars, &w)),
            },
            EqOutcome::Lattice(l) => {
                EqOutcome::Lattice(expand_lattice(&l, &nk.kept_vars, problem.num_vars()))
            }
        });
        Some((expanded, warm))
    }

    fn entries(&self) -> (usize, usize) {
        (self.gcd_memo.len(), self.full_memo.len())
    }
}

/// An owned full-result key and the common levels it keeps.
struct CanonicalKey {
    key: MemoKey,
    kept_levels: LevelVec<usize>,
}

/// The full-result memo key for a problem, or `None` when memoization is
/// off, and whether it is the problem's mirror's (see `write_full_key`).
fn full_key(config: &AnalyzerConfig, problem: &DependenceProblem) -> Option<(CanonicalKey, bool)> {
    if config.memo == MemoMode::Off {
        return None;
    }
    let mut key = Vec::new();
    let (kept_levels, flipped) = write_full_key(
        problem,
        config.memo == MemoMode::Improved,
        config.memo_symmetry,
        &mut key,
        &mut Vec::new(),
    );
    let key = MemoKey::from_vec(key);
    Some((CanonicalKey { key, kept_levels }, flipped))
}

/// An owned no-bounds key and the columns it keeps.
struct NoBoundsKey {
    key: MemoKey,
    kept_vars: ColumnVec,
}

/// The no-bounds (GCD table) key for a problem.
fn nobounds_key(problem: &DependenceProblem, improved: bool) -> NoBoundsKey {
    let kept_vars = nobounds_columns(problem, improved);
    let mut key = Vec::new();
    write_nobounds_key(problem, &kept_vars, &mut key);
    let key = MemoKey::from_vec(key);
    NoBoundsKey { key, kept_vars }
}

/// `(gcd, full)` entry counts of a memo — the population of both
/// residency tiers, whether or not archive records were faulted in.
fn merged_entries(memo: &SharedMemo) -> (usize, usize) {
    let (gcd, full) = memo.merged_entries().expect("warm tables decode");
    (gcd.len(), full.len())
}

/// Every memo mode, with symmetric canonicalization on and off (it is a
/// no-op with memoization off).
fn configs() -> Vec<AnalyzerConfig> {
    let mut out = Vec::new();
    for memo in [MemoMode::Off, MemoMode::Simple, MemoMode::Improved] {
        for memo_symmetry in [false, true] {
            if memo == MemoMode::Off && memo_symmetry {
                continue;
            }
            out.push(AnalyzerConfig {
                memo,
                memo_symmetry,
                ..AnalyzerConfig::default()
            });
        }
    }
    out
}

fn engine_config(cfg: AnalyzerConfig, workers: usize, shards: usize) -> EngineConfig {
    EngineConfig {
        workers,
        shards,
        memo_mode: cfg.memo,
        analyzer: cfg,
        ..EngineConfig::default()
    }
}

const WORKERS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 2] = [1, 16];

/// Warm state to start from: a v3 archive of a trained table. The
/// first half of the batch trains as is, so its pairs splice from
/// full-table hits. The rest trains with every upper bound moved: its
/// GCD keys are warm but its full keys are not, so warm runs mix splices
/// with fresh cascades after warm GCD hits.
struct Warm {
    archive: PathBuf,
}

impl Warm {
    fn train(cfg: AnalyzerConfig, sources: &[String]) -> Warm {
        let half = sources.len().div_ceil(2);
        let mut training = sources[..half].to_vec();
        training.extend(
            sources[half..]
                .iter()
                .map(|s| s.replace(" to ", " to 7 + ")),
        );
        let mut trainer = Engine::with_config(engine_config(cfg, 2, 4));
        trainer.analyze_programs(&parse_batch(&training));
        let archive = temp_path("dda-memo3");
        trainer.save_memo_file_v3(&archive, 3).expect("v3 save");
        Warm { archive }
    }

    /// Warm-starts a table the way `start` says, through `load`.
    fn load(
        &self,
        start: Start,
        mut load: impl FnMut(&Path) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let times = match start {
            Start::Cold => 0,
            Start::Lazy => 1,
            Start::Eager => 2,
        };
        (0..times).try_for_each(|_| load(&self.archive))
    }

    fn oracle(&self, cfg: AnalyzerConfig) -> Oracle {
        let mut oracle = Oracle::new(cfg);
        oracle.load(&self.archive);
        oracle
    }
}

impl Drop for Warm {
    fn drop(&mut self) {
        std::fs::remove_file(&self.archive).ok();
    }
}

/// Two pairs with one GCD-independent key: the second is a memo hit on
/// an entry its own batch wrote, which is not a splice.
const GCD_INDEPENDENT: &str =
    "for i = 1 to 10 { a[2 * i] = a[2 * i + 1] + 1; c[2 * i] = c[2 * i + 1] + 1; }";

/// A generated batch plus [`GCD_INDEPENDENT`], which random subscripts
/// rarely produce.
fn with_fixed(mut sources: Vec<String>) -> Vec<String> {
    sources.push(GCD_INDEPENDENT.to_owned());
    sources
}

/// How an engine-side run starts.
#[derive(Clone, Copy, Debug)]
enum Start {
    Cold,
    /// The archive attached as a lazily-faulted tier.
    Lazy,
    /// The archive loaded twice: the second load cannot attach, so it
    /// decodes every record into the resident tables.
    Eager,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold runs: the serial analyzer and the engine at every worker and
    /// shard count reproduce the oracle exactly.
    #[test]
    fn cold_runs_match_the_oracle(sources in arb_batch().prop_map(with_fixed)) {
        let programs = parse_batch(&sources);
        for cfg in configs() {
            let mut oracle = Oracle::new(cfg);
            oracle.begin_batch();
            let want: Vec<ProgramReport> =
                programs.iter().map(|p| oracle.analyze_program(p)).collect();
            let ctx = format!("memo={:?} symmetry={}\nsources: {sources:#?}", cfg.memo, cfg.memo_symmetry);

            let mut analyzer = DependenceAnalyzer::with_config(cfg);
            let got: Vec<ProgramReport> =
                programs.iter().map(|p| analyzer.analyze_program(p)).collect();
            prop_assert_eq!(&got, &want, "analyzer reports: {}", ctx);
            prop_assert_eq!(analyzer.stats(), &oracle.stats, "analyzer stats: {}", ctx);
            prop_assert_eq!(
                (analyzer.gcd_memo_entries(), analyzer.memo_entries()),
                oracle.entries(),
                "analyzer memo population: {}", ctx
            );

            for workers in WORKERS {
                for shards in SHARDS {
                    let mut engine = Engine::with_config(engine_config(cfg, workers, shards));
                    let got = engine.analyze_programs(&programs);
                    let at = format!("workers={workers} shards={shards} {ctx}");
                    prop_assert_eq!(&got, &want, "engine reports: {}", at);
                    prop_assert_eq!(engine.stats(), &oracle.stats, "engine stats: {}", at);
                    prop_assert_eq!(
                        (engine.gcd_memo_entries(), engine.memo_entries()),
                        oracle.entries(),
                        "engine memo population: {}", at
                    );
                    prop_assert_eq!(engine.metrics().incremental_spliced(), oracle.spliced, "{}", at);
                }
            }
        }
    }

    /// Warm starts from a lazily attached and from an eagerly decoded
    /// archive: same reports, statistics, populations and splices as the
    /// oracle warmed from the same tables.
    #[test]
    fn warm_starts_match_the_oracle(sources in arb_batch().prop_map(with_fixed)) {
        let programs = parse_batch(&sources);
        for cfg in configs().into_iter().filter(|c| c.memo != MemoMode::Off) {
            let warm = Warm::train(cfg, &sources);
            let mut oracle = warm.oracle(cfg);
            oracle.begin_batch();
            let want: Vec<ProgramReport> =
                programs.iter().map(|p| oracle.analyze_program(p)).collect();
            let ctx = format!("memo={:?} symmetry={}\nsources: {sources:#?}", cfg.memo, cfg.memo_symmetry);

            for start in [Start::Eager, Start::Lazy] {
                let mut analyzer = DependenceAnalyzer::with_config(cfg);
                warm.load(start, |p| analyzer.load_memo_file(p)).expect("warm load");
                let got: Vec<ProgramReport> =
                    programs.iter().map(|p| analyzer.analyze_program(p)).collect();
                prop_assert_eq!(&got, &want, "analyzer reports ({:?}): {}", start, ctx);
                prop_assert_eq!(analyzer.stats(), &oracle.stats, "analyzer stats ({:?}): {}", start, ctx);
                prop_assert_eq!(
                    merged_entries(analyzer.memo()),
                    oracle.entries(),
                    "analyzer memo population ({:?}): {}", start, ctx
                );
            }

            for workers in WORKERS {
                for shards in SHARDS {
                    for start in [Start::Eager, Start::Lazy] {
                        let mut engine = Engine::with_config(engine_config(cfg, workers, shards));
                        warm.load(start, |p| engine.load_memo_file(p)).expect("warm load");
                        let got = engine.analyze_programs(&programs);
                        let at = format!("{start:?} workers={workers} shards={shards} {ctx}");
                        prop_assert_eq!(&got, &want, "engine reports: {}", at);
                        prop_assert_eq!(engine.stats(), &oracle.stats, "engine stats: {}", at);
                        prop_assert_eq!(
                            merged_entries(engine.memo()),
                            oracle.entries(),
                            "engine memo population: {}", at
                        );
                        prop_assert_eq!(
                            engine.metrics().incremental_spliced(),
                            oracle.spliced,
                            "engine splices: {}", at
                        );
                    }
                }
            }
        }
    }

    /// An already-expired deadline, cold and warm: every fresh solve is
    /// cancelled to a conservative assumed dependence, warm entries still
    /// answer, and nothing new reaches the memo.
    #[test]
    fn expired_deadlines_match_the_oracle(sources in arb_batch().prop_map(with_fixed)) {
        let programs = parse_batch(&sources);
        for cfg in configs() {
            let warm = (cfg.memo != MemoMode::Off).then(|| Warm::train(cfg, &sources));
            for start in [Start::Cold, Start::Eager, Start::Lazy] {
                let warm = match (start, &warm) {
                    (Start::Cold, _) => None,
                    (_, Some(w)) => Some(w),
                    (_, None) => continue,
                };
                let mut oracle = match warm {
                    Some(w) => w.oracle(cfg),
                    None => Oracle::new(cfg),
                };
                oracle.expired = true;
                oracle.begin_batch();
                let want: Vec<ProgramReport> =
                    programs.iter().map(|p| oracle.analyze_program(p)).collect();
                for workers in WORKERS {
                    for shards in SHARDS {
                        let config = EngineConfig {
                            check: false,
                            ..engine_config(cfg, workers, shards)
                        };
                        let memo = SharedMemo::new(shards);
                        if let Some(w) = warm {
                            w.load(start, |p| memo.load_memo_file(p)).expect("warm load");
                        }
                        let obs = MetricsRegistry::with_workers(workers);
                        let out = analyze_batch(
                            &config,
                            &memo,
                            &obs,
                            &programs,
                            Deadline::after(Duration::ZERO),
                            None,
                        );
                        let at = format!(
                            "{start:?} memo={:?} symmetry={} workers={workers} shards={shards}\n\
                             sources: {sources:#?}",
                            cfg.memo, cfg.memo_symmetry
                        );
                        prop_assert_eq!(&out.reports, &want, "reports: {}", at);
                        prop_assert_eq!(&out.stats, &oracle.stats, "stats: {}", at);
                        prop_assert_eq!(out.deadline_exceeded, oracle.cancelled, "flag: {}", at);
                        prop_assert_eq!(out.spliced, oracle.spliced, "splices: {}", at);
                        prop_assert_eq!(out.spliced + out.resolved, out.stats.pairs, "{}", at);
                        prop_assert_eq!(
                            merged_entries(&memo),
                            oracle.entries(),
                            "memo population: {}", at
                        );
                    }
                }
            }
        }
    }
}

/// Training on `examples/loops/*.loop` and saving two shards reproduces,
/// byte for byte, the committed archive every warm-start fixture loads.
#[test]
fn training_reproduces_the_v3_fixture() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(format!("{root}/examples/loops"))
        .expect("examples/loops")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    paths.sort();
    let sources: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("example reads"))
        .collect();
    let mut engine = Engine::with_config(EngineConfig {
        check: false,
        ..EngineConfig::default()
    });
    engine.analyze_programs(&parse_batch(&sources));
    let saved = temp_path("dda-memo3");
    engine.save_memo_file_v3(&saved, 2).expect("v3 save");
    let bytes = std::fs::read(&saved).expect("saved archive reads");
    std::fs::remove_file(&saved).ok();
    let fixture =
        std::fs::read(format!("{root}/tests/corpus/memo/loops.v3.memo")).expect("fixture reads");
    assert_eq!(bytes, fixture);
}
