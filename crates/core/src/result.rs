//! Result types: answers, resolving tests, direction and distance vectors.

use std::fmt;

use dda_linalg::SmallVec;

/// Common loop levels a per-level vector holds inline. Nests deeper than
/// this spill to the heap; the dependence nests of real programs (and of
/// the synthetic PERFECT suite) almost never are.
pub const INLINE_LEVELS: usize = 4;

/// Per-level storage: one element per common loop, inline up to
/// [`INLINE_LEVELS`] levels, so building a report allocates nothing for
/// it.
pub type LevelVec<T> = SmallVec<T, INLINE_LEVELS>;

/// The four cascaded tests, in the cost order the paper applies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TestKind {
    /// Single Variable Per Constraint test.
    Svpc,
    /// Acyclic test.
    Acyclic,
    /// Simple Loop Residue test (exact restricted form).
    LoopResidue,
    /// Fourier–Motzkin backup.
    FourierMotzkin,
}

impl TestKind {
    /// All tests in cascade order.
    pub const ALL: [TestKind; 4] = [
        TestKind::Svpc,
        TestKind::Acyclic,
        TestKind::LoopResidue,
        TestKind::FourierMotzkin,
    ];

    /// Canonical lowercase token: the `--tests` syntax, the metrics
    /// stage label and the trace and bench key for this test.
    #[must_use]
    pub const fn token(self) -> &'static str {
        match self {
            TestKind::Svpc => "svpc",
            TestKind::Acyclic => "acyclic",
            TestKind::LoopResidue => "residue",
            TestKind::FourierMotzkin => "fm",
        }
    }
}

impl fmt::Display for TestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TestKind::Svpc => "SVPC",
            TestKind::Acyclic => "Acyclic",
            TestKind::LoopResidue => "Loop Residue",
            TestKind::FourierMotzkin => "Fourier-Motzkin",
        };
        f.write_str(s)
    }
}

/// What resolved a dependence question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedBy {
    /// Both references had constant subscripts: compared directly, no
    /// dependence testing (the paper's "Constant" column).
    Constant,
    /// The extended GCD test proved independence from the equality system
    /// alone (the "GCD" column).
    Gcd,
    /// One of the cascaded tests on the reduced inequality system.
    Test(TestKind),
    /// No test applied (non-affine subscripts, arithmetic overflow, or
    /// symbolic analysis disabled): dependence is assumed.
    Assumed,
}

impl fmt::Display for ResolvedBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolvedBy::Constant => f.write_str("constant"),
            ResolvedBy::Gcd => f.write_str("GCD"),
            ResolvedBy::Test(t) => write!(f, "{t}"),
            ResolvedBy::Assumed => f.write_str("assumed"),
        }
    }
}

/// The answer to "can these two references touch the same location?"
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Provably no common location: the loop can be parallelized with
    /// respect to this pair.
    Independent,
    /// Provably dependent; carries a witness assignment of the problem
    /// variables (loop indices of both references, then symbolics) when
    /// one was constructed.
    Dependent(Option<Vec<i64>>),
    /// The tests could not decide; dependence is assumed (sound, inexact).
    Unknown,
}

impl Answer {
    /// Whether the answer is a definitive "independent".
    #[must_use]
    pub fn is_independent(&self) -> bool {
        matches!(self, Answer::Independent)
    }

    /// Whether the answer is a definitive "dependent".
    #[must_use]
    pub fn is_dependent(&self) -> bool {
        matches!(self, Answer::Dependent(_))
    }

    /// Whether the answer is exact (not an assumption).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        !matches!(self, Answer::Unknown)
    }
}

/// The outcome of a dependence query on one pair of references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceResult {
    /// The verdict.
    pub answer: Answer,
    /// What produced the verdict.
    pub resolved_by: ResolvedBy,
}

impl DependenceResult {
    /// Shorthand for `self.answer.is_independent()`.
    #[must_use]
    pub fn is_independent(&self) -> bool {
        self.answer.is_independent()
    }
}

/// One component of a direction vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Direction {
    /// `<` — the first reference's iteration precedes the second's.
    Lt,
    /// `=` — same iteration at this level.
    Eq,
    /// `>` — the first reference's iteration follows the second's.
    Gt,
    /// `*` — any direction (unrefined or proven irrelevant).
    #[default]
    Any,
}

impl Direction {
    /// The three refinable directions, in the order the hierarchy tries
    /// them.
    pub const REFINED: [Direction; 3] = [Direction::Lt, Direction::Eq, Direction::Gt];
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Any => "*",
        };
        f.write_str(s)
    }
}

/// A direction vector: one [`Direction`] per common loop, outermost first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirectionVector(pub LevelVec<Direction>);

impl DirectionVector {
    /// The all-`*` vector of length `n`.
    #[must_use]
    pub fn any(n: usize) -> DirectionVector {
        DirectionVector(LevelVec::from_elem(Direction::Any, n))
    }

    /// Whether every component is `=` — a loop-independent (same
    /// iteration) dependence.
    #[must_use]
    pub fn is_all_eq(&self) -> bool {
        self.0.iter().all(|&d| d == Direction::Eq)
    }
}

impl fmt::Display for DirectionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// Classification of a dependence by the access kinds of its endpoints,
/// oriented source → sink (the source executes first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceKind {
    /// Write then read (true/RAW dependence).
    Flow,
    /// Read then write (WAR).
    Anti,
    /// Write then write (WAW).
    Output,
    /// Read then read (RAR; only reported when input dependences are
    /// requested).
    Input,
}

impl DependenceKind {
    /// Classifies by the two endpoints' access kinds, in source → sink
    /// order.
    #[must_use]
    pub fn classify(source_is_write: bool, sink_is_write: bool) -> DependenceKind {
        match (source_is_write, sink_is_write) {
            (true, false) => DependenceKind::Flow,
            (false, true) => DependenceKind::Anti,
            (true, true) => DependenceKind::Output,
            (false, false) => DependenceKind::Input,
        }
    }
}

impl fmt::Display for DependenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DependenceKind::Flow => "flow",
            DependenceKind::Anti => "anti",
            DependenceKind::Output => "output",
            DependenceKind::Input => "input",
        };
        f.write_str(s)
    }
}

/// A distance vector: the constant `i′ − i` per common loop when known.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DistanceVector(pub LevelVec<Option<i64>>);

impl DistanceVector {
    /// The all-unknown vector of length `n`.
    #[must_use]
    pub fn unknown(n: usize) -> DistanceVector {
        DistanceVector(LevelVec::from_elem(None, n))
    }
}

impl fmt::Display for DistanceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match d {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "?")?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_vector_display() {
        let v = DirectionVector([Direction::Lt, Direction::Eq, Direction::Any].into());
        assert_eq!(v.to_string(), "(<, =, *)");
        assert!(!v.is_all_eq());
        assert!(DirectionVector([Direction::Eq, Direction::Eq].into()).is_all_eq());
    }

    #[test]
    fn answer_predicates() {
        assert!(Answer::Independent.is_independent());
        assert!(Answer::Dependent(None).is_dependent());
        assert!(Answer::Dependent(None).is_exact());
        assert!(!Answer::Unknown.is_exact());
    }

    #[test]
    fn distance_vector_display() {
        let d = DistanceVector([Some(2), None].into());
        assert_eq!(d.to_string(), "(2, ?)");
    }

    #[test]
    fn test_kind_display_ordering() {
        let names: Vec<String> = TestKind::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(
            names,
            ["SVPC", "Acyclic", "Loop Residue", "Fourier-Motzkin"]
        );
    }
}
