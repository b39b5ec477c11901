//! Persisting memo tables across compilations.
//!
//! Section 5: "One other possible improvement is to store the hash table
//! across compilations. This will eliminate the dependence cost of
//! incremental compilation. In addition, if there is similarity across
//! programs, one could use a set of benchmarks to set up a standard table
//! which would be used by all programs."
//!
//! The format is a line-oriented, versioned text encoding (plain `i64`
//! streams — no external serialization dependency). Loading is strict:
//! any malformed line aborts with a located error rather than silently
//! importing half a table.
//!
//! Version 2 appends each full record's [`Certificate`] so warm starts
//! keep their evidence, and each independent gcd record's refutation
//! witness so warm hits skip the re-derivation. Version 1 tables still
//! load, with every full entry's certificate degraded to
//! [`Certificate::Unverified`] and every gcd witness absent — the
//! verdicts are reused, but `--check` re-derives their evidence.

use std::fmt;
use std::fs;
use std::path::Path;

/// Streams bytes to `path` crash-safely: `write` receives a buffered
/// writer over a temporary file in the same directory (same
/// filesystem, so the final step is a true rename), and the temp file
/// is atomically renamed over the target only after the stream is
/// flushed. A process killed mid-write leaves either the old file or a
/// stray `.tmp` — never a truncated memo. The streaming shape lets
/// large payloads (the v3 binary shards) go to disk without being
/// buffered as one giant in-memory string first.
pub(crate) fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut out = std::io::BufWriter::new(fs::File::create(&tmp)?);
        write(&mut out)?;
        out.flush()?;
        drop(out);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Leave no half-written temp file behind on failure.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`write_atomic_with`] for callers that already hold the whole
/// payload as one string (the v2 text format).
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    write_atomic_with(path, |out| out.write_all(contents.as_bytes()))
}

use dda_linalg::Matrix;

use crate::analyzer::CachedOutcome;
use crate::certificate::{
    Certificate, Derivation, DirTree, FmTree, RefProof, Rule, SystemRefutation,
};
use crate::gcd::{EqOutcome, Lattice};
use crate::memo::{MemoKey, SharedMemo};
use crate::result::{
    Answer, DependenceResult, Direction, DirectionVector, DistanceVector, ResolvedBy, TestKind,
};

/// Magic header of the persisted format.
const HEADER: &str = "dda-memo v2";
/// Previous version, still accepted on load (certificates absent).
const HEADER_V1: &str = "dda-memo v1";

/// Errors raised while loading a persisted table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line where the problem was found.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memo file, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PersistError {}

/// Which on-disk memo format a load found, as sniffed from the file's
/// first bytes (`DDAMEMO3` magic → binary, anything else → text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoFormat {
    /// Line-oriented `dda-memo v2` text (v1 still accepted).
    V2Text,
    /// Binary sharded `dda-memo v3` archive (see [`crate::persist_v3`]).
    V3Binary,
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError {
        line,
        message: message.into(),
    })
}

// --- encoding helpers ---------------------------------------------------

fn push_ints(out: &mut String, ints: &[i64]) {
    for (i, v) in ints.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&v.to_string());
    }
}

fn encode_dir(d: Direction) -> char {
    match d {
        Direction::Lt => '<',
        Direction::Eq => '=',
        Direction::Gt => '>',
        Direction::Any => '*',
    }
}

fn decode_dir(c: char, line: usize) -> Result<Direction, PersistError> {
    match c {
        '<' => Ok(Direction::Lt),
        '=' => Ok(Direction::Eq),
        '>' => Ok(Direction::Gt),
        '*' => Ok(Direction::Any),
        other => err(line, format!("bad direction `{other}`")),
    }
}

fn encode_resolved(r: ResolvedBy) -> &'static str {
    match r {
        ResolvedBy::Constant => "C",
        ResolvedBy::Gcd => "G",
        ResolvedBy::Test(TestKind::Svpc) => "T0",
        ResolvedBy::Test(TestKind::Acyclic) => "T1",
        ResolvedBy::Test(TestKind::LoopResidue) => "T2",
        ResolvedBy::Test(TestKind::FourierMotzkin) => "T3",
        ResolvedBy::Assumed => "A",
    }
}

fn decode_resolved(s: &str, line: usize) -> Result<ResolvedBy, PersistError> {
    Ok(match s {
        "C" => ResolvedBy::Constant,
        "G" => ResolvedBy::Gcd,
        "T0" => ResolvedBy::Test(TestKind::Svpc),
        "T1" => ResolvedBy::Test(TestKind::Acyclic),
        "T2" => ResolvedBy::Test(TestKind::LoopResidue),
        "T3" => ResolvedBy::Test(TestKind::FourierMotzkin),
        "A" => ResolvedBy::Assumed,
        other => return err(line, format!("bad resolver `{other}`")),
    })
}

/// A small cursor over whitespace-separated fields.
struct Fields<'a> {
    parts: std::str::SplitWhitespace<'a>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn new(s: &'a str, line: usize) -> Fields<'a> {
        Fields {
            parts: s.split_whitespace(),
            line,
        }
    }

    fn next_str(&mut self) -> Result<&'a str, PersistError> {
        match self.parts.next() {
            Some(p) => Ok(p),
            None => err(self.line, "unexpected end of line"),
        }
    }

    fn next_i64(&mut self) -> Result<i64, PersistError> {
        let s = self.next_str()?;
        s.parse().map_err(|_| PersistError {
            line: self.line,
            message: format!("bad integer `{s}`"),
        })
    }

    fn next_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.next_i64()?;
        usize::try_from(v).map_err(|_| PersistError {
            line: self.line,
            message: format!("bad count `{v}`"),
        })
    }

    fn next_ints(&mut self, n: usize) -> Result<Vec<i64>, PersistError> {
        (0..n).map(|_| self.next_i64()).collect()
    }

    /// Number of whitespace-separated fields left on the line.
    fn remaining(&self) -> usize {
        self.parts.clone().count()
    }

    /// Reads a count of items still to be decoded from this line. Every
    /// item occupies at least one field, so any honest count is bounded
    /// by what remains — rejecting a corrupt or crafted count *before*
    /// the caller sizes an allocation from it.
    fn next_count(&mut self) -> Result<usize, PersistError> {
        let n = self.next_usize()?;
        let left = self.remaining();
        if n > left {
            return err(
                self.line,
                format!("count {n} exceeds the {left} remaining fields"),
            );
        }
        Ok(n)
    }

    fn finish(mut self) -> Result<(), PersistError> {
        match self.parts.next() {
            None => Ok(()),
            Some(extra) => err(self.line, format!("trailing `{extra}`")),
        }
    }
}

// --- certificate encode/decode ------------------------------------------

fn encode_rule(r: &Rule, out: &mut String) {
    match r {
        Rule::Premise { coeffs, rhs } => {
            out.push_str(&format!(" P {} ", coeffs.len()));
            push_ints(out, coeffs);
            out.push_str(&format!(" {rhs}"));
        }
        Rule::Comb { a, ca, b, cb } => out.push_str(&format!(" C {a} {ca} {b} {cb}")),
        Rule::Div { of, d } => out.push_str(&format!(" D {of} {d}")),
    }
}

fn decode_rule(f: &mut Fields<'_>) -> Result<Rule, PersistError> {
    Ok(match f.next_str()? {
        "P" => {
            let n = f.next_count()?;
            let coeffs = f.next_ints(n)?;
            let rhs = f.next_i64()?;
            Rule::Premise { coeffs, rhs }
        }
        "C" => Rule::Comb {
            a: f.next_usize()?,
            ca: f.next_i64()?,
            b: f.next_usize()?,
            cb: f.next_i64()?,
        },
        "D" => Rule::Div {
            of: f.next_usize()?,
            d: f.next_i64()?,
        },
        other => return err(f.line, format!("bad rule tag `{other}`")),
    })
}

fn encode_fmtree(t: &FmTree, out: &mut String) {
    match t {
        FmTree::Sealed(d) => {
            out.push_str(&format!(" S {}", d.rules.len()));
            for r in &d.rules {
                encode_rule(r, out);
            }
            out.push_str(&format!(" {}", d.seal));
        }
        FmTree::Split {
            var,
            le,
            ge,
            left,
            right,
        } => {
            out.push_str(&format!(" B {var} {le} {ge}"));
            encode_fmtree(left, out);
            encode_fmtree(right, out);
        }
    }
}

fn decode_fmtree(f: &mut Fields<'_>) -> Result<FmTree, PersistError> {
    Ok(match f.next_str()? {
        "S" => {
            let n = f.next_count()?;
            let rules = (0..n)
                .map(|_| decode_rule(f))
                .collect::<Result<Vec<_>, _>>()?;
            let seal = f.next_usize()?;
            FmTree::Sealed(Derivation { rules, seal })
        }
        "B" => FmTree::Split {
            var: f.next_usize()?,
            le: f.next_i64()?,
            ge: f.next_i64()?,
            left: Box::new(decode_fmtree(f)?),
            right: Box::new(decode_fmtree(f)?),
        },
        other => return err(f.line, format!("bad fm tag `{other}`")),
    })
}

fn encode_sysref(s: &SystemRefutation, out: &mut String) {
    out.push_str(&format!(" {}", s.arena.len()));
    for r in &s.arena {
        encode_rule(r, out);
    }
    match &s.proof {
        RefProof::Arena { seal } => out.push_str(&format!(" A {seal}")),
        RefProof::Fm { tree } => {
            out.push_str(" F");
            encode_fmtree(tree, out);
        }
    }
}

fn decode_sysref(f: &mut Fields<'_>) -> Result<SystemRefutation, PersistError> {
    let n = f.next_count()?;
    let arena = (0..n)
        .map(|_| decode_rule(f))
        .collect::<Result<Vec<_>, _>>()?;
    let proof = match f.next_str()? {
        "A" => RefProof::Arena {
            seal: f.next_usize()?,
        },
        "F" => RefProof::Fm {
            tree: decode_fmtree(f)?,
        },
        other => return err(f.line, format!("bad proof tag `{other}`")),
    };
    Ok(SystemRefutation { arena, proof })
}

fn encode_dirtree(t: &DirTree, out: &mut String) {
    match t {
        DirTree::Refuted(s) => {
            out.push_str(" R");
            encode_sysref(s, out);
        }
        DirTree::Split { level, lt, eq, gt } => {
            out.push_str(&format!(" T {level}"));
            encode_dirtree(lt, out);
            encode_dirtree(eq, out);
            encode_dirtree(gt, out);
        }
    }
}

fn decode_dirtree(f: &mut Fields<'_>) -> Result<DirTree, PersistError> {
    Ok(match f.next_str()? {
        "R" => DirTree::Refuted(decode_sysref(f)?),
        "T" => DirTree::Split {
            level: f.next_usize()?,
            lt: Box::new(decode_dirtree(f)?),
            eq: Box::new(decode_dirtree(f)?),
            gt: Box::new(decode_dirtree(f)?),
        },
        other => return err(f.line, format!("bad dir tag `{other}`")),
    })
}

fn encode_lattice_part(particular: &[i64], basis: &Matrix, out: &mut String) {
    out.push_str(&format!(
        " {} {} {} ",
        particular.len(),
        basis.rows(),
        basis.cols()
    ));
    push_ints(out, particular);
    for r in 0..basis.rows() {
        out.push(' ');
        push_ints(out, basis.row(r));
    }
}

fn decode_lattice_part(f: &mut Fields<'_>) -> Result<(Vec<i64>, Matrix), PersistError> {
    let np = f.next_count()?;
    let rows = f.next_count()?;
    let cols = f.next_count()?;
    if np != rows {
        return err(f.line, "particular length must equal basis rows");
    }
    let particular = f.next_ints(np)?;
    decode_matrix(f, rows, cols).map(|basis| (particular, basis))
}

/// Decodes a `rows × cols` matrix, validating the (file-supplied) sizes
/// against the fields actually left on the line before allocating —
/// a crafted `100000 100000` header is a located parse error, not a
/// multi-gigabyte allocation.
fn decode_matrix(f: &mut Fields<'_>, rows: usize, cols: usize) -> Result<Matrix, PersistError> {
    let cells = rows.checked_mul(cols);
    if cells.is_none_or(|c| c > f.remaining()) {
        return err(f.line, format!("line too short for a {rows}x{cols} basis"));
    }
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            m[(r, c)] = f.next_i64()?;
        }
    }
    Ok(m)
}

fn encode_cert(c: &Certificate, out: &mut String) {
    match c {
        Certificate::Conservative => out.push_str(" c -"),
        Certificate::Unverified => out.push_str(" c u"),
        Certificate::Witness { x } => {
            out.push_str(&format!(" c W {} ", x.len()));
            push_ints(out, x);
        }
        Certificate::ConstantsEqual => out.push_str(" c E"),
        Certificate::ConstantsDiffer => out.push_str(" c N"),
        Certificate::GcdRefutation { numer, denom } => {
            out.push_str(&format!(" c G {} ", numer.len()));
            push_ints(out, numer);
            out.push_str(&format!(" {denom}"));
        }
        Certificate::Refuted {
            particular,
            basis,
            refutation,
        } => {
            out.push_str(" c R");
            encode_lattice_part(particular, basis, out);
            encode_sysref(refutation, out);
        }
        Certificate::DirectionsExhausted {
            particular,
            basis,
            tree,
        } => {
            out.push_str(" c X");
            encode_lattice_part(particular, basis, out);
            encode_dirtree(tree, out);
        }
    }
}

fn decode_cert(f: &mut Fields<'_>) -> Result<Certificate, PersistError> {
    match f.next_str()? {
        "c" => {}
        other => return err(f.line, format!("expected `c`, found `{other}`")),
    }
    Ok(match f.next_str()? {
        "-" => Certificate::Conservative,
        "u" => Certificate::Unverified,
        "W" => {
            let n = f.next_count()?;
            Certificate::Witness { x: f.next_ints(n)? }
        }
        "E" => Certificate::ConstantsEqual,
        "N" => Certificate::ConstantsDiffer,
        "G" => {
            let n = f.next_count()?;
            let numer = f.next_ints(n)?;
            Certificate::GcdRefutation {
                numer,
                denom: f.next_i64()?,
            }
        }
        "R" => {
            let (particular, basis) = decode_lattice_part(f)?;
            Certificate::Refuted {
                particular,
                basis,
                refutation: decode_sysref(f)?,
            }
        }
        "X" => {
            let (particular, basis) = decode_lattice_part(f)?;
            Certificate::DirectionsExhausted {
                particular,
                basis,
                tree: decode_dirtree(f)?,
            }
        }
        other => return err(f.line, format!("bad certificate tag `{other}`")),
    })
}

// --- per-record encode/decode -------------------------------------------

fn encode_gcd(key: &MemoKey, value: &EqOutcome, out: &mut String) {
    out.push_str("gcd ");
    out.push_str(&key.as_slice().len().to_string());
    out.push(' ');
    push_ints(out, key.as_slice());
    match value {
        EqOutcome::Independent { refutation } => {
            out.push_str(" I");
            match refutation {
                Some((numer, denom)) => {
                    out.push_str(&format!(" w {} ", numer.len()));
                    push_ints(out, numer);
                    out.push_str(&format!(" {denom}"));
                }
                None => out.push_str(" -"),
            }
        }
        EqOutcome::Lattice(l) => {
            out.push_str(" L ");
            out.push_str(&format!(
                "{} {} {} ",
                l.particular.len(),
                l.basis.rows(),
                l.basis.cols()
            ));
            push_ints(out, &l.particular);
            for r in 0..l.basis.rows() {
                out.push(' ');
                push_ints(out, l.basis.row(r));
            }
        }
    }
    out.push('\n');
}

fn decode_gcd(f: &mut Fields<'_>, v2: bool) -> Result<(MemoKey, EqOutcome), PersistError> {
    let klen = f.next_count()?;
    let key = MemoKey::from_vec(f.next_ints(klen)?);
    let tag = f.next_str()?;
    let value = match tag {
        "I" if !v2 => {
            // v1 records predate refutation witnesses.
            EqOutcome::Independent { refutation: None }
        }
        "I" => {
            let refutation = match f.next_str()? {
                "-" => None,
                "w" => {
                    let n = f.next_count()?;
                    let numer = f.next_ints(n)?;
                    Some((numer, f.next_i64()?))
                }
                other => return err(f.line, format!("bad refutation tag `{other}`")),
            };
            EqOutcome::Independent { refutation }
        }
        "L" => {
            let np = f.next_count()?;
            let rows = f.next_count()?;
            let cols = f.next_count()?;
            if np != rows {
                return err(f.line, "particular length must equal basis rows");
            }
            let particular = f.next_ints(np)?;
            let basis = decode_matrix(f, rows, cols)?;
            EqOutcome::Lattice(Lattice { particular, basis })
        }
        other => return err(f.line, format!("bad gcd tag `{other}`")),
    };
    Ok((key, value))
}

fn encode_full(key: &MemoKey, value: &CachedOutcome, out: &mut String) {
    out.push_str("full ");
    out.push_str(&key.as_slice().len().to_string());
    out.push(' ');
    push_ints(out, key.as_slice());
    let answer = match &value.result.answer {
        Answer::Independent => "I",
        Answer::Dependent(_) => "D",
        Answer::Unknown => "U",
    };
    out.push_str(&format!(
        " {answer} {} ",
        encode_resolved(value.result.resolved_by)
    ));
    match &value.witness {
        Some(w) => {
            out.push_str(&format!("w {} ", w.len()));
            push_ints(out, w);
        }
        None => out.push('-'),
    }
    out.push_str(&format!(" v {}", value.direction_vectors.len()));
    for dv in &value.direction_vectors {
        out.push(' ');
        if dv.0.is_empty() {
            out.push('.');
        } else {
            for d in &dv.0 {
                out.push(encode_dir(*d));
            }
        }
    }
    out.push_str(&format!(" d {}", value.distance.0.len()));
    for d in &value.distance.0 {
        match d {
            Some(v) => out.push_str(&format!(" {v}")),
            None => out.push_str(" ?"),
        }
    }
    encode_cert(&value.certificate, out);
    out.push('\n');
}

fn decode_full(f: &mut Fields<'_>, v2: bool) -> Result<(MemoKey, CachedOutcome), PersistError> {
    let line = f.line;
    let klen = f.next_count()?;
    let key = MemoKey::from_vec(f.next_ints(klen)?);
    let answer = match f.next_str()? {
        "I" => Answer::Independent,
        "D" => Answer::Dependent(None),
        "U" => Answer::Unknown,
        other => return err(line, format!("bad answer `{other}`")),
    };
    let resolved_by = decode_resolved(f.next_str()?, line)?;
    let witness = match f.next_str()? {
        "-" => None,
        "w" => {
            let n = f.next_count()?;
            Some(f.next_ints(n)?)
        }
        other => return err(line, format!("bad witness tag `{other}`")),
    };
    match f.next_str()? {
        "v" => {}
        other => return err(line, format!("expected `v`, found `{other}`")),
    }
    let nv = f.next_count()?;
    let mut direction_vectors = Vec::with_capacity(nv);
    for _ in 0..nv {
        let tok = f.next_str()?;
        if tok == "." {
            direction_vectors.push(DirectionVector(Vec::new()));
        } else {
            let dirs: Result<Vec<Direction>, PersistError> =
                tok.chars().map(|c| decode_dir(c, line)).collect();
            direction_vectors.push(DirectionVector(dirs?));
        }
    }
    match f.next_str()? {
        "d" => {}
        other => return err(line, format!("expected `d`, found `{other}`")),
    }
    let nd = f.next_count()?;
    let mut distance = Vec::with_capacity(nd);
    for _ in 0..nd {
        let tok = f.next_str()?;
        if tok == "?" {
            distance.push(None);
        } else {
            match tok.parse::<i64>() {
                Ok(v) => distance.push(Some(v)),
                Err(_) => return err(line, format!("bad distance `{tok}`")),
            }
        }
    }
    let certificate = if v2 {
        decode_cert(f)?
    } else {
        // v1 records predate certificates: the verdict is reusable but
        // its evidence is gone.
        Certificate::Unverified
    };
    Ok((
        key,
        CachedOutcome {
            result: DependenceResult {
                answer,
                resolved_by,
            },
            witness,
            direction_vectors,
            distance: DistanceVector(distance),
            certificate,
        },
    ))
}

// --- table-level API ----------------------------------------------------

impl SharedMemo {
    /// Serializes both tables to the versioned text format, in sorted key
    /// order, so exports are deterministic and diff-friendly whatever the
    /// shard count.
    #[must_use]
    pub fn export_memo(&self) -> String {
        let (gcd, full) = self.merged_entries();
        let mut out = String::from(HEADER);
        out.push('\n');
        for (k, v) in &gcd {
            encode_gcd(k, v, &mut out);
        }
        for (k, v) in &full {
            encode_full(k, v, &mut out);
        }
        out
    }

    /// Every entry visible through both residency tiers, sorted by key:
    /// the attached archive (if any) overlaid by the resident tables —
    /// so persisting a lazily-loaded memo never drops records that were
    /// simply never faulted in.
    #[allow(clippy::type_complexity)]
    fn merged_entries(&self) -> (Vec<(MemoKey, EqOutcome)>, Vec<(MemoKey, CachedOutcome)>) {
        use std::collections::BTreeMap;
        let mut gcd: BTreeMap<MemoKey, EqOutcome> = BTreeMap::new();
        let mut full: BTreeMap<MemoKey, CachedOutcome> = BTreeMap::new();
        if let Some(archive) = self.archive_ref() {
            // The archive's payload checksums were verified at open, so
            // a record that fails to decode here is a writer bug, not
            // file corruption — surface it loudly.
            archive
                .for_each_gcd(|k, v| {
                    gcd.insert(k, v);
                })
                .and_then(|()| {
                    archive.for_each_full(|k, v| {
                        full.insert(k, v);
                    })
                })
                .expect("checksummed archive records decode");
        }
        for (k, v) in self.gcd.snapshot() {
            gcd.insert(k, v);
        }
        for (k, v) in self.full.snapshot() {
            full.insert(k, v);
        }
        (gcd.into_iter().collect(), full.into_iter().collect())
    }

    /// Loads entries from a previously exported table. Existing entries
    /// are kept; imported keys overwrite colliding ones.
    ///
    /// # Errors
    ///
    /// Returns a located [`PersistError`] on malformed content; the
    /// tables may then be partially updated.
    pub fn import_memo(&self, text: &str) -> Result<(), PersistError> {
        let mut lines = text.lines().enumerate();
        let v2 = match lines.next() {
            Some((_, h)) if h.trim() == HEADER => true,
            Some((_, h)) if h.trim() == HEADER_V1 => false,
            Some((_, h)) => return err(1, format!("bad header `{h}`")),
            None => return err(1, "empty file"),
        };
        for (idx, line) in lines {
            let line_no = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut f = Fields::new(trimmed, line_no);
            match f.next_str()? {
                "gcd" => {
                    let (k, v) = decode_gcd(&mut f, v2)?;
                    f.finish()?;
                    self.gcd.insert_warm(k, v);
                }
                "full" => {
                    let (k, v) = decode_full(&mut f, v2)?;
                    f.finish()?;
                    self.full.insert_warm(k, v);
                }
                other => return err(line_no, format!("unknown record `{other}`")),
            }
        }
        Ok(())
    }

    /// Writes [`export_memo`](Self::export_memo) to a file atomically
    /// (temp file in the same directory plus rename), so a killed
    /// server or batch run never corrupts an existing memo.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_memo_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), &self.export_memo())
    }

    /// Writes both tiers as a binary v3 archive with `shard_count`
    /// payload shards per section, atomically (see
    /// [`crate::persist_v3`]). Like [`export_memo`](Self::export_memo),
    /// the output merges the resident tables over any attached archive.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_memo_file_v3(
        &self,
        path: impl AsRef<Path>,
        shard_count: usize,
    ) -> std::io::Result<()> {
        let (gcd, full) = self.merged_entries();
        crate::persist_v3::write_memo_v3(path.as_ref(), &gcd, &full, shard_count)
    }

    /// Reads a memo file into the sharded tables and reports which
    /// format it found. Text files (see
    /// [`import_memo`](Self::import_memo)) decode eagerly. A binary v3
    /// archive is validated, then *attached* as a cold tier: records
    /// fault into the resident tables on first lookup instead of being
    /// decoded up front. If an archive is already attached (a second v3
    /// load), the new file is decoded eagerly instead.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors are wrapped as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load_memo_file(&self, path: impl AsRef<Path>) -> std::io::Result<MemoFormat> {
        let started = std::time::Instant::now();
        let path = path.as_ref();
        if crate::persist_v3::is_v3_file(path)? {
            let archive = crate::persist_v3::MemoArchive::open(path)?;
            let records = archive.total_records();
            let bytes = archive.file_len();
            if let Err(second) = self.attach_archive(archive) {
                second
                    .for_each_gcd(|k, v| self.gcd.insert_warm(k, v))
                    .and_then(|()| second.for_each_full(|k, v| self.full.insert_warm(k, v)))
                    .map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })?;
            }
            self.note_load(records, bytes, started.elapsed().as_nanos() as u64);
            return Ok(MemoFormat::V3Binary);
        }
        let text = fs::read_to_string(path)?;
        let before = self.gcd.warm_loads() + self.full.warm_loads();
        self.import_memo(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let records = self.gcd.warm_loads() + self.full.warm_loads() - before;
        self.note_load(
            records,
            text.len() as u64,
            started.elapsed().as_nanos() as u64,
        );
        Ok(MemoFormat::V2Text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DependenceAnalyzer;
    use dda_ir::parse_program;

    fn trained_analyzer() -> DependenceAnalyzer {
        let src = "
            for i = 1 to 10 { a[i + 1] = a[i]; }
            for i = 1 to 10 { b[2 * i] = b[2 * i + 1]; }
            for i = 1 to 10 { for j = i to 10 { c[j + 2] = c[j]; } }
            read(n); for i = 1 to 10 { d[i + n] = d[i + n + 3]; }
        ";
        let program = parse_program(src).unwrap();
        let mut an = DependenceAnalyzer::new();
        an.analyze_program(&program);
        an
    }

    #[test]
    fn export_import_round_trip() {
        let trained = trained_analyzer();
        let text = trained.export_memo();
        assert!(text.starts_with(HEADER));

        let mut fresh = DependenceAnalyzer::new();
        fresh.import_memo(&text).unwrap();
        assert_eq!(fresh.memo_entries(), trained.memo_entries());
        assert_eq!(fresh.gcd_memo_entries(), trained.gcd_memo_entries());

        // Round-trip stability.
        assert_eq!(fresh.export_memo(), text);
    }

    #[test]
    fn imported_table_eliminates_tests() {
        let trained = trained_analyzer();
        let text = trained.export_memo();

        let program = parse_program("for i = 1 to 10 { z[i + 1] = z[i]; }").unwrap();
        // Without the import: one test.
        let mut cold = DependenceAnalyzer::new();
        let r = cold.analyze_program(&program);
        assert_eq!(r.stats.base_tests.total(), 1);

        // With the import: the a[i+1]=a[i] entry answers it from cache.
        let mut warm = DependenceAnalyzer::new();
        warm.import_memo(&text).unwrap();
        let r = warm.analyze_program(&program);
        assert_eq!(r.stats.base_tests.total(), 0);
        assert_eq!(r.stats.memo_hits, 1);
        assert_eq!(
            r.pairs()[0].direction_vectors,
            cold.analyze_program(&program).pairs()[0].direction_vectors
        );
    }

    #[test]
    fn import_counts_warm_loads_exactly() {
        let trained = trained_analyzer();
        let text = trained.export_memo();

        // Serial analyzer: one warm load per imported record.
        let mut fresh = DependenceAnalyzer::new();
        fresh.import_memo(&text).unwrap();
        assert_eq!(
            fresh.full_memo_counters().warm_loads,
            trained.memo_entries() as u64
        );
        assert_eq!(
            fresh.gcd_memo_counters().warm_loads,
            trained.gcd_memo_entries() as u64
        );
        // Warm loads are telemetry, not traffic: no queries or hits yet.
        assert_eq!(fresh.full_memo_counters().queries, 0);
        assert_eq!(fresh.full_memo_counters().hits, 0);

        // Sharded tables: same exact accounting.
        let shared = SharedMemo::new(4);
        shared.import_memo(&text).unwrap();
        assert_eq!(
            shared.full.counters().warm_loads,
            trained.memo_entries() as u64
        );
        assert_eq!(
            shared.gcd.counters().warm_loads,
            trained.gcd_memo_entries() as u64
        );
        assert_eq!(shared.full.queries(), 0);
    }

    #[test]
    fn export_is_deterministic() {
        let a = trained_analyzer().export_memo();
        let b = trained_analyzer().export_memo();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_inputs_are_located() {
        let mut an = DependenceAnalyzer::new();
        let bad_header = an.import_memo("nope\n").unwrap_err();
        assert_eq!(bad_header.line, 1);

        let bad_record = an.import_memo("dda-memo v2\nbogus 1 2 3\n").unwrap_err();
        assert_eq!(bad_record.line, 2);
        assert!(bad_record.message.contains("bogus"));

        let truncated = an.import_memo("dda-memo v2\ngcd 3 1 2\n").unwrap_err();
        assert_eq!(truncated.line, 2);

        let trailing = an
            .import_memo("dda-memo v2\ngcd 1 7 I - extra\n")
            .unwrap_err();
        assert!(trailing.message.contains("trailing"));

        // An overclaimed count fails before any allocation is sized to it.
        let huge = an
            .import_memo("dda-memo v2\ngcd 1 7 L 100000 100000 100000 1\n")
            .unwrap_err();
        assert_eq!(huge.line, 2);
        assert!(huge.message.contains("exceeds"), "{}", huge.message);

        // Dimensions that individually pass the count check but whose
        // product overflows the line also fail before allocating.
        let wide = an
            .import_memo("dda-memo v2\ngcd 1 7 L 2 2 3 1 2 3 4 5\n")
            .unwrap_err();
        assert_eq!(wide.line, 2);
        assert!(wide.message.contains("too short"), "{}", wide.message);
    }

    #[test]
    fn comments_and_blank_lines_allowed() {
        let mut an = DependenceAnalyzer::new();
        an.import_memo("dda-memo v2\n\n# a comment\ngcd 1 7 I -\n")
            .unwrap();
        assert_eq!(an.gcd_memo_entries(), 1);
    }

    #[test]
    fn v1_tables_load_with_unverified_certificates() {
        // A v1 full record carries no certificate: the verdict loads, the
        // evidence is marked Unverified.
        let shared = SharedMemo::new(2);
        shared
            .import_memo("dda-memo v1\nfull 1 7 I T0 - v 0 d 0\n")
            .unwrap();
        let entries = shared.full.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.certificate, Certificate::Unverified);

        // A v1 gcd record is a bare `I`: it loads with no refutation
        // witness (re-derived on hit).
        shared.import_memo("dda-memo v1\ngcd 1 7 I\n").unwrap();
        let gcd = shared.gcd.snapshot();
        assert_eq!(gcd.len(), 1);
        assert_eq!(
            gcd[0].1,
            EqOutcome::Independent { refutation: None },
            "bare v1 `I` must load witness-free"
        );

        // The same record under a v2 header is malformed (missing cert).
        let mut an = DependenceAnalyzer::new();
        let e = an
            .import_memo("dda-memo v2\nfull 1 7 I T0 - v 0 d 0\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn truncated_v2_certificate_is_located() {
        let mut an = DependenceAnalyzer::new();
        // The certificate promises two GCD numerators; the line ends
        // after one, so the count guard refuses before reading them.
        let e = an
            .import_memo("dda-memo v2\nfull 1 7 I G - v 0 d 0 c G 2 1\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds"), "{}", e.message);
    }

    #[test]
    fn refutation_certificates_round_trip() {
        // An independent-by-cascade pair stores a Refuted certificate;
        // the full payload must survive export → import → export.
        let program = parse_program("for i = 1 to 10 { z[i] = z[i + 20]; }").unwrap();
        let mut an = DependenceAnalyzer::new();
        an.analyze_program(&program);
        let text = an.export_memo();
        assert!(
            text.contains(" c R"),
            "expected a Refuted certificate:\n{text}"
        );
        let mut fresh = DependenceAnalyzer::new();
        fresh.import_memo(&text).unwrap();
        assert_eq!(fresh.export_memo(), text);
    }

    #[test]
    fn shared_memo_round_trips_with_analyzer() {
        let trained = trained_analyzer();
        let text = trained.export_memo();

        // Analyzer export → shared import preserves every entry.
        let shared = SharedMemo::new(8);
        shared.import_memo(&text).unwrap();
        assert_eq!(shared.gcd.unique_entries(), trained.gcd_memo_entries());
        assert_eq!(shared.full.unique_entries(), trained.memo_entries());

        // Shared export is byte-identical (same sorted-key format), so
        // serial and batch runs can warm-start each other transparently.
        assert_eq!(shared.export_memo(), text);
        let mut fresh = DependenceAnalyzer::new();
        fresh.import_memo(&shared.export_memo()).unwrap();
        assert_eq!(fresh.export_memo(), text);
    }

    #[test]
    fn shared_memo_export_independent_of_shard_count() {
        let text = trained_analyzer().export_memo();
        let a = SharedMemo::new(1);
        a.import_memo(&text).unwrap();
        let b = SharedMemo::new(64);
        b.import_memo(&text).unwrap();
        assert_eq!(a.export_memo(), b.export_memo());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("dda_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.txt");
        let trained = trained_analyzer();
        trained.save_memo_file(&path).unwrap();
        let mut fresh = DependenceAnalyzer::new();
        fresh.load_memo_file(&path).unwrap();
        assert_eq!(fresh.export_memo(), trained.export_memo());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_save_leaves_old_file_intact() {
        // Simulate a crash mid-save: the temp file exists with a
        // truncated payload, but the target was never renamed over.
        // The old memo must load unchanged, and a subsequent complete
        // save must replace both.
        let dir = std::env::temp_dir().join("dda_persist_partial_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.txt");
        let tmp = dir.join("memo.txt.tmp");

        let trained = trained_analyzer();
        trained.save_memo_file(&path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        assert!(!tmp.exists(), "no temp file after save");

        // A partial write dies after a few bytes of the new payload.
        let partial = &good[..good.len() / 3];
        std::fs::write(&tmp, partial).unwrap();

        // The old file survives the crash byte-for-byte and still loads.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        let mut fresh = DependenceAnalyzer::new();
        fresh.load_memo_file(&path).unwrap();
        assert_eq!(fresh.export_memo(), trained.export_memo());

        // The next successful save replaces the target and consumes the
        // stale temp file.
        trained.save_memo_file(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        assert!(
            !tmp.exists(),
            "temp file renamed away by the completed save"
        );

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn sharded_save_is_atomic_too() {
        let dir = std::env::temp_dir().join("dda_persist_sharded_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.txt");
        let memo = SharedMemo::new(2);
        memo.import_memo(&trained_analyzer().export_memo()).unwrap();
        memo.save_memo_file(&path).unwrap();
        assert!(
            !dir.join("memo.txt.tmp").exists(),
            "no temp file left behind"
        );
        let fresh = SharedMemo::new(2);
        fresh.load_memo_file(&path).unwrap();
        assert_eq!(fresh.export_memo(), memo.export_memo());
        std::fs::remove_file(&path).ok();
    }
}
