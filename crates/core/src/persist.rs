//! Persisting memo tables across compilations.
//!
//! Section 5: "One other possible improvement is to store the hash table
//! across compilations. This will eliminate the dependence cost of
//! incremental compilation. In addition, if there is similarity across
//! programs, one could use a set of benchmarks to set up a standard table
//! which would be used by all programs."
//!
//! Tables are written only as the binary v3 archive
//! ([`crate::persist_v3`]). This module holds the table-level API and
//! the reader for the two older line-oriented text versions, which
//! still load but are no longer written. The text reader keeps only
//! record-level syntax: a record's proof fields (rules, FM and
//! direction trees, lattices, certificates) decode through the same
//! functions as v3's, so both formats share one nesting cap and one
//! set of count checks. Loading is strict: any malformed line aborts
//! with a located error rather than silently importing half a table.
//!
//! Version 2 text carries each full record's [`Certificate`] and each
//! independent gcd record's refutation witness. Version 1 tables load
//! with every full entry's certificate degraded to
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
/// stray `.tmp` — never a truncated memo. The streaming shape lets the
/// v3 binary shards go to disk without being copied into one buffer
/// first.
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

use crate::analyzer::CachedOutcome;
use crate::certificate::Certificate;
use crate::gcd::EqOutcome;
use crate::memo::{MemoKey, SharedMemo};
use crate::persist_v3::{
    dec_cert, dec_lattice, invalid_data, FieldReader, MemoArchive, Tags, MAGIC,
};
use crate::result::{
    Answer, DependenceResult, Direction, DirectionVector, DistanceVector, LevelVec, ResolvedBy,
    TestKind,
};

/// Header of version 2 text.
const HEADER: &str = "dda-memo v2";
/// Header of version 1 text (certificates absent).
const HEADER_V1: &str = "dda-memo v1";

/// Errors raised while loading a text table.
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
    /// Line-oriented `dda-memo` v1 or v2 text, which loads but is no
    /// longer written.
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

// --- decoding helpers ---------------------------------------------------

fn decode_dir(c: char, line: usize) -> Result<Direction, PersistError> {
    match c {
        '<' => Ok(Direction::Lt),
        '=' => Ok(Direction::Eq),
        '>' => Ok(Direction::Gt),
        '*' => Ok(Direction::Any),
        other => err(line, format!("bad direction `{other}`")),
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

/// A small cursor over one line's whitespace-separated fields. Its
/// [`FieldReader`] maps the grammar's one-letter tags to the indices v3
/// stores, so the shared decoders read text as they read binary.
struct Fields<'a> {
    parts: std::str::SplitWhitespace<'a>,
    /// Fields not yet read.
    left: usize,
    line: usize,
}

impl<'a> Fields<'a> {
    fn new(s: &'a str, line: usize) -> Fields<'a> {
        Fields {
            parts: s.split_whitespace(),
            left: s.split_whitespace().count(),
            line,
        }
    }

    fn next_str(&mut self) -> Result<&'a str, PersistError> {
        match self.parts.next() {
            Some(p) => {
                self.left -= 1;
                Ok(p)
            }
            None => err(self.line, "unexpected end of line"),
        }
    }

    fn finish(mut self) -> Result<(), PersistError> {
        match self.parts.next() {
            None => Ok(()),
            Some(extra) => err(self.line, format!("trailing `{extra}`")),
        }
    }
}

impl FieldReader for Fields<'_> {
    type Error = PersistError;
    const UNIT: &'static str = "fields";
    const SCOPE: &'static str = "line";

    fn tag(&mut self, tags: &Tags) -> Result<u8, PersistError> {
        let tok = self.next_str()?;
        match tags.text.iter().position(|&t| t == tok) {
            Some(i) => Ok(i as u8),
            None => self.fail(format!("bad {} tag `{tok}`", tags.what)),
        }
    }

    fn int(&mut self) -> Result<i64, PersistError> {
        let s = self.next_str()?;
        s.parse()
            .or_else(|_| self.fail(format!("bad integer `{s}`")))
    }

    fn uint(&mut self) -> Result<usize, PersistError> {
        let v = self.int()?;
        usize::try_from(v).or_else(|_| self.fail(format!("bad count `{v}`")))
    }

    fn remaining(&self) -> usize {
        self.left
    }

    fn fail<T>(&self, message: String) -> Result<T, PersistError> {
        err(self.line, message)
    }
}

// --- per-record decoding ------------------------------------------------

fn decode_gcd(f: &mut Fields<'_>, v2: bool) -> Result<(MemoKey, EqOutcome), PersistError> {
    let key = MemoKey::from_vec(f.ivec()?);
    let value = match f.next_str()? {
        "I" if !v2 => {
            // v1 records predate refutation witnesses.
            EqOutcome::Independent { refutation: None }
        }
        "I" => {
            let refutation = match f.next_str()? {
                "-" => None,
                "w" => Some((f.ivec()?, f.int()?)),
                other => return err(f.line, format!("bad refutation tag `{other}`")),
            };
            EqOutcome::Independent { refutation }
        }
        "L" => EqOutcome::Lattice(dec_lattice(f)?),
        other => return err(f.line, format!("bad gcd tag `{other}`")),
    };
    Ok((key, value))
}

fn decode_full(f: &mut Fields<'_>, v2: bool) -> Result<(MemoKey, CachedOutcome), PersistError> {
    let line = f.line;
    let key = MemoKey::from_vec(f.ivec()?);
    let answer = match f.next_str()? {
        "I" => Answer::Independent,
        "D" => Answer::Dependent(None),
        "U" => Answer::Unknown,
        other => return err(line, format!("bad answer `{other}`")),
    };
    let resolved_by = decode_resolved(f.next_str()?, line)?;
    let witness = match f.next_str()? {
        "-" => None,
        "w" => Some(f.ivec()?),
        other => return err(line, format!("bad witness tag `{other}`")),
    };
    match f.next_str()? {
        "v" => {}
        other => return err(line, format!("expected `v`, found `{other}`")),
    }
    let nv = f.count()?;
    let mut direction_vectors = Vec::with_capacity(nv);
    for _ in 0..nv {
        let tok = f.next_str()?;
        if tok == "." {
            direction_vectors.push(DirectionVector(LevelVec::new()));
        } else {
            let dirs: Result<LevelVec<Direction>, PersistError> =
                tok.chars().map(|c| decode_dir(c, line)).collect();
            direction_vectors.push(DirectionVector(dirs?));
        }
    }
    match f.next_str()? {
        "d" => {}
        other => return err(line, format!("expected `d`, found `{other}`")),
    }
    let nd = f.count()?;
    let mut distance = LevelVec::new();
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
        match f.next_str()? {
            "c" => dec_cert(f)?,
            other => return err(line, format!("expected `c`, found `{other}`")),
        }
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
    /// Every entry visible through both residency tiers, sorted by key:
    /// the attached archive (if any) overlaid by the resident tables —
    /// so persisting a lazily-loaded memo never drops records that were
    /// simply never faulted in. This is exactly what
    /// [`save_memo_file_v3`](Self::save_memo_file_v3) writes.
    #[allow(clippy::type_complexity)]
    #[must_use]
    pub fn merged_entries(&self) -> (Vec<(MemoKey, EqOutcome)>, Vec<(MemoKey, CachedOutcome)>) {
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

    /// Loads entries from v1 or v2 text. Existing entries are kept;
    /// imported keys overwrite colliding ones. On a located
    /// [`PersistError`] the tables may be partially updated.
    fn import_text(&self, text: &str) -> Result<(), PersistError> {
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

    /// Writes both tiers as a binary v3 archive with `shard_count`
    /// payload shards per section, atomically (see
    /// [`crate::persist_v3`]): the [`merged_entries`](Self::merged_entries)
    /// of the resident tables over any attached archive.
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
    /// format it found. v1 and v2 text decode eagerly. A binary v3
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
        let bytes = fs::read(path)?;
        if bytes.starts_with(&MAGIC) {
            let archive = MemoArchive::from_bytes(bytes).map_err(invalid_data)?;
            let records = archive.total_records();
            let bytes = archive.file_len();
            if let Err(second) = self.attach_archive(archive) {
                second
                    .for_each_gcd(|k, v| self.gcd.insert_warm(k, v))
                    .and_then(|()| second.for_each_full(|k, v| self.full.insert_warm(k, v)))
                    .map_err(invalid_data)?;
            }
            self.note_load(records, bytes, started.elapsed().as_nanos() as u64);
            return Ok(MemoFormat::V3Binary);
        }
        let invalid = |e: PersistError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let text = std::str::from_utf8(&bytes).map_err(|e| {
            let line = 1 + bytes[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            invalid(PersistError {
                line,
                message: "invalid UTF-8".into(),
            })
        })?;
        let before = self.gcd.warm_loads() + self.full.warm_loads();
        self.import_text(text).map_err(invalid)?;
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

    /// The v2 text `dda batch examples/loops/*.loop --memo-save` wrote
    /// before v3 became the only format written.
    const FIXTURE: &str = include_str!("../../../tests/corpus/memo/loops.v2.memo");

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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dda_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// `(gcd, full)` record lines of a text table.
    fn text_records(text: &str) -> (usize, usize) {
        let count = |tag: &str| text.lines().filter(|l| l.starts_with(tag)).count();
        (count("gcd "), count("full "))
    }

    #[test]
    fn v2_fixture_loads_and_round_trips_through_v3() {
        let path = tmp("fixture.v2.memo");
        std::fs::write(&path, FIXTURE).unwrap();
        let memo = SharedMemo::new(4);
        assert_eq!(memo.load_memo_file(&path).unwrap(), MemoFormat::V2Text);
        let (gcd, full) = memo.merged_entries();
        assert_eq!((gcd.len(), full.len()), text_records(FIXTURE));

        let v3 = tmp("fixture.v3.memo");
        memo.save_memo_file_v3(&v3, 4).unwrap();
        let fresh = SharedMemo::new(1);
        assert_eq!(fresh.load_memo_file(&v3).unwrap(), MemoFormat::V3Binary);
        assert_eq!(fresh.merged_entries(), (gcd, full));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&v3).ok();
    }

    #[test]
    fn loaded_table_eliminates_tests() {
        let path = tmp("eliminates.memo");
        trained_analyzer()
            .memo()
            .save_memo_file_v3(&path, 4)
            .unwrap();

        let program = parse_program("for i = 1 to 10 { z[i + 1] = z[i]; }").unwrap();
        // Without the load: one test.
        let mut cold = DependenceAnalyzer::new();
        let r = cold.analyze_program(&program);
        assert_eq!(r.stats.base_tests.total(), 1);

        // With the load: the a[i+1]=a[i] entry answers it from cache.
        let mut warm = DependenceAnalyzer::new();
        warm.load_memo_file(&path).unwrap();
        let r = warm.analyze_program(&program);
        assert_eq!(r.stats.base_tests.total(), 0);
        assert_eq!(r.stats.memo_hits, 1);
        assert_eq!(
            r.pairs()[0].direction_vectors,
            cold.analyze_program(&program).pairs()[0].direction_vectors
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_import_counts_warm_loads_exactly() {
        let (gcd, full) = text_records(FIXTURE);
        for shards in [1, 4] {
            let memo = SharedMemo::new(shards);
            memo.import_text(FIXTURE).unwrap();
            assert_eq!(memo.full.counters().warm_loads, full as u64);
            assert_eq!(memo.gcd.counters().warm_loads, gcd as u64);
            // Warm loads are telemetry, not traffic: no queries or hits yet.
            assert_eq!(memo.full.counters().queries, 0);
            assert_eq!(memo.full.counters().hits, 0);
        }
    }

    #[test]
    fn malformed_inputs_are_located() {
        let memo = SharedMemo::new(1);
        let bad_header = memo.import_text("nope\n").unwrap_err();
        assert_eq!(bad_header.line, 1);

        let bad_record = memo.import_text("dda-memo v2\nbogus 1 2 3\n").unwrap_err();
        assert_eq!(bad_record.line, 2);
        assert!(bad_record.message.contains("bogus"));

        let truncated = memo.import_text("dda-memo v2\ngcd 3 1 2\n").unwrap_err();
        assert_eq!(truncated.line, 2);

        let trailing = memo
            .import_text("dda-memo v2\ngcd 1 7 I - extra\n")
            .unwrap_err();
        assert!(trailing.message.contains("trailing"));

        // An overclaimed count fails before any allocation is sized to it.
        let huge = memo
            .import_text("dda-memo v2\ngcd 1 7 L 100000 100000 100000 1\n")
            .unwrap_err();
        assert_eq!(huge.line, 2);
        assert!(huge.message.contains("exceeds"), "{}", huge.message);

        // Dimensions that individually pass the count check but whose
        // product overflows the line also fail before allocating.
        let wide = memo
            .import_text("dda-memo v2\ngcd 1 7 L 2 2 3 1 2 3 4 5\n")
            .unwrap_err();
        assert_eq!(wide.line, 2);
        assert!(wide.message.contains("too short"), "{}", wide.message);
    }

    #[test]
    fn invalid_utf8_is_located() {
        let path = tmp("not_utf8.memo");
        std::fs::write(&path, b"dda-memo v2\ngcd 1 7 I -\n\xff\n").unwrap();
        let e = SharedMemo::new(1).load_memo_file(&path).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(e.to_string(), "memo file, line 3: invalid UTF-8");
        std::fs::remove_file(&path).ok();
    }

    /// Loads a v2 text table whose one full record nests `body` 30,000
    /// times and demands the depth cap's located error, not a stack
    /// overflow.
    fn expect_depth_capped(name: &str, cert: &str, body: &str) {
        let path = tmp(name);
        let record = format!("full 1 7 I T3 - v 0 d 0 c {cert} {}", body.repeat(30_000));
        std::fs::write(&path, format!("{HEADER}\n{record}\n")).unwrap();
        let e = SharedMemo::new(1).load_memo_file(&path).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        let msg = e.to_string();
        assert!(
            msg.starts_with("memo file, line 2: ") && msg.ends_with("nesting exceeds depth 200"),
            "{msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deep_direction_tree_fails_located() {
        expect_depth_capped("deep_dir.memo", "X 0 0 0", "T 0 ");
    }

    #[test]
    fn deep_fm_tree_fails_located() {
        expect_depth_capped("deep_fm.memo", "R 0 0 0 0 F", "B 0 0 0 ");
    }

    #[test]
    fn comments_and_blank_lines_allowed() {
        let memo = SharedMemo::new(1);
        memo.import_text("dda-memo v2\n\n# a comment\ngcd 1 7 I -\n")
            .unwrap();
        assert_eq!(memo.gcd.unique_entries(), 1);
    }

    #[test]
    fn v1_tables_load_with_unverified_certificates() {
        // A v1 full record carries no certificate: the verdict loads, the
        // evidence is marked Unverified.
        let shared = SharedMemo::new(2);
        shared
            .import_text("dda-memo v1\nfull 1 7 I T0 - v 0 d 0\n")
            .unwrap();
        let entries = shared.full.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.certificate, Certificate::Unverified);

        // A v1 gcd record is a bare `I`: it loads with no refutation
        // witness (re-derived on hit).
        shared.import_text("dda-memo v1\ngcd 1 7 I\n").unwrap();
        let gcd = shared.gcd.snapshot();
        assert_eq!(gcd.len(), 1);
        assert_eq!(
            gcd[0].1,
            EqOutcome::Independent { refutation: None },
            "bare v1 `I` must load witness-free"
        );

        // The same record under a v2 header is malformed (missing cert).
        let e = SharedMemo::new(1)
            .import_text("dda-memo v2\nfull 1 7 I T0 - v 0 d 0\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn truncated_v2_certificate_is_located() {
        // The certificate promises two GCD numerators; the line ends
        // after one, so the count guard refuses before reading them.
        let e = SharedMemo::new(1)
            .import_text("dda-memo v2\nfull 1 7 I G - v 0 d 0 c G 2 1\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds"), "{}", e.message);
    }

    #[test]
    fn refutation_certificates_round_trip() {
        // An independent-by-cascade pair stores a Refuted certificate;
        // the full payload must survive save → load.
        let program = parse_program("for i = 1 to 10 { z[i] = z[i + 20]; }").unwrap();
        let mut an = DependenceAnalyzer::new();
        an.analyze_program(&program);
        let entries = an.memo().merged_entries();
        assert!(
            entries
                .1
                .iter()
                .any(|(_, v)| matches!(v.certificate, Certificate::Refuted { .. })),
            "expected a Refuted certificate: {entries:?}"
        );
        let path = tmp("refuted.memo");
        an.memo().save_memo_file_v3(&path, 2).unwrap();
        let mut fresh = DependenceAnalyzer::new();
        fresh.load_memo_file(&path).unwrap();
        assert_eq!(fresh.memo().merged_entries(), entries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_memo_round_trips_with_analyzer() {
        let trained = trained_analyzer();
        let entries = trained.memo().merged_entries();
        let path = tmp("analyzer_to_shared.memo");
        trained.memo().save_memo_file_v3(&path, 16).unwrap();

        // Analyzer save → sharded load preserves every entry, whatever
        // the shard count, so serial and batch runs warm-start each
        // other transparently.
        for shards in [1, 8, 64] {
            let shared = SharedMemo::new(shards);
            shared.load_memo_file(&path).unwrap();
            assert_eq!(shared.merged_entries(), entries);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_save_leaves_old_file_intact() {
        // Simulate a crash mid-save: the temp file exists with a
        // truncated payload, but the target was never renamed over.
        // The old memo must load unchanged, and a subsequent complete
        // save must replace both.
        let path = tmp("partial.memo");
        let tmp_path = tmp("partial.memo.tmp");

        let trained = trained_analyzer();
        let memo = trained.memo();
        memo.save_memo_file_v3(&path, 4).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert!(!tmp_path.exists(), "no temp file after save");

        // A partial write dies after a few bytes of the new payload.
        std::fs::write(&tmp_path, &good[..good.len() / 3]).unwrap();

        // The old file survives the crash byte-for-byte and still loads.
        assert_eq!(std::fs::read(&path).unwrap(), good);
        let fresh = SharedMemo::new(4);
        fresh.load_memo_file(&path).unwrap();
        assert_eq!(fresh.merged_entries(), memo.merged_entries());

        // The next successful save replaces the target and consumes the
        // stale temp file.
        memo.save_memo_file_v3(&path, 4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), good);
        assert!(
            !tmp_path.exists(),
            "temp file renamed away by the completed save"
        );

        // A save that fails outright (here the temp file cannot be
        // created) reports the error and leaves the old file as it was.
        std::fs::create_dir(&tmp_path).unwrap();
        assert!(SharedMemo::new(1).save_memo_file_v3(&path, 1).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), good);

        std::fs::remove_dir(&tmp_path).ok();
        std::fs::remove_file(&path).ok();
    }
}
