//! Persisting memo tables across compilations.
//!
//! Section 5: "One other possible improvement is to store the hash table
//! across compilations. This will eliminate the dependence cost of
//! incremental compilation. In addition, if there is similarity across
//! programs, one could use a set of benchmarks to set up a standard table
//! which would be used by all programs."
//!
//! Tables persist in one format, dda-memo v3: a binary, sharded,
//! checksummed archive of gcd outcomes and full cached outcomes, both
//! keyed by [`MemoKey`]. Records are laid out as hash-partitioned
//! binary shards behind a fixed-width header, so a warm start is one
//! read of the file plus an O(shards) validation pass — no per-record
//! work until a record is actually needed. This module owns the whole
//! format: the table-level API on [`SharedMemo`], the writer, and the
//! validating reader [`MemoArchive`].
//!
//! The line-oriented `dda-memo v1`/`v2` text tables of earlier versions
//! are no longer read. A file that starts with their header fails with
//! a located error naming commit 9a3ff89, the last whose
//! `dda memo convert` turns them into v3 archives.
//!
//! ## Wire format (all integers little-endian)
//!
//! ```text
//! FileHeader (64 bytes)
//!   0  magic            b"DDAMEMO3"
//!   8  version          u32 = 3
//!  12  flags            u32 = 0 (readers reject nonzero)
//!  16  shard_count      u32 (1..=65536)
//!  20  section_count    u32 = 2 (section 0 = gcd, section 1 = full)
//!  24  total_records    u64
//!  32  file_len         u64 (must equal the actual byte length)
//!  40  reserved         u64 = 0
//!  48  reserved         u64 = 0
//!  56  header_checksum  u64 = xxh64(bytes 0..56, seed 0)
//!
//! Directory (section-major, 32 bytes per shard payload)
//!   offset   u64  absolute: payloads follow the directory in directory
//!                 order, each at the next 8-aligned offset, with zero
//!                 padding between them and nothing after the last
//!   len      u64  payload byte length
//!   records  u64  record count (records * 16 <= len)
//!   checksum u64  xxh64(payload, seed 0)
//!
//! Shard payload
//!   index    records * 16 bytes: { key_hash u64, rec_off u32,
//!            rec_len u32 }, sorted ascending by key_hash;
//!            rec_off is payload-relative and >= the index length
//!   records  varint blobs (LEB128 counts, zigzag-LEB128 i64s)
//! ```
//!
//! Loading is strict: every structural claim the file makes (lengths,
//! counts, offsets, checksums) is validated against what is actually
//! present *before* any allocation is sized from it, and failures carry
//! the byte offset of the lie. Per-record decoding is deferred:
//! [`MemoArchive::get_gcd`] and [`MemoArchive::get_full`] binary-search
//! a shard index and decode exactly one record. The checksums catch
//! corruption, not forgery: a crafted archive with recomputed checksums
//! opens, so record decoding is just as strict — a depth cap on proof
//! trees, every count checked against the bytes that remain — and a
//! record that fails to decode is a located error, never a panic.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use dda_linalg::Matrix;

use crate::analyzer::CachedOutcome;
use crate::certificate::{
    Certificate, Derivation, DirTree, FmTree, RefProof, Rule, SystemRefutation,
};
use crate::gcd::{EqOutcome, Lattice};
use crate::memo::{route_hash, MemoKey, SharedMemo};
use crate::result::{
    Answer, DependenceResult, Direction, DirectionVector, DistanceVector, LevelVec, ResolvedBy,
    TestKind,
};

/// Magic bytes opening every v3 archive.
const MAGIC: [u8; 8] = *b"DDAMEMO3";
/// How the retired v1/v2 text tables began.
const TEXT_HEADER: &[u8] = b"dda-memo v";
const VERSION: u32 = 3;
const HEADER_LEN: usize = 64;
const DIR_ENTRY_LEN: usize = 32;
const INDEX_ENTRY_LEN: usize = 16;
const MAX_SHARDS: usize = 65536;
/// Proof trees are recursive; a hostile record could nest splits deep
/// enough to overflow the decoder's stack, so depth is capped far above
/// anything the analyzer emits.
const MAX_DEPTH: usize = 200;

/// Errors raised while opening or decoding a v3 archive, located by the
/// byte offset of the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistV3Error {
    /// Absolute byte offset where the problem was found.
    pub offset: u64,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PersistV3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memo v3 file, offset {:#x}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for PersistV3Error {}

fn verr<T>(offset: u64, message: impl Into<String>) -> Result<T, PersistV3Error> {
    Err(PersistV3Error {
        offset,
        message: message.into(),
    })
}

fn invalid_data(e: PersistV3Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Streams bytes to `path` crash-safely: `write` receives a buffered
/// writer over a temporary file in the same directory (same
/// filesystem, so the final step is a true rename), and the temp file
/// is atomically renamed over the target only after the stream is
/// flushed. A process killed mid-write leaves either the old file or a
/// stray `.tmp` — never a truncated memo. The streaming shape lets the
/// binary shards go to disk without being copied into one buffer
/// first.
fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
) -> io::Result<()> {
    use io::Write as _;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
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

// --- xxh64 ---------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xx_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xx_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xx_round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

/// Standard XXH64 over `data` — hand-rolled so the archive carries
/// strong checksums without a new dependency (same zero-deps policy as
/// the serve crate).
fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut rest = data;
    let mut h = if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while rest.len() >= 32 {
            v1 = xx_round(v1, u64le(&rest[0..8]));
            v2 = xx_round(v2, u64le(&rest[8..16]));
            v3 = xx_round(v3, u64le(&rest[16..24]));
            v4 = xx_round(v4, u64le(&rest[24..32]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xx_merge(h, v1);
        h = xx_merge(h, v2);
        h = xx_merge(h, v3);
        xx_merge(h, v4)
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(data.len() as u64);
    while rest.len() >= 8 {
        h ^= xx_round(0, u64le(rest));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(u32le(rest)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// --- varint encoding -----------------------------------------------------

fn put_u(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_i(out: &mut Vec<u8>, v: i64) {
    put_u(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A bounds-checked cursor over one slice of the archive. `base` is the
/// slice's absolute file offset, so every error is located in the file,
/// not in the record.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8], base: u64) -> Cur<'a> {
        Cur { buf, pos: 0, base }
    }

    fn off(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// An error located where the cursor stands.
    fn fail<T>(&self, message: String) -> Result<T, PersistV3Error> {
        verr(self.off(), message)
    }

    /// Bytes left in the record; every field occupies at least one.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, PersistV3Error> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.fail("unexpected end of record".into()),
        }
    }

    fn uvarint(&mut self) -> Result<u64, PersistV3Error> {
        let start = self.off();
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return verr(start, "varint overflows 64 bits");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return verr(start, "varint overflows 64 bits");
            }
        }
    }

    /// Reads a zigzag-encoded signed integer.
    fn int(&mut self) -> Result<i64, PersistV3Error> {
        let u = self.uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// Reads an unsigned index or size.
    fn uint(&mut self) -> Result<usize, PersistV3Error> {
        let at = self.off();
        let v = self.uvarint()?;
        usize::try_from(v).map_err(|_| PersistV3Error {
            offset: at,
            message: format!("index {v} does not fit in usize"),
        })
    }

    /// Reads a count of items still to be decoded from this record.
    /// Every item occupies at least one byte, so any honest count is
    /// bounded by what remains — rejecting a corrupt or crafted count
    /// *before* the caller sizes an allocation from it.
    fn count(&mut self) -> Result<usize, PersistV3Error> {
        let n = self.uint()?;
        let left = self.remaining();
        if n > left {
            return self.fail(format!("count {n} exceeds the {left} remaining bytes"));
        }
        Ok(n)
    }

    /// Reads `n` signed integers.
    fn ints(&mut self, n: usize) -> Result<Vec<i64>, PersistV3Error> {
        (0..n).map(|_| self.int()).collect()
    }

    /// Reads a counted vector of signed integers.
    fn ivec(&mut self) -> Result<Vec<i64>, PersistV3Error> {
        let n = self.count()?;
        self.ints(n)
    }

    fn finish(&self) -> Result<(), PersistV3Error> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            self.fail(format!("{} trailing bytes after record", self.remaining()))
        }
    }
}

// --- the proof grammar -----------------------------------------------------

fn dec_rule(c: &mut Cur<'_>) -> Result<Rule, PersistV3Error> {
    Ok(match c.u8()? {
        0 => Rule::Premise {
            coeffs: c.ivec()?,
            rhs: c.int()?,
        },
        1 => Rule::Comb {
            a: c.uint()?,
            ca: c.int()?,
            b: c.uint()?,
            cb: c.int()?,
        },
        2 => Rule::Div {
            of: c.uint()?,
            d: c.int()?,
        },
        t => return c.fail(format!("bad rule tag {t}")),
    })
}

fn dec_rules(c: &mut Cur<'_>) -> Result<Vec<Rule>, PersistV3Error> {
    let n = c.count()?;
    (0..n).map(|_| dec_rule(c)).collect()
}

fn dec_fmtree(c: &mut Cur<'_>, depth: usize) -> Result<FmTree, PersistV3Error> {
    if depth > MAX_DEPTH {
        return c.fail(format!("proof tree nesting exceeds depth {MAX_DEPTH}"));
    }
    Ok(match c.u8()? {
        0 => FmTree::Sealed(Derivation {
            rules: dec_rules(c)?,
            seal: c.uint()?,
        }),
        1 => FmTree::Split {
            var: c.uint()?,
            le: c.int()?,
            ge: c.int()?,
            left: Box::new(dec_fmtree(c, depth + 1)?),
            right: Box::new(dec_fmtree(c, depth + 1)?),
        },
        t => return c.fail(format!("bad fm tag {t}")),
    })
}

fn dec_sysref(c: &mut Cur<'_>) -> Result<SystemRefutation, PersistV3Error> {
    let arena = dec_rules(c)?;
    let proof = match c.u8()? {
        0 => RefProof::Arena { seal: c.uint()? },
        1 => RefProof::Fm {
            tree: dec_fmtree(c, 0)?,
        },
        t => return c.fail(format!("bad proof tag {t}")),
    };
    Ok(SystemRefutation { arena, proof })
}

fn dec_dirtree(c: &mut Cur<'_>, depth: usize) -> Result<DirTree, PersistV3Error> {
    if depth > MAX_DEPTH {
        return c.fail(format!("direction tree nesting exceeds depth {MAX_DEPTH}"));
    }
    Ok(match c.u8()? {
        0 => DirTree::Refuted(dec_sysref(c)?),
        1 => DirTree::Split {
            level: c.uint()?,
            lt: Box::new(dec_dirtree(c, depth + 1)?),
            eq: Box::new(dec_dirtree(c, depth + 1)?),
            gt: Box::new(dec_dirtree(c, depth + 1)?),
        },
        t => return c.fail(format!("bad dir tag {t}")),
    })
}

/// Decodes a lattice's particular solution and basis — of a certificate
/// or of a gcd record.
fn dec_lattice(c: &mut Cur<'_>) -> Result<Lattice, PersistV3Error> {
    let np = c.count()?;
    let rows = c.count()?;
    let cols = c.count()?;
    if np != rows {
        return c.fail("particular length must equal basis rows".into());
    }
    let particular = c.ints(np)?;
    // Every cell occupies at least one byte, so the product is bounded
    // by what remains — a crafted `rows x cols` header fails located
    // instead of sizing a multi-gigabyte matrix.
    let cells = rows.checked_mul(cols);
    if cells.is_none_or(|n| n > c.remaining()) {
        return c.fail(format!("record too short for a {rows}x{cols} basis"));
    }
    let mut basis = Matrix::zeros(rows, cols);
    for row in 0..rows {
        for col in 0..cols {
            basis[(row, col)] = c.int()?;
        }
    }
    Ok(Lattice { particular, basis })
}

/// Decodes a certificate.
fn dec_cert(c: &mut Cur<'_>) -> Result<Certificate, PersistV3Error> {
    Ok(match c.u8()? {
        0 => Certificate::Conservative,
        1 => Certificate::Unverified,
        2 => Certificate::Witness { x: c.ivec()? },
        3 => Certificate::ConstantsEqual,
        4 => Certificate::ConstantsDiffer,
        5 => Certificate::GcdRefutation {
            numer: c.ivec()?,
            denom: c.int()?,
        },
        6 => {
            let Lattice { particular, basis } = dec_lattice(c)?;
            Certificate::Refuted {
                particular,
                basis,
                refutation: dec_sysref(c)?,
            }
        }
        7 => {
            let Lattice { particular, basis } = dec_lattice(c)?;
            Certificate::DirectionsExhausted {
                particular,
                basis,
                tree: dec_dirtree(c, 0)?,
            }
        }
        t => return c.fail(format!("bad certificate tag {t}")),
    })
}

// --- record encoders -----------------------------------------------------

fn enc_key(out: &mut Vec<u8>, key: &MemoKey) {
    put_u(out, key.as_slice().len() as u64);
    for &v in key.as_slice() {
        put_i(out, v);
    }
}

fn enc_ivec(out: &mut Vec<u8>, vs: &[i64]) {
    put_u(out, vs.len() as u64);
    for &v in vs {
        put_i(out, v);
    }
}

fn enc_rule(out: &mut Vec<u8>, r: &Rule) {
    match r {
        Rule::Premise { coeffs, rhs } => {
            out.push(0);
            enc_ivec(out, coeffs);
            put_i(out, *rhs);
        }
        Rule::Comb { a, ca, b, cb } => {
            out.push(1);
            put_u(out, *a as u64);
            put_i(out, *ca);
            put_u(out, *b as u64);
            put_i(out, *cb);
        }
        Rule::Div { of, d } => {
            out.push(2);
            put_u(out, *of as u64);
            put_i(out, *d);
        }
    }
}

fn enc_fmtree(out: &mut Vec<u8>, t: &FmTree) {
    match t {
        FmTree::Sealed(d) => {
            out.push(0);
            put_u(out, d.rules.len() as u64);
            for r in &d.rules {
                enc_rule(out, r);
            }
            put_u(out, d.seal as u64);
        }
        FmTree::Split {
            var,
            le,
            ge,
            left,
            right,
        } => {
            out.push(1);
            put_u(out, *var as u64);
            put_i(out, *le);
            put_i(out, *ge);
            enc_fmtree(out, left);
            enc_fmtree(out, right);
        }
    }
}

fn enc_sysref(out: &mut Vec<u8>, s: &SystemRefutation) {
    put_u(out, s.arena.len() as u64);
    for r in &s.arena {
        enc_rule(out, r);
    }
    match &s.proof {
        RefProof::Arena { seal } => {
            out.push(0);
            put_u(out, *seal as u64);
        }
        RefProof::Fm { tree } => {
            out.push(1);
            enc_fmtree(out, tree);
        }
    }
}

fn enc_dirtree(out: &mut Vec<u8>, t: &DirTree) {
    match t {
        DirTree::Refuted(s) => {
            out.push(0);
            enc_sysref(out, s);
        }
        DirTree::Split { level, lt, eq, gt } => {
            out.push(1);
            put_u(out, *level as u64);
            enc_dirtree(out, lt);
            enc_dirtree(out, eq);
            enc_dirtree(out, gt);
        }
    }
}

fn enc_lattice_part(out: &mut Vec<u8>, particular: &[i64], basis: &Matrix) {
    put_u(out, particular.len() as u64);
    put_u(out, basis.rows() as u64);
    put_u(out, basis.cols() as u64);
    for &v in particular {
        put_i(out, v);
    }
    for r in 0..basis.rows() {
        for &v in basis.row(r) {
            put_i(out, v);
        }
    }
}

fn enc_cert(out: &mut Vec<u8>, c: &Certificate) {
    match c {
        Certificate::Conservative => out.push(0),
        Certificate::Unverified => out.push(1),
        Certificate::Witness { x } => {
            out.push(2);
            enc_ivec(out, x);
        }
        Certificate::ConstantsEqual => out.push(3),
        Certificate::ConstantsDiffer => out.push(4),
        Certificate::GcdRefutation { numer, denom } => {
            out.push(5);
            enc_ivec(out, numer);
            put_i(out, *denom);
        }
        Certificate::Refuted {
            particular,
            basis,
            refutation,
        } => {
            out.push(6);
            enc_lattice_part(out, particular, basis);
            enc_sysref(out, refutation);
        }
        Certificate::DirectionsExhausted {
            particular,
            basis,
            tree,
        } => {
            out.push(7);
            enc_lattice_part(out, particular, basis);
            enc_dirtree(out, tree);
        }
    }
}

fn enc_gcd_value(out: &mut Vec<u8>, v: &EqOutcome) {
    match v {
        EqOutcome::Independent { refutation: None } => out.push(0),
        EqOutcome::Independent {
            refutation: Some((numer, denom)),
        } => {
            out.push(1);
            enc_ivec(out, numer);
            put_i(out, *denom);
        }
        EqOutcome::Lattice(l) => {
            out.push(2);
            enc_lattice_part(out, &l.particular, &l.basis);
        }
    }
}

fn enc_resolved(r: ResolvedBy) -> u8 {
    match r {
        ResolvedBy::Constant => 0,
        ResolvedBy::Gcd => 1,
        ResolvedBy::Test(TestKind::Svpc) => 2,
        ResolvedBy::Test(TestKind::Acyclic) => 3,
        ResolvedBy::Test(TestKind::LoopResidue) => 4,
        ResolvedBy::Test(TestKind::FourierMotzkin) => 5,
        ResolvedBy::Assumed => 6,
    }
}

fn enc_full_value(out: &mut Vec<u8>, v: &CachedOutcome) {
    out.push(match v.result.answer {
        Answer::Independent => 0,
        Answer::Dependent(_) => 1,
        Answer::Unknown => 2,
    });
    out.push(enc_resolved(v.result.resolved_by));
    match &v.witness {
        None => out.push(0),
        Some(w) => {
            out.push(1);
            enc_ivec(out, w);
        }
    }
    put_u(out, v.direction_vectors.len() as u64);
    for dv in &v.direction_vectors {
        put_u(out, dv.0.len() as u64);
        for d in &dv.0 {
            out.push(match d {
                Direction::Lt => 0,
                Direction::Eq => 1,
                Direction::Gt => 2,
                Direction::Any => 3,
            });
        }
    }
    put_u(out, v.distance.0.len() as u64);
    for d in &v.distance.0 {
        match d {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                put_i(out, *v);
            }
        }
    }
    enc_cert(out, &v.certificate);
}

// --- record decoders -----------------------------------------------------

fn dec_key(c: &mut Cur<'_>) -> Result<MemoKey, PersistV3Error> {
    Ok(MemoKey::from_vec(c.ivec()?))
}

fn dec_gcd_value(c: &mut Cur<'_>) -> Result<EqOutcome, PersistV3Error> {
    Ok(match c.u8()? {
        0 => EqOutcome::Independent { refutation: None },
        1 => EqOutcome::Independent {
            refutation: Some((c.ivec()?, c.int()?)),
        },
        2 => EqOutcome::Lattice(dec_lattice(c)?),
        t => return c.fail(format!("bad gcd tag {t}")),
    })
}

fn dec_resolved(c: &mut Cur<'_>) -> Result<ResolvedBy, PersistV3Error> {
    Ok(match c.u8()? {
        0 => ResolvedBy::Constant,
        1 => ResolvedBy::Gcd,
        2 => ResolvedBy::Test(TestKind::Svpc),
        3 => ResolvedBy::Test(TestKind::Acyclic),
        4 => ResolvedBy::Test(TestKind::LoopResidue),
        5 => ResolvedBy::Test(TestKind::FourierMotzkin),
        6 => ResolvedBy::Assumed,
        t => return c.fail(format!("bad resolver tag {t}")),
    })
}

fn dec_full_value(c: &mut Cur<'_>) -> Result<CachedOutcome, PersistV3Error> {
    let answer = match c.u8()? {
        0 => Answer::Independent,
        1 => Answer::Dependent(None),
        2 => Answer::Unknown,
        t => return c.fail(format!("bad answer tag {t}")),
    };
    let resolved_by = dec_resolved(c)?;
    let witness = match c.u8()? {
        0 => None,
        1 => Some(c.ivec()?),
        t => return c.fail(format!("bad witness tag {t}")),
    };
    let nv = c.count()?;
    let mut direction_vectors = Vec::with_capacity(nv);
    for _ in 0..nv {
        let nd = c.count()?;
        let mut dirs = LevelVec::new();
        for _ in 0..nd {
            dirs.push(match c.u8()? {
                0 => Direction::Lt,
                1 => Direction::Eq,
                2 => Direction::Gt,
                3 => Direction::Any,
                t => return c.fail(format!("bad direction tag {t}")),
            });
        }
        direction_vectors.push(DirectionVector(dirs));
    }
    let nd = c.count()?;
    let mut distance = LevelVec::new();
    for _ in 0..nd {
        distance.push(match c.u8()? {
            0 => None,
            1 => Some(c.int()?),
            t => return c.fail(format!("bad distance tag {t}")),
        });
    }
    let certificate = dec_cert(c)?;
    Ok(CachedOutcome {
        result: DependenceResult {
            answer,
            resolved_by,
        },
        witness,
        direction_vectors,
        distance: DistanceVector(distance),
        certificate,
    })
}

// --- writer --------------------------------------------------------------

/// Sorts one shard's records by key hash (stably, so equal hashes keep
/// their sorted-key input order and the file stays deterministic) and
/// lays out `index + blobs`.
fn build_payload(mut entries: Vec<(u64, Vec<u8>)>) -> io::Result<Vec<u8>> {
    entries.sort_by_key(|(h, _)| *h);
    let index_len = entries.len() * INDEX_ENTRY_LEN;
    let total = index_len + entries.iter().map(|(_, b)| b.len()).sum::<usize>();
    if u32::try_from(total).is_err() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "memo v3 shard payload exceeds 4 GiB; raise the shard count",
        ));
    }
    let mut out = Vec::with_capacity(total);
    let mut off = index_len as u32;
    for (h, blob) in &entries {
        out.extend_from_slice(&h.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        off += blob.len() as u32;
    }
    for (_, blob) in &entries {
        out.extend_from_slice(blob);
    }
    Ok(out)
}

fn partition<V>(
    entries: &[(MemoKey, Arc<V>)],
    shard_count: usize,
    enc: impl Fn(&mut Vec<u8>, &V),
) -> io::Result<Vec<(Vec<u8>, u64)>> {
    let mut shards: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); shard_count];
    for (k, v) in entries {
        let h = route_hash(k.as_slice());
        let mut blob = Vec::new();
        enc_key(&mut blob, k);
        enc(&mut blob, v);
        shards[(h % shard_count as u64) as usize].push((h, blob));
    }
    shards
        .into_iter()
        .map(|e| {
            let records = e.len() as u64;
            Ok((build_payload(e)?, records))
        })
        .collect()
}

/// Streams a complete v3 archive: header, directory, then each shard
/// payload (zero-padded to 8-byte alignment).
fn assemble(
    gcd: &[(Vec<u8>, u64)],
    full: &[(Vec<u8>, u64)],
    out: &mut dyn io::Write,
) -> io::Result<()> {
    let shard_count = gcd.len();
    debug_assert_eq!(shard_count, full.len());
    let dir_len = 2 * shard_count * DIR_ENTRY_LEN;
    let mut pos = (HEADER_LEN + dir_len) as u64;
    let mut total_records = 0u64;
    let mut entries = Vec::with_capacity(2 * shard_count);
    for (payload, records) in gcd.iter().chain(full.iter()) {
        let pad = pos.next_multiple_of(8) - pos;
        pos += pad;
        entries.push((pos, payload.len() as u64, *records, xxh64(payload, 0), pad));
        pos += payload.len() as u64;
        total_records += records;
    }
    let file_len = pos;

    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    // flags at 12..16 stay zero.
    header[16..20].copy_from_slice(&(shard_count as u32).to_le_bytes());
    header[20..24].copy_from_slice(&2u32.to_le_bytes());
    header[24..32].copy_from_slice(&total_records.to_le_bytes());
    header[32..40].copy_from_slice(&file_len.to_le_bytes());
    // reserved at 40..56 stay zero.
    let sum = xxh64(&header[..56], 0);
    header[56..64].copy_from_slice(&sum.to_le_bytes());
    out.write_all(&header)?;

    for (offset, len, records, checksum, _) in &entries {
        out.write_all(&offset.to_le_bytes())?;
        out.write_all(&len.to_le_bytes())?;
        out.write_all(&records.to_le_bytes())?;
        out.write_all(&checksum.to_le_bytes())?;
    }
    const ZEROS: [u8; 8] = [0u8; 8];
    for ((_, _, _, _, pad), (payload, _)) in entries.iter().zip(gcd.iter().chain(full.iter())) {
        out.write_all(&ZEROS[..*pad as usize])?;
        out.write_all(payload)?;
    }
    Ok(())
}

/// Writes a complete v3 archive atomically. Entries should arrive in
/// sorted key order (as produced by the memo snapshots) so the output
/// is deterministic byte-for-byte.
fn write_memo_v3(
    path: &Path,
    gcd: &[(MemoKey, Arc<EqOutcome>)],
    full: &[(MemoKey, Arc<CachedOutcome>)],
    shard_count: usize,
) -> io::Result<()> {
    let shard_count = shard_count.clamp(1, MAX_SHARDS);
    let gcd_payloads = partition(gcd, shard_count, enc_gcd_value)?;
    let full_payloads = partition(full, shard_count, enc_full_value)?;
    write_atomic_with(path, |out| assemble(&gcd_payloads, &full_payloads, out))
}

// --- archive -------------------------------------------------------------

/// Which logical table a shard belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSection {
    /// Equation-level gcd/lattice outcomes.
    Gcd,
    /// Full per-pair cached outcomes (verdict + certificate).
    Full,
}

impl fmt::Display for ShardSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardSection::Gcd => "gcd",
            ShardSection::Full => "full",
        })
    }
}

/// One shard's directory entry, as reported by
/// [`MemoArchive::shard_infos`] (and `dda memo inspect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Section the shard belongs to.
    pub section: ShardSection,
    /// Shard index within its section.
    pub shard: usize,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Number of records in the shard.
    pub records: u64,
    /// XXH64 checksum of the payload.
    pub checksum: u64,
}

#[derive(Clone, Copy)]
struct Shard {
    offset: usize,
    len: usize,
    records: usize,
    checksum: u64,
}

/// An open, validated dda-memo v3 archive.
///
/// Opening validates every structural claim (header, directory bounds,
/// per-shard checksums, index ordering and record bounds) in O(file)
/// time but O(shards) allocation; records decode lazily on lookup, so
/// the cost of a warm start is paid per *used* record, not per stored
/// one.
pub struct MemoArchive {
    data: Vec<u8>,
    shard_count: usize,
    total_records: u64,
    gcd_shards: Vec<Shard>,
    full_shards: Vec<Shard>,
}

impl fmt::Debug for MemoArchive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoArchive")
            .field("shard_count", &self.shard_count)
            .field("total_records", &self.total_records)
            .field("file_len", &self.file_len())
            .finish()
    }
}

impl MemoArchive {
    /// Reads and validates an archive.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors are wrapped as
    /// [`std::io::ErrorKind::InvalidData`] with a byte-offset location.
    pub fn open(path: impl AsRef<Path>) -> io::Result<MemoArchive> {
        MemoArchive::from_bytes(fs::read(path)?).map_err(invalid_data)
    }

    /// Validates an archive already read into memory.
    fn from_bytes(data: Vec<u8>) -> Result<MemoArchive, PersistV3Error> {
        let b = data.as_slice();
        if b.starts_with(TEXT_HEADER) {
            return verr(
                0,
                "dda-memo v1/v2 text is no longer read; convert the file with \
                 `dda memo convert` at commit 9a3ff89, the last that reads text",
            );
        }
        if b.len() < HEADER_LEN {
            return verr(
                0,
                format!(
                    "file is {} bytes, shorter than the 64-byte v3 header",
                    b.len()
                ),
            );
        }
        if b[0..8] != MAGIC {
            return verr(0, "bad magic (expected `DDAMEMO3`)");
        }
        let version = u32le(&b[8..]);
        if version != VERSION {
            return verr(
                8,
                format!("unsupported version {version} (expected {VERSION})"),
            );
        }
        let flags = u32le(&b[12..]);
        if flags != 0 {
            return verr(12, format!("unsupported flags {flags:#x}"));
        }
        let shard_count = u32le(&b[16..]) as usize;
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return verr(
                16,
                format!("shard count {shard_count} outside 1..={MAX_SHARDS}"),
            );
        }
        let sections = u32le(&b[20..]);
        if sections != 2 {
            return verr(20, format!("section count {sections} (expected 2)"));
        }
        let total_records = u64le(&b[24..]);
        let file_len = u64le(&b[32..]);
        if file_len != b.len() as u64 {
            return verr(
                32,
                format!("declared file length {file_len} != actual {}", b.len()),
            );
        }
        let declared = u64le(&b[56..]);
        let actual = xxh64(&b[..56], 0);
        if declared != actual {
            return verr(
                56,
                format!(
                    "header checksum mismatch (stored {declared:#018x}, computed {actual:#018x})"
                ),
            );
        }
        let dir_len = 2 * shard_count * DIR_ENTRY_LEN;
        let payload_start = HEADER_LEN + dir_len;
        if b.len() < payload_start {
            return verr(
                HEADER_LEN as u64,
                format!("file too short for a {shard_count}-shard directory"),
            );
        }

        let mut gcd_shards = Vec::with_capacity(shard_count);
        let mut full_shards = Vec::with_capacity(shard_count);
        let mut record_sum = 0u64;
        // Payloads tile the file exactly, so every byte is either
        // checksummed, a validated directory field, or zero padding:
        // no corruption can load unnoticed.
        let mut prev_end = payload_start as u64;
        for idx in 0..2 * shard_count {
            let at = HEADER_LEN + idx * DIR_ENTRY_LEN;
            let (section, shard) = if idx < shard_count {
                (ShardSection::Gcd, idx)
            } else {
                (ShardSection::Full, idx - shard_count)
            };
            let offset = u64le(&b[at..]);
            let len = u64le(&b[at + 8..]);
            let records = u64le(&b[at + 16..]);
            let checksum = u64le(&b[at + 24..]);
            let expected = prev_end.next_multiple_of(8);
            if offset != expected {
                return verr(
                    at as u64,
                    format!("{section} shard {shard}: offset {offset}, expected {expected}"),
                );
            }
            let end = match offset.checked_add(len) {
                Some(end) if end <= file_len => end,
                _ => {
                    return verr(
                        (at + 8) as u64,
                        format!(
                            "{section} shard {shard}: payload [{offset}, +{len}) runs past the file"
                        ),
                    )
                }
            };
            if let Some(i) = b[prev_end as usize..offset as usize]
                .iter()
                .position(|&x| x != 0)
            {
                return verr(prev_end + i as u64, "nonzero padding between payloads");
            }
            prev_end = end;
            // Every record costs a 16-byte index entry, so a crafted
            // record count is refuted by the payload length before it
            // sizes anything.
            if records
                .checked_mul(INDEX_ENTRY_LEN as u64)
                .is_none_or(|n| n > len)
            {
                return verr(
                    (at + 16) as u64,
                    format!(
                        "{section} shard {shard}: {records} records exceed a {len}-byte payload"
                    ),
                );
            }
            record_sum = record_sum.checked_add(records).ok_or(PersistV3Error {
                offset: (at + 16) as u64,
                message: "record counts overflow".into(),
            })?;
            let shard_meta = Shard {
                offset: offset as usize,
                len: len as usize,
                records: records as usize,
                checksum,
            };
            if idx < shard_count {
                gcd_shards.push(shard_meta);
            } else {
                full_shards.push(shard_meta);
            }
        }
        if prev_end != file_len {
            return verr(
                prev_end,
                format!("{} bytes after the last payload", file_len - prev_end),
            );
        }
        if record_sum != total_records {
            return verr(
                24,
                format!("directory holds {record_sum} records but header declares {total_records}"),
            );
        }

        // Checksums and index invariants: one pass over the payload
        // bytes, still zero per-record allocation.
        for (idx, shard) in gcd_shards.iter().chain(full_shards.iter()).enumerate() {
            let at = HEADER_LEN + idx * DIR_ENTRY_LEN;
            let (section, shard_no) = if idx < shard_count {
                (ShardSection::Gcd, idx)
            } else {
                (ShardSection::Full, idx - shard_count)
            };
            let payload = &b[shard.offset..shard.offset + shard.len];
            let actual = xxh64(payload, 0);
            if actual != shard.checksum {
                return verr(
                    (at + 24) as u64,
                    format!(
                        "{section} shard {shard_no}: payload checksum mismatch (stored {:#018x}, computed {actual:#018x})",
                        shard.checksum
                    ),
                );
            }
            let index_len = shard.records * INDEX_ENTRY_LEN;
            let mut prev_hash = 0u64;
            for j in 0..shard.records {
                let e = j * INDEX_ENTRY_LEN;
                let hash = u64le(&payload[e..]);
                let rec_off = u32le(&payload[e + 8..]) as u64;
                let rec_len = u32le(&payload[e + 12..]) as u64;
                let entry_at = (shard.offset + e) as u64;
                if j > 0 && hash < prev_hash {
                    return verr(
                        entry_at,
                        format!(
                            "{section} shard {shard_no}: index hashes not sorted at record {j}"
                        ),
                    );
                }
                prev_hash = hash;
                if rec_off < index_len as u64 {
                    return verr(
                        entry_at + 8,
                        format!("{section} shard {shard_no}: record {j} overlaps the index"),
                    );
                }
                if rec_off + rec_len > shard.len as u64 {
                    return verr(
                        entry_at + 8,
                        format!("{section} shard {shard_no}: record {j} runs past the payload"),
                    );
                }
            }
        }

        Ok(MemoArchive {
            data,
            shard_count,
            total_records,
            gcd_shards,
            full_shards,
        })
    }

    /// Number of shards per section.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total records across both sections.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Archive length in bytes.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Directory metadata for every shard, section-major.
    #[must_use]
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        let describe = |section: ShardSection, shards: &[Shard]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardInfo {
                    section,
                    shard: i,
                    offset: s.offset as u64,
                    len: s.len as u64,
                    records: s.records as u64,
                    checksum: s.checksum,
                })
                .collect::<Vec<_>>()
        };
        let mut out = describe(ShardSection::Gcd, &self.gcd_shards);
        out.extend(describe(ShardSection::Full, &self.full_shards));
        out
    }

    fn lookup<T>(
        &self,
        shards: &[Shard],
        key: &[i64],
        dec: impl Fn(&mut Cur<'_>) -> Result<T, PersistV3Error>,
    ) -> Option<T> {
        let h = route_hash(key);
        let shard = &shards[(h % self.shard_count as u64) as usize];
        let payload = &self.data[shard.offset..shard.offset + shard.len];
        let idx_hash = |j: usize| u64le(&payload[j * INDEX_ENTRY_LEN..]);
        let (mut lo, mut hi) = (0usize, shard.records);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if idx_hash(mid) < h {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        while lo < shard.records && idx_hash(lo) == h {
            let e = lo * INDEX_ENTRY_LEN;
            let rec_off = u32le(&payload[e + 8..]) as usize;
            let rec_len = u32le(&payload[e + 12..]) as usize;
            let rec = &payload[rec_off..rec_off + rec_len];
            let mut cur = Cur::new(rec, (shard.offset + rec_off) as u64);
            match key_matches(&mut cur, key) {
                Ok(true) => {
                    let v = dec(&mut cur).ok()?;
                    cur.finish().ok()?;
                    return Some(v);
                }
                Ok(false) => {}
                Err(_) => return None,
            }
            lo += 1;
        }
        None
    }

    /// Looks up one gcd record without decoding anything else.
    ///
    /// Returns `None` on a miss — or if the record fails to decode. The
    /// open-time checksums catch corruption, not crafted input, so an
    /// archive can hold records that do not decode; a lookup treats
    /// them as misses, and [`for_each_gcd`](Self::for_each_gcd) reports
    /// them with their location.
    #[must_use]
    pub fn get_gcd<K: AsRef<[i64]> + ?Sized>(&self, key: &K) -> Option<EqOutcome> {
        self.lookup(&self.gcd_shards, key.as_ref(), dec_gcd_value)
    }

    /// Looks up one full record without decoding anything else. Same
    /// miss semantics as [`MemoArchive::get_gcd`].
    #[must_use]
    pub fn get_full<K: AsRef<[i64]> + ?Sized>(&self, key: &K) -> Option<CachedOutcome> {
        self.lookup(&self.full_shards, key.as_ref(), dec_full_value)
    }

    /// Decodes every record of `shards` and hands it to `f` with its
    /// shard index.
    fn for_each<T>(
        &self,
        shards: &[Shard],
        dec: impl Fn(&mut Cur<'_>) -> Result<T, PersistV3Error>,
        mut f: impl FnMut(usize, MemoKey, T),
    ) -> Result<(), PersistV3Error> {
        for (shard_no, shard) in shards.iter().enumerate() {
            let payload = &self.data[shard.offset..shard.offset + shard.len];
            for j in 0..shard.records {
                let e = j * INDEX_ENTRY_LEN;
                let rec_off = u32le(&payload[e + 8..]) as usize;
                let rec_len = u32le(&payload[e + 12..]) as usize;
                let rec = &payload[rec_off..rec_off + rec_len];
                let mut cur = Cur::new(rec, (shard.offset + rec_off) as u64);
                let key = dec_key(&mut cur)?;
                let v = dec(&mut cur)?;
                cur.finish()?;
                f(shard_no, key, v);
            }
        }
        Ok(())
    }

    /// Decodes every gcd record, in shard order then hash order.
    ///
    /// # Errors
    ///
    /// Returns a located [`PersistV3Error`] if any record is malformed.
    pub fn for_each_gcd(
        &self,
        mut f: impl FnMut(MemoKey, EqOutcome),
    ) -> Result<(), PersistV3Error> {
        self.for_each(&self.gcd_shards, dec_gcd_value, |_, k, v| f(k, v))
    }

    /// Decodes every full record, in shard order then hash order.
    ///
    /// # Errors
    ///
    /// Returns a located [`PersistV3Error`] if any record is malformed.
    pub fn for_each_full(
        &self,
        mut f: impl FnMut(MemoKey, CachedOutcome),
    ) -> Result<(), PersistV3Error> {
        self.for_each(&self.full_shards, dec_full_value, |_, k, v| f(k, v))
    }

    /// Decodes every record in directory order — gcd shards, then full
    /// shards — and hands `f` its section, shard, key and value (as
    /// `dda memo inspect` prints them).
    ///
    /// # Errors
    ///
    /// Returns a located [`PersistV3Error`] if any record is malformed.
    pub fn for_each_record(
        &self,
        mut f: impl FnMut(ShardSection, usize, &MemoKey, &dyn fmt::Debug),
    ) -> Result<(), PersistV3Error> {
        self.for_each(&self.gcd_shards, dec_gcd_value, |shard, k, v| {
            f(ShardSection::Gcd, shard, &k, &v);
        })?;
        self.for_each(&self.full_shards, dec_full_value, |shard, k, v| {
            f(ShardSection::Full, shard, &k, &v);
        })
    }
}

/// Streams the stored key and compares it against `key` element by
/// element — no allocation on mismatch, none on match either.
fn key_matches(cur: &mut Cur<'_>, key: &[i64]) -> Result<bool, PersistV3Error> {
    let n = cur.count()?;
    if n != key.len() {
        return Ok(false);
    }
    for &want in key {
        if cur.int()? != want {
            return Ok(false);
        }
    }
    Ok(true)
}

// --- table-level API -------------------------------------------------------

impl SharedMemo {
    /// Every entry visible through both residency tiers, sorted by key:
    /// the attached archive (if any) overlaid by the resident tables —
    /// so persisting a lazily-loaded memo never drops records that were
    /// simply never faulted in. This is exactly what
    /// [`save_memo_file_v3`](Self::save_memo_file_v3) writes.
    ///
    /// # Errors
    ///
    /// Returns the located [`PersistV3Error`] of the first attached
    /// archive record that fails to decode.
    #[allow(clippy::type_complexity)]
    pub fn merged_entries(
        &self,
    ) -> Result<
        (
            Vec<(MemoKey, Arc<EqOutcome>)>,
            Vec<(MemoKey, Arc<CachedOutcome>)>,
        ),
        PersistV3Error,
    > {
        use std::collections::BTreeMap;
        let mut gcd: BTreeMap<MemoKey, Arc<EqOutcome>> = BTreeMap::new();
        let mut full: BTreeMap<MemoKey, Arc<CachedOutcome>> = BTreeMap::new();
        if let Some(archive) = self.archive_ref() {
            archive.for_each_gcd(|k, v| {
                gcd.insert(k, Arc::new(v));
            })?;
            archive.for_each_full(|k, v| {
                full.insert(k, Arc::new(v));
            })?;
        }
        for (k, v) in self.gcd.snapshot() {
            gcd.insert(k, v);
        }
        for (k, v) in self.full.snapshot() {
            full.insert(k, v);
        }
        Ok((gcd.into_iter().collect(), full.into_iter().collect()))
    }

    /// Writes both tiers as a v3 archive with `shard_count` payload
    /// shards per section, atomically: the
    /// [`merged_entries`](Self::merged_entries) of the resident tables
    /// over any attached archive.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. An attached archive record that fails to
    /// decode is [`io::ErrorKind::InvalidData`], and leaves `path`
    /// untouched.
    pub fn save_memo_file_v3(&self, path: impl AsRef<Path>, shard_count: usize) -> io::Result<()> {
        let (gcd, full) = self.merged_entries().map_err(invalid_data)?;
        write_memo_v3(path.as_ref(), &gcd, &full, shard_count)
    }

    /// Reads a v3 archive into the tables. The archive is validated,
    /// then *attached* as a cold tier: records fault into the resident
    /// tables on first lookup instead of being decoded up front. If an
    /// archive is already attached (a second load), the new file is
    /// decoded eagerly instead.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format errors, including a retired text
    /// table, are [`io::ErrorKind::InvalidData`] with a byte offset.
    pub fn load_memo_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let started = std::time::Instant::now();
        let archive = MemoArchive::open(path)?;
        let (records, bytes) = (archive.total_records(), archive.file_len());
        if let Err(second) = self.attach_archive(archive) {
            second
                .for_each_gcd(|k, v| self.gcd.insert_warm(k, Arc::new(v)))
                .and_then(|()| second.for_each_full(|k, v| self.full.insert_warm(k, Arc::new(v))))
                .map_err(invalid_data)?;
        }
        self.note_load(records, bytes, started.elapsed().as_nanos() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DependenceAnalyzer;
    use dda_ir::parse_program;
    use proptest::prelude::*;

    /// The archive `dda batch examples/loops/*.loop --memo-save … --shards 2`
    /// writes.
    const FIXTURE: &[u8] = include_bytes!("../../../tests/corpus/memo/loops.v3.memo");
    /// The same table as `dda-memo v2` text, which is no longer read.
    const FIXTURE_V2: &[u8] = include_bytes!("../../../tests/corpus/memo/loops.v2.memo");
    /// [`FIXTURE`] as one shard with a shortened, resealed record (see
    /// [`short_record_archive`]).
    const SHORT_RECORD: &[u8] = include_bytes!("../../../tests/corpus/memo/short_record.v3.memo");

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

    fn trained_memo() -> SharedMemo {
        let src = "
            for i = 1 to 10 { a[i + 1] = a[i]; }
            for i = 1 to 10 { b[2 * i] = b[2 * i + 1]; }
            for i = 1 to 10 { for j = i to 10 { c[j + 2] = c[j]; } }
            read(n); for i = 1 to 10 { d[i + n] = d[i + n + 3]; }
            for i = 1 to 10 { z[i] = z[i + 20]; }
        ";
        let mut an = DependenceAnalyzer::new();
        an.analyze_program(&parse_program(src).unwrap());
        let (gcd, full) = an.memo().merged_entries().unwrap();
        let memo = SharedMemo::new(4);
        for (k, v) in gcd {
            memo.gcd.insert(k, v);
        }
        for (k, v) in full {
            memo.full.insert(k, v);
        }
        memo
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dda_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Recomputes every payload checksum in the directory, as anyone
    /// crafting an archive can: the checksums catch corruption, not
    /// forgery.
    fn reseal(bytes: &mut [u8]) {
        let shards = u32le(&bytes[16..]) as usize;
        for idx in 0..2 * shards {
            let at = HEADER_LEN + idx * DIR_ENTRY_LEN;
            let offset = u64le(&bytes[at..]) as usize;
            let len = u64le(&bytes[at + 8..]) as usize;
            let sum = xxh64(&bytes[offset..offset + len], 0);
            bytes[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
        }
    }

    /// `(index entry, record start, record length)` of every record, as
    /// absolute file offsets, in directory order.
    fn record_spans(bytes: &[u8]) -> Vec<(usize, usize, usize)> {
        let shards = u32le(&bytes[16..]) as usize;
        let mut out = Vec::new();
        for idx in 0..2 * shards {
            let at = HEADER_LEN + idx * DIR_ENTRY_LEN;
            let offset = u64le(&bytes[at..]) as usize;
            let records = u64le(&bytes[at + 16..]) as usize;
            for j in 0..records {
                let e = offset + j * INDEX_ENTRY_LEN;
                let rec_off = u32le(&bytes[e + 8..]) as usize;
                let rec_len = u32le(&bytes[e + 12..]) as usize;
                out.push((e, offset + rec_off, rec_len));
            }
        }
        out
    }

    /// A one-shard archive holding raw record blobs.
    fn archive_of(gcd: Vec<Vec<u8>>, full: Vec<Vec<u8>>) -> Vec<u8> {
        let payload = |blobs: Vec<Vec<u8>>| {
            let records = blobs.len() as u64;
            let entries = blobs.into_iter().enumerate();
            (
                build_payload(entries.map(|(i, b)| (i as u64, b)).collect()).unwrap(),
                records,
            )
        };
        let mut bytes = Vec::new();
        assemble(&[payload(gcd)], &[payload(full)], &mut bytes).unwrap();
        bytes
    }

    /// A record keyed `[7]` followed by `body`.
    fn record(body: &[u8]) -> Vec<u8> {
        let mut blob = Vec::new();
        enc_key(&mut blob, &MemoKey::from_vec(vec![7]));
        blob.extend_from_slice(body);
        blob
    }

    /// A full record keyed `[7]`: independent by Fourier–Motzkin, no
    /// witness, vectors or distances, then the certificate `cert`.
    fn full_record(cert: &[u8]) -> Vec<u8> {
        record(&[[0, 5, 0, 0, 0].as_slice(), cert].concat())
    }

    fn zigzag(vs: &[i64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in vs {
            put_i(&mut out, v);
        }
        out
    }

    /// Demands that `bytes` opens (the damage is inside a record, under
    /// valid checksums) and that every way of reading the bad record
    /// fails located inside the file, or misses — never panics.
    fn expect_record_error(what: &str, bytes: &[u8], needle: &str) {
        let archive = MemoArchive::from_bytes(bytes.to_vec()).unwrap();
        let e = archive.for_each_record(|_, _, _, _| {}).unwrap_err();
        assert!(e.message.contains(needle), "{what}: {e}");
        let payloads = (HEADER_LEN + 2 * DIR_ENTRY_LEN) as u64;
        assert!(
            (payloads..=bytes.len() as u64).contains(&e.offset),
            "{what}: {e}"
        );
        let key = MemoKey::from_vec(vec![7]);
        assert_eq!(archive.get_gcd(&key), None, "{what}");
        assert_eq!(archive.get_full(&key), None, "{what}");

        let memo = SharedMemo::new(1);
        memo.attach_archive(archive).unwrap();
        let path = tmp(&format!(
            "record_error_{:?}.dm3",
            std::thread::current().id()
        ));
        let e = memo.save_memo_file_v3(&path, 1).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
        assert!(
            e.to_string().starts_with("memo v3 file, offset "),
            "{what}: {e}"
        );
        assert!(!path.exists(), "{what}: nothing written");
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 test vectors.
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        // Long input exercises the 32-byte stripe loop.
        let data: Vec<u8> = (0u32..1009).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(xxh64(&data, 7), xxh64(&data, 7));
        assert_ne!(xxh64(&data, 7), xxh64(&data, 8));
    }

    #[test]
    fn varints_round_trip() {
        let cases = [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
            123_456_789_012_345,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            enc_key(&mut buf, &MemoKey::from_vec(vec![v]));
        }
        let mut cur = Cur::new(&buf, 0);
        for &v in &cases {
            let k = dec_key(&mut cur).unwrap();
            assert_eq!(k.as_slice(), &[v]);
        }
        cur.finish().unwrap();
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes can encode more than 64 bits.
        let buf = [0xffu8; 11];
        let mut cur = Cur::new(&buf, 100);
        let e = cur.uvarint().unwrap_err();
        assert_eq!(e.offset, 100);
        assert!(e.message.contains("overflows"), "{}", e.message);
    }

    #[test]
    fn archive_round_trips_and_looks_up_every_key() {
        let memo = trained_memo();
        let path = tmp("round_trip.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        let archive = MemoArchive::open(&path).unwrap();
        assert_eq!(archive.shard_count(), 4);
        let expected_records = (memo.gcd.unique_entries() + memo.full.unique_entries()) as u64;
        assert_eq!(archive.total_records(), expected_records);

        // Point lookups find every record with the exact stored value.
        for (k, v) in memo.gcd.snapshot() {
            assert_eq!(archive.get_gcd(&k).as_ref(), Some(&*v));
        }
        for (k, v) in memo.full.snapshot() {
            assert_eq!(archive.get_full(&k).as_ref(), Some(&*v));
        }
        // And miss on a key that was never stored.
        assert_eq!(archive.get_gcd(&MemoKey::from_vec(vec![99, 98, 97])), None);

        // Full iteration recovers the same entry sets.
        let mut gcd = Vec::new();
        archive
            .for_each_gcd(|k, v| gcd.push((k, Arc::new(v))))
            .unwrap();
        gcd.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(gcd, memo.gcd.snapshot());
        // Every record once, gcd shards first, each in the shard its
        // key routes to.
        let mut seen = Vec::new();
        archive
            .for_each_record(|section, shard, key, _| {
                assert_eq!(shard as u64, route_hash(key.as_slice()) % 4);
                seen.push(section);
            })
            .unwrap();
        assert_eq!(seen.len() as u64, expected_records);
        assert!(seen.is_sorted_by_key(|s| *s == ShardSection::Full));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writes_are_deterministic_per_shard_count() {
        let memo = trained_memo();
        let a = tmp("det_a.dm3");
        let b = tmp("det_b.dm3");
        memo.save_memo_file_v3(&a, 8).unwrap();
        memo.save_memo_file_v3(&b, 8).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());

        // A different shard count is a different (but valid) file.
        memo.save_memo_file_v3(&b, 2).unwrap();
        assert_ne!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_eq!(
            MemoArchive::open(&b).unwrap().total_records(),
            MemoArchive::open(&a).unwrap().total_records()
        );
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn fixture_warm_starts_and_resaves_byte_identical() {
        let path = tmp("fixture.v3.memo");
        std::fs::write(&path, FIXTURE).unwrap();
        let memo = SharedMemo::new(4);
        memo.load_memo_file(&path).unwrap();
        let (gcd, full) = memo.merged_entries().unwrap();
        assert_eq!((gcd.len(), full.len()), (8, 7));

        // Re-sharding keeps every record, and two shards reproduce the
        // fixture byte for byte.
        let resharded = tmp("fixture.resharded.memo");
        memo.save_memo_file_v3(&resharded, 5).unwrap();
        let fresh = SharedMemo::new(1);
        fresh.load_memo_file(&resharded).unwrap();
        fresh.save_memo_file_v3(&path, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), FIXTURE);
        assert_eq!(fresh.merged_entries().unwrap(), (gcd, full));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&resharded).ok();
    }

    #[test]
    fn text_tables_are_refused_naming_the_converter() {
        let v1 = b"dda-memo v1\ngcd 1 7 I\n";
        for (name, text) in [("v2.memo", FIXTURE_V2), ("v1.memo", v1.as_slice())] {
            let path = tmp(name);
            std::fs::write(&path, text).unwrap();
            let e = SharedMemo::new(1).load_memo_file(&path).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            let msg = e.to_string();
            assert!(
                msg.starts_with("memo v3 file, offset 0x0: dda-memo v1/v2 text is no longer read")
                    && msg.contains("`dda memo convert` at commit 9a3ff89"),
                "{msg}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn loads_count_warm_records_exactly() {
        let path = tmp("warm_counts.memo");
        std::fs::write(&path, FIXTURE).unwrap();
        for shards in [1, 4] {
            // The first load attaches; the second decodes every record
            // into the resident tables.
            let memo = SharedMemo::new(shards);
            memo.load_memo_file(&path).unwrap();
            assert_eq!(memo.full.counters().warm_loads, 0);
            memo.load_memo_file(&path).unwrap();
            assert_eq!(memo.full.counters().warm_loads, 7);
            assert_eq!(memo.gcd.counters().warm_loads, 8);
            // Warm loads are telemetry, not traffic: no queries or hits yet.
            assert_eq!(memo.full.counters().queries, 0);
            assert_eq!(memo.full.counters().hits, 0);
            let stats = memo.memo_load_stats();
            assert_eq!((stats.files, stats.records), (2, 30));
            assert_eq!(stats.bytes, 2 * FIXTURE.len() as u64);
        }
        std::fs::remove_file(&path).ok();
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
    fn refutation_certificates_round_trip() {
        // An independent-by-cascade pair stores a Refuted certificate;
        // the full payload must survive save → load.
        let program = parse_program("for i = 1 to 10 { z[i] = z[i + 20]; }").unwrap();
        let mut an = DependenceAnalyzer::new();
        an.analyze_program(&program);
        let entries = an.memo().merged_entries().unwrap();
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
        assert_eq!(fresh.memo().merged_entries().unwrap(), entries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_memo_round_trips_with_analyzer() {
        let trained = trained_analyzer();
        let entries = trained.memo().merged_entries().unwrap();
        let path = tmp("analyzer_to_shared.memo");
        trained.memo().save_memo_file_v3(&path, 16).unwrap();

        // Analyzer save → sharded load preserves every entry, whatever
        // the shard count, so serial and batch runs warm-start each
        // other transparently.
        for shards in [1, 8, 64] {
            let shared = SharedMemo::new(shards);
            shared.load_memo_file(&path).unwrap();
            assert_eq!(shared.merged_entries().unwrap(), entries);
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
        assert_eq!(
            fresh.merged_entries().unwrap(),
            memo.merged_entries().unwrap()
        );

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

    fn valid_file_bytes() -> Vec<u8> {
        let memo = trained_memo();
        // One file per test thread: the hostile tests run in parallel.
        let path = tmp(&format!(
            "hostile_base_{:?}.dm3",
            std::thread::current().id()
        ));
        memo.save_memo_file_v3(&path, 2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    fn open_bytes(name: &str, bytes: &[u8]) -> io::Result<MemoArchive> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let r = MemoArchive::open(&path);
        std::fs::remove_file(&path).ok();
        r
    }

    fn expect_located(r: io::Result<MemoArchive>, needle: &str) -> String {
        let e = r.unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let msg = e.to_string();
        assert!(
            msg.contains("offset") && msg.contains(needle),
            "expected located error mentioning `{needle}`, got: {msg}"
        );
        msg
    }

    #[test]
    fn hostile_bad_magic_and_version() {
        let good = valid_file_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        expect_located(open_bytes("bad_magic.dm3", &bad), "magic");

        let mut bad = good.clone();
        bad[8] = 9; // version 9
                    // The version field lies inside the checksummed header prefix,
                    // so fix the header checksum to isolate the version check.
        let sum = xxh64(&bad[..56], 0);
        bad[56..64].copy_from_slice(&sum.to_le_bytes());
        expect_located(open_bytes("bad_version.dm3", &bad), "version 9");
    }

    #[test]
    fn hostile_truncated_file_is_located() {
        let good = valid_file_bytes();
        // Truncating anywhere invalidates the declared file length.
        expect_located(
            open_bytes("trunc_shard.dm3", &good[..good.len() - 5]),
            "file length",
        );
        // A file shorter than the header never reads past its end, even
        // one shorter than the magic.
        expect_located(open_bytes("trunc_header.dm3", &good[..20]), "shorter");
        expect_located(open_bytes("five.dm3", b"DDAME"), "shorter");
    }

    #[test]
    fn hostile_flipped_checksum_byte_is_located() {
        let good = valid_file_bytes();

        // Flip one byte inside the first shard payload: its stored
        // checksum no longer matches.
        let payload_start = HEADER_LEN + 4 * DIR_ENTRY_LEN;
        let mut bad = good.clone();
        bad[payload_start + 3] ^= 0x40;
        let msg = expect_located(open_bytes("flip_payload.dm3", &bad), "checksum mismatch");
        assert!(msg.contains("shard"), "{msg}");

        // Flip a byte of the header instead: the header checksum trips.
        let mut bad = good.clone();
        bad[40] ^= 1;
        expect_located(open_bytes("flip_header.dm3", &bad), "header checksum");
    }

    #[test]
    fn hostile_oversized_counts_fail_before_allocation() {
        let good = valid_file_bytes();

        // Claim 2^56 records in shard 0's directory entry. The records
        // field is at directory offset +16. Re-seal the payload-level
        // lie is unnecessary — the directory is covered by bounds
        // checks, not the header checksum.
        let mut bad = good.clone();
        let at = HEADER_LEN + 16;
        bad[at..at + 8].copy_from_slice(&(1u64 << 56).to_le_bytes());
        expect_located(open_bytes("huge_records.dm3", &bad), "records exceed");

        // Claim a total_records that disagrees with the directory sum
        // (header checksum fixed so the count check itself is reached).
        let mut bad = good.clone();
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = xxh64(&bad[..56], 0);
        bad[56..64].copy_from_slice(&sum.to_le_bytes());
        expect_located(open_bytes("bad_total.dm3", &bad), "header declares");

        // A shard whose offset+len overruns the file.
        let mut bad = good.clone();
        let at = HEADER_LEN + 8; // shard 0 `len`
        bad[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        expect_located(open_bytes("overrun.dm3", &bad), "runs past the file");
    }

    #[test]
    fn hostile_record_count_inside_record_fails_located() {
        // Craft a payload whose single record claims a huge key length.
        // The count guard must refuse before sizing a Vec from it.
        let mut blob = Vec::new();
        put_u(&mut blob, 1 << 40); // key_len lie
        let bytes = archive_of(vec![blob], Vec::new());

        let archive = open_bytes("lying_record.dm3", &bytes).unwrap();
        // Structural validation passes (the lie is inside the record),
        // but decoding the record trips the count guard, located at the
        // record's absolute offset.
        let e = archive.for_each_gcd(|_, _| {}).unwrap_err();
        assert!(
            e.message.contains("exceeds") && e.message.contains("remaining"),
            "{}",
            e.message
        );
        // One shard per section: payloads start after a 2-entry directory.
        assert!(e.offset >= (HEADER_LEN + 2 * DIR_ENTRY_LEN) as u64);
        // Point lookups treat the undecodable record as a miss.
        assert_eq!(archive.get_gcd(&MemoKey::from_vec(vec![1])), None);
    }

    #[test]
    fn malformed_records_are_located() {
        let lattice = |head: &[i64], cells: &[i64]| {
            let mut body = vec![2u8];
            for &n in head {
                put_u(&mut body, n as u64);
            }
            body.extend(zigzag(cells));
            record(&body)
        };
        let gcd_cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("bad gcd tag", record(&[9]), "bad gcd tag 9"),
            (
                "key count beyond the record",
                [vec![3], zigzag(&[1, 2])].concat(),
                "count 3 exceeds the 2 remaining bytes",
            ),
            (
                "record ends inside the value",
                record(&[]),
                "unexpected end of record",
            ),
            (
                "trailing byte",
                record(&[0, 0xAA]),
                "1 trailing bytes after record",
            ),
            (
                "lattice dimensions beyond the record",
                lattice(&[100_000, 100_000, 100_000], &[1]),
                "exceeds",
            ),
            (
                "basis larger than the record",
                lattice(&[2, 2, 3], &[1, 2, 3, 4, 5]),
                "record too short for a 2x3 basis",
            ),
            (
                "particular shorter than the basis",
                lattice(&[1, 2, 1], &[1, 2, 3]),
                "particular length must equal basis rows",
            ),
        ];
        for (what, blob, needle) in gcd_cases {
            expect_record_error(what, &archive_of(vec![blob], Vec::new()), needle);
        }
        let full_cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("bad answer tag", record(&[3]), "bad answer tag 3"),
            ("bad resolver tag", record(&[0, 7]), "bad resolver tag 7"),
            ("bad witness tag", record(&[0, 5, 2]), "bad witness tag 2"),
            (
                "bad direction tag",
                record(&[0, 5, 0, 1, 1, 4]),
                "bad direction tag 4",
            ),
            (
                "bad distance tag",
                record(&[0, 5, 0, 0, 1, 2]),
                "bad distance tag 2",
            ),
            (
                "bad certificate tag",
                full_record(&[8]),
                "bad certificate tag 8",
            ),
            // The certificate promises two GCD numerators; one byte is
            // left, so the count guard refuses before reading them.
            (
                "truncated gcd refutation",
                full_record(&[5, 2, 2]),
                "count 2 exceeds the 1 remaining bytes",
            ),
            (
                "bad rule tag",
                full_record(&[6, 0, 0, 0, 1, 3]),
                "bad rule tag 3",
            ),
            (
                "bad proof tag",
                full_record(&[6, 0, 0, 0, 0, 2]),
                "bad proof tag 2",
            ),
            (
                "bad fm tag",
                full_record(&[6, 0, 0, 0, 0, 1, 2]),
                "bad fm tag 2",
            ),
            (
                "bad dir tag",
                full_record(&[7, 0, 0, 0, 2]),
                "bad dir tag 2",
            ),
        ];
        for (what, blob, needle) in full_cases {
            expect_record_error(what, &archive_of(Vec::new(), vec![blob]), needle);
        }
    }

    /// A full record whose certificate opens with `cert` and then nests
    /// `node` 30,000 times must fail at the depth cap with a located
    /// error — through every reader — not overflow the stack.
    fn expect_depth_capped(cert: &[u8], node: &[u8], needle: &str) {
        let blob = full_record(&[cert, &node.repeat(30_000)].concat());
        let bytes = archive_of(Vec::new(), vec![blob]);
        expect_record_error(needle, &bytes, needle);

        // A second load decodes eagerly and fails the same way.
        let path = tmp(&format!("deep_{:?}.dm3", std::thread::current().id()));
        std::fs::write(&path, &bytes).unwrap();
        let memo = SharedMemo::new(1);
        memo.load_memo_file(&path).unwrap();
        let e = memo.load_memo_file(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let msg = e.to_string();
        assert!(
            msg.starts_with("memo v3 file, offset ") && msg.ends_with(needle),
            "{msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deep_direction_tree_fails_located() {
        // DirectionsExhausted over an empty lattice, then `Split` at
        // level 0 all the way down.
        expect_depth_capped(
            &[7, 0, 0, 0],
            &[1, 0],
            "direction tree nesting exceeds depth 200",
        );
    }

    #[test]
    fn deep_fm_tree_fails_located() {
        // Refuted over an empty lattice by an FM tree of `Split`s.
        expect_depth_capped(
            &[6, 0, 0, 0, 0, 1],
            &[1, 0, 0, 0],
            "proof tree nesting exceeds depth 200",
        );
    }

    /// [`FIXTURE`] rewritten as one shard, with the first full record's
    /// length shortened by one byte and the payload checksum recomputed.
    fn short_record_archive() -> Vec<u8> {
        let memo = SharedMemo::new(1);
        let path = tmp(&format!("short_{:?}.dm3", std::thread::current().id()));
        std::fs::write(&path, FIXTURE).unwrap();
        memo.load_memo_file(&path).unwrap();
        memo.save_memo_file_v3(&path, 1).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let gcd_records = u64le(&bytes[HEADER_LEN + 16..]) as usize;
        let (entry, _, len) = record_spans(&bytes)[gcd_records];
        bytes[entry + 12..entry + 16].copy_from_slice(&(len as u32 - 1).to_le_bytes());
        reseal(&mut bytes);
        bytes
    }

    #[test]
    fn resealed_short_record_fails_save_located() {
        let bytes = short_record_archive();
        // The committed copy that the command-line tests load.
        assert_eq!(bytes, SHORT_RECORD);
        let path = tmp("short_record.dm3");
        std::fs::write(&path, &bytes).unwrap();

        // It opens and attaches: the checksums are valid.
        let memo = SharedMemo::new(1);
        memo.load_memo_file(&path).unwrap();
        // The record's last field now claims more than is left.
        let e = memo.merged_entries().unwrap_err();
        assert_eq!(
            e.to_string(),
            "memo v3 file, offset 0x27b: count 4 exceeds the 3 remaining bytes"
        );

        // Saving reports the located error and leaves the target as it
        // was.
        let target = tmp("short_record.saved.dm3");
        std::fs::write(&target, FIXTURE).unwrap();
        let e = memo.save_memo_file_v3(&target, 2).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().starts_with("memo v3 file, offset "), "{e}");
        assert_eq!(std::fs::read(&target).unwrap(), FIXTURE);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&target).ok();
    }

    /// Loads `bytes` through [`SharedMemo::load_memo_file`] and demands a
    /// located `InvalidData` error.
    fn expect_load_located(path: &Path, bytes: &[u8], what: &str) {
        std::fs::write(path, bytes).unwrap();
        match SharedMemo::new(2).load_memo_file(path) {
            Ok(()) => panic!("{what} loaded silently"),
            Err(e) => {
                let msg = e.to_string();
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {msg}");
                assert!(
                    msg.starts_with("memo v3 file, offset "),
                    "{what}: unlocated error {msg}"
                );
            }
        }
    }

    #[test]
    fn every_truncation_and_byte_flip_fails_located() {
        let good = valid_file_bytes();
        let path = tmp("fault_injection.dm3");
        for cut in 0..good.len() {
            expect_load_located(&path, &good[..cut], &format!("truncation to {cut} bytes"));
        }
        for at in 0..good.len() {
            for mask in [0xFF, 0x01] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                expect_load_located(&path, &bad, &format!("byte {at} ^ {mask:#04x}"));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The fuzzer's base archive and the keys it holds.
    fn fuzz_base() -> &'static (Vec<u8>, Vec<MemoKey>, Vec<MemoKey>) {
        static BASE: std::sync::OnceLock<(Vec<u8>, Vec<MemoKey>, Vec<MemoKey>)> =
            std::sync::OnceLock::new();
        BASE.get_or_init(|| {
            let (gcd, full) = trained_memo().merged_entries().unwrap();
            let gcd = gcd.into_iter().map(|(k, _)| k).collect();
            let full = full.into_iter().map(|(k, _)| k).collect();
            (valid_file_bytes(), gcd, full)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mutates record bytes and index lengths of a valid archive,
        /// reseals the payload checksums, and drives every reader over
        /// the result: open, both iterations, a point lookup of every
        /// key and a save. Nothing may panic; every error is located
        /// inside the file; a save fails exactly when iteration does.
        #[test]
        fn resealed_mutants_fail_located_or_decode(
            mutations in proptest::collection::vec(
                (0u8..4, any::<usize>(), any::<usize>(), any::<u8>()),
                1..5,
            )
        ) {
            let (good, gcd_keys, full_keys) = fuzz_base();
            let spans = record_spans(good);
            let mut bytes = good.clone();
            for (kind, which, at, value) in mutations {
                let (entry, start, len) = spans[which % spans.len()];
                let pos = start + at % len.max(1);
                let new_len = match kind {
                    0 => {
                        bytes[pos] = value;
                        continue;
                    }
                    1 => {
                        bytes[pos] ^= 1 << (value % 8);
                        continue;
                    }
                    2 => len.saturating_sub(1 + usize::from(value % 4)),
                    _ => len + 1 + usize::from(value % 4),
                };
                bytes[entry + 12..entry + 16].copy_from_slice(&(new_len as u32).to_le_bytes());
            }
            reseal(&mut bytes);
            let file_len = bytes.len() as u64;

            let archive = match MemoArchive::from_bytes(bytes) {
                Ok(archive) => archive,
                Err(e) => {
                    prop_assert!(e.offset < file_len, "{}", e);
                    return Ok(());
                }
            };
            let walked = archive
                .for_each_gcd(|_, _| {})
                .and_then(|()| archive.for_each_full(|_, _| {}));
            if let Err(e) = &walked {
                prop_assert!(e.offset >= HEADER_LEN as u64 && e.offset <= file_len, "{}", e);
            }
            prop_assert_eq!(archive.for_each_record(|_, _, _, _| {}).is_ok(), walked.is_ok());
            for k in gcd_keys {
                let _ = archive.get_gcd(k);
            }
            for k in full_keys {
                let _ = archive.get_full(k);
            }

            let memo = SharedMemo::new(2);
            memo.attach_archive(archive).unwrap();
            let path = tmp(&format!("mutant_{:?}.dm3", std::thread::current().id()));
            match memo.save_memo_file_v3(&path, 2) {
                Ok(()) => {
                    prop_assert!(walked.is_ok());
                    let saved = MemoArchive::open(&path).unwrap();
                    prop_assert!(saved.for_each_record(|_, _, _, _| {}).is_ok(), "saved archive decodes");
                    std::fs::remove_file(&path).ok();
                }
                Err(e) => {
                    prop_assert!(walked.is_err());
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    prop_assert!(e.to_string().starts_with("memo v3 file, offset "), "{}", e);
                }
            }
        }
    }

    #[test]
    fn hostile_unsorted_index_is_rejected() {
        let blob_a = {
            let mut b = Vec::new();
            enc_key(&mut b, &MemoKey::from_vec(vec![1]));
            b.push(0);
            b
        };
        let blob_b = {
            let mut b = Vec::new();
            enc_key(&mut b, &MemoKey::from_vec(vec![2]));
            b.push(0);
            b
        };
        // build_payload sorts; sabotage the order by hand afterwards.
        let mut payload = build_payload(vec![(5, blob_a), (9, blob_b)]).unwrap();
        let (lo, hi) = (5u64.to_le_bytes(), 9u64.to_le_bytes());
        payload[0..8].copy_from_slice(&hi);
        payload[16..24].copy_from_slice(&lo);
        let gcd = [(payload, 2u64)];
        let full = [(build_payload(Vec::new()).unwrap(), 0u64)];
        let mut bytes = Vec::new();
        assemble(&gcd, &full, &mut bytes).unwrap();
        expect_located(open_bytes("unsorted.dm3", &bytes), "not sorted");
    }

    #[test]
    fn shared_memo_lazy_load_faults_records_on_demand() {
        let memo = trained_memo();
        let path = tmp("lazy.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        let warm = SharedMemo::new(4);
        warm.load_memo_file(&path).unwrap();
        // Nothing is resident yet — the archive is attached, not decoded.
        assert_eq!(warm.full.unique_entries(), 0);
        assert_eq!(warm.gcd.unique_entries(), 0);
        let stats = warm.memo_load_stats();
        assert_eq!(stats.files, 1);
        assert_eq!(
            stats.records,
            (memo.gcd.unique_entries() + memo.full.unique_entries()) as u64
        );
        assert_eq!(stats.archive_faults, 0);

        // A lookup faults exactly one record into the hot tier.
        let (k, v) = &memo.full.snapshot()[0];
        assert_eq!(warm.lookup_full(k).as_ref(), Some(v));
        assert_eq!(warm.full.unique_entries(), 1);
        assert_eq!(warm.memo_load_stats().archive_faults, 1);
        // Resident now: the second lookup hits the table, not the archive.
        assert_eq!(warm.lookup_full(k).as_ref(), Some(v));
        assert_eq!(warm.memo_load_stats().archive_faults, 1);

        // Persisted entries see through both tiers.
        assert_eq!(
            warm.merged_entries().unwrap(),
            memo.merged_entries().unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn second_v3_load_decodes_eagerly() {
        let memo = trained_memo();
        let path = tmp("second_load.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        let warm = SharedMemo::new(4);
        warm.load_memo_file(&path).unwrap();
        warm.load_memo_file(&path).unwrap();
        // The second archive could not attach, so its records were
        // decoded eagerly into the resident tables.
        assert_eq!(warm.full.unique_entries(), memo.full.unique_entries());
        assert_eq!(warm.gcd.unique_entries(), memo.gcd.unique_entries());
        assert_eq!(
            warm.merged_entries().unwrap(),
            memo.merged_entries().unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serial_analyzer_attaches_v3_lazily() {
        let memo = trained_memo();
        let path = tmp("serial.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        // The serial analyzer's memo is a one-shard `SharedMemo`, so the
        // archive attaches as a cold tier exactly as in the engine.
        let mut an = DependenceAnalyzer::new();
        an.load_memo_file(&path).unwrap();
        assert_eq!(an.memo_entries(), 0);
        assert_eq!(an.gcd_memo_entries(), 0);
        // Persisted entries merge both tiers.
        assert_eq!(
            an.memo().merged_entries().unwrap(),
            memo.merged_entries().unwrap()
        );
        std::fs::remove_file(&path).ok();
    }
}
