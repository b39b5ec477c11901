//! dda-memo v3: a binary, sharded, checksummed memo archive.
//!
//! The older text format ([`crate::persist`]) parses every record on load,
//! so warm starts at service scale are dominated by decode rather than
//! solving. Version 3 keeps the same logical records (gcd outcomes and
//! full cached outcomes, both keyed by [`MemoKey`]) but lays them out as
//! hash-partitioned binary shards behind a fixed-width header, so a
//! warm start is one read of the file plus an O(shards) validation pass
//! — no per-record work until a record is actually needed.
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
//! Loading is strict in the same spirit as the text format: every
//! structural claim the file makes (lengths, counts, offsets,
//! checksums) is validated against what is actually present *before*
//! any allocation is sized from it, and failures carry the byte offset
//! of the lie. Per-record decoding is deferred: [`MemoArchive::get_gcd`]
//! and [`MemoArchive::get_full`] binary-search a shard index and decode
//! exactly one record.
//!
//! The proof-carrying part of a record (rules, FM trees, refutations,
//! direction trees, lattices, certificates) is one grammar in both
//! formats. Its decoders here are generic over a `FieldReader`, which
//! both the varint cursor below and the text reader implement, so the
//! depth cap and every count check exist once.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use dda_linalg::Matrix;

use crate::analyzer::CachedOutcome;
use crate::certificate::{
    Certificate, Derivation, DirTree, FmTree, RefProof, Rule, SystemRefutation,
};
use crate::gcd::{EqOutcome, Lattice};
use crate::memo::{route_hash, MemoKey};
use crate::persist::write_atomic_with;
use crate::result::{
    Answer, DependenceResult, Direction, DirectionVector, DistanceVector, ResolvedBy, TestKind,
};

/// Magic bytes opening every v3 archive.
pub(crate) const MAGIC: [u8; 8] = *b"DDAMEMO3";
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
pub(crate) fn xxh64(data: &[u8], seed: u64) -> u64 {
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

    fn finish(&self) -> Result<(), PersistV3Error> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            self.fail(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            ))
        }
    }
}

// --- the proof grammar, shared with the text reader ----------------------

/// One variant choice of the proof grammar: v3 stores variant `i` as
/// byte `i`, v1/v2 text as the letter `text[i]`. A reader's
/// [`FieldReader::tag`] rejects any other tag, so each decoder's last
/// match arm is its last variant.
pub(crate) struct Tags {
    /// What the tag selects, for error messages.
    pub(crate) what: &'static str,
    /// The text letter of each variant, in v3 byte order.
    pub(crate) text: &'static [&'static str],
}

const RULE: Tags = Tags {
    what: "rule",
    text: &["P", "C", "D"],
};
const FM: Tags = Tags {
    what: "fm",
    text: &["S", "B"],
};
const PROOF: Tags = Tags {
    what: "proof",
    text: &["A", "F"],
};
const DIR: Tags = Tags {
    what: "dir",
    text: &["R", "T"],
};
const CERT: Tags = Tags {
    what: "certificate",
    text: &["-", "u", "W", "E", "N", "G", "R", "X"],
};

/// A located reader of record fields: the v3 varint cursor and the
/// text field cursor (`persist::Fields`) both implement it, so the
/// proof-carrying part of a record decodes through one set of
/// functions — with one depth cap, one count check and one basis-size
/// check for both formats.
pub(crate) trait FieldReader {
    /// The reader's located error.
    type Error;
    /// What [`remaining`](Self::remaining) counts.
    const UNIT: &'static str;
    /// What holds one record, for error messages.
    const SCOPE: &'static str;

    /// Reads a variant tag and returns its index in `tags`.
    fn tag(&mut self, tags: &Tags) -> Result<u8, Self::Error>;
    /// Reads a signed integer.
    fn int(&mut self) -> Result<i64, Self::Error>;
    /// Reads an unsigned index or size.
    fn uint(&mut self) -> Result<usize, Self::Error>;
    /// Units left in the record; every field occupies at least one.
    fn remaining(&self) -> usize;
    /// An error located where the reader stands.
    fn fail<T>(&self, message: String) -> Result<T, Self::Error>;

    /// Reads a count of items still to be decoded from this record.
    /// Every item occupies at least one unit, so any honest count is
    /// bounded by what remains — rejecting a corrupt or crafted count
    /// *before* the caller sizes an allocation from it.
    fn count(&mut self) -> Result<usize, Self::Error> {
        let n = self.uint()?;
        let left = self.remaining();
        if n > left {
            return self.fail(format!(
                "count {n} exceeds the {left} remaining {}",
                Self::UNIT
            ));
        }
        Ok(n)
    }

    /// Reads `n` signed integers.
    fn ints(&mut self, n: usize) -> Result<Vec<i64>, Self::Error> {
        (0..n).map(|_| self.int()).collect()
    }

    /// Reads a counted vector of signed integers.
    fn ivec(&mut self) -> Result<Vec<i64>, Self::Error> {
        let n = self.count()?;
        self.ints(n)
    }
}

impl FieldReader for Cur<'_> {
    type Error = PersistV3Error;
    const UNIT: &'static str = "bytes";
    const SCOPE: &'static str = "record";

    fn tag(&mut self, tags: &Tags) -> Result<u8, PersistV3Error> {
        let t = self.u8()?;
        if usize::from(t) < tags.text.len() {
            Ok(t)
        } else {
            self.fail(format!("bad {} tag {t}", tags.what))
        }
    }

    fn int(&mut self) -> Result<i64, PersistV3Error> {
        let u = self.uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    fn uint(&mut self) -> Result<usize, PersistV3Error> {
        let at = self.off();
        let v = self.uvarint()?;
        usize::try_from(v).map_err(|_| PersistV3Error {
            offset: at,
            message: format!("index {v} does not fit in usize"),
        })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn fail<T>(&self, message: String) -> Result<T, PersistV3Error> {
        verr(self.off(), message)
    }
}

fn dec_rule<R: FieldReader>(r: &mut R) -> Result<Rule, R::Error> {
    Ok(match r.tag(&RULE)? {
        0 => Rule::Premise {
            coeffs: r.ivec()?,
            rhs: r.int()?,
        },
        1 => Rule::Comb {
            a: r.uint()?,
            ca: r.int()?,
            b: r.uint()?,
            cb: r.int()?,
        },
        _ => Rule::Div {
            of: r.uint()?,
            d: r.int()?,
        },
    })
}

fn dec_rules<R: FieldReader>(r: &mut R) -> Result<Vec<Rule>, R::Error> {
    let n = r.count()?;
    (0..n).map(|_| dec_rule(r)).collect()
}

fn dec_fmtree<R: FieldReader>(r: &mut R, depth: usize) -> Result<FmTree, R::Error> {
    if depth > MAX_DEPTH {
        return r.fail(format!("proof tree nesting exceeds depth {MAX_DEPTH}"));
    }
    Ok(match r.tag(&FM)? {
        0 => FmTree::Sealed(Derivation {
            rules: dec_rules(r)?,
            seal: r.uint()?,
        }),
        _ => FmTree::Split {
            var: r.uint()?,
            le: r.int()?,
            ge: r.int()?,
            left: Box::new(dec_fmtree(r, depth + 1)?),
            right: Box::new(dec_fmtree(r, depth + 1)?),
        },
    })
}

fn dec_sysref<R: FieldReader>(r: &mut R) -> Result<SystemRefutation, R::Error> {
    let arena = dec_rules(r)?;
    let proof = match r.tag(&PROOF)? {
        0 => RefProof::Arena { seal: r.uint()? },
        _ => RefProof::Fm {
            tree: dec_fmtree(r, 0)?,
        },
    };
    Ok(SystemRefutation { arena, proof })
}

fn dec_dirtree<R: FieldReader>(r: &mut R, depth: usize) -> Result<DirTree, R::Error> {
    if depth > MAX_DEPTH {
        return r.fail(format!("direction tree nesting exceeds depth {MAX_DEPTH}"));
    }
    Ok(match r.tag(&DIR)? {
        0 => DirTree::Refuted(dec_sysref(r)?),
        _ => DirTree::Split {
            level: r.uint()?,
            lt: Box::new(dec_dirtree(r, depth + 1)?),
            eq: Box::new(dec_dirtree(r, depth + 1)?),
            gt: Box::new(dec_dirtree(r, depth + 1)?),
        },
    })
}

/// Decodes a lattice's particular solution and basis — of a certificate
/// or of a gcd record.
pub(crate) fn dec_lattice<R: FieldReader>(r: &mut R) -> Result<Lattice, R::Error> {
    let np = r.count()?;
    let rows = r.count()?;
    let cols = r.count()?;
    if np != rows {
        return r.fail("particular length must equal basis rows".into());
    }
    let particular = r.ints(np)?;
    // Every cell occupies at least one unit, so the product is bounded
    // by what remains — a crafted `rows x cols` header fails located
    // instead of sizing a multi-gigabyte matrix.
    let cells = rows.checked_mul(cols);
    if cells.is_none_or(|n| n > r.remaining()) {
        return r.fail(format!("{} too short for a {rows}x{cols} basis", R::SCOPE));
    }
    let mut basis = Matrix::zeros(rows, cols);
    for row in 0..rows {
        for col in 0..cols {
            basis[(row, col)] = r.int()?;
        }
    }
    Ok(Lattice { particular, basis })
}

/// Decodes a certificate.
pub(crate) fn dec_cert<R: FieldReader>(r: &mut R) -> Result<Certificate, R::Error> {
    Ok(match r.tag(&CERT)? {
        0 => Certificate::Conservative,
        1 => Certificate::Unverified,
        2 => Certificate::Witness { x: r.ivec()? },
        3 => Certificate::ConstantsEqual,
        4 => Certificate::ConstantsDiffer,
        5 => Certificate::GcdRefutation {
            numer: r.ivec()?,
            denom: r.int()?,
        },
        6 => {
            let Lattice { particular, basis } = dec_lattice(r)?;
            Certificate::Refuted {
                particular,
                basis,
                refutation: dec_sysref(r)?,
            }
        }
        _ => {
            let Lattice { particular, basis } = dec_lattice(r)?;
            Certificate::DirectionsExhausted {
                particular,
                basis,
                tree: dec_dirtree(r, 0)?,
            }
        }
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
        let mut dirs = Vec::with_capacity(nd);
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
    let mut distance = Vec::with_capacity(nd);
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
    entries: &[(MemoKey, V)],
    shard_count: usize,
    enc: impl Fn(&mut Vec<u8>, &V),
) -> io::Result<Vec<(Vec<u8>, u64)>> {
    let mut shards: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); shard_count];
    for (k, v) in entries {
        let h = route_hash(k);
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
pub(crate) fn write_memo_v3(
    path: &Path,
    gcd: &[(MemoKey, EqOutcome)],
    full: &[(MemoKey, CachedOutcome)],
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

pub(crate) fn invalid_data(e: PersistV3Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
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
    pub(crate) fn from_bytes(data: Vec<u8>) -> Result<MemoArchive, PersistV3Error> {
        let b = data.as_slice();
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
        key: &MemoKey,
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
            match key_matches(&mut cur, key.as_slice()) {
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
    /// Returns `None` on a miss — or if the record fails to decode,
    /// which after the open-time checksum pass indicates a writer bug
    /// rather than file corruption.
    #[must_use]
    pub fn get_gcd(&self, key: &MemoKey) -> Option<EqOutcome> {
        self.lookup(&self.gcd_shards, key, dec_gcd_value)
    }

    /// Looks up one full record without decoding anything else. Same
    /// miss semantics as [`MemoArchive::get_gcd`].
    #[must_use]
    pub fn get_full(&self, key: &MemoKey) -> Option<CachedOutcome> {
        self.lookup(&self.full_shards, key, dec_full_value)
    }

    fn for_each<T>(
        &self,
        shards: &[Shard],
        dec: impl Fn(&mut Cur<'_>) -> Result<T, PersistV3Error>,
        mut f: impl FnMut(MemoKey, T),
    ) -> Result<(), PersistV3Error> {
        for shard in shards {
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
                f(key, v);
            }
        }
        Ok(())
    }

    /// Decodes every gcd record, in shard order then hash order.
    ///
    /// # Errors
    ///
    /// Returns a located [`PersistV3Error`] if any record is malformed.
    pub fn for_each_gcd(&self, f: impl FnMut(MemoKey, EqOutcome)) -> Result<(), PersistV3Error> {
        self.for_each(&self.gcd_shards, dec_gcd_value, f)
    }

    /// Decodes every full record, in shard order then hash order.
    ///
    /// # Errors
    ///
    /// Returns a located [`PersistV3Error`] if any record is malformed.
    pub fn for_each_full(
        &self,
        f: impl FnMut(MemoKey, CachedOutcome),
    ) -> Result<(), PersistV3Error> {
        self.for_each(&self.full_shards, dec_full_value, f)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DependenceAnalyzer;
    use crate::memo::SharedMemo;
    use dda_ir::parse_program;

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
        let (gcd, full) = an.memo().merged_entries();
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
        let dir = std::env::temp_dir().join("dda_persist_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
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
            assert_eq!(archive.get_gcd(&k), Some(v));
        }
        for (k, v) in memo.full.snapshot() {
            assert_eq!(archive.get_full(&k), Some(v));
        }
        // And miss on a key that was never stored.
        assert_eq!(archive.get_gcd(&MemoKey::from_vec(vec![99, 98, 97])), None);

        // Full iteration recovers the same entry sets.
        let mut gcd = Vec::new();
        archive.for_each_gcd(|k, v| gcd.push((k, v))).unwrap();
        gcd.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(gcd, memo.gcd.snapshot());
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
        // A file shorter than the header never reads past its end.
        expect_located(open_bytes("trunc_header.dm3", &good[..20]), "shorter");
        // A file shorter than the magic is not an archive: the text
        // reader takes it and rejects its header.
        let path = tmp("five.dm3");
        std::fs::write(&path, b"DDAME").unwrap();
        let e = SharedMemo::new(1).load_memo_file(&path).unwrap_err();
        assert!(e.to_string().starts_with("memo file, line 1: "), "{e}");
        std::fs::remove_file(&path).ok();
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
        let payload = build_payload(vec![(7, blob)]).unwrap();
        let gcd = [(payload, 1u64)];
        let full = [(build_payload(Vec::new()).unwrap(), 0u64)];
        let mut bytes = Vec::new();
        assemble(&gcd, &full, &mut bytes).unwrap();

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

    /// Loads `bytes` through [`SharedMemo::load_memo_file`] and demands a
    /// located `InvalidData` error: a byte offset for the v3 reader, a
    /// line for the text reader that takes files without the v3 magic.
    fn expect_load_located(path: &Path, bytes: &[u8], what: &str) {
        std::fs::write(path, bytes).unwrap();
        match SharedMemo::new(2).load_memo_file(path) {
            Ok(format) => panic!("{what} loaded silently as {format:?}"),
            Err(e) => {
                let msg = e.to_string();
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {msg}");
                assert!(
                    msg.starts_with("memo v3 file, offset ") || msg.starts_with("memo file, line "),
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
        use crate::persist::MemoFormat;
        let memo = trained_memo();
        let path = tmp("lazy.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        let warm = SharedMemo::new(4);
        assert_eq!(warm.load_memo_file(&path).unwrap(), MemoFormat::V3Binary);
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
        assert_eq!(warm.merged_entries(), memo.merged_entries());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn second_v3_load_decodes_eagerly() {
        use crate::persist::MemoFormat;
        let memo = trained_memo();
        let path = tmp("second_load.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        let warm = SharedMemo::new(4);
        assert_eq!(warm.load_memo_file(&path).unwrap(), MemoFormat::V3Binary);
        assert_eq!(warm.load_memo_file(&path).unwrap(), MemoFormat::V3Binary);
        // The second archive could not attach, so its records were
        // decoded eagerly into the resident tables.
        assert_eq!(warm.full.unique_entries(), memo.full.unique_entries());
        assert_eq!(warm.gcd.unique_entries(), memo.gcd.unique_entries());
        assert_eq!(warm.merged_entries(), memo.merged_entries());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serial_analyzer_attaches_v3_lazily() {
        use crate::persist::MemoFormat;
        let memo = trained_memo();
        let path = tmp("serial.dm3");
        memo.save_memo_file_v3(&path, 4).unwrap();

        // The serial analyzer's memo is a one-shard `SharedMemo`, so the
        // archive attaches as a cold tier exactly as in the engine.
        let mut an = DependenceAnalyzer::new();
        assert_eq!(an.load_memo_file(&path).unwrap(), MemoFormat::V3Binary);
        assert_eq!(an.memo_entries(), 0);
        assert_eq!(an.gcd_memo_entries(), 0);
        // Persisted entries merge both tiers.
        assert_eq!(an.memo().merged_entries(), memo.merged_entries());
        std::fs::remove_file(&path).ok();
    }
}
