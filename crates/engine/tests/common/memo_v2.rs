//! The `dda-memo v2` text writer, frozen.
//!
//! The library writes only the binary v3 archive; v1 and v2 text stay
//! import-only through `SharedMemo::load_memo_file`. This module keeps
//! the v2 encoders exactly as they stood in `dda_core::persist` when the
//! writer was deleted, so the property tests can still warm-start from
//! v2 text of any table they train, and `tests/corpus/memo/loops.v2.memo`
//! (written by the last binary that could) pins what they produce.

use std::path::Path;

use dda_core::certificate::{Certificate, DirTree, FmTree, RefProof, Rule, SystemRefutation};
use dda_core::gcd::EqOutcome;
use dda_core::memo::MemoKey;
use dda_core::result::{Answer, Direction, ResolvedBy, TestKind};
use dda_core::CachedOutcome;
use dda_linalg::Matrix;

/// Magic header of the v2 format.
const HEADER: &str = "dda-memo v2";

/// Serializes both tables, each sorted by key, as `dda-memo v2` text —
/// the body of the deleted `SharedMemo::export_memo`.
pub fn export_v2(gcd: &[(MemoKey, EqOutcome)], full: &[(MemoKey, CachedOutcome)]) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (k, v) in gcd {
        encode_gcd(k, v, &mut out);
    }
    for (k, v) in full {
        encode_full(k, v, &mut out);
    }
    out
}

/// Writes [`export_v2`] of the given tables to `path`.
pub fn save_v2(
    path: &Path,
    gcd: &[(MemoKey, EqOutcome)],
    full: &[(MemoKey, CachedOutcome)],
) -> std::io::Result<()> {
    std::fs::write(path, export_v2(gcd, full))
}

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
