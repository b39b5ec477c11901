//! Expression trees and affine (linear) forms.
//!
//! The parser produces general [`Expr`] trees; the dependence tests only
//! understand *affine* functions of loop variables and symbolic constants.
//! [`AffineExpr`] is that normal form, and [`AffineExpr::from_expr`]
//! performs the lowering (after the normalization passes have done constant
//! propagation and substitution).

use std::collections::BTreeMap;
use std::fmt;

/// A multi-dimensional array reference, e.g. `a[i + 1][j]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// The array's name.
    pub array: String,
    /// One subscript expression per dimension.
    pub subscripts: Vec<Expr>,
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for s in &self.subscripts {
            write!(f, "[{s}]")?;
        }
        Ok(())
    }
}

/// A general scalar expression as written in the source program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Const(i64),
    /// A scalar variable: loop index, symbolic constant, or program scalar.
    Var(String),
    /// A read of an array element.
    ArrayRead(ArrayRef),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable expression.
    #[must_use]
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_owned())
    }

    /// Collects every array reference read inside this expression, in
    /// left-to-right order.
    #[must_use]
    pub fn array_reads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.visit_reads(&mut out);
        out
    }

    fn visit_reads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::ArrayRead(r) => {
                out.push(r);
                // Reads nested inside subscripts (a[b[i]]) are accesses
                // too, in pre-order after their parent.
                for s in &r.subscripts {
                    s.visit_reads(out);
                }
            }
            Expr::Neg(e) => e.visit_reads(out),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.visit_reads(out);
                b.visit_reads(out);
            }
        }
    }

    /// Collects every scalar variable mentioned (not array names).
    #[must_use]
    pub fn scalar_vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_vars(&mut out);
        out
    }

    fn visit_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(v),
            Expr::ArrayRead(r) => {
                for s in &r.subscripts {
                    s.visit_vars(out);
                }
            }
            Expr::Neg(e) => e.visit_vars(out),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.visit_vars(out);
                b.visit_vars(out);
            }
        }
    }
}

impl Expr {
    fn is_atom(&self) -> bool {
        matches!(self, Expr::Var(_) | Expr::ArrayRead(_) | Expr::Const(0..))
    }

    fn fmt_factor(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A factor position (operand of `*` or `-x`) needs parentheses
        // around anything that is not an atom.
        if self.is_atom() {
            write!(f, "{self}")
        } else {
            write!(f, "({self})")
        }
    }

    fn fmt_add_rhs(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The right operand of a left-associative `+`/`-` chain needs
        // parentheses around a nested `+`/`-`.
        if matches!(self, Expr::Add(..) | Expr::Sub(..)) {
            write!(f, "({self})")
        } else {
            write!(f, "{self}")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::ArrayRead(r) => write!(f, "{r}"),
            Expr::Neg(e) => {
                write!(f, "-")?;
                e.fmt_factor(f)
            }
            Expr::Add(a, b) => {
                write!(f, "{a} + ")?;
                b.fmt_add_rhs(f)
            }
            Expr::Sub(a, b) => {
                write!(f, "{a} - ")?;
                b.fmt_add_rhs(f)
            }
            Expr::Mul(a, b) => {
                a.fmt_factor(f)?;
                write!(f, " * ")?;
                b.fmt_factor(f)
            }
        }
    }
}

/// An affine (integral linear) function of named variables:
/// `c₀ + Σ cᵥ · v`.
///
/// This is the only form the dependence tests accept for subscripts and
/// loop bounds. Terms with zero coefficients are never stored.
///
/// # Examples
///
/// ```
/// use dda_ir::AffineExpr;
///
/// let e = AffineExpr::term("i", 2).add(&AffineExpr::constant(3));
/// assert_eq!(e.coeff("i"), 2);
/// assert_eq!(e.constant_part(), 3);
/// assert_eq!(e.to_string(), "2*i + 3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The zero function.
    #[must_use]
    pub fn zero() -> AffineExpr {
        AffineExpr::default()
    }

    /// A constant function.
    #[must_use]
    pub fn constant(c: i64) -> AffineExpr {
        AffineExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// A single term `coeff * var`.
    #[must_use]
    pub fn term(var: &str, coeff: i64) -> AffineExpr {
        let mut e = AffineExpr::zero();
        e.set_coeff(var, coeff);
        e
    }

    /// A bare variable `1 * var`.
    #[must_use]
    pub fn var(name: &str) -> AffineExpr {
        AffineExpr::term(name, 1)
    }

    /// The coefficient of `var` (zero if absent).
    #[must_use]
    pub fn coeff(&self, var: &str) -> i64 {
        self.terms.get(var).copied().unwrap_or(0)
    }

    /// Sets the coefficient of `var`, removing the term when zero.
    pub fn set_coeff(&mut self, var: &str, coeff: i64) {
        if coeff == 0 {
            self.terms.remove(var);
        } else {
            self.terms.insert(var.to_owned(), coeff);
        }
    }

    /// The constant part `c₀`.
    #[must_use]
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Whether this function is a constant (no variable terms).
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The variables with non-zero coefficients, in sorted order.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(String::as_str)
    }

    /// Iterates over `(variable, coefficient)` pairs in sorted order.
    pub fn iter_terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Pointwise sum.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow (dependence systems use tiny coefficients;
    /// the analyzer bails out to "assume dependent" far earlier).
    #[must_use]
    pub fn add(&self, rhs: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        for (v, c) in rhs.iter_terms() {
            let nc = out
                .coeff(v)
                .checked_add(c)
                .expect("affine coefficient overflow");
            out.set_coeff(v, nc);
        }
        out.constant = out
            .constant
            .checked_add(rhs.constant)
            .expect("affine constant overflow");
        out
    }

    /// Pointwise difference.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow.
    #[must_use]
    pub fn sub(&self, rhs: &AffineExpr) -> AffineExpr {
        self.add(&rhs.scale(-1))
    }

    /// Multiplies every coefficient and the constant by `k`.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow.
    #[must_use]
    pub fn scale(&self, k: i64) -> AffineExpr {
        let mut out = AffineExpr::zero();
        for (v, c) in self.iter_terms() {
            out.set_coeff(v, c.checked_mul(k).expect("affine coefficient overflow"));
        }
        out.constant = self
            .constant
            .checked_mul(k)
            .expect("affine constant overflow");
        out
    }

    /// Replaces `var` with `replacement` throughout.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow.
    #[must_use]
    pub fn substitute(&self, var: &str, replacement: &AffineExpr) -> AffineExpr {
        let c = self.coeff(var);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.set_coeff(var, 0);
        out.add(&replacement.scale(c))
    }

    /// Renames a variable. If `to` already has a coefficient, the terms are
    /// merged.
    #[must_use]
    pub fn rename(&self, from: &str, to: &str) -> AffineExpr {
        self.substitute(from, &AffineExpr::var(to))
    }

    /// Evaluates at an assignment; variables absent from `env` are an
    /// error.
    ///
    /// Returns `None` if a variable is unbound or the arithmetic overflows.
    #[must_use]
    pub fn eval(&self, env: &BTreeMap<String, i64>) -> Option<i64> {
        let mut acc = self.constant;
        for (v, c) in self.iter_terms() {
            let val = env.get(v)?;
            acc = acc.checked_add(c.checked_mul(*val)?)?;
        }
        Some(acc)
    }

    /// Lowers a general expression to affine form.
    ///
    /// Returns `None` when the expression is not affine: it reads an array,
    /// multiplies two non-constant subexpressions, or needs a coefficient,
    /// constant or product that does not fit in `i64`. Sums are exact:
    /// `(c + i) - c` lowers to `i` for any `c` that fits.
    ///
    /// # Examples
    ///
    /// ```
    /// use dda_ir::{AffineExpr, Expr};
    ///
    /// let e = Expr::Mul(Box::new(Expr::Const(2)), Box::new(Expr::var("i")));
    /// let a = AffineExpr::from_expr(&e).expect("affine");
    /// assert_eq!(a.coeff("i"), 2);
    ///
    /// let bad = Expr::Mul(Box::new(Expr::var("i")), Box::new(Expr::var("j")));
    /// assert!(AffineExpr::from_expr(&bad).is_none());
    ///
    /// let huge = Expr::Add(Box::new(Expr::Const(i64::MAX)), Box::new(Expr::Const(1)));
    /// assert!(AffineExpr::from_expr(&huge).is_none());
    /// ```
    #[must_use]
    pub fn from_expr(e: &Expr) -> Option<AffineExpr> {
        let mut terms = Vec::new();
        let constant = fit(lower_into(e, 1, &mut terms)?)?;
        canonicalize(&mut terms, 0)?;
        let terms = terms
            .into_iter()
            .map(|(v, c)| Some((v.to_owned(), fit(c)?)))
            .collect::<Option<_>>()?;
        Some(AffineExpr { terms, constant })
    }
}

/// Lowers `sign · e` by appending its terms to `terms` (unmerged, in
/// `i128`) and returning its constant part.
///
/// Sums accumulate in `i128`, which a tree of fewer than 2^64 nodes of
/// `i64` values cannot overflow. A product's operands are merged and
/// must fit in `i64`, and so must the product: that is where a lowering
/// that does not fit gives `None`.
fn lower_into<'e>(e: &'e Expr, sign: i128, terms: &mut Vec<(&'e str, i128)>) -> Option<i128> {
    match e {
        Expr::Const(c) => Some(sign * i128::from(*c)),
        Expr::Var(v) => {
            terms.push((v, sign));
            Some(0)
        }
        Expr::ArrayRead(_) => None,
        Expr::Neg(x) => lower_into(x, -sign, terms),
        Expr::Add(a, b) => Some(lower_into(a, sign, terms)? + lower_into(b, sign, terms)?),
        Expr::Sub(a, b) => Some(lower_into(a, sign, terms)? + lower_into(b, -sign, terms)?),
        Expr::Mul(a, b) => {
            let start = terms.len();
            let ca = fit(lower_into(a, 1, terms)?)?;
            let mid = canonicalize(terms, start)?;
            let cb = fit(lower_into(b, 1, terms)?)?;
            let end = canonicalize(terms, mid)?;
            // One side must be constant: scale the other side by it.
            let k = if mid == start {
                ca
            } else if end == mid {
                cb
            } else {
                return None;
            };
            for (_, c) in &mut terms[start..] {
                *c = i128::from(fit(*c)?.checked_mul(k)?) * sign;
            }
            Some(i128::from(ca.checked_mul(cb)?) * sign)
        }
    }
}

fn fit(v: i128) -> Option<i64> {
    i64::try_from(v).ok()
}

/// Sorts `terms[from..]` by variable, merges repeated variables, drops
/// zero coefficients and truncates; returns the new length. Gives `None`
/// when a merged coefficient does not fit in `i64`.
fn canonicalize(terms: &mut Vec<(&str, i128)>, from: usize) -> Option<usize> {
    terms[from..].sort_unstable_by(|x, y| x.0.cmp(y.0));
    let mut out = from;
    for i in from..terms.len() {
        let (v, c) = terms[i];
        if out > from && terms[out - 1].0 == v {
            terms[out - 1].1 += c;
        } else {
            terms[out] = (v, c);
            out += 1;
        }
    }
    terms.truncate(out);
    let mut kept = from;
    for i in from..terms.len() {
        let (v, c) = terms[i];
        fit(c)?;
        if c != 0 {
            terms[kept] = (v, c);
            kept += 1;
        }
    }
    terms.truncate(kept);
    Some(kept)
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter_terms() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_basic_ops() {
        let e = AffineExpr::term("i", 2)
            .add(&AffineExpr::term("j", -1))
            .add(&AffineExpr::constant(5));
        assert_eq!(e.coeff("i"), 2);
        assert_eq!(e.coeff("j"), -1);
        assert_eq!(e.coeff("k"), 0);
        assert_eq!(e.constant_part(), 5);
        let d = e.sub(&AffineExpr::term("i", 2));
        assert_eq!(d.coeff("i"), 0);
        assert!(!d.vars().any(|v| v == "i"));
    }

    #[test]
    fn affine_substitute() {
        // 2i + 1 with i := j + 3  =>  2j + 7
        let e = AffineExpr::term("i", 2).add(&AffineExpr::constant(1));
        let r = AffineExpr::var("j").add(&AffineExpr::constant(3));
        let s = e.substitute("i", &r);
        assert_eq!(s.coeff("j"), 2);
        assert_eq!(s.constant_part(), 7);
        assert_eq!(s.coeff("i"), 0);
    }

    #[test]
    fn affine_eval() {
        let e = AffineExpr::term("i", 3).add(&AffineExpr::constant(-2));
        let mut env = BTreeMap::new();
        env.insert("i".to_owned(), 4);
        assert_eq!(e.eval(&env), Some(10));
        assert_eq!(AffineExpr::var("x").eval(&env), None);
    }

    #[test]
    fn lowering_rejects_nonlinear() {
        let nonlinear = Expr::Mul(Box::new(Expr::var("i")), Box::new(Expr::var("j")));
        assert!(AffineExpr::from_expr(&nonlinear).is_none());
        let read = Expr::ArrayRead(ArrayRef {
            array: "a".into(),
            subscripts: vec![Expr::var("i")],
        });
        assert!(AffineExpr::from_expr(&read).is_none());
    }

    #[test]
    fn lowering_handles_nested_arithmetic() {
        // -(2 * (i - 3)) + j  =>  -2i + j + 6
        let e = Expr::Add(
            Box::new(Expr::Neg(Box::new(Expr::Mul(
                Box::new(Expr::Const(2)),
                Box::new(Expr::Sub(
                    Box::new(Expr::var("i")),
                    Box::new(Expr::Const(3)),
                )),
            )))),
            Box::new(Expr::var("j")),
        );
        let a = AffineExpr::from_expr(&e).unwrap();
        assert_eq!(a.coeff("i"), -2);
        assert_eq!(a.coeff("j"), 1);
        assert_eq!(a.constant_part(), 6);
    }

    fn lowered(src: &str) -> Option<AffineExpr> {
        AffineExpr::from_expr(&crate::parser::parse_expr(src).unwrap())
    }

    #[test]
    fn lowering_merges_and_cancels_terms() {
        let a = lowered("i - 2 * (j - i) + 3 * j - 4").unwrap();
        assert_eq!(
            a,
            AffineExpr::term("i", 3)
                .add(&AffineExpr::term("j", 1))
                .add(&AffineExpr::constant(-4))
        );
        // i - i cancels, so the left factor is the constant 0.
        assert_eq!(lowered("(i - i) * j").unwrap(), AffineExpr::zero());
        assert_eq!(
            lowered("j * (2 + i - i)").unwrap(),
            AffineExpr::term("j", 2)
        );
        assert_eq!(lowered("-(-(i))").unwrap(), AffineExpr::var("i"));
        assert!(lowered("i * (j + 1)").is_none());
        assert!(lowered("i + a[i]").is_none());
    }

    #[test]
    fn lowering_overflow_is_not_affine() {
        let max = i64::MAX;
        let half = 1i64 << 62;
        assert!(lowered(&format!("{max} + i + 1")).is_none());
        assert!(lowered(&format!("{half} * 2 * i")).is_none());
        assert!(lowered(&format!("2 * ({half} * i)")).is_none());
        assert!(lowered(&format!("{max} * i + {max} * i")).is_none());
        assert!(lowered(&format!("i * {half} * 4 * 0")).is_none());
        // Sums are exact: an intermediate sum beyond i64 that comes back
        // into range is fine, and so are the extremes themselves.
        assert_eq!(
            lowered(&format!("{max} + 1 - 1 + i")),
            Some(AffineExpr::var("i").add(&AffineExpr::constant(max)))
        );
        assert_eq!(
            lowered(&format!("{max} * i")),
            Some(AffineExpr::term("i", max))
        );
        assert_eq!(
            lowered(&format!("-{max} - 1")),
            Some(AffineExpr::constant(i64::MIN))
        );
    }

    #[test]
    fn display_formats() {
        let e = AffineExpr::term("i", 1)
            .add(&AffineExpr::term("j", -2))
            .add(&AffineExpr::constant(-3));
        assert_eq!(e.to_string(), "i - 2*j - 3");
        assert_eq!(AffineExpr::zero().to_string(), "0");
        assert_eq!(AffineExpr::term("i", -1).to_string(), "-i");
    }

    #[test]
    fn array_reads_collected_in_order() {
        let r1 = ArrayRef {
            array: "a".into(),
            subscripts: vec![Expr::var("i")],
        };
        let r2 = ArrayRef {
            array: "b".into(),
            subscripts: vec![Expr::var("j")],
        };
        let e = Expr::Add(
            Box::new(Expr::ArrayRead(r1.clone())),
            Box::new(Expr::ArrayRead(r2.clone())),
        );
        let reads = e.array_reads();
        assert_eq!(reads, vec![&r1, &r2]);
    }
}
