//! Expression display and affine (linear) forms.
//!
//! The parser produces general expressions in the program's
//! [`ExprArena`]; the dependence tests only understand *affine*
//! functions of loop variables and symbolic constants. [`AffineExpr`]
//! is that normal form, and [`AffineExpr::from_expr`] performs the
//! lowering (after the normalization passes have done constant
//! propagation and substitution).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use dda_linalg::SmallVec;

use crate::arena::{ArrayRef, Expr, ExprArena, Node};
use crate::symbol::{Named, Sym, SymbolTable};

/// An expression or array reference displayed with its arena and the
/// names in its symbol table; see [`ExprArena::display`].
#[derive(Debug, Clone, Copy)]
pub struct Shown<'a, T> {
    value: T,
    exprs: &'a ExprArena,
    symbols: &'a SymbolTable,
}

impl ExprArena {
    /// Displays `e` with the names in `symbols`.
    #[must_use]
    pub fn display<'a>(&'a self, e: Expr, symbols: &'a SymbolTable) -> Shown<'a, Expr> {
        Shown {
            value: e,
            exprs: self,
            symbols,
        }
    }

    /// Displays the reference `r` with the names in `symbols`.
    #[must_use]
    pub fn display_ref<'a>(&'a self, r: ArrayRef, symbols: &'a SymbolTable) -> Shown<'a, ArrayRef> {
        Shown {
            value: r,
            exprs: self,
            symbols,
        }
    }
}

impl fmt::Display for Shown<'_, ArrayRef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbols.name(self.value.array))?;
        for &s in self.exprs.subscripts(&self.value) {
            write!(f, "[{}]", self.with(s))?;
        }
        Ok(())
    }
}

impl<T> Shown<'_, T> {
    fn with(&self, e: Expr) -> Shown<'_, Expr> {
        Shown {
            value: e,
            exprs: self.exprs,
            symbols: self.symbols,
        }
    }
}

impl Shown<'_, Expr> {
    fn node(&self) -> Node {
        self.exprs.node(self.value)
    }

    fn fmt_factor(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A factor position (operand of `*` or `-x`) needs parentheses
        // around anything that is not an atom.
        if matches!(self.node(), Node::Var(_) | Node::Read(_) | Node::Const(0..)) {
            write!(f, "{self}")
        } else {
            write!(f, "({self})")
        }
    }

    fn fmt_add_rhs(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The right operand of a left-associative `+`/`-` chain needs
        // parentheses around a nested `+`/`-`, which `i64::MIN` prints as.
        if matches!(
            self.node(),
            Node::Add(..) | Node::Sub(..) | Node::Const(i64::MIN)
        ) {
            write!(f, "({self})")
        } else {
            write!(f, "{self}")
        }
    }
}

impl fmt::Display for Shown<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            // The lexer reads no literal beyond `i64::MAX`, so the one
            // constant without a literal of its own prints as a
            // difference that folds back to it.
            Node::Const(i64::MIN) => write!(f, "-{} - 1", i64::MAX),
            Node::Const(c) => write!(f, "{c}"),
            Node::Var(v) => f.write_str(self.symbols.name(v)),
            Node::Read(r) => write!(f, "{}", self.exprs.display_ref(r, self.symbols)),
            Node::Neg(e) => {
                write!(f, "-")?;
                self.with(e).fmt_factor(f)
            }
            Node::Add(a, b) => {
                write!(f, "{} + ", self.with(a))?;
                self.with(b).fmt_add_rhs(f)
            }
            Node::Sub(a, b) => {
                write!(f, "{} - ", self.with(a))?;
                self.with(b).fmt_add_rhs(f)
            }
            Node::Mul(a, b) => {
                self.with(a).fmt_factor(f)?;
                write!(f, " * ")?;
                self.with(b).fmt_factor(f)
            }
        }
    }
}

/// Terms an [`AffineExpr`] stores inline before spilling to the heap.
/// Subscripts and bounds in the PERFECT suite use at most three.
const INLINE_TERMS: usize = 4;

/// An affine (integral linear) function of program symbols:
/// `c₀ + Σ cᵥ · v`.
///
/// This is the only form the dependence tests accept for subscripts and
/// loop bounds. Terms are kept sorted by [`Sym`] (first appearance in
/// the source, not name order), and zero coefficients are never stored.
///
/// # Examples
///
/// ```
/// use dda_ir::{AffineExpr, SymbolTable};
///
/// let mut t = SymbolTable::new();
/// let i = t.intern("i");
/// let e = AffineExpr::term(i, 2).add(&AffineExpr::constant(3));
/// assert_eq!(e.coeff(i), 2);
/// assert_eq!(e.constant_part(), 3);
/// assert_eq!(e.display(&t).to_string(), "2*i + 3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    terms: SmallVec<(Sym, i64), INLINE_TERMS>,
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
            terms: SmallVec::new(),
            constant: c,
        }
    }

    /// A single term `coeff * var`.
    #[must_use]
    pub fn term(var: Sym, coeff: i64) -> AffineExpr {
        let mut e = AffineExpr::zero();
        if coeff != 0 {
            e.terms.push((var, coeff));
        }
        e
    }

    /// A bare variable `1 * var`.
    #[must_use]
    pub fn var(var: Sym) -> AffineExpr {
        AffineExpr::term(var, 1)
    }

    /// The coefficient of `var` (zero if absent).
    #[must_use]
    pub fn coeff(&self, var: Sym) -> i64 {
        self.terms
            .binary_search_by_key(&var, |t| t.0)
            .map_or(0, |k| self.terms[k].1)
    }

    /// The coefficient of the variable called `name` in `symbols` (zero
    /// if absent).
    #[must_use]
    pub fn coeff_by_name(&self, symbols: &SymbolTable, name: &str) -> i64 {
        symbols.get(name).map_or(0, |v| self.coeff(v))
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

    /// The variables with non-zero coefficients, in [`Sym`] order.
    pub fn vars(&self) -> impl Iterator<Item = Sym> + '_ {
        self.terms.iter().map(|t| t.0)
    }

    /// Iterates over `(variable, coefficient)` pairs in [`Sym`] order.
    pub fn iter_terms(&self) -> impl Iterator<Item = (Sym, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// Pointwise sum.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow (dependence systems use tiny coefficients;
    /// the analyzer bails out to "assume dependent" far earlier).
    #[must_use]
    #[allow(clippy::expect_used)] // documented panic: callers keep coefficients tiny
    pub fn add(&self, rhs: &AffineExpr) -> AffineExpr {
        let (mut x, mut y) = (self.terms.iter().peekable(), rhs.terms.iter().peekable());
        let mut terms = SmallVec::new();
        loop {
            let (v, c) = match (x.peek(), y.peek()) {
                (Some(&&(vx, cx)), Some(&&(vy, cy))) if vx == vy => {
                    x.next();
                    y.next();
                    (vx, cx.checked_add(cy).expect("affine coefficient overflow"))
                }
                (Some(&&(vx, cx)), Some(&&(vy, _))) if vx < vy => {
                    x.next();
                    (vx, cx)
                }
                (_, Some(&&t)) => {
                    y.next();
                    t
                }
                (Some(&&t), None) => {
                    x.next();
                    t
                }
                (None, None) => break,
            };
            if c != 0 {
                terms.push((v, c));
            }
        }
        AffineExpr {
            terms,
            constant: self
                .constant
                .checked_add(rhs.constant)
                .expect("affine constant overflow"),
        }
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
    #[allow(clippy::expect_used)] // documented panic: callers keep coefficients tiny
    pub fn scale(&self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::zero();
        }
        AffineExpr {
            terms: self
                .terms
                .iter()
                .map(|&(v, c)| (v, c.checked_mul(k).expect("affine coefficient overflow")))
                .collect(),
            constant: self
                .constant
                .checked_mul(k)
                .expect("affine constant overflow"),
        }
    }

    /// Lowers the expression `e` of `exprs` to affine form.
    ///
    /// Returns `None` when the expression is not affine: it reads an array,
    /// multiplies two non-constant subexpressions, or needs a coefficient,
    /// constant or product that does not fit in `i64`. Sums are exact:
    /// `(c + i) - c` lowers to `i` for any `c` that fits.
    ///
    /// # Examples
    ///
    /// ```
    /// use dda_ir::{parse_expr, AffineExpr, ExprArena, SymbolTable};
    ///
    /// let (mut t, mut x) = (SymbolTable::new(), ExprArena::new());
    /// let e = parse_expr("2 * i", &mut t, &mut x)?;
    /// let a = AffineExpr::from_expr(&x, e).expect("affine");
    /// assert_eq!(a.coeff(t.intern("i")), 2);
    ///
    /// let e = parse_expr("i * j", &mut t, &mut x)?;
    /// assert!(AffineExpr::from_expr(&x, e).is_none());
    ///
    /// let huge = parse_expr(&format!("{} + 1", i64::MAX), &mut t, &mut x)?;
    /// assert!(AffineExpr::from_expr(&x, huge).is_none());
    /// # Ok::<(), dda_ir::ParseError>(())
    /// ```
    #[must_use]
    pub fn from_expr(exprs: &ExprArena, e: Expr) -> Option<AffineExpr> {
        match exprs.node(e) {
            Node::Const(c) => return Some(AffineExpr::constant(c)),
            Node::Var(v) => return Some(AffineExpr::var(v)),
            _ => {}
        }
        let mut wide: SmallVec<(Sym, i128), INLINE_TERMS> = SmallVec::new();
        let constant = fit(lower_into(exprs, e, 1, &mut wide)?)?;
        canonicalize(&mut wide, 0)?;
        let mut terms = SmallVec::new();
        for &(v, c) in wide.iter() {
            terms.push((v, fit(c)?));
        }
        Some(AffineExpr { terms, constant })
    }

    /// The function `constant + Σ c·v` over `terms`, a variable that
    /// repeats summing its coefficients; `None` when a sum does not fit
    /// in `i64`.
    #[must_use]
    pub fn from_terms(
        terms: impl Iterator<Item = (Sym, i64)>,
        constant: i64,
    ) -> Option<AffineExpr> {
        let mut wide: SmallVec<(Sym, i128), INLINE_TERMS> = SmallVec::new();
        for (v, c) in terms {
            wide.push((v, i128::from(c)));
        }
        canonicalize(&mut wide, 0)?;
        let mut out = AffineExpr::constant(constant);
        for &(v, c) in wide.iter() {
            out.terms.push((v, fit(c)?));
        }
        Some(out)
    }

    /// Displays the function with the names in `symbols`, terms in name
    /// order.
    #[must_use]
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> Named<'a, AffineExpr> {
        Named {
            value: self,
            symbols,
        }
    }
}

/// Lowers `sign · e` by appending its terms to `terms` (unmerged, in
/// `i128`) and returning its constant part.
///
/// Sums accumulate in `i128`, which a tree of fewer than 2^64 nodes of
/// `i64` values cannot overflow. A product's operands are merged and
/// must fit in `i64`, and so must the product: that is where a lowering
/// that does not fit gives `None`.
fn lower_into(
    exprs: &ExprArena,
    e: Expr,
    sign: i128,
    terms: &mut SmallVec<(Sym, i128), INLINE_TERMS>,
) -> Option<i128> {
    match exprs.node(e) {
        Node::Const(c) => Some(sign * i128::from(c)),
        Node::Var(v) => {
            terms.push((v, sign));
            Some(0)
        }
        Node::Read(_) => None,
        Node::Neg(x) => lower_into(exprs, x, -sign, terms),
        Node::Add(a, b) => {
            Some(lower_into(exprs, a, sign, terms)? + lower_into(exprs, b, sign, terms)?)
        }
        Node::Sub(a, b) => {
            Some(lower_into(exprs, a, sign, terms)? + lower_into(exprs, b, -sign, terms)?)
        }
        Node::Mul(a, b) => {
            let start = terms.len();
            let ca = fit(lower_into(exprs, a, 1, terms)?)?;
            let mid = canonicalize(terms, start)?;
            let cb = fit(lower_into(exprs, b, 1, terms)?)?;
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
fn canonicalize(terms: &mut SmallVec<(Sym, i128), INLINE_TERMS>, from: usize) -> Option<usize> {
    terms[from..].sort_unstable_by_key(|t| t.0);
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

impl fmt::Display for Named<'_, AffineExpr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut terms: SmallVec<(&str, i64), INLINE_TERMS> = self
            .value
            .iter_terms()
            .map(|(v, c)| (self.symbols.name(v), c))
            .collect();
        fmt_affine(f, &mut terms, self.value.constant)
    }
}

/// Writes `Σ c·v + constant`, the named terms sorted into name order
/// first.
pub(crate) fn fmt_affine(
    f: &mut fmt::Formatter<'_>,
    terms: &mut [(&str, i64)],
    constant: i64,
) -> fmt::Result {
    terms.sort_unstable_by_key(|t| t.0);
    let mut first = true;
    for &(v, c) in terms.iter() {
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
            write!(f, " - {}*{v}", c.unsigned_abs())?;
        }
    }
    if first {
        write!(f, "{constant}")?;
    } else if constant > 0 {
        write!(f, " + {constant}")?;
    } else if constant < 0 {
        write!(f, " - {}", constant.unsigned_abs())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table holding `i`, `j`, `k`, interned in that order.
    fn ijk() -> (SymbolTable, Sym, Sym, Sym) {
        let mut t = SymbolTable::new();
        let (i, j, k) = (t.intern("i"), t.intern("j"), t.intern("k"));
        (t, i, j, k)
    }

    #[test]
    fn affine_basic_ops() {
        let (_, i, j, k) = ijk();
        let e = AffineExpr::term(i, 2)
            .add(&AffineExpr::term(j, -1))
            .add(&AffineExpr::constant(5));
        assert_eq!(e.coeff(i), 2);
        assert_eq!(e.coeff(j), -1);
        assert_eq!(e.coeff(k), 0);
        assert_eq!(e.constant_part(), 5);
        let d = e.sub(&AffineExpr::term(i, 2));
        assert_eq!(d.coeff(i), 0);
        assert!(!d.vars().any(|v| v == i));
        assert_eq!(e.scale(0), AffineExpr::zero());
    }

    #[test]
    fn add_merges_out_of_order_operands() {
        let (_, i, j, k) = ijk();
        let x = AffineExpr::term(k, 1).add(&AffineExpr::term(i, 3));
        let y = AffineExpr::term(j, 2).add(&AffineExpr::term(k, -1));
        let sum = x.add(&y);
        assert_eq!(sum.iter_terms().collect::<Vec<_>>(), vec![(i, 3), (j, 2)]);
    }

    fn lowered(src: &str) -> (Option<AffineExpr>, SymbolTable) {
        let (mut t, mut x) = (SymbolTable::new(), ExprArena::new());
        let e = crate::parser::parse_expr(src, &mut t, &mut x).unwrap();
        (AffineExpr::from_expr(&x, e), t)
    }

    /// `src` lowered and displayed, or `None` when it is not affine.
    fn shown(src: &str) -> Option<String> {
        let (a, t) = lowered(src);
        a.map(|a| a.display(&t).to_string())
    }

    #[test]
    fn lowering_rejects_nonlinear() {
        assert!(shown("i * j").is_none());
        assert!(shown("a[i]").is_none());
    }

    #[test]
    fn lowering_handles_nested_arithmetic() {
        // -(2 * (i - 3)) + j  =>  -2i + j + 6
        assert_eq!(shown("-(2 * (i - 3)) + j").unwrap(), "-2*i + j + 6");
    }

    #[test]
    fn lowering_merges_and_cancels_terms() {
        assert_eq!(shown("i - 2 * (j - i) + 3 * j - 4").unwrap(), "3*i + j - 4");
        // i - i cancels, so the left factor is the constant 0.
        assert_eq!(shown("(i - i) * j").unwrap(), "0");
        assert_eq!(shown("j * (2 + i - i)").unwrap(), "2*j");
        assert_eq!(shown("-(-(i))").unwrap(), "i");
        assert!(shown("i * (j + 1)").is_none());
        assert!(shown("i + a[i]").is_none());
    }

    #[test]
    fn lowering_overflow_is_not_affine() {
        let max = i64::MAX;
        let half = 1i64 << 62;
        assert!(shown(&format!("{max} + i + 1")).is_none());
        assert!(shown(&format!("{half} * 2 * i")).is_none());
        assert!(shown(&format!("2 * ({half} * i)")).is_none());
        assert!(shown(&format!("{max} * i + {max} * i")).is_none());
        assert!(shown(&format!("i * {half} * 4 * 0")).is_none());
        // Sums are exact: an intermediate sum beyond i64 that comes back
        // into range is fine, and so are the extremes themselves.
        assert_eq!(
            shown(&format!("{max} + 1 - 1 + i")).unwrap(),
            format!("i + {max}")
        );
        assert_eq!(shown(&format!("{max} * i")).unwrap(), format!("{max}*i"));
        assert_eq!(shown(&format!("-{max} - 1")).unwrap(), i64::MIN.to_string());
    }

    #[test]
    fn display_formats_in_name_order() {
        let (t, i, j, _) = ijk();
        let e = AffineExpr::term(i, 1)
            .add(&AffineExpr::term(j, -2))
            .add(&AffineExpr::constant(-3));
        assert_eq!(e.display(&t).to_string(), "i - 2*j - 3");
        assert_eq!(AffineExpr::zero().display(&t).to_string(), "0");
        assert_eq!(AffineExpr::term(i, -1).display(&t).to_string(), "-i");
        // `z` is interned before `a`, yet `a` prints first.
        assert_eq!(shown("z + a").unwrap(), "a + z");
    }

    #[test]
    fn array_reads_collected_in_order() {
        let (mut t, mut x) = (SymbolTable::new(), ExprArena::new());
        let e = crate::parser::parse_expr("a[i] + b[c[j]]", &mut t, &mut x).unwrap();
        let mut names = Vec::new();
        x.for_each_read(e, &mut |r| names.push(x.display_ref(*r, &t).to_string()));
        assert_eq!(names, vec!["a[i]", "b[c[j]]", "c[j]"]);
    }
}
