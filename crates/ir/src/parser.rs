//! Recursive-descent parser for the Fortran-like DSL.
//!
//! The grammar (loops, conditionals, multi-dimensional array assignments,
//! scalar assignments, `read(n)` declarations) covers every example
//! program in the PLDI 1991 paper:
//!
//! ```text
//! read(n);
//! for i = 1 to 10 {
//!     for j = 1 to n {
//!         a[i][j] = a[j + 10][i + 9] + 3;
//!     }
//! }
//! ```
//!
//! Subscripts may be written `a[i][j]` or `a[i, j]`.
//!
//! Expressions go straight into the program's [`ExprArena`], each node
//! after its operands, so parsing an expression allocates nothing of
//! its own: the only allocations are the statement lists of bodies, the
//! symbol table's names and the amortized growth of the arrays.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use crate::arena::{ArrayRef, Expr, ExprArena, Node};
use crate::ast::{ArrayAssign, ForLoop, IfStmt, Program, RelOp, ScalarAssign, Stmt};
use crate::lexer::{tokenize, SpannedToken, Token};
use crate::symbol::{Sym, SymbolTable};

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the region.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// Computes the 1-based `(line, column)` of the span start.
    #[must_use]
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// A parse (or lex) error with location information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl ParseError {
    /// Renders the error with a line/column position and a source excerpt.
    #[must_use]
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        let line_text = source.lines().nth(line - 1).unwrap_or("");
        format!(
            "parse error at {line}:{col}: {}\n  | {line_text}\n  | {}^",
            self.message,
            " ".repeat(col.saturating_sub(1))
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at bytes {}..{}: {}",
            self.span.start, self.span.end, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest syntactic nesting the parser accepts. Every `for`/`if` body,
/// parenthesis, unary minus, subscript list and binary operator adds a
/// level. The parser and the passes over its tree recurse once per
/// level on the native stack, so unbounded nesting in hostile input
/// would overflow it and abort the whole process.
const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<SpannedToken>,
    /// The names of the identifiers in `tokens`, for error messages.
    symbols: SymbolTable,
    /// The nodes parsed so far.
    exprs: ExprArena,
    /// Subscripts of the array references still open, innermost last:
    /// a list moves into `exprs` once its last `]` is read.
    pending: Vec<Expr>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_NESTING`]. A parse error ends
    /// the parse, so error paths never restore it.
    depth: usize,
}

impl Parser {
    /// Enters one nesting level, or fails at the current token.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return self.error(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level down.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn new(tokens: Vec<SpannedToken>, symbols: SymbolTable, exprs: ExprArena) -> Parser {
        Parser {
            tokens,
            symbols,
            exprs,
            pending: Vec::new(),
            pos: 0,
            depth: 0,
        }
    }

    /// The error for an arena that cannot take another node.
    fn too_large<T>(&self) -> Result<T, ParseError> {
        self.error("expressions too large: more than 2^32 nodes or subscripts")
    }

    /// Appends `node` to the arena, or fails at the current token.
    fn push(&mut self, node: Node) -> Result<Expr, ParseError> {
        match self.exprs.try_push(node) {
            Some(e) => Ok(e),
            None => self.too_large(),
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Steps past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            span: self.peek_span(),
        })
    }

    /// The current token, described for an error message.
    fn found(&self) -> String {
        self.peek().display(&self.symbols).to_string()
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            let want = want.display(&self.symbols);
            self.error(format!("expected {want}, found {}", self.found()))
        }
    }

    /// Steps past the current identifier and returns its symbol.
    fn expect_ident(&mut self) -> Result<Sym, ParseError> {
        if let Token::Ident(name) = *self.peek() {
            self.bump();
            return Ok(name);
        }
        self.error(format!("expected identifier, found {}", self.found()))
    }

    fn parse_stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while *self.peek() != Token::Eof {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Token::For => self.nested(Parser::parse_for),
            Token::Read => self.parse_read(),
            Token::If => self.nested(Parser::parse_if),
            Token::Ident(_) => self.parse_assign(),
            _ => self.error(format!(
                "expected a statement (`for`, `if`, `read`, or an assignment), found {}",
                self.found()
            )),
        }
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut body = Vec::new();
        while *self.peek() != Token::RBrace {
            if *self.peek() == Token::Eof {
                return self.error("unterminated block (missing `}`)");
            }
            body.push(self.parse_stmt()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(body)
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Token::If)?;
        self.expect(&Token::LParen)?;
        let lhs = self.parse_expr()?;
        let op = match self.peek() {
            Token::Lt => RelOp::Lt,
            Token::Le => RelOp::Le,
            Token::Gt => RelOp::Gt,
            Token::Ge => RelOp::Ge,
            Token::EqEq => RelOp::Eq,
            Token::NotEq => RelOp::Ne,
            _ => {
                return self.error(format!(
                    "expected a comparison operator, found {}",
                    self.found()
                ))
            }
        };
        self.bump();
        let rhs = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        let then_body = self.parse_block()?;
        let else_body = if *self.peek() == Token::Else {
            self.bump();
            self.parse_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If(IfStmt {
            lhs,
            op,
            rhs,
            then_body,
            else_body,
        }))
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Token::For)?;
        let var = self.expect_ident()?;
        self.expect(&Token::Assign)?;
        let lower = self.parse_expr()?;
        self.expect(&Token::To)?;
        let upper = self.parse_expr()?;
        let step = if *self.peek() == Token::Step {
            self.bump();
            let negative = if *self.peek() == Token::Minus {
                self.bump();
                true
            } else {
                false
            };
            match *self.peek() {
                Token::Int(v) => {
                    self.bump();
                    let s = if negative { -v } else { v };
                    if s == 0 {
                        return self.error("loop step must be non-zero");
                    }
                    s
                }
                _ => return self.error(format!("expected integer step, found {}", self.found())),
            }
        } else {
            1
        };
        self.expect(&Token::LBrace)?;
        let mut body = Vec::new();
        while *self.peek() != Token::RBrace {
            if *self.peek() == Token::Eof {
                return self.error("unterminated loop body (missing `}`)");
            }
            body.push(self.parse_stmt()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(Stmt::For(ForLoop {
            var,
            lower,
            upper,
            step,
            body,
        }))
    }

    fn parse_read(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Token::Read)?;
        self.expect(&Token::LParen)?;
        let name = self.expect_ident()?;
        self.expect(&Token::RParen)?;
        self.expect(&Token::Semi)?;
        Ok(Stmt::Read(name))
    }

    fn parse_assign(&mut self) -> Result<Stmt, ParseError> {
        let name = self.expect_ident()?;
        if *self.peek() == Token::LBracket {
            let target = self.parse_subscripts(name)?;
            self.expect(&Token::Assign)?;
            let value = self.parse_expr()?;
            self.expect(&Token::Semi)?;
            Ok(Stmt::ArrayAssign(ArrayAssign { target, value }))
        } else {
            self.expect(&Token::Assign)?;
            let value = self.parse_expr()?;
            self.expect(&Token::Semi)?;
            Ok(Stmt::ScalarAssign(ScalarAssign { name, value }))
        }
    }

    /// Parses `[e][e]…` or `[e, e, …]` (or a mixture) after `array`.
    fn parse_subscripts(&mut self, array: Sym) -> Result<ArrayRef, ParseError> {
        let open = self.pending.len();
        while *self.peek() == Token::LBracket {
            self.bump();
            loop {
                let e = self.parse_expr()?;
                self.pending.push(e);
                if *self.peek() == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&Token::RBracket)?;
        }
        let r = self.exprs.try_target(array, &self.pending[open..]);
        self.pending.truncate(open);
        match r {
            Some(r) => Ok(r),
            None => self.too_large(),
        }
    }

    /// Each operator of a chain deepens the left-leaning tree by one
    /// level, for the rest of the chain.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut lhs = self.parse_term()?;
        loop {
            let op: fn(Expr, Expr) -> Node = match self.peek() {
                Token::Plus => Node::Add,
                Token::Minus => Node::Sub,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let rhs = self.parse_term()?;
            lhs = self.push(op(lhs, rhs))?;
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut lhs = self.parse_factor()?;
        while *self.peek() == Token::Star {
            self.bump();
            self.descend()?;
            let rhs = self.parse_factor()?;
            lhs = self.push(Node::Mul(lhs, rhs))?;
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        match *self.peek() {
            Token::Int(v) => {
                self.bump();
                self.push(Node::Const(v))
            }
            Token::Minus => {
                self.bump();
                let x = self.nested(Parser::parse_factor)?;
                self.push(Node::Neg(x))
            }
            Token::LParen => {
                self.bump();
                let e = self.nested(Parser::parse_expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.bump();
                if *self.peek() == Token::LBracket {
                    let r = self.nested(|p| p.parse_subscripts(name))?;
                    self.push(Node::Read(r))
                } else {
                    self.push(Node::Var(name))
                }
            }
            _ => self.error(format!("expected an expression, found {}", self.found())),
        }
    }
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns a [`ParseError`] with span information on malformed input; use
/// [`ParseError::render`] for a friendly message.
///
/// # Examples
///
/// ```
/// use dda_ir::parse_program;
///
/// let p = parse_program("for i = 1 to 10 { a[i + 1] = a[i] + 3; }")?;
/// assert_eq!(p.max_depth(), 1);
/// # Ok::<(), dda_ir::ParseError>(())
/// ```
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let mut symbols = SymbolTable::new();
    let tokens = tokenize(source, &mut symbols)?;
    let mut parser = Parser::new(tokens, symbols, ExprArena::new());
    let stmts = parser.parse_stmts()?;
    Ok(Program {
        stmts,
        exprs: parser.exprs,
        symbols: Arc::new(parser.symbols),
    })
}

/// Parses a single expression into `exprs`, interning its identifiers
/// into `symbols` (useful in tests and examples).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(
    source: &str,
    symbols: &mut SymbolTable,
    exprs: &mut ExprArena,
) -> Result<Expr, ParseError> {
    let tokens = tokenize(source, symbols)?;
    let mut parser = Parser::new(tokens, std::mem::take(symbols), std::mem::take(exprs));
    let e = parser.parse_expr().and_then(|e| {
        if *parser.peek() == Token::Eof {
            Ok(e)
        } else {
            parser.error(format!("unexpected {} after expression", parser.found()))
        }
    });
    *symbols = parser.symbols;
    *exprs = parser.exprs;
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_first_example() {
        let p = parse_program("for i = 1 to 10 { a[i] = a[i + 10] + 3; }").unwrap();
        assert_eq!(p.stmts.len(), 1);
        let Stmt::For(l) = &p.stmts[0] else {
            panic!("expected loop")
        };
        assert_eq!(p.symbols.name(l.var), "i");
        assert_eq!(l.step, 1);
        assert_eq!(l.body.len(), 1);
    }

    #[test]
    fn nested_loops_and_2d_refs() {
        let p = parse_program(
            "for i1 = 1 to 10 { for i2 = 1 to 10 { a[i1][i2] = a[i2 + 10][i1 + 9]; } }",
        )
        .unwrap();
        assert_eq!(p.max_depth(), 2);
    }

    #[test]
    fn comma_subscripts_equivalent_to_brackets() {
        let p1 = parse_program("a[i, j] = 0;").unwrap();
        let p2 = parse_program("a[i][j] = 0;").unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn read_and_scalar_assign() {
        let p = parse_program("read(n); k = 2 * n + 1; a[k] = 0;").unwrap();
        assert_eq!(p.stmts.len(), 3);
        assert!(matches!(&p.stmts[0], Stmt::Read(n) if p.symbols.name(*n) == "n"));
        assert!(matches!(&p.stmts[1], Stmt::ScalarAssign(_)));
    }

    #[test]
    fn step_clauses() {
        let p = parse_program("for i = 10 to 1 step -2 { a[i] = 0; }").unwrap();
        let Stmt::For(l) = &p.stmts[0] else { panic!() };
        assert_eq!(l.step, -2);
        assert!(parse_program("for i = 1 to 2 step 0 { }").is_err());
    }

    /// `src` parsed, and the arena holding it.
    fn parsed(src: &str, t: &mut SymbolTable) -> (Expr, ExprArena) {
        let mut x = ExprArena::new();
        let e = parse_expr(src, t, &mut x).unwrap();
        (e, x)
    }

    #[test]
    fn precedence() {
        let mut t = SymbolTable::new();
        let (e, x) = parsed("1 + 2 * i - 3", &mut t);
        let i = t.intern("i");
        // (1 + (2*i)) - 3
        let mut want = ExprArena::new();
        let (one, two, iv) = (want.constant(1), want.constant(2), want.var(i));
        let product = want.mul(two, iv);
        let sum = want.add(one, product);
        let three = want.constant(3);
        let w = want.sub(sum, three);
        assert!(x.same(e, &want, w));
    }

    #[test]
    fn parens_and_negation() {
        let mut t = SymbolTable::new();
        let (e, x) = parsed("-(i + 1) * 2", &mut t);
        let i = t.intern("i");
        let mut want = ExprArena::new();
        let (iv, one) = (want.var(i), want.constant(1));
        let sum = want.add(iv, one);
        let neg = want.push(Node::Neg(sum));
        let two = want.constant(2);
        let w = want.mul(neg, two);
        assert!(x.same(e, &want, w));
    }

    #[test]
    fn nodes_follow_their_operands_in_source_order() {
        let p = parse_program("for i = 1 to 9 { a[b[i] + 1][i] = a[i] * 2; }").unwrap();
        // Bounds, then the target's subscripts, then the value: each
        // node after its operands, nothing in between.
        let shapes: Vec<&str> = p
            .exprs
            .nodes()
            .iter()
            .map(|n| match n {
                Node::Const(_) => "c",
                Node::Var(_) => "v",
                Node::Read(_) => "r",
                Node::Add(..) => "+",
                Node::Mul(..) => "*",
                Node::Neg(_) | Node::Sub(..) => "?",
            })
            .collect();
        assert_eq!(shapes.concat(), "ccvrc+vvrc*");
    }

    #[test]
    fn identifier_errors_name_the_identifier() {
        let err = parse_program("for i = 1 to 10 { a[i] = b c; }").unwrap_err();
        assert_eq!(err.message, "expected `;`, found identifier `c`");
        let err = parse_expr("i j", &mut SymbolTable::new(), &mut ExprArena::new()).unwrap_err();
        assert_eq!(err.message, "unexpected identifier `j` after expression");
    }

    #[test]
    fn errors_have_spans() {
        let err = parse_program("for i = 1 to 10 { a[i] = ; }").unwrap_err();
        assert!(err.message.contains("expected an expression"));
        let rendered = err.render("for i = 1 to 10 { a[i] = ; }");
        assert!(rendered.contains("1:26"), "rendered: {rendered}");
    }

    #[test]
    fn unterminated_body() {
        let err = parse_program("for i = 1 to 10 { a[i] = 0;").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn display_parse_round_trip() {
        let src = "read(n);\nfor i = 1 to n {\n    a[i][i] = a[i - 1][i] + 1;\n}\n";
        let p = parse_program(src).unwrap();
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn folded_i64_min_displays_as_source_that_reparses() {
        // Folding can reach `i64::MIN`, which has no literal. In every
        // operand position its display must reparse and fold back to the
        // same program.
        for (src, shown) in [
            (
                "for i = 1 to 3 { a[-9223372036854775807 - 1] = a[i]; }",
                "a[-9223372036854775807 - 1] = a[i];",
            ),
            (
                "for i = 1 to 3 { a[i * (-9223372036854775807 - 1)] = 0; }",
                "a[i * (-9223372036854775807 - 1)] = 0;",
            ),
            (
                "for i = 1 to 3 { a[i - (-9223372036854775807 - 1)] = 0; }",
                "a[i - (-9223372036854775807 - 1)] = 0;",
            ),
            (
                "for i = 1 to 3 { a[-(-9223372036854775807 - 1)] = 0; }",
                "a[-(-9223372036854775807 - 1)] = 0;",
            ),
        ] {
            let mut p = parse_program(src).unwrap();
            crate::passes::normalize(&mut p);
            let text = p.to_string();
            assert!(text.contains(shown), "{src} displays as\n{text}");
            let mut again = parse_program(&text)
                .unwrap_or_else(|e| panic!("{src}: display does not reparse: {e}\n{text}"));
            crate::passes::normalize(&mut again);
            assert_eq!(again.to_string(), text, "{src}");
        }
    }

    #[test]
    fn display_fixpoint_on_tricky_shapes() {
        // Negative constants and nested arithmetic: display must reach a
        // fixpoint after one reparse (ASTs may differ once, e.g.
        // Const(-2) vs Neg(Const(2)), but never twice).
        for src in [
            "a[i - (j + 1)] = -(i + 1) * 2 - 3;",
            "a[2 * (i - 3)] = (1 - i) - (2 - j);",
            "a[-i] = -(-(i));",
        ] {
            let p1 = parse_program(src).unwrap();
            let p2 = parse_program(&p1.to_string()).unwrap();
            let p3 = parse_program(&p2.to_string()).unwrap();
            assert_eq!(p2, p3, "fixpoint for {src}");
        }
    }

    #[test]
    fn hostile_nesting_is_a_located_error() {
        let deep = 100_000;
        let parens = format!(
            "for i = 1 to 2 {{ a[{}i{}] = 0; }}",
            "(".repeat(deep),
            ")".repeat(deep)
        );
        let loops = format!(
            "{}a[1] = 0;{}",
            "for i = 1 to 2 { ".repeat(deep),
            " }".repeat(deep)
        );
        let ifs = format!(
            "{}a[1] = 0;{}",
            "if (1 < 2) { ".repeat(deep),
            " }".repeat(deep)
        );
        let negs = format!("a[{}1] = 0;", "-".repeat(deep));
        let subs = format!("a[{}1{}] = 0;", "b[".repeat(deep), "]".repeat(deep));
        let sum = format!("a[i{}] = 0;", " + 1".repeat(deep));
        let product = format!("a[i{}] = 0;", " * 1".repeat(deep));
        for src in [parens, loops, ifs, negs, subs, sum, product] {
            let err = parse_program(&src).unwrap_err();
            assert!(
                err.message.contains("nesting deeper than"),
                "{}",
                err.message
            );
            // Located at the token that went one level too deep.
            assert!(err.span.start > 0 && err.span.end <= src.len());
            assert!(err.render(&src).starts_with("parse error at 1:"));
        }
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let depth = MAX_NESTING - 2;
        let src = format!("a[{}i{}] = 0;", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_program(&src).is_ok());
        let src = format!("a[i{}] = 0;", " + 1".repeat(MAX_NESTING - 1));
        assert!(parse_program(&src).is_ok());
    }
}
