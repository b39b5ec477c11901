//! Lexer for the Fortran-like DSL.
//!
//! The lexer is where names are interned: every identifier becomes a
//! [`Sym`] of the program's [`SymbolTable`], so no later stage copies or
//! compares identifier text.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::parser::{ParseError, Span};
use crate::symbol::{Named, Sym, SymbolTable};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier (variable or array).
    Ident(Sym),
    /// An integer literal.
    Int(i64),
    /// `for`
    For,
    /// `to`
    To,
    /// `step`
    Step,
    /// `read`
    Read,
    /// `if`
    If,
    /// `else`
    Else,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// End of input.
    Eof,
}

impl Token {
    /// Describes the token for an error message, naming identifiers from
    /// `symbols`.
    #[must_use]
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> Named<'a, Token> {
        Named {
            value: self,
            symbols,
        }
    }
}

impl fmt::Display for Named<'_, Token> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Token::Ident(s) => write!(f, "identifier `{}`", self.symbols.name(*s)),
            Token::Int(v) => write!(f, "integer `{v}`"),
            Token::For => write!(f, "`for`"),
            Token::To => write!(f, "`to`"),
            Token::Step => write!(f, "`step`"),
            Token::Read => write!(f, "`read`"),
            Token::If => write!(f, "`if`"),
            Token::Else => write!(f, "`else`"),
            Token::Assign => write!(f, "`=`"),
            Token::EqEq => write!(f, "`==`"),
            Token::NotEq => write!(f, "`!=`"),
            Token::Lt => write!(f, "`<`"),
            Token::Le => write!(f, "`<=`"),
            Token::Gt => write!(f, "`>`"),
            Token::Ge => write!(f, "`>=`"),
            Token::Plus => write!(f, "`+`"),
            Token::Minus => write!(f, "`-`"),
            Token::Star => write!(f, "`*`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::LBrace => write!(f, "`{{`"),
            Token::RBrace => write!(f, "`}}`"),
            Token::Semi => write!(f, "`;`"),
            Token::Comma => write!(f, "`,`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token paired with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Where it came from.
    pub span: Span,
}

/// Tokenizes `source`, interning its identifiers into `symbols`.
///
/// Comments run from `//` to end of line. Whitespace separates tokens.
///
/// # Errors
///
/// Returns a [`ParseError`] on an unrecognized character, an integer
/// literal that does not fit in `i64`, or more distinct identifiers than
/// a [`Sym`] can number.
pub fn tokenize(source: &str, symbols: &mut SymbolTable) -> Result<Vec<SpannedToken>, ParseError> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &source[start..i];
                let value: i64 = text.parse().map_err(|_| ParseError {
                    message: format!("integer literal `{text}` does not fit in i64"),
                    span: Span { start, end: i },
                })?;
                out.push(SpannedToken {
                    token: Token::Int(value),
                    span: Span { start, end: i },
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    i += 1;
                }
                let text = &source[start..i];
                let token = match text {
                    "for" => Token::For,
                    "to" => Token::To,
                    "step" => Token::Step,
                    "read" => Token::Read,
                    "if" => Token::If,
                    "else" => Token::Else,
                    _ => Token::Ident(symbols.try_intern(text).ok_or_else(|| ParseError {
                        message: "too many distinct identifiers".to_owned(),
                        span: Span { start, end: i },
                    })?),
                };
                out.push(SpannedToken {
                    token,
                    span: Span { start, end: i },
                });
            }
            b'=' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(SpannedToken {
                    token: Token::EqEq,
                    span: Span {
                        start: i,
                        end: i + 2,
                    },
                });
                i += 2;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(SpannedToken {
                    token: Token::NotEq,
                    span: Span {
                        start: i,
                        end: i + 2,
                    },
                });
                i += 2;
            }
            b'<' => {
                let (token, len) = if bytes.get(i + 1) == Some(&b'=') {
                    (Token::Le, 2)
                } else {
                    (Token::Lt, 1)
                };
                out.push(SpannedToken {
                    token,
                    span: Span {
                        start: i,
                        end: i + len,
                    },
                });
                i += len;
            }
            b'>' => {
                let (token, len) = if bytes.get(i + 1) == Some(&b'=') {
                    (Token::Ge, 2)
                } else {
                    (Token::Gt, 1)
                };
                out.push(SpannedToken {
                    token,
                    span: Span {
                        start: i,
                        end: i + len,
                    },
                });
                i += len;
            }
            _ => {
                let token = match b {
                    b'=' => Token::Assign,
                    b'+' => Token::Plus,
                    b'-' => Token::Minus,
                    b'*' => Token::Star,
                    b'(' => Token::LParen,
                    b')' => Token::RParen,
                    b'[' => Token::LBracket,
                    b']' => Token::RBracket,
                    b'{' => Token::LBrace,
                    b'}' => Token::RBrace,
                    b';' => Token::Semi,
                    b',' => Token::Comma,
                    other => {
                        return Err(ParseError {
                            message: format!("unexpected character `{}`", other as char),
                            span: Span {
                                start: i,
                                end: i + 1,
                            },
                        })
                    }
                };
                out.push(SpannedToken {
                    token,
                    span: Span {
                        start: i,
                        end: i + 1,
                    },
                });
                i += 1;
            }
        }
    }
    out.push(SpannedToken {
        token: Token::Eof,
        span: Span {
            start: source.len(),
            end: source.len(),
        },
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `src`, with identifiers shown by name.
    fn kinds(src: &str) -> Vec<String> {
        let mut t = SymbolTable::new();
        tokenize(src, &mut t)
            .unwrap()
            .into_iter()
            .map(|tok| tok.token.display(&t).to_string())
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("for i = 1 to n"),
            [
                "`for`",
                "identifier `i`",
                "`=`",
                "integer `1`",
                "`to`",
                "identifier `n`",
                "end of input"
            ]
        );
    }

    #[test]
    fn punctuation() {
        assert_eq!(
            kinds("a[i+1] = a[i]*2;"),
            [
                "identifier `a`",
                "`[`",
                "identifier `i`",
                "`+`",
                "integer `1`",
                "`]`",
                "`=`",
                "identifier `a`",
                "`[`",
                "identifier `i`",
                "`]`",
                "`*`",
                "integer `2`",
                "`;`",
                "end of input"
            ]
        );
    }

    #[test]
    fn identifiers_intern_once_in_first_appearance_order() {
        let mut t = SymbolTable::new();
        let toks = tokenize("z a z", &mut t).unwrap();
        let syms: Vec<Token> = toks.into_iter().map(|tok| tok.token).collect();
        let (z, a) = (t.intern("z"), t.intern("a"));
        assert_eq!(
            syms,
            [
                Token::Ident(z),
                Token::Ident(a),
                Token::Ident(z),
                Token::Eof
            ]
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("1 // a comment\n2"),
            ["integer `1`", "integer `2`", "end of input"]
        );
    }

    #[test]
    fn primed_identifiers_allowed() {
        // Convenient for writing i' in documentation-style tests.
        assert_eq!(kinds("i'"), ["identifier `i'`", "end of input"]);
    }

    #[test]
    fn bad_character_errors() {
        let err = tokenize("a $ b", &mut SymbolTable::new()).unwrap_err();
        assert!(err.message.contains('$'));
        assert_eq!(err.span.start, 2);
    }

    #[test]
    fn huge_literal_errors() {
        assert!(tokenize("99999999999999999999999", &mut SymbolTable::new()).is_err());
    }
}
