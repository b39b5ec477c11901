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

/// Slots in a [`NameCache`].
const CACHE_SLOTS: usize = 256;

/// The names a [`tokenize`] call interned last, one per slot, each slot
/// chosen by an unkeyed hash of the name and holding the name's place in
/// the source. A name found in its slot skips the symbol table's keyed
/// hash. Names that collide only miss and fall back to the table, so
/// crafted names cost no more than without the cache.
struct NameCache {
    slots: [(u32, u32, Sym); CACHE_SLOTS],
}

impl Default for NameCache {
    fn default() -> NameCache {
        // An empty range never matches an identifier.
        NameCache {
            slots: [(0, 0, Sym::default()); CACHE_SLOTS],
        }
    }
}

impl NameCache {
    /// The symbol of the identifier `source[range]`, or `None` when the
    /// table is full.
    fn intern(
        &mut self,
        source: &str,
        range: std::ops::Range<usize>,
        symbols: &mut SymbolTable,
    ) -> Option<Sym> {
        let name = &source[range.clone()];
        let hash = name.bytes().fold(0x811c_9dc5_u32, |h, b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        let slot = &mut self.slots[hash as usize % CACHE_SLOTS];
        let (start, len, sym) = *slot;
        let cached = start as usize..start as usize + len as usize;
        if len > 0 && source.get(cached) == Some(name) {
            return Some(sym);
        }
        let sym = symbols.try_intern(name)?;
        // A name past `u32` offsets is interned but not cached.
        if let (Ok(start), Ok(len)) = (u32::try_from(range.start), u32::try_from(name.len())) {
            *slot = (start, len, sym);
        }
        Some(sym)
    }
}

/// Tokenizes `source`, interning its identifiers into `symbols`.
///
/// Comments run from `//` to end of line. Whitespace separates tokens.
/// A name seen before is usually found in a small direct-mapped cache
/// of names already interned, so only a name's first appearance pays
/// for the symbol table's keyed hash.
///
/// # Errors
///
/// Returns a [`ParseError`] on an unrecognized character, an integer
/// literal that does not fit in `i64`, or more distinct identifiers than
/// a [`Sym`] can number.
pub fn tokenize(source: &str, symbols: &mut SymbolTable) -> Result<Vec<SpannedToken>, ParseError> {
    let bytes = source.as_bytes();
    // Tokens and the spaces between them average over two bytes: one
    // allocation for most sources instead of a doubling series of copies.
    let mut out = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut cache = NameCache::default();
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
                    _ => {
                        let sym = cache.intern(source, start..i, symbols);
                        Token::Ident(sym.ok_or_else(|| ParseError {
                            message: "too many distinct identifiers".to_owned(),
                            span: Span { start, end: i },
                        })?)
                    }
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
    fn cached_names_agree_with_the_table() {
        // Far more names than cache slots, each seen twice and out of
        // order: slots collide and evict, and every lookup must still
        // give the table's symbol.
        let names: Vec<String> = (0..2000).map(|k| format!("n{k}")).collect();
        let mut src = names.join(" ");
        src.push(' ');
        src.push_str(&names.iter().rev().cloned().collect::<Vec<_>>().join(" "));
        let mut t = SymbolTable::new();
        let toks = tokenize(&src, &mut t).unwrap();
        assert_eq!(t.len(), names.len());
        let words = src.split(' ');
        for (tok, word) in toks.iter().zip(words) {
            assert_eq!(tok.token, Token::Ident(t.get(word).unwrap()), "{word}");
        }
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
