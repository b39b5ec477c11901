//! JSON string escaping for the tree's hand-rolled JSON and JSONL
//! writers (trace events, reports, graphs, spans, flight records).
//!
//! [`JsonEscaper`] is the one escaper: a [`fmt::Write`] adapter that
//! escapes whatever is written through it into an inner writer, so a
//! `Display` value or a name lands in its output line escaped, without
//! an intermediate `String`. [`json_escape`] is the convenience form
//! that returns a fresh string.

use std::fmt::{self, Write as _};

/// Escapes everything written through it — quotes, backslashes and
/// every control character — into the inner writer, for use inside a
/// JSON string literal.
///
/// # Examples
///
/// ```
/// use std::fmt::Write as _;
/// use dda_core::json::JsonEscaper;
///
/// let mut line = String::from("{\"name\":\"");
/// write!(JsonEscaper(&mut line), "say \"{}\"", 42).unwrap();
/// line.push_str("\"}");
/// assert_eq!(line, r#"{"name":"say \"42\""}"#);
/// ```
#[derive(Debug)]
pub struct JsonEscaper<W: fmt::Write>(pub W);

impl<W: fmt::Write> fmt::Write for JsonEscaper<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Copy unescaped runs whole; only the metacharacters go one by one.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                b if b < 0x20 => "",
                _ => continue,
            };
            self.0.write_str(&s[run..i])?;
            if escaped.is_empty() {
                write!(self.0, "\\u{:04x}", b)?;
            } else {
                self.0.write_str(escaped)?;
            }
            run = i + 1;
        }
        self.0.write_str(&s[run..])
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and every control character.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = JsonEscaper(&mut out).write_str(s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\n\r\t"), "x\\n\\r\\t");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(json_escape("plain é"), "plain é");
        assert_eq!(json_escape("\u{7f}ü\"\u{0}"), "\u{7f}ü\\\"\\u0000");
    }

    #[test]
    fn escaper_escapes_formatted_values_in_place() {
        let (name, quoted) = ("a\"b", "c");
        let mut out = String::from("[");
        write!(JsonEscaper(&mut out), "{name}|{quoted:?}").unwrap();
        out.push(']');
        assert_eq!(out, r#"[a\"b|\"c\"]"#);
    }
}
