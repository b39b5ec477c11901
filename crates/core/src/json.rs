//! JSON string escaping for the tree's hand-rolled JSON and JSONL
//! writers (trace events, reports, graphs, spans, flight records).

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and every control character.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\n\r\t"), "x\\n\\r\\t");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(json_escape("plain é"), "plain é");
    }
}
