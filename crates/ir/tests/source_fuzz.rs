//! Mutation fuzzer for DSL source.
//!
//! `parser_fuzz.rs` draws short strings and token soups from nothing;
//! this one starts from real programs — every line of the synthetic
//! PERFECT suite and every checked-in `.loop` file — and damages them:
//! bit flips, token deletion and duplication, splices of two lines, and
//! stray brackets and parentheses. So mutants keep most of a program's
//! structure and reach deep into the parser and the passes behind it.
//!
//! Each mutant must give either a located error (a span inside the
//! source, rendered without a panic) or a program that normalizes,
//! extracts and pairs without a panic, whose normalized display
//! reparses, and whose display reaches a fixpoint after one reparse. Run
//! with `PROPTEST_SEED=<n>` for a fixed stream of cases.

use std::path::Path;
use std::sync::OnceLock;

use dda_ir::{extract_accesses, parse_program, passes, reference_pairs};
use proptest::prelude::*;

/// Lines seeded beside the PERFECT suite's: inputs that once broke the
/// property. A subscript that folds to `i64::MIN` displayed as a literal
/// the lexer refuses.
const EXTRA_LINES: &[&str] = &["for i = 1 to 3 { a[-9223372036854775807 - 1] = a[i]; }"];

/// The programs mutants start from: the lines of the PERFECT suite and
/// [`EXTRA_LINES`], then the checked-in `.loop` files.
struct Seeds {
    lines: Vec<String>,
    files: Vec<String>,
}

impl Seeds {
    /// Seed `k`: a PERFECT line for even `k`, a file for odd, so the few
    /// files are drawn as often as the many lines.
    fn get(&self, k: usize) -> &str {
        let pool = if k.is_multiple_of(2) {
            &self.lines
        } else {
            &self.files
        };
        &pool[(k / 2) % pool.len()]
    }
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let lines = dda_perfect::perfect_suite(0.1)
            .iter()
            .flat_map(|sp| sp.source.lines().map(str::to_owned).collect::<Vec<_>>())
            .filter(|line| !line.trim().is_empty())
            .chain(EXTRA_LINES.iter().map(|&line| line.to_owned()))
            .collect();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs = vec![root.join("examples/loops"), root.join("tests/corpus")];
        let mut files = Vec::new();
        while let Some(dir) = dirs.pop() {
            let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}"));
            for entry in entries {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|x| x == "loop") {
                    files.push(path);
                }
            }
        }
        files.sort();
        assert!(files.len() >= 20, "only {} .loop files found", files.len());
        let files = files
            .iter()
            .map(|path| std::fs::read_to_string(path).expect("read .loop file"))
            .collect();
        Seeds { lines, files }
    })
}

/// Byte ranges of the tokens of `src`, found by character class alone
/// (a mutant need not lex): runs of identifier characters, runs of
/// digits, and single other characters; whitespace separates.
fn token_ranges(src: &str) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        } else if word(bytes[i]) {
            while i < bytes.len() && word(bytes[i]) {
                i += 1;
            }
        } else {
            i += 1;
            while !src.is_char_boundary(i) {
                i += 1;
            }
        }
        out.push((start, i));
    }
    out
}

/// The char boundary at or after `at % (len + 1)`.
fn boundary(src: &str, at: usize) -> usize {
    let mut k = at % (src.len() + 1);
    while !src.is_char_boundary(k) {
        k += 1;
    }
    k
}

/// Applies one mutation of kind `kind` to `src`, steered by `a`, `b`
/// and `byte`.
fn mutate(src: &str, kind: u8, a: usize, b: usize, byte: u8) -> String {
    match kind {
        // Flip one bit of one byte; a broken UTF-8 sequence becomes a
        // replacement character, which the lexer must refuse.
        0 => {
            let mut bytes = src.as_bytes().to_vec();
            if !bytes.is_empty() {
                let at = a % bytes.len();
                bytes[at] ^= 1 << (byte % 8);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Delete one token (kind 1) or repeat it two to four times.
        1 | 2 => {
            let tokens = token_ranges(src);
            if tokens.is_empty() {
                return src.to_owned();
            }
            let (start, end) = tokens[a % tokens.len()];
            let copies = if kind == 1 {
                0
            } else {
                2 + usize::from(byte % 3)
            };
            let mut out = String::from(&src[..start]);
            for _ in 0..copies {
                out.push_str(&src[start..end]);
                out.push(' ');
            }
            out.push_str(&src[end..]);
            out
        }
        // Splice: the head of one line of `src` joined to the tail of a
        // line of another seed.
        3 => {
            let other = seeds().get(b);
            let lines: Vec<&str> = src.lines().collect();
            let donors: Vec<&str> = other.lines().collect();
            if lines.is_empty() || donors.is_empty() {
                return format!("{src}\n{other}");
            }
            let at = a % lines.len();
            let head = &lines[at][..boundary(lines[at], b)];
            let donor = donors[(a / 7) % donors.len()];
            let tail = &donor[boundary(donor, usize::from(byte))..];
            let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
            out[at] = format!("{head}{tail}");
            out.join("\n")
        }
        // Insert a bracket or a parenthesis.
        _ => {
            let at = boundary(src, a);
            let c = ["(", ")", "[", "]", "{", "}"][usize::from(byte) % 6];
            format!("{}{c}{}", &src[..at], &src[at..])
        }
    }
}

/// Checks the property for one mutant.
fn check(src: &str) -> Result<(), String> {
    let program = match parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            if e.span.start > e.span.end || e.span.end > src.len() {
                return Err(format!(
                    "span {:?} outside {} bytes: {e}",
                    e.span,
                    src.len()
                ));
            }
            let rendered = e.render(src);
            return if rendered.starts_with("parse error at ") {
                Ok(())
            } else {
                Err(format!("unlocated error: {rendered}"))
            };
        }
    };
    let mut normalized = program.clone();
    passes::normalize(&mut normalized);
    let set = extract_accesses(&normalized);
    let _ = reference_pairs(&set, true);
    parse_program(&normalized.to_string())
        .map_err(|e| format!("normalized display does not reparse: {e}\n{normalized}"))?;

    let once = parse_program(&program.to_string())
        .map_err(|e| format!("display does not reparse: {e}\n{program}"))?;
    let twice = parse_program(&once.to_string())
        .map_err(|e| format!("second display does not reparse: {e}\n{once}"))?;
    if once != twice || once.to_string() != twice.to_string() {
        return Err(format!("display is no fixpoint:\n{once}\nvs\n{twice}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// One to four mutations of one seed.
    #[test]
    fn mutants_fail_located_or_survive_the_pipeline(
        seed in any::<usize>(),
        mutations in proptest::collection::vec(
            (0u8..5, any::<usize>(), any::<usize>(), any::<u8>()),
            1..5,
        )
    ) {
        let mut src = seeds().get(seed).to_owned();
        for (kind, a, b, byte) in mutations {
            src = mutate(&src, kind, a, b, byte);
        }
        if let Err(e) = check(&src) {
            prop_assert!(false, "{}\nmutant:\n{}", e, src);
        }
    }
}

#[test]
fn every_mutation_kind_changes_its_input() {
    let src = "for i = 1 to 10 { a[i] = a[i + 1]; }\nb[2] = 3;";
    for kind in 0..5 {
        let out = mutate(src, kind, 13, 5, 3);
        assert_ne!(out, src, "kind {kind}");
    }
    assert_eq!(token_ranges("a[i1] = 23;").len(), 7);
}
