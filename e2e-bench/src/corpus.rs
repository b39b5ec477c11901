//! Seeded workload inputs. The program under test only ever sees the
//! generated source text; the seed decides nest order, edits, request
//! bodies and the unique-solve corpus.

use dda_perfect::patterns::{emit, Category};
use dda_perfect::perfect_suite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch of labelled programs, as source text.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// One label per program (the `"file"` field of the JSONL output).
    pub labels: Vec<String>,
    /// One DSL source per program; every line is one self-contained
    /// loop nest over arrays no other line of the program uses.
    pub sources: Vec<String>,
}

/// A generator seeded from the run seed and a per-purpose salt, so the
/// corpus, the edits and the request mix are independent streams.
#[must_use]
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The synthetic PERFECT suite at `scale` (1.0 = the paper's 17,972
/// pairs over 13 programs) with each program's nest lines permuted.
#[must_use]
pub fn perfect(scale: f64, seed: u64) -> Corpus {
    let mut rng = rng(seed, 0x5045_5246);
    let mut corpus = Corpus {
        labels: Vec::new(),
        sources: Vec::new(),
    };
    for program in perfect_suite(scale) {
        let mut lines: Vec<&str> = program.source.lines().collect();
        shuffle(&mut lines, &mut rng);
        corpus.labels.push(format!("{}.loop", program.name()));
        corpus.sources.push(lines.join("\n") + "\n");
    }
    corpus
}

/// One two-deep coupled nest whose parameters are drawn from ranges wide
/// enough that nearly every draw is a distinct memo key: triangular
/// (Acyclic-shaped), banded (Loop-Residue-shaped) or with coupled
/// subscripts (Fourier–Motzkin-shaped).
fn unique_nest(arr: &str, rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => {
            let u = rng.gen_range(20..=4000);
            let d = rng.gen_range(1..=400);
            if rng.gen_bool(0.5) {
                format!("for i = 1 to {u} {{ for j = i to {u} {{ {arr}[j + {d}] = {arr}[j] + 1; }} }}\n")
            } else {
                format!("for i = 1 to {u} {{ for j = i to {u} {{ {arr}[j] = {arr}[j - {d}] + 1; }} }}\n")
            }
        }
        1 => {
            let u = rng.gen_range(20..=4000);
            let k = rng.gen_range(2..=60);
            let d = rng.gen_range(1..=k);
            format!(
                "for i = 1 to {u} {{ for j = i to i + {k} {{ {arr}[j + {d}] = {arr}[j] + 1; }} }}\n"
            )
        }
        _ => {
            let u = rng.gen_range(10..=400);
            let p = rng.gen_range(1..=4);
            let q = rng.gen_range(1..=4);
            let c = rng.gen_range(1..=60);
            format!(
                "for i = 1 to {u} {{ for j = i to {u} {{ \
                 {arr}[{p} * i + {q} * j] = {arr}[{q} * i + {p} * j + {c}] + 1; }} }}\n"
            )
        }
    }
}

/// `programs` programs of `nests` seeded unique nests each.
#[must_use]
pub fn unique(programs: usize, nests: usize, seed: u64) -> Corpus {
    let mut rng = rng(seed, 0x554e_4951);
    let mut corpus = Corpus {
        labels: Vec::new(),
        sources: Vec::new(),
    };
    for p in 0..programs {
        let mut source = String::new();
        for n in 0..nests {
            source.push_str(&unique_nest(&format!("u{n}"), &mut rng));
        }
        corpus.labels.push(format!("unique{p}.loop"));
        corpus.sources.push(source);
    }
    corpus
}

/// `base` with `fraction` of each program's nests replaced by freshly
/// emitted PERFECT-pattern nests (category drawn uniformly) over fresh
/// arrays. `variant` selects an independent edit stream.
#[must_use]
pub fn edited(base: &Corpus, fraction: f64, seed: u64, variant: u64) -> Corpus {
    let mut rng = rng(seed, 0x4544_4954 + variant);
    let mut fresh = 0usize;
    let sources = base
        .sources
        .iter()
        .map(|source| {
            let mut lines: Vec<String> = source.lines().map(str::to_owned).collect();
            let mut picks: Vec<usize> = (0..lines.len()).collect();
            shuffle(&mut picks, &mut rng);
            let edits = (lines.len() as f64 * fraction).round() as usize;
            for &i in &picks[..edits.min(lines.len())] {
                let category = Category::ALL[rng.gen_range(0..Category::ALL.len())];
                let arr = format!("e{variant}x{fresh}");
                fresh += 1;
                lines[i] = emit(category, &arr, &mut rng).trim_end().to_owned();
            }
            lines.join("\n") + "\n"
        })
        .collect();
    Corpus {
        labels: base.labels.clone(),
        sources,
    }
}

/// `count` request bodies of up to `nests` distinct nest lines each, all
/// drawn from one program of `base` (so no two nests share an array).
#[must_use]
pub fn bodies(base: &Corpus, count: usize, nests: usize, seed: u64) -> Vec<String> {
    let mut rng = rng(seed, 0x424f_4459);
    let programs: Vec<Vec<&str>> = base.sources.iter().map(|s| s.lines().collect()).collect();
    let total: usize = programs.iter().map(Vec::len).sum();
    (0..count)
        .map(|_| {
            // Pick the program by a uniformly drawn nest, so large
            // programs supply proportionally more bodies.
            let mut at = rng.gen_range(0..total);
            let lines = programs
                .iter()
                .find(|p| {
                    let inside = at < p.len();
                    if !inside {
                        at -= p.len();
                    }
                    inside
                })
                .expect("index within total");
            let mut picks: Vec<usize> = (0..lines.len()).collect();
            shuffle(&mut picks, &mut rng);
            let mut body = String::new();
            for &i in &picks[..nests.min(lines.len())] {
                body.push_str(lines[i]);
                body.push('\n');
            }
            body
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded() {
        assert_eq!(perfect(0.02, 3).sources, perfect(0.02, 3).sources);
        assert_ne!(perfect(0.02, 3).sources, perfect(0.02, 4).sources);
        assert_eq!(unique(2, 5, 9).sources, unique(2, 5, 9).sources);
        let base = perfect(0.02, 1);
        assert_eq!(
            edited(&base, 0.1, 1, 0).sources,
            edited(&base, 0.1, 1, 0).sources
        );
        assert_eq!(bodies(&base, 4, 3, 1), bodies(&base, 4, 3, 1));
    }

    #[test]
    fn permutation_keeps_every_nest() {
        let a = perfect(0.02, 1);
        let b = perfect(0.02, 2);
        for (x, y) in a.sources.iter().zip(&b.sources) {
            let mut x: Vec<&str> = x.lines().collect();
            let mut y: Vec<&str> = y.lines().collect();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    fn nests(c: &Corpus) -> usize {
        c.sources.iter().map(|s| s.lines().count()).sum()
    }

    #[test]
    fn edits_replace_the_requested_share() {
        let base = perfect(0.1, 1);
        let edited = edited(&base, 0.1, 1, 2);
        assert_eq!(nests(&base), nests(&edited));
        let changed: usize = base
            .sources
            .iter()
            .zip(&edited.sources)
            .map(|(a, b)| a.lines().zip(b.lines()).filter(|(x, y)| x != y).count())
            .sum();
        let expected = (nests(&base) as f64 * 0.1) as usize;
        assert!(
            changed.abs_diff(expected) <= base.sources.len(),
            "{changed}"
        );
    }
}
