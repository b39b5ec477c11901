//! Program generators shared by the IR's property tests.
//!
//! [`arb_program`] is the narrow generator the semantic-preservation
//! properties run on: one scalar, an optional induction increment and
//! constant-bounded (possibly strided) loops, so every program executes
//! in the reference interpreter. [`arb_wide_program`] widens it for the
//! front-end differential oracle: `read` symbolics, scalar temporaries
//! (loop-invariant and loop-variant), induction variables at any depth,
//! strided loops with symbolic bounds, `if` bodies, sibling nests,
//! impure scalar assignments, nested array reads and non-affine
//! subscripts. All constants stay small, so no lowering overflows.

#![allow(dead_code)]

use proptest::prelude::*;

/// A random affine subscript over loop vars v0..v_depth plus scalar k.
fn arb_subscript(depth: usize, with_scalar: bool) -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(-2i64..=2, depth),
        -5i64..=5,
        prop::bool::ANY,
    )
        .prop_map(move |(coeffs, c, use_k)| {
            let mut s = String::new();
            for (k, a) in coeffs.iter().enumerate() {
                if *a != 0 {
                    s.push_str(&format!(" + {a} * v{k}"));
                }
            }
            if with_scalar && use_k {
                s.push_str(" + k");
            }
            format!("{c}{s}")
        })
}

/// A random program exercising the normalization passes: a scalar
/// definition, an optional induction increment, strided loops, and a few
/// array statements.
pub fn arb_program() -> impl Strategy<Value = String> {
    (
        1usize..=2, // depth
        proptest::collection::vec(
            (
                1i64..=3,
                3i64..=7,
                prop::sample::select(vec![1i64, 1, 2, 3, -1]),
            ),
            2,
        ),
        -10i64..=10, // scalar init
        0i64..=3,    // induction step (0 = none)
        proptest::collection::vec((any::<bool>(),), 1..=2),
    )
        .prop_flat_map(|(depth, bounds, init, istep, stmts)| {
            let subs = proptest::collection::vec(arb_subscript(depth, true), stmts.len() * 2);
            (Just(depth), Just(bounds), Just(init), Just(istep), subs)
        })
        .prop_map(|(depth, bounds, init, istep, subs)| {
            let mut src = format!("k = {init};\n");
            for (lvl, (lo, hi, step)) in bounds.iter().take(depth).enumerate() {
                if *step == 1 {
                    src.push_str(&format!("for v{lvl} = {lo} to {hi} {{\n"));
                } else if *step < 0 {
                    src.push_str(&format!("for v{lvl} = {hi} to {lo} step {step} {{\n"));
                } else {
                    src.push_str(&format!("for v{lvl} = {lo} to {hi} step {step} {{\n"));
                }
            }
            if istep > 0 {
                src.push_str(&format!("k = k + {istep};\n"));
            }
            for pair in subs.chunks(2) {
                src.push_str(&format!("arr[{}] = arr[{}] + 1;\n", pair[0], pair[1]));
            }
            for _ in 0..depth {
                src.push_str("}\n");
            }
            src
        })
}

/// A deterministic choice stream over the generated words.
struct Choices<'a> {
    words: &'a [u64],
    next: usize,
}

impl Choices<'_> {
    fn below(&mut self, n: u64) -> u64 {
        let w = self.words[self.next % self.words.len()];
        self.next += 1;
        // Mix the position in so a short stream does not repeat itself.
        (w ^ (self.next as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Generates one wide program from a choice stream.
struct ProgramGen<'a> {
    c: Choices<'a>,
    src: String,
    /// Scalars a subscript may mention at the current point.
    scalars: Vec<String>,
    /// Loop variables in scope, outermost first.
    loop_vars: Vec<String>,
    next_loop: usize,
    next_temp: usize,
}

impl ProgramGen<'_> {
    fn term(&mut self) -> String {
        let mut names: Vec<String> = self.loop_vars.clone();
        names.extend(self.scalars.iter().cloned());
        if names.is_empty() || self.c.chance(20) {
            return self.c.int(-4, 9).to_string();
        }
        let name = names[self.c.below(names.len() as u64) as usize].clone();
        match self.c.below(4) {
            0 => format!("{} * {name}", self.c.int(-2, 3)),
            _ => name,
        }
    }

    /// An expression over everything in scope; `affine = false` allows
    /// products of two variables.
    fn expr(&mut self, affine: bool) -> String {
        let mut e = self.term();
        for _ in 0..self.c.below(3) {
            let op = self.c.pick(&["+", "-", "+"]);
            let t = self.term();
            if op == "-" && self.c.chance(30) {
                e = format!("{e} - ({t} + {})", self.c.int(0, 3));
            } else {
                e = format!("{e} {op} {t}");
            }
        }
        if !affine && !self.loop_vars.is_empty() && self.c.chance(25) {
            let v = self.loop_vars[self.c.below(self.loop_vars.len() as u64) as usize].clone();
            e = format!("{e} + {v} * {v}");
        }
        e
    }

    fn array_ref(&mut self) -> String {
        let arr = self.c.pick(&["arr", "brr", "crr"]);
        let affine = self.c.chance(90);
        let mut s = format!("{arr}[{}]", self.expr(affine));
        if self.c.chance(25) {
            s.push_str(&format!("[{}]", self.expr(true)));
        }
        if self.c.chance(8) {
            let inner = self.c.pick(&["arr", "brr"]);
            s = format!("{arr}[{inner}[{}]]", self.expr(true));
        }
        s
    }

    fn array_stmt(&mut self) {
        let target = self.array_ref();
        let mut value = self.array_ref();
        for _ in 0..self.c.below(2) {
            value = format!("{value} + {}", self.array_ref());
        }
        self.src.push_str(&format!("{target} = {value} + 1;\n"));
    }

    fn scalar_temp(&mut self) {
        let name = format!("t{}", self.next_temp);
        self.next_temp += 1;
        let value = if self.c.chance(15) {
            self.array_ref() // impure: never forward-substituted
        } else {
            self.expr(true)
        };
        self.src.push_str(&format!("{name} = {value};\n"));
        self.scalars.push(name);
    }

    fn block(&mut self, depth: usize) {
        let stmts = 1 + self.c.below(3);
        for _ in 0..stmts {
            match self.c.below(10) {
                0 | 4 if depth < 3 => self.nest(depth),
                1 => self.scalar_temp(),
                2 if !self.loop_vars.is_empty() => self.if_stmt(depth),
                3 if !self.scalars.is_empty() && self.c.chance(30) => {
                    // Reassign an existing scalar: kills its definition.
                    let name =
                        self.scalars[self.c.below(self.scalars.len() as u64) as usize].clone();
                    let value = self.expr(true);
                    self.src.push_str(&format!("{name} = {value};\n"));
                }
                _ => self.array_stmt(),
            }
        }
    }

    fn if_stmt(&mut self, depth: usize) {
        let lhs = self.expr(true);
        let op = self.c.pick(&["<", "<=", ">", ">=", "==", "!="]);
        let rhs = self.c.int(-3, 8);
        self.src.push_str(&format!("if ({lhs} {op} {rhs}) {{\n"));
        self.block(depth);
        if self.c.chance(50) {
            self.src.push_str("} else {\n");
            self.block(depth);
        }
        self.src.push_str("}\n");
    }

    fn nest(&mut self, depth: usize) {
        let var = format!("v{}", self.next_loop);
        self.next_loop += 1;
        let lo = if self.c.chance(20) && !self.loop_vars.is_empty() {
            self.loop_vars[self.loop_vars.len() - 1].clone()
        } else {
            self.c.int(-2, 3).to_string()
        };
        let hi = if self.c.chance(20) && self.scalars.iter().any(|s| s == "n") {
            format!("n + {}", self.c.int(0, 4))
        } else {
            self.c.int(3, 9).to_string()
        };
        let step = [1i64, 1, 1, 2, 3, -1, -2][self.c.below(7) as usize];
        let header = match step {
            1 => format!("for {var} = {lo} to {hi} {{\n"),
            s if s < 0 => format!("for {var} = {hi} to {lo} step {s} {{\n"),
            s => format!("for {var} = {lo} to {hi} step {s} {{\n"),
        };
        self.src.push_str(&header);
        self.loop_vars.push(var);
        let scalars_before = self.scalars.len();
        if self.c.chance(45) {
            let k = self.c.pick(&["k", "m"]);
            let op = self.c.pick(&["+", "-"]);
            self.src
                .push_str(&format!("{k} = {k} {op} {};\n", self.c.int(1, 3)));
            if self.c.chance(15) {
                // A second update: no longer a simple induction variable.
                self.src.push_str(&format!("{k} = {k} + 1;\n"));
            }
        }
        self.block(depth + 1);
        if self.c.chance(30) {
            let k = self.c.pick(&["k", "m"]);
            self.src
                .push_str(&format!("{k} = {k} + {};\n", self.c.int(1, 2)));
            self.array_stmt();
        }
        self.scalars.truncate(scalars_before);
        self.loop_vars.pop();
        self.src.push_str("}\n");
    }
}

/// A wide random program for the front-end differential oracle.
pub fn arb_wide_program() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u64>(), 48).prop_map(|words| {
        let mut b = ProgramGen {
            c: Choices {
                words: &words,
                next: 0,
            },
            src: String::new(),
            scalars: Vec::new(),
            loop_vars: Vec::new(),
            next_loop: 0,
            next_temp: 0,
        };
        if b.c.chance(50) {
            b.src.push_str("read(n);\n");
            b.scalars.push("n".into());
        }
        for k in ["k", "m"] {
            let init = if b.c.chance(30) && b.scalars.iter().any(|s| s == "n") {
                format!("n + {}", b.c.int(-3, 3))
            } else {
                b.c.int(-5, 5).to_string()
            };
            b.src.push_str(&format!("{k} = {init};\n"));
            b.scalars.push(k.into());
        }
        if b.c.chance(50) {
            b.scalar_temp();
        }
        let nests = 1 + b.c.below(2);
        for _ in 0..nests {
            b.nest(0);
        }
        if b.c.chance(40) {
            b.array_stmt();
        }
        b.src
    })
}
