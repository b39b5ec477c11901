//! A reference interpreter: executes a program and records every array
//! access with its iteration vector.
//!
//! This is the *oracle* for dependence analysis: two references are truly
//! dependent exactly when some pair of their recorded accesses touches the
//! same element, and the true direction vectors can be read off the
//! iteration vectors. Integration tests replay the analyzer's verdicts
//! against this ground truth — the executable meaning of the paper's
//! "exact".
//!
//! The interpreter requires concrete loop bounds; symbolic constants are
//! supplied through an environment.

use std::collections::BTreeMap;

use crate::arena::{ArrayRef, Expr, ExprArena, Node};
use crate::ast::{Program, Stmt};
use crate::symbol::{Sym, SymbolTable};

/// One concrete array access observed during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Touch {
    /// Which array.
    pub array: String,
    /// The element's index vector.
    pub element: Vec<i64>,
    /// Whether the access wrote the element.
    pub is_write: bool,
    /// The access id assigned by [`crate::extract_accesses`] (extraction
    /// order), so touches can be matched to analyzed accesses.
    pub access_id: usize,
    /// Values of the enclosing loop variables, outermost first.
    pub iteration: Vec<i64>,
}

/// Why execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A scalar (or symbolic constant) had no value.
    UnboundVariable(String),
    /// The step budget was exhausted (runaway loop).
    BudgetExhausted,
    /// Arithmetic overflowed.
    Overflow,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            ExecError::BudgetExhausted => write!(f, "execution budget exhausted"),
            ExecError::Overflow => write!(f, "arithmetic overflow"),
        }
    }
}

impl std::error::Error for ExecError {}

struct Interp<'p> {
    exprs: &'p ExprArena,
    symbols: &'p SymbolTable,
    env: BTreeMap<Sym, i64>,
    memory: BTreeMap<(Sym, Vec<i64>), i64>,
    loop_stack: Vec<(Sym, i64)>,
    touches: Vec<Touch>,
    next_access_id: usize,
    budget: u64,
}

impl Interp<'_> {
    fn unbound(&self, v: Sym) -> ExecError {
        ExecError::UnboundVariable(self.symbols.name(v).to_owned())
    }

    fn var(&self, v: Sym) -> Result<i64, ExecError> {
        self.env.get(&v).copied().ok_or_else(|| self.unbound(v))
    }

    fn eval(&mut self, e: Expr) -> Result<i64, ExecError> {
        match self.exprs.node(e) {
            Node::Const(c) => Ok(c),
            Node::Var(v) => self.var(v),
            Node::Read(r) => self.touch(&r, false),
            Node::Neg(x) => self.eval(x)?.checked_neg().ok_or(ExecError::Overflow),
            Node::Add(a, b) => self
                .eval(a)?
                .checked_add(self.eval(b)?)
                .ok_or(ExecError::Overflow),
            Node::Sub(a, b) => self
                .eval(a)?
                .checked_sub(self.eval(b)?)
                .ok_or(ExecError::Overflow),
            Node::Mul(a, b) => self
                .eval(a)?
                .checked_mul(self.eval(b)?)
                .ok_or(ExecError::Overflow),
        }
    }

    /// Records a read access and returns the element's stored value
    /// (unwritten elements read as 0). Access ids are assigned in
    /// *extraction order* (the order `extract_accesses` walks the AST):
    /// the reference itself first, then reads nested in its subscripts.
    fn touch(&mut self, r: &ArrayRef, is_write: bool) -> Result<i64, ExecError> {
        let access_id = self.next_access_id;
        self.next_access_id += 1;
        let element = self.element(r)?;
        // Reads nested inside subscripts get their own touches.
        for &s in self.exprs.subscripts(r) {
            self.record_nested_reads(s)?;
        }
        self.touches.push(Touch {
            array: self.symbols.name(r.array).to_owned(),
            element: element.clone(),
            is_write,
            access_id,
            iteration: self.loop_stack.iter().map(|(_, v)| *v).collect(),
        });
        Ok(self.memory.get(&(r.array, element)).copied().unwrap_or(0))
    }

    /// The element `r` names, its subscripts evaluated without recording
    /// reads.
    fn element(&self, r: &ArrayRef) -> Result<Vec<i64>, ExecError> {
        self.exprs
            .subscripts(r)
            .iter()
            .map(|&s| self.eval_pure(s))
            .collect()
    }

    /// Evaluates an expression without recording reads (subscripts record
    /// their nested reads separately, to keep ids aligned with
    /// extraction).
    fn eval_pure(&self, e: Expr) -> Result<i64, ExecError> {
        match self.exprs.node(e) {
            Node::Const(c) => Ok(c),
            Node::Var(v) => self.var(v),
            Node::Read(r) => {
                // Pure evaluation (no touch recording): used for the
                // subscripts of an access, whose nested reads are recorded
                // separately to keep ids aligned with extraction.
                let element = self.element(&r)?;
                Ok(self.memory.get(&(r.array, element)).copied().unwrap_or(0))
            }
            Node::Neg(x) => self.eval_pure(x)?.checked_neg().ok_or(ExecError::Overflow),
            Node::Add(a, b) => self
                .eval_pure(a)?
                .checked_add(self.eval_pure(b)?)
                .ok_or(ExecError::Overflow),
            Node::Sub(a, b) => self
                .eval_pure(a)?
                .checked_sub(self.eval_pure(b)?)
                .ok_or(ExecError::Overflow),
            Node::Mul(a, b) => self
                .eval_pure(a)?
                .checked_mul(self.eval_pure(b)?)
                .ok_or(ExecError::Overflow),
        }
    }

    fn record_nested_reads(&mut self, e: Expr) -> Result<(), ExecError> {
        match self.exprs.node(e) {
            Node::Const(_) | Node::Var(_) => Ok(()),
            Node::Read(r) => self.touch(&r, false).map(|_| ()),
            Node::Neg(x) => self.record_nested_reads(x),
            Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
                self.record_nested_reads(a)?;
                self.record_nested_reads(b)
            }
        }
    }

    fn run(&mut self, stmts: &[Stmt]) -> Result<(), ExecError> {
        for s in stmts {
            if self.budget == 0 {
                return Err(ExecError::BudgetExhausted);
            }
            self.budget -= 1;
            match s {
                Stmt::Read(name) => {
                    // The driver pre-binds symbolics; `read` is a no-op if
                    // already bound, else an error.
                    if !self.env.contains_key(name) {
                        return Err(self.unbound(*name));
                    }
                }
                Stmt::ScalarAssign(a) => {
                    let v = self.eval(a.value)?;
                    self.env.insert(a.name, v);
                }
                Stmt::ArrayAssign(a) => {
                    // Extraction order: the write first, then RHS reads,
                    // then reads nested in the target's subscripts.
                    let write_id = self.next_access_id;
                    self.next_access_id += 1;
                    let element = self.element(&a.target)?;
                    self.touches.push(Touch {
                        array: self.symbols.name(a.target.array).to_owned(),
                        element: element.clone(),
                        is_write: true,
                        access_id: write_id,
                        iteration: self.loop_stack.iter().map(|(_, v)| *v).collect(),
                    });
                    let value = self.eval(a.value)?;
                    for &sub in self.exprs.subscripts(&a.target) {
                        self.record_nested_reads(sub)?;
                    }
                    self.memory.insert((a.target.array, element), value);
                }
                Stmt::If(i) => {
                    // Condition reads execute unconditionally, in the same
                    // order extraction numbers them (lhs then rhs).
                    let lhs = self.eval(i.lhs)?;
                    let rhs = self.eval(i.rhs)?;
                    if i.op.eval(lhs, rhs) {
                        self.run(&i.then_body)?;
                        self.skip_ids(&i.else_body);
                    } else {
                        self.skip_ids(&i.then_body);
                        self.run(&i.else_body)?;
                    }
                }
                Stmt::For(l) => {
                    let lo = self.eval(l.lower)?;
                    let hi = self.eval(l.upper)?;
                    let step = l.step;
                    let saved = self.env.get(&l.var).copied();
                    let mut i = lo;
                    loop {
                        let done = if step > 0 { i > hi } else { i < hi };
                        if done {
                            break;
                        }
                        if self.budget == 0 {
                            return Err(ExecError::BudgetExhausted);
                        }
                        self.budget -= 1;
                        self.env.insert(l.var, i);
                        self.loop_stack.push((l.var, i));
                        let save_id = self.next_access_id;
                        self.run(&l.body)?;
                        // Each iteration replays the same static accesses:
                        // rewind ids so they stay aligned with extraction.
                        self.next_access_id = save_id;
                        self.loop_stack.pop();
                        i = i.checked_add(step).ok_or(ExecError::Overflow)?;
                    }
                    // After the loop the body's accesses are consumed once
                    // in the static numbering.
                    self.skip_ids(&l.body);
                    match saved {
                        Some(v) => {
                            self.env.insert(l.var, v);
                        }
                        None => {
                            self.env.remove(&l.var);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of array reads in `e`, nested ones included.
    fn count_reads(&self, e: Expr) -> usize {
        let mut n = 0;
        self.exprs.for_each_read(e, &mut |_| n += 1);
        n
    }

    /// Advances the static access-id counter over `stmts` without
    /// executing them (used for zero-trip or finished loops).
    fn skip_ids(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::ArrayAssign(a) => {
                    self.next_access_id += 1; // the write
                    self.next_access_id += self.count_reads(a.value);
                    for &sub in self.exprs.subscripts(&a.target) {
                        self.next_access_id += self.count_reads(sub);
                    }
                }
                Stmt::ScalarAssign(a) => {
                    self.next_access_id += self.count_reads(a.value);
                }
                Stmt::For(l) => self.skip_ids(&l.body),
                Stmt::If(i) => {
                    self.next_access_id += self.count_reads(i.lhs) + self.count_reads(i.rhs);
                    self.skip_ids(&i.then_body);
                    self.skip_ids(&i.else_body);
                }
                Stmt::Read(_) => {}
            }
        }
    }
}

/// Executes `program`, binding symbolic constants from `symbolics`, and
/// returns every array access in execution order.
///
/// `budget` bounds the number of statements + iterations executed.
///
/// # Errors
///
/// Returns an [`ExecError`] for unbound variables, overflow, or budget
/// exhaustion.
///
/// # Examples
///
/// ```
/// use dda_ir::{parse_program, interp::execute};
///
/// let p = parse_program("for i = 1 to 3 { a[i + 1] = a[i]; }")?;
/// let touches = execute(&p, &Default::default(), 10_000)?;
/// assert_eq!(touches.len(), 6); // 3 iterations × (1 write + 1 read)
/// assert!(touches[0].is_write);
/// assert_eq!(touches[0].element, vec![2]);
/// assert_eq!(touches[1].element, vec![1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute(
    program: &Program,
    symbolics: &BTreeMap<String, i64>,
    budget: u64,
) -> Result<Vec<Touch>, ExecError> {
    let mut interp = Interp {
        exprs: &program.exprs,
        symbols: &program.symbols,
        env: symbolics
            .iter()
            .filter_map(|(name, &v)| Some((program.symbols.get(name)?, v)))
            .collect(),
        memory: BTreeMap::new(),
        loop_stack: Vec::new(),
        touches: Vec::new(),
        next_access_id: 0,
        budget,
    };
    interp.run(&program.stmts)?;
    Ok(interp.touches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::extract_accesses;
    use crate::parser::parse_program;

    fn run(src: &str) -> Vec<Touch> {
        let p = parse_program(src).unwrap();
        execute(&p, &BTreeMap::new(), 100_000).unwrap()
    }

    #[test]
    fn records_in_execution_order() {
        let t = run("for i = 1 to 2 { a[i] = a[i + 1]; }");
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].element, vec![1]);
        assert!(t[0].is_write);
        assert_eq!(t[1].element, vec![2]);
        assert!(!t[1].is_write);
        assert_eq!(t[2].element, vec![2]);
        assert_eq!(t[3].element, vec![3]);
    }

    #[test]
    fn access_ids_match_extraction() {
        let src = "for i = 1 to 3 { a[i] = a[i - 1] + b[i]; } for j = 1 to 2 { b[j] = 1; }";
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        let touches = execute(&p, &BTreeMap::new(), 100_000).unwrap();
        for t in &touches {
            let acc = &set.accesses[t.access_id];
            assert_eq!(
                set.symbols.name(acc.array),
                t.array,
                "id {} array",
                t.access_id
            );
            assert_eq!(acc.is_write, t.is_write, "id {} rw", t.access_id);
            assert_eq!(acc.loops.len(), t.iteration.len());
        }
        // b's write in the second loop must carry id 3.
        assert!(touches.iter().any(|t| t.access_id == 3 && t.is_write));
    }

    #[test]
    fn triangular_loops() {
        let t = run("for i = 1 to 3 { for j = i to 3 { a[j] = 0; } }");
        // Iterations: (1,1..3), (2,2..3), (3,3): 6 writes.
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].iteration, vec![1, 1]);
        assert_eq!(t[5].iteration, vec![3, 3]);
    }

    #[test]
    fn zero_trip_loop_records_nothing() {
        let t = run("for i = 5 to 1 { a[i] = 0; } a[7] = 1;");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].element, vec![7]);
        // The id still accounts for the skipped loop body.
        assert_eq!(t[0].access_id, 1);
    }

    #[test]
    fn skipped_nested_reads_count_once() {
        // The zero-trip loop's read `a[b[i]]` is two accesses, so the
        // write after it is access 3, as extraction numbers it.
        let src = "for i = 5 to 1 { c[i] = a[b[i]]; } d[1] = 0;";
        let p = parse_program(src).unwrap();
        assert_eq!(extract_accesses(&p).accesses.len(), 4);
        let t = execute(&p, &BTreeMap::new(), 1000).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].array.as_str(), t[0].access_id), ("d", 3));
    }

    #[test]
    fn negative_step() {
        let t = run("for i = 3 to 1 step -1 { a[i] = 0; }");
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].element, vec![3]);
        assert_eq!(t[2].element, vec![1]);
    }

    #[test]
    fn scalar_and_induction_semantics() {
        let t = run("k = 10; for i = 1 to 3 { k = k + 2; a[k] = 0; }");
        let elems: Vec<i64> = t.iter().map(|x| x.element[0]).collect();
        assert_eq!(elems, vec![12, 14, 16]);
    }

    #[test]
    fn symbolic_binding() {
        let p = parse_program("read(n); for i = 1 to n { a[i] = 0; }").unwrap();
        let mut env = BTreeMap::new();
        env.insert("n".to_owned(), 4);
        let t = execute(&p, &env, 100_000).unwrap();
        assert_eq!(t.len(), 4);
        let err = execute(&p, &BTreeMap::new(), 100_000).unwrap_err();
        assert_eq!(err, ExecError::UnboundVariable("n".into()));
    }

    #[test]
    fn budget_guards_runaway() {
        let p = parse_program("for i = 1 to 1000000 { a[i] = 0; }").unwrap();
        assert_eq!(
            execute(&p, &BTreeMap::new(), 100).unwrap_err(),
            ExecError::BudgetExhausted
        );
    }

    #[test]
    fn subscript_of_subscript_ids() {
        let src = "for i = 1 to 2 { a[b[i]] = 0; }";
        let p = parse_program(src).unwrap();
        let set = extract_accesses(&p);
        assert_eq!(set.accesses.len(), 2);
        let touches = execute(&p, &BTreeMap::new(), 1000).unwrap();
        // Per iteration: write to a (id 0) + read of b (id 1).
        assert_eq!(touches.len(), 4);
        for t in &touches {
            let acc = &set.accesses[t.access_id];
            assert_eq!(set.symbols.name(acc.array), t.array);
        }
    }
}
