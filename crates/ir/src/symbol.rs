//! Per-program symbol table: every identifier becomes a dense [`Sym`].
//!
//! The lexer interns each identifier once, so the rest of the front end
//! and the analyzer compare, hash and index `u32`s instead of strings.
//! Names are needed again only where text leaves the program: rendering,
//! `--explain`, and wherever an order reaches an output. A [`Sym`]'s
//! order is first appearance in the source, not name order, so those
//! places sort by [`SymbolTable::name`] themselves.
//!
//! Each [`Program`](crate::Program) owns its table. There is no global
//! interner: a long-running server parses untrusted programs, and a
//! process-wide table would grow with every identifier it ever saw.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned identifier: an index into its program's [`SymbolTable`].
///
/// Two `Sym`s are comparable only within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Sym(u32);

impl Sym {
    /// The symbol with dense index `k`, which must be below its table's
    /// length (so it fits in `u32`).
    pub(crate) fn from_index(k: usize) -> Sym {
        Sym(k as u32)
    }

    /// The dense index of this symbol, `0..table.len()`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The identifiers of one program, numbered in order of first
/// appearance.
///
/// The index keeps the standard library's keyed hasher: identifiers come
/// from untrusted requests, and a fixed hash would let a client send
/// names that all collide.
#[derive(Clone, Default)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Sym>,
}

impl SymbolTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// The symbol for `name`, adding it if new; `None` only when the
    /// table already holds 2^32 names.
    pub fn try_intern(&mut self, name: &str) -> Option<Sym> {
        if let Some(&s) = self.index.get(name) {
            return Some(s);
        }
        let s = Sym(u32::try_from(self.names.len()).ok()?);
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.index.insert(name, s);
        Some(s)
    }

    /// The symbol for `name`, adding it if new.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct names, which no program that fits
    /// in memory reaches (the lexer reports it as a located error).
    pub fn intern(&mut self, name: &str) -> Sym {
        self.try_intern(name)
            .expect("fewer than 2^32 distinct names")
    }

    /// The symbol already interned for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// The name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from another table.
    #[must_use]
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// The name of `sym` as a shared string: cloning it does not copy
    /// the text.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from another table.
    #[must_use]
    pub fn shared_name(&self, sym: Sym) -> &Arc<str> {
        &self.names[sym.index()]
    }

    /// Number of distinct names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl PartialEq for SymbolTable {
    fn eq(&self, other: &SymbolTable) -> bool {
        self.names == other.names
    }
}

impl Eq for SymbolTable {}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names.iter()).finish()
    }
}

/// A value displayed with the names of its symbols; see the `display`
/// methods of [`AffineExpr`](crate::AffineExpr) and
/// [`Access`](crate::Access).
#[derive(Debug, Clone, Copy)]
pub struct Named<'a, T: ?Sized> {
    pub(crate) value: &'a T,
    pub(crate) symbols: &'a SymbolTable,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_appearance_order_and_lookup() {
        let mut t = SymbolTable::new();
        let z = t.intern("z");
        let a = t.intern("a");
        assert_eq!(t.intern("z"), z);
        assert!(z < a, "first appearance, not name order");
        assert_eq!(t.name(a), "a");
        assert_eq!(t.get("a"), Some(a));
        assert_eq!(t.get("b"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(&**t.shared_name(z), "z");
    }
}
