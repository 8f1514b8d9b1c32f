//! Data symbols (arrays) and the module symbol table.
//!
//! All array data lives in a flat, word-addressed memory; each symbol is a
//! contiguous run of elements of one class. Scalars referenced across the
//! function boundary (live-out results) are materialized as one-element
//! symbols so that simulation results are observable in memory.

use crate::reg::RegClass;
use std::fmt;

/// Handle to a data symbol in a module's symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Declaration of one data symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Source-level name (`A`, `C`, ...).
    pub name: String,
    /// Number of elements.
    pub elems: usize,
    /// Element class (all elements of a symbol share one class).
    pub class: RegClass,
}

/// Symbol table: names, sizes and the flat address layout of data memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymTab {
    syms: Vec<Symbol>,
}

impl SymTab {
    /// Empty table.
    pub fn new() -> SymTab {
        SymTab::default()
    }

    /// Declare a new symbol; returns its handle.
    pub fn declare(&mut self, name: &str, elems: usize, class: RegClass) -> SymId {
        let id = SymId(self.syms.len() as u32);
        self.syms.push(Symbol { name: name.to_string(), elems, class });
        id
    }

    /// Declaration for `id`.
    pub fn get(&self, id: SymId) -> &Symbol {
        &self.syms[id.0 as usize]
    }

    /// Look up a symbol by name.
    pub fn by_name(&self, name: &str) -> Option<SymId> {
        self.syms
            .iter()
            .position(|s| s.name == name)
            .map(|i| SymId(i as u32))
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True if no symbols are declared.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Iterate `(id, symbol)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, &Symbol)> {
        self.syms
            .iter()
            .enumerate()
            .map(|(i, s)| (SymId(i as u32), s))
    }

    /// Base address (in words) of each symbol under the flat layout, plus
    /// the total memory size. Symbols are laid out in declaration order.
    pub fn layout(&self) -> (Vec<usize>, usize) {
        let mut bases = Vec::with_capacity(self.syms.len());
        let mut next = 0usize;
        for s in &self.syms {
            bases.push(next);
            next += s.elems;
        }
        (bases, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous() {
        let mut t = SymTab::new();
        let a = t.declare("A", 10, RegClass::Flt);
        let b = t.declare("B", 5, RegClass::Flt);
        let c = t.declare("n", 1, RegClass::Int);
        let (bases, total) = t.layout();
        assert_eq!(bases, vec![0, 10, 15]);
        assert_eq!(total, 16);
        assert_eq!(t.get(a).name, "A");
        assert_eq!(t.by_name("B"), Some(b));
        assert_eq!(t.by_name("n"), Some(c));
        assert_eq!(t.by_name("missing"), None);
    }
}
