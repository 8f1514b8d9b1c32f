//! Functions, basic blocks and the control flow graph.
//!
//! A function owns a set of blocks identified by stable [`BlockId`]s plus a
//! *layout*: the linear order in which blocks are emitted. Control falls
//! through from a block to its layout successor unless the block ends in an
//! unconditional transfer. Conditional branches may appear **anywhere** in a
//! block — this is what lets a superblock (a trace with side exits) be
//! represented as a single block, exactly as superblock scheduling requires.

use crate::inst::Inst;
use crate::op::Opcode;
use crate::reg::{Reg, RegClass};
use crate::sym::SymTab;
use std::fmt;

/// Stable handle to a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A basic block: a label plus a straight sequence of instructions
/// (conditional branches inside the sequence are *side exits*).
#[derive(Debug, Default)]
pub struct Block {
    /// Debug label.
    pub label: String,
    /// Instructions in program order.
    pub insts: Vec<Inst>,
}

// `Clone` is written out for `Block`, `Function` and `Module` so that
// `clone_from` reuses the destination's buffers: the derived one is
// `*self = source.clone()`.
impl Clone for Block {
    fn clone(&self) -> Block {
        Block { label: self.label.clone(), insts: self.insts.clone() }
    }

    fn clone_from(&mut self, source: &Block) {
        self.label.clone_from(&source.label);
        self.insts.clone_from(&source.insts);
    }
}

impl Block {
    /// Bit-level identity. See [`Module::identical`].
    pub(crate) fn identical(&self, other: &Block) -> bool {
        let Block { label, insts } = self;
        *label == other.label
            && insts.len() == other.insts.len()
            && insts.iter().zip(&other.insts).all(|(a, b)| a.identical(b))
    }

    /// Where to insert at the end of the block: before a trailing control
    /// transfer, if there is one.
    pub fn insert_point(&self) -> usize {
        match self.insts.last() {
            Some(i) if i.op.is_control() => self.insts.len() - 1,
            _ => self.insts.len(),
        }
    }

    /// True if the final instruction unconditionally leaves the block.
    pub fn ends_in_transfer(&self) -> bool {
        matches!(
            self.insts.last().map(|i| i.op),
            Some(Opcode::Jump) | Some(Opcode::Halt)
        )
    }
}

/// A function: blocks + layout + virtual register counters.
#[derive(Debug)]
pub struct Function {
    /// Function name (workload id).
    pub name: String,
    blocks: Vec<Block>,
    /// Emission order of blocks. Fall-through goes to the next layout entry.
    pub layout: Vec<BlockId>,
    /// Next fresh virtual register id per class.
    next_vreg: [u32; 3],
}

impl Clone for Function {
    fn clone(&self) -> Function {
        Function {
            name: self.name.clone(),
            blocks: self.blocks.clone(),
            layout: self.layout.clone(),
            next_vreg: self.next_vreg,
        }
    }

    fn clone_from(&mut self, source: &Function) {
        self.name.clone_from(&source.name);
        self.blocks.clone_from(&source.blocks);
        self.layout.clone_from(&source.layout);
        self.next_vreg = source.next_vreg;
    }
}

impl Function {
    /// Bit-level identity, detached blocks included. See
    /// [`Module::identical`].
    pub(crate) fn identical(&self, other: &Function) -> bool {
        let Function { name, blocks, layout, next_vreg } = self;
        *name == other.name
            && *layout == other.layout
            && *next_vreg == other.next_vreg
            && blocks.len() == other.blocks.len()
            && blocks.iter().zip(&other.blocks).all(|(a, b)| a.identical(b))
    }

    /// New empty function.
    pub fn new(name: &str) -> Function {
        Function {
            name: name.to_string(),
            blocks: Vec::new(),
            layout: Vec::new(),
            next_vreg: [0; 3],
        }
    }

    /// Allocate a fresh virtual register of `class`.
    pub fn new_reg(&mut self, class: RegClass) -> Reg {
        let id = self.next_vreg[class.index()];
        self.next_vreg[class.index()] += 1;
        Reg { id, class }
    }

    /// Number of virtual registers allocated so far in `class`.
    pub fn vreg_count(&self, class: RegClass) -> u32 {
        self.next_vreg[class.index()]
    }

    /// Create a new block appended to the layout; returns its id.
    pub fn add_block(&mut self, label: &str) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { label: label.to_string(), insts: Vec::new() });
        self.layout.push(id);
        id
    }

    /// Create a new block **without** placing it in the layout
    /// (callers insert it at the right position themselves).
    pub fn add_block_detached(&mut self, label: &str) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { label: label.to_string(), insts: Vec::new() });
        id
    }

    /// Shared access to a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// All block ids in layout order.
    pub fn layout_order(&self) -> &[BlockId] {
        &self.layout
    }

    /// Position of `id` in the layout, if present.
    pub fn layout_pos(&self, id: BlockId) -> Option<usize> {
        self.layout.iter().position(|&b| b == id)
    }

    /// The block the entry of the function transfers to (first in layout).
    pub fn entry(&self) -> BlockId {
        self.layout[0]
    }

    /// Fall-through successor of `id` in the layout (the block control
    /// reaches if `id` does not end in an unconditional transfer).
    pub fn fallthrough(&self, id: BlockId) -> Option<BlockId> {
        let pos = self.layout_pos(id)?;
        self.layout.get(pos + 1).copied()
    }

    /// Control-flow successors of a block: side-exit branch targets plus the
    /// fall-through (when the block does not end in `Jump`/`Halt`).
    pub fn succs(&self, id: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        let b = self.block(id);
        for inst in &b.insts {
            if let (true, Some(t)) = (inst.op.is_branch(), inst.target) {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        if !b.ends_in_transfer() {
            if let Some(ft) = self.fallthrough(id) {
                if !out.contains(&ft) {
                    out.push(ft);
                }
            }
        }
        out
    }

    /// Predecessor map over all blocks in the layout.
    pub fn preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for &b in &self.layout {
            for s in self.succs(b) {
                preds[s.0 as usize].push(b);
            }
        }
        preds
    }

    /// Total number of blocks ever created (dense id space size).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total instructions over all blocks in the layout.
    pub fn num_insts(&self) -> usize {
        self.layout.iter().map(|&b| self.block(b).insts.len()).sum()
    }

    /// Iterate `(block, inst)` references over the layout.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> {
        self.layout
            .iter()
            .flat_map(move |&b| self.block(b).insts.iter().map(move |i| (b, i)))
    }

    /// Rewrite every branch target `from` to `to` across the function.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        for b in &mut self.blocks {
            for i in &mut b.insts {
                if i.target == Some(from) {
                    i.target = Some(to);
                }
            }
        }
    }
}

/// A module: one function plus its data symbols. Workloads compile to one
/// module each (the paper evaluates isolated loop nests).
#[derive(Debug)]
pub struct Module {
    pub symtab: SymTab,
    pub func: Function,
}

impl Clone for Module {
    fn clone(&self) -> Module {
        Module { symtab: self.symtab.clone(), func: self.func.clone() }
    }

    fn clone_from(&mut self, source: &Module) {
        // Passes hardly ever touch the symbol table, and its derived
        // `clone_from` would reallocate every name.
        if self.symtab != source.symtab {
            self.symtab = source.symtab.clone();
        }
        self.func.clone_from(&source.func);
    }
}

impl Module {
    /// True if `other` is this module bit for bit: symbol table, function
    /// name, every block's label and every field of every instruction,
    /// layout and register counters, with floats (`Operand::ImmF`,
    /// `Inst::prob`) compared by bit pattern — `0.0` and `-0.0` differ, a
    /// NaN equals itself. Deliberately not `PartialEq`: the passes' own
    /// operand comparisons rely on its IEEE semantics, under which a
    /// `0.0 → -0.0` rewrite is no change at all. Two identical modules are
    /// interchangeable for every deterministic consumer (verifier, lints,
    /// simulator), which is what lets `ilpc-guard` skip re-checking one.
    pub fn identical(&self, other: &Module) -> bool {
        let Module { symtab, func } = self;
        *symtab == other.symtab && func.identical(&other.func)
    }

    /// New module with an empty function of the given name.
    pub fn new(name: &str) -> Module {
        Module { symtab: SymTab::new(), func: Function::new(name) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;
    use crate::op::Cond;

    #[test]
    fn succs_and_fallthrough() {
        let mut f = Function::new("t");
        let b0 = f.add_block("entry");
        let b1 = f.add_block("body");
        let b2 = f.add_block("exit");
        // b0: conditional branch to b2, falls through to b1.
        f.block_mut(b0).insts.push(Inst::br(
            Cond::Lt,
            Operand::ImmI(0),
            Operand::ImmI(1),
            b2,
        ));
        // b1: jumps back to b0.
        f.block_mut(b1).insts.push(Inst::jump(b0));
        // b2: halt.
        f.block_mut(b2).insts.push(Inst::halt());

        assert_eq!(f.succs(b0), vec![b2, b1]);
        assert_eq!(f.succs(b1), vec![b0]);
        assert!(f.succs(b2).is_empty());
        assert_eq!(f.fallthrough(b0), Some(b1));
        let preds = f.preds();
        assert_eq!(preds[b0.0 as usize], vec![b1]);
        assert_eq!(preds[b2.0 as usize], vec![b0]);
    }

    #[test]
    fn fresh_registers_are_distinct_per_class() {
        let mut f = Function::new("t");
        let a = f.new_reg(RegClass::Int);
        let b = f.new_reg(RegClass::Int);
        let c = f.new_reg(RegClass::Flt);
        assert_ne!(a, b);
        assert_eq!(c.id, 0);
        assert_eq!(f.vreg_count(RegClass::Int), 2);
        assert_eq!(f.vreg_count(RegClass::Flt), 1);
    }

    /// One block: a float move, a branch back to itself, a halt.
    fn small_module(imm: f64) -> Module {
        let mut m = Module::new("t");
        m.symtab.declare("A", 4, RegClass::Flt);
        let b = m.func.add_block("entry");
        let r = m.func.new_reg(RegClass::Flt);
        m.func.block_mut(b).insts.extend([
            Inst::mov(r, Operand::ImmF(imm)),
            Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), b),
            Inst::halt(),
        ]);
        m
    }

    #[test]
    fn identical_reads_every_field_and_floats_by_bit_pattern() {
        let m = small_module(0.0);
        assert!(m.identical(&m.clone()));
        let b = m.func.entry();

        // `PartialEq` cannot see this one: 0.0 == -0.0.
        let neg_zero = small_module(-0.0);
        assert_eq!(neg_zero.func.block(b).insts, m.func.block(b).insts);
        assert!(!m.identical(&neg_zero));

        let changed: [fn(&mut Module); 7] = [
            |m| m.func.block_mut(BlockId(0)).insts[1].prob = 0.25,
            |m| m.func.block_mut(BlockId(0)).label.push('x'),
            |m| _ = m.func.new_reg(RegClass::Int),
            |m| {
                let mut t = SymTab::new();
                t.declare("A", 3, RegClass::Flt);
                m.symtab = t;
            },
            |m| m.func.name.push('x'),
            |m| _ = m.func.add_block_detached("spare"),
            |m| m.func.layout.clear(),
        ];
        for (k, change) in changed.iter().enumerate() {
            let mut other = m.clone();
            change(&mut other);
            assert!(!m.identical(&other), "change {k} went unseen");
            assert!(!other.identical(&m), "change {k} went unseen");
        }

        // `PartialEq` cannot see this one either: NaN != NaN.
        let nan = small_module(f64::NAN);
        assert_ne!(nan.func.block(b).insts, nan.clone().func.block(b).insts);
        assert!(nan.identical(&nan.clone()));
    }

    #[test]
    fn clone_from_makes_an_identical_module_of_any_destination() {
        let small = small_module(1.5);
        let mut big = small.clone();
        big.symtab.declare("B", 9, RegClass::Int);
        let extra = big.func.add_block("extra");
        big.func.block_mut(extra).insts.push(Inst::halt());
        big.func.new_reg(RegClass::Vec);

        let mut dst = big.clone();
        dst.clone_from(&small);
        assert!(dst.identical(&small));
        dst.clone_from(&big);
        assert!(dst.identical(&big));
    }

    #[test]
    fn retarget_rewrites_branches() {
        let mut f = Function::new("t");
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        f.block_mut(b0)
            .insts
            .push(Inst::br(Cond::Eq, Operand::ImmI(0), Operand::ImmI(0), b1));
        f.retarget(b1, b2);
        assert_eq!(f.block(b0).insts[0].target, Some(b2));
    }
}
