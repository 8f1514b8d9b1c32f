//! IR verifier.
//!
//! Catches malformed IR early; every pass in the pipeline runs the verifier
//! after itself in debug builds. Checks performed:
//!
//! * operand slot shapes match the opcode (e.g. stores have a value operand,
//!   branches have a target, ALU destinations exist);
//! * register classes are consistent (no `f` register fed to an integer add,
//!   branch compares same-class scalar operands, a `mov`, load or store
//!   moves a scalar, load/store value class matches the symbol's element
//!   class);
//! * only value-producing instructions have a destination (no store,
//!   branch, jump or halt writes a register);
//! * a symbol operand or memory tag names a declared symbol;
//! * branch targets exist in the layout;
//! * the last layout block cannot fall off the end of the function;
//! * no block appears twice in the layout;
//! * register ids are within the function's allocation counters.

use crate::func::{BlockId, Function, Module};
use crate::inst::{Inst, Operand, MAX_VLEN};
use crate::op::Opcode;
use crate::reg::RegClass;

/// A verifier failure, with block/instruction coordinates and a stable
/// machine-readable `code` (kebab-case) so lint tooling can group and
/// filter findings without parsing messages. `Display` prints exactly
/// what it always has — guard incident text is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Stable error class: `reg-range`, `unknown-sym`, `dangling-target`,
    /// `target-shape`, `operand-shape`, `class-mismatch`, `mem-tag`,
    /// `lane-count`, `cfg-fallthrough`, `no-entry`, `dup-block`.
    pub code: &'static str,
    pub block: BlockId,
    pub index: usize,
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} inst {}: {}", self.block, self.index, self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(code: &'static str, block: BlockId, index: usize, message: String) -> Result<(), VerifyError> {
    Err(VerifyError { code, block, index, message })
}

fn check_class(
    what: &str,
    op: Operand,
    want: RegClass,
    b: BlockId,
    i: usize,
) -> Result<(), VerifyError> {
    match op.class() {
        Some(c) if c == want => Ok(()),
        Some(c) => err("class-mismatch", b, i, format!("{what} has class {c}, expected {want}")),
        None => err("operand-shape", b, i, format!("{what} operand missing")),
    }
}

/// Verify one instruction in isolation (register ranges, operand shapes,
/// class consistency, branch-target validity). Public so `ilpc-lint` can
/// collect every error in a module rather than stopping at the first.
pub fn verify_inst(
    f: &Function,
    m: Option<&Module>,
    b: BlockId,
    i: usize,
    inst: &Inst,
) -> Result<(), VerifyError> {
    use Opcode::*;
    // Register ids in range.
    for r in inst.uses().chain(inst.def()) {
        if r.id >= f.vreg_count(r.class) {
            return err("reg-range", b, i, format!("register {r} out of allocated range"));
        }
    }
    // Symbol operands name declared symbols.
    if let Some(module) = m {
        for o in inst.src {
            if let Operand::Sym(s) = o {
                if s.0 as usize >= module.symtab.len() {
                    return err("unknown-sym", b, i, format!("operand names undeclared symbol {s}"));
                }
            }
        }
    }
    // Only value-producing instructions write a register.
    if inst.dst.is_some() && (inst.op.is_control() || inst.op.is_mem_write()) {
        return err("operand-shape", b, i, format!("{} has a destination", inst.op));
    }
    // Branch targets exist.
    if let Some(t) = inst.target {
        if f.layout_pos(t).is_none() {
            return err("dangling-target", b, i, format!("target {t} not in layout"));
        }
        if !inst.op.is_branch() {
            return err("target-shape", b, i, "non-branch has a target".into());
        }
    } else if inst.op.is_branch() {
        return err("target-shape", b, i, "branch without target".into());
    }

    // Lane counts: vector opcodes carry 2..=MAX_VLEN live lanes; every
    // scalar opcode must keep the default of 1 (a corrupted `lanes` field
    // on a scalar instruction is structural damage, not a wider operation).
    if inst.op.result_class() == Some(RegClass::Vec)
        || matches!(inst.op, VReduce | VStore)
    {
        if inst.lanes < 2 || inst.lanes > MAX_VLEN {
            return err(
                "lane-count",
                b,
                i,
                format!("{} has lane count {}, expected 2..={MAX_VLEN}", inst.op, inst.lanes),
            );
        }
    } else if inst.lanes != 1 {
        return err(
            "lane-count",
            b,
            i,
            format!("scalar {} has lane count {}", inst.op, inst.lanes),
        );
    }

    // A memory tag names a declared symbol (the class checks below index
    // the table with it).
    if let (Some(module), Some(mem)) = (m, inst.mem) {
        if mem.sym.0 as usize >= module.symtab.len() {
            return err("mem-tag", b, i, format!("mem tag names undeclared symbol {}", mem.sym));
        }
    }

    match inst.op {
        Mov => {
            let d = inst.dst.ok_or_else(|| VerifyError {
                code: "operand-shape",
                block: b,
                index: i,
                message: "mov without dst".into(),
            })?;
            check_class("mov src", inst.src[0], d.class, b, i)?;
            if d.class == RegClass::Vec {
                return err("class-mismatch", b, i, "mov of a vector register".into());
            }
        }
        Add | Sub | And | Or | Xor | Shl | Shr | Mul | Div | Rem | FAdd | FSub
        | FMul | FDiv => {
            let d = inst.dst.ok_or_else(|| VerifyError {
                code: "operand-shape",
                block: b,
                index: i,
                message: "alu without dst".into(),
            })?;
            let want = inst.op.result_class().unwrap();
            if d.class != want {
                return err("class-mismatch", b, i, format!("dst {d} wrong class for {}", inst.op));
            }
            check_class("src1", inst.src[0], want, b, i)?;
            check_class("src2", inst.src[1], want, b, i)?;
        }
        CvtIF => {
            check_class("cvt src", inst.src[0], RegClass::Int, b, i)?;
            if inst.dst.map(|d| d.class) != Some(RegClass::Flt) {
                return err("class-mismatch", b, i, "cvtif dst must be float".into());
            }
        }
        CvtFI => {
            check_class("cvt src", inst.src[0], RegClass::Flt, b, i)?;
            if inst.dst.map(|d| d.class) != Some(RegClass::Int) {
                return err("class-mismatch", b, i, "cvtfi dst must be int".into());
            }
        }
        Load => {
            let d = inst.dst.ok_or_else(|| VerifyError {
                code: "operand-shape",
                block: b,
                index: i,
                message: "load without dst".into(),
            })?;
            if d.class == RegClass::Vec {
                return err("class-mismatch", b, i, "load into a vector register".into());
            }
            check_class("base", inst.src[0], RegClass::Int, b, i)?;
            check_class("offset", inst.src[1], RegClass::Int, b, i)?;
            let mem = inst.mem.ok_or_else(|| VerifyError {
                code: "mem-tag",
                block: b,
                index: i,
                message: "load without mem tag".into(),
            })?;
            if let Some(module) = m {
                if module.symtab.get(mem.sym).class != d.class {
                    return err("class-mismatch", b, i, format!("load class mismatch for {}", mem.sym));
                }
            }
        }
        Store => {
            check_class("base", inst.src[0], RegClass::Int, b, i)?;
            check_class("offset", inst.src[1], RegClass::Int, b, i)?;
            match inst.src[2].class() {
                None => return err("operand-shape", b, i, "store without value".into()),
                Some(RegClass::Vec) => {
                    return err("class-mismatch", b, i, "store of a vector register".into())
                }
                Some(_) => {}
            }
            let mem = inst.mem.ok_or_else(|| VerifyError {
                code: "mem-tag",
                block: b,
                index: i,
                message: "store without mem tag".into(),
            })?;
            if let (Some(module), Some(c)) = (m, inst.src[2].class()) {
                if module.symtab.get(mem.sym).class != c {
                    return err("class-mismatch", b, i, format!("store class mismatch for {}", mem.sym));
                }
            }
        }
        VAdd | VMul => {
            let d = inst.dst.ok_or_else(|| VerifyError {
                code: "operand-shape",
                block: b,
                index: i,
                message: "vector alu without dst".into(),
            })?;
            if d.class != RegClass::Vec {
                return err("class-mismatch", b, i, format!("dst {d} wrong class for {}", inst.op));
            }
            check_class("src1", inst.src[0], RegClass::Vec, b, i)?;
            check_class("src2", inst.src[1], RegClass::Vec, b, i)?;
        }
        VSplat => {
            if inst.dst.map(|d| d.class) != Some(RegClass::Vec) {
                return err("class-mismatch", b, i, "vsplat dst must be vector".into());
            }
            check_class("splat src", inst.src[0], RegClass::Flt, b, i)?;
        }
        VReduce => {
            if inst.dst.map(|d| d.class) != Some(RegClass::Flt) {
                return err("class-mismatch", b, i, "vreduce dst must be float".into());
            }
            check_class("reduce src", inst.src[0], RegClass::Vec, b, i)?;
        }
        VLoad => {
            let d = inst.dst.ok_or_else(|| VerifyError {
                code: "operand-shape",
                block: b,
                index: i,
                message: "vload without dst".into(),
            })?;
            if d.class != RegClass::Vec {
                return err("class-mismatch", b, i, "vload dst must be vector".into());
            }
            check_class("base", inst.src[0], RegClass::Int, b, i)?;
            check_class("offset", inst.src[1], RegClass::Int, b, i)?;
            let mem = inst.mem.ok_or_else(|| VerifyError {
                code: "mem-tag",
                block: b,
                index: i,
                message: "vload without mem tag".into(),
            })?;
            if mem.width != inst.lanes as u32 {
                return err(
                    "lane-count",
                    b,
                    i,
                    format!("vload tag width {} != lane count {}", mem.width, inst.lanes),
                );
            }
            if let Some(module) = m {
                if module.symtab.get(mem.sym).class != RegClass::Flt {
                    return err("class-mismatch", b, i, format!("vload of non-float {}", mem.sym));
                }
            }
        }
        VStore => {
            check_class("base", inst.src[0], RegClass::Int, b, i)?;
            check_class("offset", inst.src[1], RegClass::Int, b, i)?;
            check_class("store value", inst.src[2], RegClass::Vec, b, i)?;
            let mem = inst.mem.ok_or_else(|| VerifyError {
                code: "mem-tag",
                block: b,
                index: i,
                message: "vstore without mem tag".into(),
            })?;
            if mem.width != inst.lanes as u32 {
                return err(
                    "lane-count",
                    b,
                    i,
                    format!("vstore tag width {} != lane count {}", mem.width, inst.lanes),
                );
            }
            if let Some(module) = m {
                if module.symtab.get(mem.sym).class != RegClass::Flt {
                    return err("class-mismatch", b, i, format!("vstore to non-float {}", mem.sym));
                }
            }
        }
        Br(_) => {
            let c1 = inst.src[0].class();
            let c2 = inst.src[1].class();
            if c1.is_none() || c1 != c2 {
                return err("class-mismatch", b, i, "branch compares mismatched classes".into());
            }
            if c1 == Some(RegClass::Vec) {
                return err("class-mismatch", b, i, "branch compares vector registers".into());
            }
        }
        Jump | Halt | Nop => {}
    }
    Ok(())
}

/// Verify a function (optionally against its module symbol table).
pub fn verify_function(f: &Function, m: Option<&Module>) -> Result<(), VerifyError> {
    for &bid in f.layout_order() {
        let blk = f.block(bid);
        for (i, inst) in blk.insts.iter().enumerate() {
            verify_inst(f, m, bid, i, inst)?;
        }
    }
    // Last block must not fall off the end.
    check_final_block(f)?;
    Ok(())
}

/// The last layout block must end in a control transfer.
fn check_final_block(f: &Function) -> Result<(), VerifyError> {
    if let Some(&last) = f.layout_order().last() {
        if !f.block(last).ends_in_transfer() {
            return err(
                "cfg-fallthrough",
                last,
                f.block(last).insts.len().saturating_sub(1),
                "final layout block falls off the end of the function".into(),
            );
        }
    }
    Ok(())
}

/// Verify a function and collect *every* error instead of stopping at
/// the first — the lint driver wants complete reports, while passes keep
/// the cheap first-error [`verify_function`].
pub fn verify_function_all(f: &Function, m: Option<&Module>) -> Vec<VerifyError> {
    let mut out = Vec::new();
    for &bid in f.layout_order() {
        let blk = f.block(bid);
        for (i, inst) in blk.insts.iter().enumerate() {
            if let Err(e) = verify_inst(f, m, bid, i, inst) {
                out.push(e);
            }
        }
    }
    if let Err(e) = check_final_block(f) {
        out.push(e);
    }
    out
}

/// Verify a module: a runnable one, so its function also needs an entry
/// block (an empty function is well-formed IR for analyses and lints, but
/// there is nothing to execute).
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    if m.func.layout_order().is_empty() {
        return err("no-entry", BlockId(0), 0, "function has no blocks".into());
    }
    let mut placed = vec![false; m.func.num_blocks()];
    for &b in m.func.layout_order() {
        if std::mem::replace(&mut placed[b.0 as usize], true) {
            return err("dup-block", b, 0, format!("{b} appears twice in the layout"));
        }
    }
    verify_function(&m.func, Some(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemLoc;
    use crate::reg::Reg;
    use crate::sym::SymId;

    #[test]
    fn accepts_wellformed() {
        let mut m = Module::new("ok");
        let a = m.symtab.declare("A", 4, RegClass::Flt);
        let b = m.func.add_block("entry");
        let base = m.func.new_reg(RegClass::Int);
        let v = m.func.new_reg(RegClass::Flt);
        let blk = m.func.block_mut(b);
        blk.insts.push(Inst::mov(base, Operand::Sym(a)));
        blk.insts.push(Inst::load(v, base.into(), Operand::ImmI(0), MemLoc::opaque(a)));
        blk.insts.push(Inst::halt());
        verify_module(&m).unwrap();
    }

    /// A module whose function has no blocks has no entry to start from:
    /// rejected, so a consumer that trusts a verified module never indexes
    /// an empty layout.
    #[test]
    fn rejects_function_without_blocks() {
        let m = Module::new("empty");
        assert_eq!(verify_module(&m).unwrap_err().code, "no-entry");
    }

    /// A block listed twice in the layout would run twice per pass over
    /// the layout and make its fall-through ambiguous.
    #[test]
    fn rejects_block_listed_twice_in_layout() {
        let mut m = Module::new("dup");
        let b = m.func.add_block("entry");
        m.func.block_mut(b).insts.push(Inst::halt());
        m.func.layout.push(b);
        let e = verify_module(&m).unwrap_err();
        assert_eq!((e.code, e.block), ("dup-block", b));
    }

    #[test]
    fn rejects_mem_tag_naming_undeclared_symbol() {
        let mut m = Module::new("bad");
        let a = m.symtab.declare("A", 4, RegClass::Flt);
        let b = m.func.add_block("entry");
        let v = m.func.new_reg(RegClass::Flt);
        let tag = MemLoc::opaque(SymId(7));
        m.func.block_mut(b).insts.extend([
            Inst::load(v, Operand::Sym(a), Operand::ImmI(0), tag),
            Inst::store(Operand::Sym(a), Operand::ImmI(1), v.into(), tag),
            Inst::halt(),
        ]);
        assert_eq!(verify_module(&m).unwrap_err().code, "mem-tag");
    }

    #[test]
    fn rejects_class_mismatch() {
        let mut m = Module::new("bad");
        let b = m.func.add_block("entry");
        let rf = m.func.new_reg(RegClass::Flt);
        let ri = m.func.new_reg(RegClass::Int);
        m.func
            .block_mut(b)
            .insts
            .push(Inst::alu(Opcode::Add, ri, rf.into(), Operand::ImmI(1)));
        m.func.block_mut(b).insts.push(Inst::halt());
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_fallthrough_off_end() {
        let mut m = Module::new("bad");
        let b = m.func.add_block("entry");
        let ri = m.func.new_reg(RegClass::Int);
        m.func.block_mut(b).insts.push(Inst::mov(ri, Operand::ImmI(0)));
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_dangling_register() {
        let mut m = Module::new("bad");
        let b = m.func.add_block("entry");
        m.func
            .block_mut(b)
            .insts
            .push(Inst::mov(Reg::int(99), Operand::ImmI(0)));
        m.func.block_mut(b).insts.push(Inst::halt());
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn vector_rules() {
        let mut m = Module::new("vec");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let b = m.func.add_block("entry");
        let base = m.func.new_reg(RegClass::Int);
        let v0 = m.func.new_reg(RegClass::Vec);
        let v1 = m.func.new_reg(RegClass::Vec);
        let s = m.func.new_reg(RegClass::Flt);
        m.func.block_mut(b).insts.extend([
            Inst::mov(base, Operand::Sym(a)),
            Inst::vload(v0, base.into(), Operand::ImmI(0), MemLoc::affine(a, 1, 0), 4),
            Inst::vec_alu(Opcode::VMul, v1, v0.into(), v0.into(), 4),
            Inst::vreduce(s, v1.into(), 4),
            Inst::vstore(base.into(), Operand::ImmI(4), v1.into(), MemLoc::affine(a, 1, 4), 4),
            Inst::halt(),
        ]);
        verify_module(&m).expect("well-formed vector block");

        // Lane count out of range.
        let mut bad = m.clone();
        bad.func.block_mut(b).insts[2].lanes = 16;
        assert_eq!(verify_module(&bad).unwrap_err().code, "lane-count");
        // Tag width out of sync with the lane count.
        let mut bad = m.clone();
        bad.func.block_mut(b).insts[1].lanes = 2;
        assert_eq!(verify_module(&bad).unwrap_err().code, "lane-count");
        // Scalar operand where a vector register is required.
        let mut bad = m.clone();
        bad.func.block_mut(b).insts[2].src[1] = Operand::Reg(s);
        assert_eq!(verify_module(&bad).unwrap_err().code, "class-mismatch");
        // Scalar instructions must keep lanes == 1.
        let mut bad = m.clone();
        bad.func.block_mut(b).insts[0].lanes = 4;
        assert_eq!(verify_module(&bad).unwrap_err().code, "lane-count");
    }

    /// A well-formed module with a loop, a load, a store and a branch —
    /// one eligible site for every structural fault class the
    /// fault-injection engine can produce.
    fn wellformed_loop() -> Module {
        let mut m = Module::new("loop");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let entry = m.func.add_block("entry");
        let body = m.func.add_block("body");
        let exit = m.func.add_block("exit");
        let i = m.func.new_reg(RegClass::Int);
        let s = m.func.new_reg(RegClass::Flt);
        let x = m.func.new_reg(RegClass::Flt);
        m.func.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        m.func.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FAdd, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(crate::op::Cond::Lt, i.into(), Operand::ImmI(8), body),
        ]);
        m.func.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        verify_module(&m).expect("base module must be well-formed");
        m
    }

    /// Every structural corruption the fault injector can produce must be
    /// rejected — each case mirrors one injectable fault class.
    #[test]
    fn rejects_every_injectable_structural_fault() {
        let body = BlockId(1);
        let exit = BlockId(2);
        let cases: Vec<(&str, Box<dyn Fn(&mut Module)>)> = vec![
            // Undefined register use: a use beyond the allocation counter.
            ("undefined int reg use", Box::new(move |m| {
                m.func.block_mut(body).insts[2].src[0] = Operand::Reg(Reg::int(999));
            })),
            ("undefined flt reg def", Box::new(move |m| {
                m.func.block_mut(body).insts[1].dst = Some(Reg::flt(999));
            })),
            // Register-class flips (the `RegClassFlip` fault).
            ("alu dst class flip", Box::new(move |m| {
                let d = m.func.block_mut(body).insts[1].dst.unwrap();
                m.func.block_mut(body).insts[1].dst = Some(Reg { class: RegClass::Int, ..d });
            })),
            ("alu src class flip", Box::new(move |m| {
                m.func.block_mut(body).insts[2].src[1] = Operand::ImmF(1.0);
            })),
            ("load addr class flip", Box::new(move |m| {
                m.func.block_mut(body).insts[0].src[1] = Operand::ImmF(0.0);
            })),
            ("store value class flip", Box::new(move |m| {
                m.func.block_mut(exit).insts[0].src[2] = Operand::ImmI(7);
            })),
            ("mixed-class branch compare", Box::new(move |m| {
                m.func.block_mut(body).insts[3].src[1] = Operand::ImmF(8.0);
            })),
            // Dangling block target (the `DropEdge` fault).
            ("dangling branch target", Box::new(move |m| {
                m.func.block_mut(body).insts[3].target = Some(BlockId(u32::MAX - 1));
            })),
            ("deleted final transfer", Box::new(move |m| {
                m.func.block_mut(exit).insts.pop();
            })),
            // Malformed operand arity.
            ("alu missing operand", Box::new(move |m| {
                m.func.block_mut(body).insts[1].src[1] = Operand::None;
            })),
            ("store missing value", Box::new(move |m| {
                m.func.block_mut(exit).insts[0].src[2] = Operand::None;
            })),
            ("branch without target", Box::new(move |m| {
                m.func.block_mut(body).insts[3].target = None;
            })),
            ("non-branch with target", Box::new(move |m| {
                m.func.block_mut(body).insts[2].target = Some(body);
            })),
            ("mov without dst", Box::new(move |m| {
                m.func.block_mut(BlockId(0)).insts[0].dst = None;
            })),
            // Dropped memory tags (the `AliasTag` drop case).
            ("load without mem tag", Box::new(move |m| {
                m.func.block_mut(body).insts[0].mem = None;
            })),
            ("store without mem tag", Box::new(move |m| {
                m.func.block_mut(exit).insts[0].mem = None;
            })),
            // Load/store symbol class inconsistency.
            ("load symbol class mismatch", Box::new(move |m| {
                let d = m.func.block_mut(body).insts[0].dst.unwrap();
                m.func.block_mut(body).insts[0].dst = Some(Reg { class: RegClass::Int, ..d });
            })),
        ];
        for (name, corrupt) in cases {
            let mut m = wellformed_loop();
            corrupt(&mut m);
            let res = verify_module(&m);
            assert!(res.is_err(), "{name}: corruption slipped past the verifier");
        }
    }

    /// What the simulator cannot run is rejected here, with its code and
    /// coordinates: a symbol operand naming no symbol, a vector register
    /// moved, compared, loaded into or stored as a scalar, and a
    /// destination on an instruction that writes no register.
    #[test]
    fn rejects_what_no_engine_can_execute() {
        fn at(m: &mut Module, b: u32) -> &mut Vec<Inst> {
            &mut m.func.block_mut(BlockId(b)).insts
        }
        let (entry, body, exit) = (BlockId(0), BlockId(1), BlockId(2));
        type Corrupt = fn(&mut Module, Reg);
        let cases: [(Corrupt, &str, BlockId, usize); 9] = [
            (|m, _| at(m, 1)[0].src[0] = Operand::Sym(SymId(9)), "unknown-sym", body, 0),
            (|m, v| at(m, 0)[0] = Inst::mov(v, v.into()), "class-mismatch", entry, 0),
            (|m, v| at(m, 1)[3].src[..2].fill(v.into()), "class-mismatch", body, 3),
            (|m, v| at(m, 1)[0].dst = Some(v), "class-mismatch", body, 0),
            (|m, v| at(m, 2)[0].src[2] = v.into(), "class-mismatch", exit, 0),
            (|m, _| at(m, 2)[0].dst = Some(Reg::int(0)), "operand-shape", exit, 0),
            (|m, _| at(m, 1)[3].dst = Some(Reg::int(0)), "operand-shape", body, 3),
            (|m, _| at(m, 2)[1].dst = Some(Reg::int(0)), "operand-shape", exit, 1),
            (
                |m, _| at(m, 0).push(Inst { dst: Some(Reg::int(0)), ..Inst::jump(BlockId(2)) }),
                "operand-shape",
                entry,
                2,
            ),
        ];
        for (corrupt, code, block, index) in cases {
            let mut m = wellformed_loop();
            let v = m.func.new_reg(RegClass::Vec);
            corrupt(&mut m, v);
            let e = verify_module(&m).unwrap_err();
            assert_eq!((e.code, e.block, e.index), (code, block, index), "{e}");
        }
    }

    /// Verifier errors carry usable coordinates (block + instruction).
    #[test]
    fn error_coordinates_point_at_the_fault() {
        let mut m = wellformed_loop();
        let body = BlockId(1);
        m.func.block_mut(body).insts[3].target = Some(BlockId(u32::MAX - 1));
        let e = verify_module(&m).unwrap_err();
        assert_eq!(e.code, "dangling-target");
        assert_eq!(e.block, body);
        assert_eq!(e.index, 3);
        assert!(e.message.contains("not in layout"), "{e}");
        assert!(e.to_string().contains("inst 3"), "{e}");
    }

    /// `verify_function_all` keeps going past the first error and returns
    /// each one with its own code and coordinates.
    #[test]
    fn collects_every_error() {
        let mut m = wellformed_loop();
        let body = BlockId(1);
        let exit = BlockId(2);
        m.func.block_mut(body).insts[3].target = Some(BlockId(u32::MAX - 1));
        m.func.block_mut(exit).insts[0].mem = None;
        let all = verify_function_all(&m.func, Some(&m));
        assert_eq!(all.len(), 2, "{all:?}");
        assert_eq!(all[0].code, "dangling-target");
        assert_eq!(all[1].code, "mem-tag");
        assert_eq!(all[1].block, exit);
    }
}
