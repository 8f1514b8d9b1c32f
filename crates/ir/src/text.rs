//! Textual serialization of modules: a stable, parseable assembly format.
//!
//! [`serialize`] writes a module with **full fidelity** — memory
//! disambiguation tags, branch probabilities, address displacements and
//! register counters all round-trip through [`parse`]. The `Display`
//! impls stay human-oriented; this format is for tools (the `ilpc` CLI,
//! golden tests, external inspection).
//!
//! ```text
//! .module dotprod
//! .sym A flt 64
//! .sym out flt 1
//! .func dotprod
//! .block B0 entry
//!     mov r0i, #0
//! .block B1 body
//!     ld r0f, @0, r0i, ext=2, tag=0:1:2:0
//!     fadd r1f, r1f, r0f
//!     add r0i, r0i, #1
//!     blt r0i, #64, ->B1, prob=0.98
//! .block B2 exit
//!     st @1, #0, r1f, tag=1:0:0:0
//!     halt
//! ```

use crate::func::{BlockId, Module};
use crate::inst::{Inst, MemLoc, Operand};
use crate::op::{Cond, Opcode};
use crate::reg::{Reg, RegClass};
use crate::sym::SymId;
use std::fmt::Write as _;

/// Most data words (the sum of every `.sym`'s elements) a parsed module may
/// declare: running it allocates them all. Ten times the largest module
/// `ilpc emit` writes at the largest trip-count scale (≈ 3.5 M words).
const MAX_DATA_WORDS: usize = 1 << 25;

/// Largest register id a parsed module may name: decoding allocates every
/// id below it. Far above the ≈ 640 the densest compiled nest uses.
const MAX_REG_ID: u32 = 1 << 20;

/// Largest block id a parsed module may name: parsing allocates every id
/// below it. Far above the ≈ 70 of the largest compiled nest.
const MAX_BLOCK_ID: u32 = 1 << 16;

/// Serialize `m` to the stable text format.
pub fn serialize(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".module {}", m.func.name);
    for (_, s) in m.symtab.iter() {
        let _ = writeln!(out, ".sym {} {} {}", s.name, s.class, s.elems);
    }
    let _ = writeln!(out, ".func {}", m.func.name);
    for &bid in m.func.layout_order() {
        let b = m.func.block(bid);
        let label = if b.label.is_empty() { "-" } else { &b.label };
        let _ = writeln!(out, ".block B{} {}", bid.0, label);
        for inst in &b.insts {
            let _ = writeln!(out, "    {}", inst_to_text(inst));
        }
    }
    out
}

fn operand_to_text(o: Operand) -> String {
    match o {
        Operand::None => "_".to_string(),
        Operand::Reg(r) => format!("{r}"),
        Operand::ImmI(v) => format!("#{v}"),
        // Bit-exact float round-trip via hexadecimal bits.
        Operand::ImmF(v) => format!("#f{:016x}", v.to_bits()),
        Operand::Sym(s) => format!("@{}", s.0),
    }
}

fn mnemonic(op: Opcode) -> &'static str {
    match op {
        Opcode::Load => "ld",
        Opcode::Store => "st",
        other => other.mnemonic(),
    }
}

fn inst_to_text(i: &Inst) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}", mnemonic(i.op));
    let mut operands: Vec<String> = Vec::new();
    if let Some(d) = i.dst {
        operands.push(format!("{d}"));
    }
    for o in i.src {
        if o.is_some() {
            operands.push(operand_to_text(o));
        }
    }
    if let Some(t) = i.target {
        operands.push(format!("->B{}", t.0));
    }
    if !operands.is_empty() {
        let _ = write!(s, " {}", operands.join(", "));
    }
    if i.ext != 0 {
        let _ = write!(s, ", ext={}", i.ext);
    }
    if i.lanes != 1 {
        let _ = write!(s, ", lanes={}", i.lanes);
    }
    if let Some(m) = i.mem {
        match m.lin {
            Some((c, o)) => {
                let _ = write!(s, ", tag={}:{}:{}:{}", m.sym.0, c, o, m.outer);
                if m.width != 1 {
                    let _ = write!(s, ":{}", m.width);
                }
            }
            None => {
                let _ = write!(s, ", tag={}:?", m.sym.0);
                if m.width != 1 {
                    let _ = write!(s, ":{}", m.width);
                }
            }
        }
    }
    if i.op.is_branch() && matches!(i.op, Opcode::Br(_)) {
        let _ = write!(s, ", prob={}", i.prob);
    }
    s
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, ParseError> {
    if tok == "_" {
        return Ok(Operand::None);
    }
    if let Some(rest) = tok.strip_prefix('@') {
        let id: u32 = rest
            .parse()
            .map_err(|_| ParseError { line, message: format!("bad symbol {tok}") })?;
        return Ok(Operand::Sym(SymId(id)));
    }
    if let Some(rest) = tok.strip_prefix("#f") {
        let bits = u64::from_str_radix(rest, 16)
            .map_err(|_| ParseError { line, message: format!("bad float {tok}") })?;
        return Ok(Operand::ImmF(f64::from_bits(bits)));
    }
    if let Some(rest) = tok.strip_prefix('#') {
        let v: i64 = rest
            .parse()
            .map_err(|_| ParseError { line, message: format!("bad imm {tok}") })?;
        return Ok(Operand::ImmI(v));
    }
    parse_reg(tok, line).map(Operand::Reg)
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let body = tok
        .strip_prefix('r')
        .ok_or_else(|| ParseError { line, message: format!("bad register {tok}") })?;
    let (digits, class) = match body.chars().last() {
        Some('i') => (&body[..body.len() - 1], RegClass::Int),
        Some('f') => (&body[..body.len() - 1], RegClass::Flt),
        Some('v') => (&body[..body.len() - 1], RegClass::Vec),
        _ => return err(line, format!("bad register class in {tok}")),
    };
    let id: u32 = digits
        .parse()
        .map_err(|_| ParseError { line, message: format!("bad register id {tok}") })?;
    if id > MAX_REG_ID {
        return err(line, format!("register id {tok} exceeds {MAX_REG_ID}"));
    }
    Ok(Reg { id, class })
}

fn opcode_of(mn: &str, line: usize) -> Result<Opcode, ParseError> {
    Ok(match mn {
        "mov" => Opcode::Mov,
        "add" => Opcode::Add,
        "sub" => Opcode::Sub,
        "and" => Opcode::And,
        "or" => Opcode::Or,
        "xor" => Opcode::Xor,
        "shl" => Opcode::Shl,
        "shr" => Opcode::Shr,
        "mul" => Opcode::Mul,
        "div" => Opcode::Div,
        "rem" => Opcode::Rem,
        "fadd" => Opcode::FAdd,
        "fsub" => Opcode::FSub,
        "fmul" => Opcode::FMul,
        "fdiv" => Opcode::FDiv,
        "cvtif" => Opcode::CvtIF,
        "cvtfi" => Opcode::CvtFI,
        "ld" => Opcode::Load,
        "st" => Opcode::Store,
        "vadd" => Opcode::VAdd,
        "vmul" => Opcode::VMul,
        "vsplat" => Opcode::VSplat,
        "vreduce" => Opcode::VReduce,
        "vld" => Opcode::VLoad,
        "vst" => Opcode::VStore,
        "beq" => Opcode::Br(Cond::Eq),
        "bne" => Opcode::Br(Cond::Ne),
        "blt" => Opcode::Br(Cond::Lt),
        "ble" => Opcode::Br(Cond::Le),
        "bgt" => Opcode::Br(Cond::Gt),
        "bge" => Opcode::Br(Cond::Ge),
        "jmp" => Opcode::Jump,
        "halt" => Opcode::Halt,
        "nop" => Opcode::Nop,
        other => return err(line, format!("unknown opcode {other}")),
    })
}

fn parse_inst(text: &str, line: usize) -> Result<Inst, ParseError> {
    let (mn, rest) = match text.split_once(' ') {
        Some((a, b)) => (a, b.trim()),
        None => (text.trim(), ""),
    };
    let op = opcode_of(mn, line)?;
    let mut inst = Inst::new(op);

    let mut plain: Vec<&str> = Vec::new();
    for tok in rest.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if let Some(v) = tok.strip_prefix("ext=") {
            inst.ext = v
                .parse()
                .map_err(|_| ParseError { line, message: format!("bad ext {v}") })?;
        } else if let Some(v) = tok.strip_prefix("lanes=") {
            inst.lanes = v
                .parse()
                .map_err(|_| ParseError { line, message: format!("bad lanes {v}") })?;
        } else if let Some(v) = tok.strip_prefix("prob=") {
            inst.prob = v
                .parse()
                .map_err(|_| ParseError { line, message: format!("bad prob {v}") })?;
        } else if let Some(v) = tok.strip_prefix("tag=") {
            let parts: Vec<&str> = v.split(':').collect();
            let sym = SymId(parts[0].parse().map_err(|_| ParseError {
                line,
                message: format!("bad tag {v}"),
            })?);
            inst.mem = Some(if parts.len() >= 2 && parts[1] == "?" {
                let mut loc = MemLoc::opaque(sym);
                if parts.len() == 3 {
                    loc = loc.with_width(parts[2].parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad tag {v}"),
                    })?);
                } else if parts.len() > 3 {
                    return err(line, format!("bad tag {v}"));
                }
                loc
            } else if parts.len() == 4 || parts.len() == 5 {
                let get = |k: usize| -> Result<i64, ParseError> {
                    parts[k].parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad tag {v}"),
                    })
                };
                let mut loc = MemLoc::affine_outer(
                    sym,
                    get(1)?,
                    get(2)?,
                    parts[3].parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad tag {v}"),
                    })?,
                );
                if parts.len() == 5 {
                    loc = loc.with_width(parts[4].parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad tag {v}"),
                    })?);
                }
                loc
            } else {
                return err(line, format!("bad tag {v}"));
            });
        } else if let Some(t) = tok.strip_prefix("->B") {
            inst.target = Some(BlockId(t.parse().map_err(|_| ParseError {
                line,
                message: format!("bad target {tok}"),
            })?));
        } else {
            plain.push(tok);
        }
    }

    // Distribute plain operands by opcode shape.
    let has_dst = matches!(
        op,
        Opcode::Mov
            | Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::Mul
            | Opcode::Div
            | Opcode::Rem
            | Opcode::FAdd
            | Opcode::FSub
            | Opcode::FMul
            | Opcode::FDiv
            | Opcode::CvtIF
            | Opcode::CvtFI
            | Opcode::Load
            | Opcode::VAdd
            | Opcode::VMul
            | Opcode::VSplat
            | Opcode::VReduce
            | Opcode::VLoad
    );
    let mut it = plain.into_iter();
    if has_dst {
        let tok = it
            .next()
            .ok_or_else(|| ParseError { line, message: "missing dst".into() })?;
        inst.dst = Some(parse_reg(tok, line)?);
    }
    for slot in 0..3 {
        match it.next() {
            Some(tok) => inst.src[slot] = parse_operand(tok, line)?,
            None => break,
        }
    }
    if it.next().is_some() {
        return err(line, "too many operands");
    }
    Ok(inst)
}

/// Parse the stable text format back into a module.
pub fn parse(text: &str) -> Result<Module, ParseError> {
    let mut module: Option<Module> = None;
    // Blocks may be declared in any id order; remember (id, label, insts).
    let mut blocks: Vec<(u32, String, Vec<Inst>)> = Vec::new();
    let mut data_words = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let content = raw.split(';').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if let Some(rest) = content.strip_prefix(".module") {
            module = Some(Module::new(rest.trim()));
        } else if let Some(rest) = content.strip_prefix(".sym") {
            let m = module
                .as_mut()
                .ok_or_else(|| ParseError { line, message: ".sym before .module".into() })?;
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 {
                return err(line, "expected `.sym name class elems`");
            }
            let class = match parts[1] {
                "int" => RegClass::Int,
                "flt" => RegClass::Flt,
                other => return err(line, format!("bad class {other}")),
            };
            let elems: usize = parts[2]
                .parse()
                .map_err(|_| ParseError { line, message: "bad elems".into() })?;
            data_words = data_words.saturating_add(elems);
            if data_words > MAX_DATA_WORDS {
                return err(line, format!("symbols exceed {MAX_DATA_WORDS} data words"));
            }
            m.symtab.declare(parts[0], elems, class);
        } else if let Some(rest) = content.strip_prefix(".func") {
            let m = module
                .as_mut()
                .ok_or_else(|| ParseError { line, message: ".func before .module".into() })?;
            m.func.name = rest.trim().to_string();
        } else if let Some(rest) = content.strip_prefix(".block") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.is_empty() {
                return err(line, "expected `.block Bn [label]`");
            }
            let id: u32 = parts[0]
                .strip_prefix('B')
                .and_then(|d| d.parse().ok())
                .filter(|&id| id <= MAX_BLOCK_ID)
                .ok_or_else(|| ParseError { line, message: "bad block id".into() })?;
            let label = parts.get(1).copied().unwrap_or("-").to_string();
            blocks.push((id, label, Vec::new()));
        } else {
            let (_, _, insts) = blocks
                .last_mut()
                .ok_or_else(|| ParseError { line, message: "instruction before .block".into() })?;
            insts.push(parse_inst(content, line)?);
        }
    }

    let mut m = module.ok_or_else(|| ParseError { line: 0, message: "no .module".into() })?;
    // Allocate block storage for the densest id, then fill layout order.
    let max_id = blocks.iter().map(|(id, _, _)| *id).max().unwrap_or(0);
    for _ in 0..=max_id {
        m.func.add_block_detached("");
    }
    m.func.layout.clear();
    let mut regs = [0u32; 3];
    for (id, label, insts) in blocks {
        for i in &insts {
            for r in i.uses().chain(i.def()) {
                regs[r.class.index()] = regs[r.class.index()].max(r.id + 1);
            }
        }
        let bid = BlockId(id);
        m.func.block_mut(bid).label = label;
        m.func.block_mut(bid).insts = insts;
        m.func.layout.push(bid);
    }
    // Materialize register counters.
    while m.func.vreg_count(RegClass::Int) < regs[0] {
        m.func.new_reg(RegClass::Int);
    }
    while m.func.vreg_count(RegClass::Flt) < regs[1] {
        m.func.new_reg(RegClass::Flt);
    }
    while m.func.vreg_count(RegClass::Vec) < regs[2] {
        m.func.new_reg(RegClass::Vec);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    fn sample_module() -> Module {
        let mut m = Module::new("dot");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let x = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.5)),
        ]);
        let mut ld = Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0));
        ld.ext = 2;
        let mut br = Inst::br(Cond::Lt, i.into(), Operand::ImmI(6), body);
        br.prob = 0.75;
        f.block_mut(body).insts.extend([
            ld,
            Inst::alu(Opcode::FAdd, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            br,
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        m
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = sample_module();
        let text = serialize(&m);
        let back = parse(&text).unwrap();
        verify_module(&back).unwrap();
        // Same symbols.
        assert_eq!(m.symtab.len(), back.symtab.len());
        for (id, s) in m.symtab.iter() {
            let b = back.symtab.get(id);
            assert_eq!((&s.name, s.elems, s.class), (&b.name, b.elems, b.class));
        }
        // Same layout and instructions (including tags, ext, prob).
        assert_eq!(m.func.layout_order(), back.func.layout_order());
        for &bid in m.func.layout_order() {
            let x = &m.func.block(bid).insts;
            let y = &back.func.block(bid).insts;
            assert_eq!(x, y, "block {bid}");
        }
        // Serialization is a fixpoint.
        assert_eq!(text, serialize(&back));
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.1f64, -3.2, f64::MIN_POSITIVE, 1e300, -0.0] {
            let tok = operand_to_text(Operand::ImmF(v));
            match parse_operand(&tok, 0).unwrap() {
                Operand::ImmF(w) => assert_eq!(v.to_bits(), w.to_bits()),
                o => panic!("{o:?}"),
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = ".module x\n.func x\n.block B0 b\n    frobnicate r0i\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("frobnicate"));
    }

    /// A symbol size that running the module could not allocate is a
    /// parse error, not an abort. The bound is on the module's total: a
    /// symbol at the bound plus any other exceeds it.
    #[test]
    fn oversized_symbol_is_a_parse_error() {
        for elems in ["99999999999999".to_string(), MAX_DATA_WORDS.to_string()] {
            let syms = format!(".module x\n.sym A flt 8\n.sym B flt {elems}\n");
            let text = syms + ".func x\n.block B0 b\n    halt\n";
            let e = parse(&text).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            assert!(e.message.contains("data words"), "{e}");
        }
    }

    /// So is a register id decoding could not allocate a file for.
    #[test]
    fn oversized_register_id_is_a_parse_error() {
        let text = ".module x\n.func x\n.block B0 b\n    mov r4000000000f, #f0\n    halt\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("r4000000000f exceeds"), "{e}");
    }

    /// And a block id parsing could not allocate every block below.
    #[test]
    fn oversized_block_id_is_a_parse_error() {
        let e = parse(".module x\n.func x\n.block B4000000000 b\n    halt\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "bad block id"));
    }

    #[test]
    fn vector_insts_roundtrip() {
        let mut m = Module::new("v");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let f = &mut m.func;
        let base = f.new_reg(RegClass::Int);
        let v0 = f.new_reg(RegClass::Vec);
        let v1 = f.new_reg(RegClass::Vec);
        let s = f.new_reg(RegClass::Flt);
        let b = f.add_block("b");
        f.block_mut(b).insts.extend([
            Inst::mov(base, Operand::Sym(a)),
            Inst::vload(v0, base.into(), Operand::ImmI(0), MemLoc::affine(a, 1, 0), 4),
            Inst::vsplat(v1, Operand::ImmF(2.0), 4),
            Inst::vec_alu(Opcode::VMul, v0, v0.into(), v1.into(), 4),
            Inst::vreduce(s, v0.into(), 4),
            Inst::vstore(base.into(), Operand::ImmI(8), v0.into(), MemLoc::affine(a, 1, 8), 4),
            Inst::halt(),
        ]);
        let text = serialize(&m);
        let back = parse(&text).unwrap();
        verify_module(&back).unwrap();
        assert_eq!(m.func.block(b).insts, back.func.block(b).insts);
        assert_eq!(text, serialize(&back));
    }

    #[test]
    fn opaque_tags_roundtrip() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 4, RegClass::Flt);
        let f = &mut m.func;
        let x = f.new_reg(RegClass::Flt);
        let b = f.add_block("b");
        f.block_mut(b).insts.extend([
            Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::opaque(a)),
            Inst::halt(),
        ]);
        let back = parse(&serialize(&m)).unwrap();
        assert_eq!(
            back.func.block(b).insts[0].mem,
            Some(MemLoc::opaque(a))
        );
    }
}
