//! # ilpc-vec — superword-level parallelism (SLP) packing
//!
//! The Lev1–Lev4 ladder (unroll, rename, expand) manufactures exactly the
//! isomorphic, independent statement groups that SLP vectorization wants:
//! an 8×-unrolled DOALL body is eight copies of the same statement over
//! consecutive array elements, and accumulator expansion turns a reduction
//! into independent per-copy accumulators. This crate packs those groups
//! into the IR's vector opcodes (`vld`/`vst`/`vadd`/`vmul`/`vsplat`/
//! `vreduce`), following the bottom-up seed-and-extend scheme of goSLP:
//!
//! 1. **Seeds** are groups of `vlen` adjacent loads: same symbol, affine
//!    stride and outer-loop fingerprint in the alias tag, with the tag
//!    displacement increasing by exactly one element per lane. Renaming
//!    and induction expansion give each unrolled copy its own index
//!    register, so adjacency is proven from the displacement metadata
//!    (the same metadata the list scheduler trusts to reorder memory
//!    operations); the emitted vector access carries lane 0's address
//!    operands.
//! 2. **Extension** follows def-use chains: the consumers of a pack's
//!    lanes become candidate packs when they are isomorphic
//!    (`fadd`/`fmul`), lane-aligned, and their remaining operands are
//!    either another pack's lanes in order or a single loop-invariant
//!    operand (realized with `vsplat`). A load feeding several chains
//!    spawns one candidate per lane-aligned use group; the load pack
//!    commits only if *every* group commits.
//! 3. **Terminals** are adjacent-store packs (sunk to the last member) and
//!    uniform-constant accumulator recurrences, which become a vector
//!    accumulator: `vsplat` in the preheader, `vadd` in the loop, and a
//!    `vreduce` folded into the existing scalar reduction chain in the
//!    exit block.
//!
//! ## Pack legality contract
//!
//! A candidate pack is committed only when all of the following hold,
//! otherwise every member stays scalar (scalar fallback — packs never
//! partially commit):
//!
//! * members are distinct, same-opcode instructions of one block, with
//!   pairwise-distinct destinations, each destination defined exactly
//!   once; every use of a destination is the lane-aligned member of a
//!   committed consumer pack (ALU lanes must be single-use; load lanes
//!   may feed one committed pack per use);
//! * no may-aliasing memory write (for loads, which hoist to the first
//!   member) or any may-aliasing access (for stores, which sink to the
//!   last member) sits between the first and last member;
//! * no control transfer sits between the first and last member, and no
//!   operand register is redefined there (a shared operand must read the
//!   same value at every lane);
//! * accumulator packs additionally require the uniform `mov aK, #c`
//!   initializers to share one predecessor block and every `aK` to be
//!   consumed exactly once more, as `t = t + aK` links of one reduction
//!   chain in the loop's unique exit block.
//!
//! The pass is a no-op for `vlen <= 1`, which keeps Lev6 at VLEN=1
//! bit-identical to Lev4.

#![forbid(unsafe_code)]

use ilpc_ir::inst::{Inst, MAX_VLEN};
use ilpc_ir::{BlockId, Module, Opcode, Operand, Reg, RegClass};
use std::collections::HashMap;

/// What the pass did, for `TransformReport` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlpReport {
    /// Committed packs (vector instructions emitted, splats excluded).
    pub packs_formed: usize,
    /// Scalar instructions replaced by pack members.
    pub stmts_vectorized: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneOperand {
    /// The operand is lane `k` of this pack, for every lane `k`.
    Pack(usize),
    /// The operand is this same (loop-invariant) scalar at every lane.
    Splat(Operand),
}

#[derive(Debug, Clone, PartialEq)]
enum PackKind {
    Load,
    Alu { op: Opcode, operands: [LaneOperand; 2] },
    /// `aK = aK + xK` recurrences over a uniform-constant init.
    Accum {
        x: LaneOperand,
        /// `mov aK, #c` sites (lane order) in the preheader.
        init_block: BlockId,
        init_positions: Vec<usize>,
        init_const: Operand,
        /// `t = t + aK` sites (lane order) in the exit block.
        chain_block: BlockId,
        chain_positions: Vec<usize>,
        chain_var: Reg,
    },
    Store { value: LaneOperand },
}

#[derive(Debug, Clone)]
struct Pack {
    kind: PackKind,
    block: BlockId,
    /// Member positions in the block, lane order (lane 0 first).
    members: Vec<usize>,
}

/// Pack isomorphic independent statement groups into vector instructions.
/// `vlen` is the target lane count; values `<= 1` disable the pass.
pub fn slp_vectorize(m: &mut Module, vlen: u32) -> SlpReport {
    let lanes = vlen.min(MAX_VLEN as u32) as usize;
    if lanes < 2 {
        return SlpReport::default();
    }

    // Whole-function def/use site maps; the single-def/single-use legality
    // rules make liveness queries unnecessary.
    let mut def_sites: HashMap<Reg, Vec<(BlockId, usize)>> = HashMap::new();
    let mut use_sites: HashMap<Reg, Vec<(BlockId, usize)>> = HashMap::new();
    for &b in m.func.layout_order() {
        for (i, inst) in m.func.block(b).insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                def_sites.entry(d).or_default().push((b, i));
            }
            for u in inst.uses() {
                let v = use_sites.entry(u).or_default();
                // An instruction using a register twice is one use site.
                if v.last() != Some(&(b, i)) {
                    v.push((b, i));
                }
            }
        }
    }

    let preds = m.func.preds();
    let mut packs: Vec<Pack> = Vec::new();
    // resolvers[p] = packs that consume pack p's lanes as an operand.
    let mut resolvers: Vec<Vec<usize>> = Vec::new();

    let blocks: Vec<BlockId> = m.func.layout_order().to_vec();
    for &bid in &blocks {
        form_block_packs(
            &m.func,
            bid,
            lanes,
            &def_sites,
            &use_sites,
            &preds,
            &mut packs,
            &mut resolvers,
        );
    }

    // Closure pruning: a Load/Alu pack survives only if *every* use of
    // every lane result is absorbed, lane-aligned, by a committed pack
    // (the scalar definitions are deleted on commit), and any pack whose
    // lane operand comes from a dead pack dies with it.
    let mut ok = vec![true; packs.len()];
    loop {
        let mut changed = false;
        // Lane destinations of every still-committed pack: a splat may not
        // read one (the defining scalar instruction is about to vanish).
        let packed_dsts: Vec<Reg> = packs
            .iter()
            .enumerate()
            .filter(|&(q, _)| ok[q])
            .flat_map(|(_, pk)| lane_dsts(&m.func, pk))
            .collect();
        for p in 0..packs.len() {
            if !ok[p] {
                continue;
            }
            let needs_consumer = matches!(packs[p].kind, PackKind::Load | PackKind::Alu { .. });
            let covered = !needs_consumer
                || lane_dsts(&m.func, &packs[p]).iter().enumerate().all(|(k, d)| {
                    use_sites.get(d).is_none_or(|sites| {
                        sites.iter().all(|&(b, u)| {
                            resolvers[p].iter().any(|&r| {
                                ok[r] && packs[r].block == b && packs[r].members.get(k) == Some(&u)
                            })
                        })
                    })
                });
            if !covered {
                ok[p] = false;
                changed = true;
                continue;
            }
            let mut operands_ok = true;
            for lo in pack_operands(&packs[p].kind) {
                match lo {
                    LaneOperand::Pack(q) => operands_ok &= ok[q],
                    LaneOperand::Splat(Operand::Reg(r)) => {
                        operands_ok &= !packed_dsts.contains(&r)
                    }
                    LaneOperand::Splat(_) => {}
                }
            }
            if !operands_ok {
                ok[p] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let committed: Vec<usize> = (0..packs.len()).filter(|&p| ok[p]).collect();
    if committed.is_empty() {
        return SlpReport::default();
    }
    let report = SlpReport {
        packs_formed: committed.len(),
        stmts_vectorized: committed.iter().map(|&p| packs[p].members.len()).sum(),
    };

    rewrite(m, &packs, &committed, lanes as u8);
    report
}

fn pack_operands(kind: &PackKind) -> Vec<LaneOperand> {
    match kind {
        PackKind::Load => Vec::new(),
        PackKind::Alu { operands, .. } => operands.to_vec(),
        PackKind::Accum { x, .. } => vec![*x],
        PackKind::Store { value } => vec![*value],
    }
}

fn lane_dsts(f: &ilpc_ir::Function, p: &Pack) -> Vec<Reg> {
    p.members
        .iter()
        .filter_map(|&i| f.block(p.block).insts[i].dst)
        .collect()
}

/// Any control transfer strictly between `lo` and `hi`?
fn control_between(insts: &[Inst], lo: usize, hi: usize) -> bool {
    insts[lo + 1..hi].iter().any(|i| i.op.is_control())
}

/// Any redefinition of `regs` strictly between `lo` and `hi`?
fn defs_between(insts: &[Inst], lo: usize, hi: usize, regs: &[Reg]) -> bool {
    insts[lo + 1..hi]
        .iter()
        .any(|i| i.def().is_some_and(|d| regs.contains(&d)))
}

fn operand_regs(inst: &Inst, skip_value: bool) -> Vec<Reg> {
    let take = if skip_value { 2 } else { inst.src.len() };
    inst.src[..take]
        .iter()
        .filter_map(|o| o.reg())
        .collect()
}

/// Form every pack rooted in block `bid`: load seeds, then their transitive
/// consumers (ALU, accumulator, store packs).
#[allow(clippy::too_many_arguments)]
fn form_block_packs(
    f: &ilpc_ir::Function,
    bid: BlockId,
    lanes: usize,
    def_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    use_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    preds: &[Vec<BlockId>],
    packs: &mut Vec<Pack>,
    resolvers: &mut Vec<Vec<usize>>,
) {
    let insts = &f.block(bid).insts;

    // --- load seeds -------------------------------------------------------
    // Group by the alias tag's (symbol, stride, outer fingerprint); within
    // a group, lanes are consecutive tag-displacement runs. The tag is the
    // same displacement metadata the list scheduler already trusts to
    // reorder memory operations, so it proves adjacency even when renaming
    // and induction expansion gave every unrolled iteration its own index
    // register (the emitted vector load takes lane 0's address operands).
    let mut groups: Vec<(Inst, Vec<usize>)> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        let packable = inst.op == Opcode::Load
            && inst.dst.is_some_and(|d| d.class == RegClass::Flt)
            && inst.mem.is_some_and(|t| t.lin.is_some());
        if !packable {
            continue;
        }
        let key = |a: &Inst, b: &Inst| {
            let (ta, tb) = (a.mem.unwrap(), b.mem.unwrap());
            ta.sym == tb.sym
                && ta.lin.unwrap().0 == tb.lin.unwrap().0
                && ta.outer == tb.outer
        };
        match groups.iter_mut().find(|(proto, _)| key(proto, inst)) {
            Some((_, members)) => members.push(i),
            None => groups.push((inst.clone(), vec![i])),
        }
    }
    let mut seeded: Vec<usize> = Vec::new();
    for (_, mut members) in groups {
        members.sort_by_key(|&i| insts[i].mem.unwrap().lin.unwrap().1);
        // Split into maximal consecutive runs, then chunk each run.
        let mut run: Vec<usize> = Vec::new();
        let mut flush = |run: &mut Vec<usize>, seeded: &mut Vec<usize>| {
            for chunk in run.chunks_exact(lanes) {
                if let Some(p) = try_load_pack(f, bid, chunk, def_sites) {
                    packs.push(p);
                    resolvers.push(Vec::new());
                    seeded.push(packs.len() - 1);
                }
            }
            run.clear();
        };
        for &i in &members {
            let adjacent = run.last().is_some_and(|&prev| {
                let (a, b) = (&insts[prev], &insts[i]);
                b.mem.unwrap().lin.unwrap().1 == a.mem.unwrap().lin.unwrap().1 + 1
            });
            if !adjacent {
                flush(&mut run, &mut seeded);
            }
            run.push(i);
        }
        flush(&mut run, &mut seeded);
    }

    // --- extend: consumers of existing packs ------------------------------
    // One candidate pack per lane-aligned use group. Two producers feeding
    // the same group would form it twice (once per frontier pop); the
    // member list identifies a group, so formed groups are tried once.
    let mut formed: HashMap<Vec<usize>, ()> =
        packs.iter().map(|p| (p.members.clone(), ())).collect();
    let mut frontier = seeded;
    while let Some(pi) = frontier.pop() {
        let Some(groups) = use_groups(f, &packs[pi], use_sites) else { continue };
        for positions in groups {
            if formed.contains_key(&positions) {
                continue;
            }
            if let Some(c) = try_consumer_pack(f, pi, packs, &positions, def_sites, use_sites, preds)
            {
                formed.insert(c.members.clone(), ());
                packs.push(c);
                resolvers.push(Vec::new());
                let ci = packs.len() - 1;
                for lo in pack_operands(&packs[ci].kind) {
                    if let LaneOperand::Pack(q) = lo {
                        resolvers[q].push(ci);
                    }
                }
                frontier.push(ci);
            }
        }
    }
}

/// Lane-aligned use groups of a value pack: every lane destination must
/// have the same number of in-block uses, all after its own definition;
/// group `j` is the `j`-th use of each lane in position order. ALU lanes
/// are restricted to a single use (multi-use support targets loads shared
/// by several expression chains).
fn use_groups(
    f: &ilpc_ir::Function,
    p: &Pack,
    use_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
) -> Option<Vec<Vec<usize>>> {
    let bid = p.block;
    let dsts = lane_dsts(f, p);
    // Terminal packs (stores) produce no lanes to consume.
    if dsts.len() != p.members.len() {
        return None;
    }
    let max_uses = match p.kind {
        PackKind::Load => usize::MAX,
        _ => 1,
    };
    let mut per_lane: Vec<Vec<usize>> = Vec::with_capacity(dsts.len());
    for (lane, d) in dsts.iter().enumerate() {
        let sites = use_sites.get(d)?;
        if sites.is_empty() || sites.len() > max_uses {
            return None;
        }
        let mut us = Vec::with_capacity(sites.len());
        for &(b, u) in sites {
            // A use in another block, or positioned before its lane's def
            // (a loop-carried read of the previous iteration's value),
            // cannot be lane-aligned with this pack.
            if b != bid || u <= p.members[lane] {
                return None;
            }
            us.push(u);
        }
        us.sort_unstable();
        if per_lane.last().is_some_and(|prev: &Vec<usize>| prev.len() != us.len()) {
            return None;
        }
        per_lane.push(us);
    }
    let n = per_lane[0].len();
    Some((0..n).map(|j| per_lane.iter().map(|us| us[j]).collect()).collect())
}

/// Validate a chunk of adjacent loads as a pack (hoisted to the first
/// member's position).
fn try_load_pack(
    f: &ilpc_ir::Function,
    bid: BlockId,
    chunk: &[usize],
    def_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
) -> Option<Pack> {
    let insts = &f.block(bid).insts;
    // `chunk` is ordered by displacement, which need not match block
    // position order; the hoist range is positional.
    let (lo, hi) = (*chunk.iter().min().unwrap(), *chunk.iter().max().unwrap());
    let dsts: Vec<Reg> = chunk.iter().map(|&i| insts[i].dst.unwrap()).collect();
    let distinct = dsts.iter().all(|d| dsts.iter().filter(|x| *x == d).count() == 1);
    let single_def = dsts.iter().all(|d| def_sites.get(d).is_some_and(|s| s.len() == 1));
    if !distinct || !single_def {
        return None;
    }
    if control_between(insts, lo, hi)
        || defs_between(insts, lo, hi, &operand_regs(&insts[chunk[0]], false))
    {
        return None;
    }
    // Hoisting every member to `lo` may not cross an aliasing store.
    let crosses_store = insts[lo + 1..hi].iter().any(|mid| {
        mid.op.is_mem_write()
            && chunk.iter().any(|&i| match (mid.mem, insts[i].mem) {
                (Some(a), Some(b)) => a.may_alias(&b),
                _ => true,
            })
    });
    if crosses_store {
        return None;
    }
    Some(Pack { kind: PackKind::Load, block: bid, members: chunk.to_vec() })
}

/// Try to form the pack consuming one lane-aligned use group of
/// `packs[pi]`: distinct positions, isomorphic opcode.
#[allow(clippy::too_many_arguments)]
fn try_consumer_pack(
    f: &ilpc_ir::Function,
    pi: usize,
    packs: &[Pack],
    positions: &[usize],
    def_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    use_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    preds: &[Vec<BlockId>],
) -> Option<Pack> {
    let p = &packs[pi];
    let bid = p.block;
    let insts = &f.block(bid).insts;
    let dsts = lane_dsts(f, p);

    let distinct = positions.iter().all(|a| positions.iter().filter(|b| *b == a).count() == 1);
    if !distinct {
        return None;
    }
    let op = insts[positions[0]].op;
    if positions.iter().any(|&u| insts[u].op != op) {
        return None;
    }

    match op {
        Opcode::FAdd | Opcode::FMul => {
            try_alu_pack(f, pi, packs, positions, def_sites, use_sites, preds)
        }
        Opcode::Store => try_store_pack(f, pi, packs, positions, &dsts),
        _ => None,
    }
}

/// Resolve one operand position of a candidate group to a lane operand:
/// the lanes of an existing pack, or a uniform (splattable) scalar.
fn resolve_lane_operand(
    f: &ilpc_ir::Function,
    bid: BlockId,
    positions: &[usize],
    idx: usize,
    packs: &[Pack],
    use_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
) -> Option<LaneOperand> {
    let insts = &f.block(bid).insts;
    let ops: Vec<Operand> = positions.iter().map(|&u| insts[u].src[idx]).collect();
    // Lane results of an existing pack, in order? This position must be a
    // recorded use of each lane (the closure pass separately proves that
    // *every* use of every lane ends up inside some committed pack before
    // the producer's scalar definitions may be deleted).
    for (q, pk) in packs.iter().enumerate() {
        if pk.block != bid || matches!(pk.kind, PackKind::Store { .. }) {
            continue;
        }
        let qd = lane_dsts(f, pk);
        if qd.len() == ops.len()
            && ops.iter().zip(&qd).all(|(o, d)| *o == Operand::Reg(*d))
            && qd.iter().zip(positions).all(|(d, &u)| {
                use_sites.get(d).is_some_and(|s| s.contains(&(bid, u)))
            })
        {
            return Some(LaneOperand::Pack(q));
        }
    }
    // Uniform scalar?
    if ops.iter().all(|o| *o == ops[0]) {
        let (lo, hi) = (*positions.iter().min().unwrap(), *positions.iter().max().unwrap());
        if let Some(r) = ops[0].reg() {
            // The shared register must hold one value across all members.
            if defs_between(insts, lo, hi, &[r]) || positions.iter().any(|&u| insts[u].dst == Some(r)) {
                return None;
            }
        }
        return Some(LaneOperand::Splat(ops[0]));
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn try_alu_pack(
    f: &ilpc_ir::Function,
    pi: usize,
    packs: &[Pack],
    positions: &[usize],
    def_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    use_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    preds: &[Vec<BlockId>],
) -> Option<Pack> {
    let bid = packs[pi].block;
    let insts = &f.block(bid).insts;
    let (lo, hi) = (*positions.iter().min().unwrap(), *positions.iter().max().unwrap());
    let op = insts[positions[0]].op;
    let dsts: Vec<Reg> = positions.iter().map(|&u| insts[u].dst).collect::<Option<_>>()?;
    let distinct = dsts.iter().all(|d| dsts.iter().filter(|x| *x == d).count() == 1);
    if !distinct || control_between(insts, lo, hi) {
        return None;
    }

    // Accumulator recurrence: one operand position is the member's own
    // destination at every lane (`aK = aK + xK`).
    let self_pos = (0..2).find(|&j| {
        positions
            .iter()
            .all(|&u| insts[u].src[j] == Operand::Reg(insts[u].dst.unwrap()))
    });
    if let Some(j) = self_pos {
        if op != Opcode::FAdd {
            return None;
        }
        let x = resolve_lane_operand(f, bid, positions, 1 - j, packs, use_sites)?;
        if !matches!(x, LaneOperand::Pack(q) if q == pi) {
            return None;
        }
        return try_accum_pack(f, bid, positions, &dsts, x, def_sites, use_sites, preds);
    }

    // Plain element-wise group: every lane result must be single-def and
    // single-use (the closure pass demands a consumer later).
    let legal = dsts.iter().all(|d| {
        def_sites.get(d).is_some_and(|s| s.len() == 1)
            && use_sites.get(d).is_some_and(|s| s.len() == 1)
    });
    if !legal {
        return None;
    }
    let a = resolve_lane_operand(f, bid, positions, 0, packs, use_sites)?;
    let b = resolve_lane_operand(f, bid, positions, 1, packs, use_sites)?;
    if a != LaneOperand::Pack(pi) && b != LaneOperand::Pack(pi) {
        return None;
    }
    Some(Pack {
        kind: PackKind::Alu { op, operands: [a, b] },
        block: bid,
        members: positions.to_vec(),
    })
}

/// Validate an accumulator group: uniform `mov aK, #c` initializers in one
/// preheader, and one `t = t + aK` reduction link per lane in one exit
/// block. See the crate docs for the full contract.
#[allow(clippy::too_many_arguments)]
fn try_accum_pack(
    f: &ilpc_ir::Function,
    bid: BlockId,
    positions: &[usize],
    dsts: &[Reg],
    x: LaneOperand,
    def_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    use_sites: &HashMap<Reg, Vec<(BlockId, usize)>>,
    preds: &[Vec<BlockId>],
) -> Option<Pack> {
    let mut init_positions = Vec::with_capacity(dsts.len());
    let mut chain_positions = Vec::with_capacity(dsts.len());
    let mut init_block = None;
    let mut chain_block = None;
    let mut init_const = None;
    let mut chain_var = None;

    for (lane, (&a, &u)) in dsts.iter().zip(positions).enumerate() {
        if a.class != RegClass::Flt {
            return None;
        }
        // Exactly two defs: the preheader init and the recurrence itself.
        let defs = def_sites.get(&a)?;
        let (ib, ip) = *defs.iter().find(|&&(b, i)| (b, i) != (bid, u))?;
        if defs.len() != 2 || ib == bid {
            return None;
        }
        let init = &f.block(ib).insts[ip];
        if init.op != Opcode::Mov || !matches!(init.src[0], Operand::ImmF(_)) {
            return None;
        }
        // Exactly two uses: the recurrence and one reduction-chain link.
        let uses = use_sites.get(&a)?;
        let (cb, cp) = *uses.iter().find(|&&(b, i)| (b, i) != (bid, u))?;
        if uses.len() != 2 || cb == bid || cb == ib {
            return None;
        }
        let link = &f.block(cb).insts[cp];
        let t = link.dst?;
        let is_link = link.op == Opcode::FAdd
            && link.src[0] == Operand::Reg(t)
            && link.src[1] == Operand::Reg(a)
            && !dsts.contains(&t);
        if !is_link {
            return None;
        }
        if lane == 0 {
            init_block = Some(ib);
            chain_block = Some(cb);
            init_const = Some(init.src[0]);
            chain_var = Some(t);
        } else if init_block != Some(ib)
            || chain_block != Some(cb)
            || init_const != Some(init.src[0])
            || chain_var != Some(t)
        {
            return None;
        }
        init_positions.push(ip);
        chain_positions.push(cp);
    }

    // The loop must be a self-loop entered only from the init block, so
    // the vector accumulator's vsplat dominates the vadd.
    let ib = init_block?;
    let ps = &preds[bid.0 as usize];
    let entry_ok = ps.iter().all(|&p| p == bid || p == ib) && ps.contains(&ib);
    if !entry_ok || !ps.contains(&bid) {
        return None;
    }

    Some(Pack {
        kind: PackKind::Accum {
            x,
            init_block: ib,
            init_positions,
            init_const: init_const?,
            chain_block: chain_block?,
            chain_positions,
            chain_var: chain_var?,
        },
        block: bid,
        members: positions.to_vec(),
    })
}

/// Validate a group of adjacent stores as a pack (sunk to the last
/// member's position).
fn try_store_pack(
    f: &ilpc_ir::Function,
    pi: usize,
    packs: &[Pack],
    positions: &[usize],
    value_lanes: &[Reg],
) -> Option<Pack> {
    let bid = packs[pi].block;
    let insts = &f.block(bid).insts;
    // Lane order must follow the producer: member k stores lane k.
    let aligned = positions
        .iter()
        .zip(value_lanes)
        .all(|(&u, v)| insts[u].src[2] == Operand::Reg(*v));
    if !aligned {
        return None;
    }
    let proto = &insts[positions[0]];
    let tag0 = proto.mem?;
    tag0.lin?;
    for (k, &u) in positions.iter().enumerate() {
        let s = &insts[u];
        let tag = s.mem?;
        let adjacent = tag.sym == tag0.sym
            && tag.outer == tag0.outer
            && tag.lin?.0 == tag0.lin?.0
            && tag.lin?.1 == tag0.lin?.1 + k as i64;
        if !adjacent {
            return None;
        }
    }
    let (lo, hi) = (positions[0], *positions.last().unwrap());
    if positions.windows(2).any(|w| w[1] <= w[0]) {
        return None;
    }
    if control_between(insts, lo, hi) || defs_between(insts, lo, hi, &operand_regs(proto, true)) {
        return None;
    }
    // Sinking every member to `hi` may not cross any aliasing access.
    let crosses = insts[lo + 1..hi]
        .iter()
        .enumerate()
        .any(|(off, mid)| {
            let at = lo + 1 + off;
            mid.op.is_mem() && !positions.contains(&at) && {
                positions.iter().any(|&i| match (mid.mem, insts[i].mem) {
                    (Some(a), Some(b)) => a.may_alias(&b),
                    _ => true,
                })
            }
        });
    if crosses {
        return None;
    }
    Some(Pack {
        kind: PackKind::Store { value: LaneOperand::Pack(pi) },
        block: bid,
        members: positions.to_vec(),
    })
}

/// Apply the committed packs: emit vector instructions at their placement
/// points, delete the scalar members, and rewrite accumulator preheaders
/// and reduction chains.
fn rewrite(m: &mut Module, packs: &[Pack], committed: &[usize], lanes: u8) {
    // Fresh vector register per value-producing pack.
    let mut vreg: HashMap<usize, Reg> = HashMap::new();
    for &p in committed {
        if !matches!(packs[p].kind, PackKind::Store { .. }) {
            vreg.insert(p, m.func.new_reg(RegClass::Vec));
        }
    }
    let operand_of = |lo: &LaneOperand, splats: &mut Vec<Inst>, m: &mut Module| match lo {
        LaneOperand::Pack(q) => Operand::Reg(vreg[q]),
        LaneOperand::Splat(o) => {
            let s = m.func.new_reg(RegClass::Vec);
            splats.push(Inst::vsplat(s, *o, lanes));
            Operand::Reg(s)
        }
    };

    // Per-block edit plan: position -> replacement instructions (empty =
    // delete). Untouched positions keep their instruction.
    let mut plan: HashMap<BlockId, HashMap<usize, Vec<Inst>>> = HashMap::new();

    for &p in committed {
        let pk = packs[p].clone();
        let bid = pk.block;
        let insts = &m.func.block(bid).insts;
        let first = *pk.members.iter().min().unwrap();
        let last = *pk.members.iter().max().unwrap();
        let lane0 = insts[pk.members[0]].clone();
        let mut splats = Vec::new();
        let (place, mut emit) = match &pk.kind {
            PackKind::Load => {
                let mut v =
                    Inst::vload(vreg[&p], lane0.src[0], lane0.src[1], lane0.mem.unwrap(), lanes);
                v.ext = lane0.ext;
                (first, vec![v])
            }
            PackKind::Alu { op, operands } => {
                let vop = if *op == Opcode::FMul { Opcode::VMul } else { Opcode::VAdd };
                let a = operand_of(&operands[0], &mut splats, m);
                let b = operand_of(&operands[1], &mut splats, m);
                (first, vec![Inst::vec_alu(vop, vreg[&p], a, b, lanes)])
            }
            PackKind::Accum { x, .. } => {
                let xo = operand_of(x, &mut splats, m);
                (first, vec![Inst::vec_alu(Opcode::VAdd, vreg[&p], vreg[&p].into(), xo, lanes)])
            }
            PackKind::Store { value } => {
                let mut v = Inst::vstore(
                    lane0.src[0],
                    lane0.src[1],
                    operand_of(value, &mut splats, m),
                    lane0.mem.unwrap(),
                    lanes,
                );
                v.ext = lane0.ext;
                (last, vec![v])
            }
        };
        splats.append(&mut emit);
        let block_plan = plan.entry(bid).or_default();
        for &mpos in &pk.members {
            block_plan.insert(mpos, Vec::new());
        }
        block_plan.insert(place, splats);

        if let PackKind::Accum {
            init_block,
            init_positions,
            init_const,
            chain_block,
            chain_positions,
            chain_var,
            ..
        } = &pk.kind
        {
            // Preheader: one vsplat replaces the scalar initializers.
            let ip = plan.entry(*init_block).or_default();
            let place = *init_positions.iter().min().unwrap();
            for &i in init_positions {
                ip.insert(i, Vec::new());
            }
            ip.insert(place, vec![Inst::vsplat(vreg[&p], *init_const, lanes)]);
            // Exit: fold a vreduce into the scalar reduction chain.
            let sum = m.func.new_reg(RegClass::Flt);
            let cp = plan.entry(*chain_block).or_default();
            let place = *chain_positions.iter().min().unwrap();
            for &i in chain_positions {
                cp.insert(i, Vec::new());
            }
            cp.insert(
                place,
                vec![
                    Inst::vreduce(sum, vreg[&p].into(), lanes),
                    Inst::alu(Opcode::FAdd, *chain_var, (*chain_var).into(), sum.into()),
                ],
            );
        }
    }

    for (bid, edits) in plan {
        let old = std::mem::take(&mut m.func.block_mut(bid).insts);
        let mut new = Vec::with_capacity(old.len());
        for (i, inst) in old.into_iter().enumerate() {
            match edits.get(&i) {
                Some(repl) => new.extend(repl.iter().cloned()),
                None => new.push(inst),
            }
        }
        m.func.block_mut(bid).insts = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::MemLoc;
    use ilpc_ir::verify::verify_module;
    use ilpc_ir::{Cond, SymId};

    /// `lanes` isomorphic `C[i] = A[i] * B[i]` statement copies in one
    /// block, the canonical post-unroll SLP shape.
    fn elementwise(lanes: usize) -> Module {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let b = m.symtab.declare("B", 16, RegClass::Flt);
        let c = m.symtab.declare("C", 16, RegClass::Flt);
        let f = &mut m.func;
        let blk = f.add_block("b");
        let mut insts = Vec::new();
        let mut prods = Vec::new();
        for k in 0..lanes as i64 {
            let (x, y, p) = (
                f.new_reg(RegClass::Flt),
                f.new_reg(RegClass::Flt),
                f.new_reg(RegClass::Flt),
            );
            let mut la = Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 0, k));
            la.ext = k;
            let mut lb = Inst::load(y, Operand::Sym(b), Operand::ImmI(0), MemLoc::affine(b, 0, k));
            lb.ext = k;
            insts.push(la);
            insts.push(lb);
            prods.push((x, y, p));
        }
        for &(x, y, p) in &prods {
            insts.push(Inst::alu(Opcode::FMul, p, x.into(), y.into()));
        }
        for (k, &(_, _, p)) in prods.iter().enumerate() {
            let mut st = Inst::store(
                Operand::Sym(c),
                Operand::ImmI(0),
                p.into(),
                MemLoc::affine(c, 0, k as i64),
            );
            st.ext = k as i64;
            insts.push(st);
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;
        m
    }

    #[test]
    fn vlen_one_is_a_no_op() {
        let mut m = elementwise(4);
        let before = ilpc_ir::text::serialize(&m);
        let r = slp_vectorize(&mut m, 1);
        assert_eq!(r, SlpReport::default());
        assert_eq!(ilpc_ir::text::serialize(&m), before);
    }

    #[test]
    fn elementwise_chain_packs_end_to_end() {
        let mut m = elementwise(4);
        let r = slp_vectorize(&mut m, 4);
        // Two load packs, one multiply pack, one store pack.
        assert_eq!(r.packs_formed, 4, "{}", ilpc_ir::text::serialize(&m));
        assert_eq!(r.stmts_vectorized, 16);
        verify_module(&m).unwrap();
        let ops: Vec<Opcode> = m.func.insts().map(|(_, i)| i.op).collect();
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VLoad).count(), 2);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VMul).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VStore).count(), 1);
        assert!(!ops.contains(&Opcode::Load) && !ops.contains(&Opcode::Store));
    }

    #[test]
    fn partial_groups_fall_back_to_scalar() {
        // 6 copies with vlen=4: one pack of 4 commits, 2 copies stay scalar.
        let mut m = elementwise(6);
        let r = slp_vectorize(&mut m, 4);
        assert_eq!(r.packs_formed, 4);
        verify_module(&m).unwrap();
        let ops: Vec<Opcode> = m.func.insts().map(|(_, i)| i.op).collect();
        assert_eq!(ops.iter().filter(|o| **o == Opcode::Load).count(), 4);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::FMul).count(), 2);
    }

    #[test]
    fn aliasing_store_between_loads_blocks_the_pack() {
        let mut m = elementwise(4);
        let blk = m.func.layout_order()[0];
        let a = SymId(0);
        // A store through A between the A-loads: hoisting would cross it.
        let v = m.func.block(blk).insts[4].dst.unwrap();
        let poison = Inst::store(Operand::Sym(a), Operand::ImmI(0), v.into(), MemLoc::opaque(a));
        m.func.block_mut(blk).insts.insert(5, poison);
        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        let ops: Vec<Opcode> = m.func.insts().map(|(_, i)| i.op).collect();
        // The A-side load pack must not form; B-side loads die in closure
        // because their multiply consumers can't pack without lane inputs.
        assert_eq!(r.packs_formed, 0, "{:?}", ops);
        assert!(!ops.contains(&Opcode::VLoad));
    }

    #[test]
    fn non_adjacent_displacements_do_not_pack() {
        let mut m = elementwise(4);
        let blk = m.func.layout_order()[0];
        // Skew one A-load's displacement: ext 0,1,5,3 is not a lane run.
        let pos = 4; // third A-load (A/B interleaved)
        assert_eq!(m.func.block(blk).insts[pos].op, Opcode::Load);
        m.func.block_mut(blk).insts[pos].ext = 5;
        let t = m.func.block(blk).insts[pos].mem.unwrap();
        m.func.block_mut(blk).insts[pos].mem =
            Some(MemLoc { lin: Some((0, 5)), ..t });
        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        assert_eq!(r.packs_formed, 0);
    }

    #[test]
    fn integer_loads_do_not_pack() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("N", 8, RegClass::Int);
        let f = &mut m.func;
        let blk = f.add_block("b");
        let mut insts = Vec::new();
        for k in 0..4i64 {
            let x = f.new_reg(RegClass::Int);
            let mut ld = Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 0, k));
            ld.ext = k;
            insts.push(ld);
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;
        let r = slp_vectorize(&mut m, 4);
        assert_eq!(r.packs_formed, 0);
    }

    #[test]
    fn splat_operand_vectorizes_scaled_copy() {
        // B[k] = s * A[k] — the scale is loop-invariant, so it splats.
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let b = m.symtab.declare("B", 8, RegClass::Flt);
        let f = &mut m.func;
        let s = f.new_reg(RegClass::Flt);
        let blk = f.add_block("b");
        let mut insts = vec![Inst::mov(s, Operand::ImmF(2.5))];
        let mut prods = Vec::new();
        for k in 0..4i64 {
            let (x, p) = (f.new_reg(RegClass::Flt), f.new_reg(RegClass::Flt));
            let mut ld = Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 0, k));
            ld.ext = k;
            insts.push(ld);
            prods.push((x, p));
        }
        for &(x, p) in &prods {
            insts.push(Inst::alu(Opcode::FMul, p, s.into(), x.into()));
        }
        for (k, &(_, p)) in prods.iter().enumerate() {
            let mut st = Inst::store(
                Operand::Sym(b),
                Operand::ImmI(0),
                p.into(),
                MemLoc::affine(b, 0, k as i64),
            );
            st.ext = k as i64;
            insts.push(st);
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;
        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        assert_eq!(r.packs_formed, 3, "{}", ilpc_ir::text::serialize(&m));
        let ops: Vec<Opcode> = m.func.insts().map(|(_, i)| i.op).collect();
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VSplat).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VMul).count(), 1);
    }

    /// Accumulator shape: preheader inits, self-loop body, exit reduction.
    fn reduction(lanes: i64) -> Module {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 64, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let t = f.new_reg(RegClass::Flt);
        let accs: Vec<Reg> = (0..lanes).map(|_| f.new_reg(RegClass::Flt)).collect();
        let pre = f.add_block("pre");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut pi = vec![Inst::mov(i, Operand::ImmI(0)), Inst::mov(t, Operand::ImmF(0.0))];
        for &acc in &accs {
            pi.push(Inst::mov(acc, Operand::ImmF(0.0)));
        }
        f.block_mut(pre).insts = pi;
        let mut bi = Vec::new();
        let mut loaded = Vec::new();
        for (k, _) in accs.iter().enumerate() {
            let x = f.new_reg(RegClass::Flt);
            let mut ld =
                Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, k as i64));
            ld.ext = k as i64;
            bi.push(ld);
            loaded.push(x);
        }
        for (&acc, &x) in accs.iter().zip(&loaded) {
            bi.push(Inst::alu(Opcode::FAdd, acc, acc.into(), x.into()));
        }
        bi.push(Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(lanes)));
        bi.push(Inst::br(Cond::Lt, i.into(), Operand::ImmI(64), body));
        f.block_mut(body).insts = bi;
        let mut ei = Vec::new();
        for &acc in &accs {
            ei.push(Inst::alu(Opcode::FAdd, t, t.into(), acc.into()));
        }
        ei.push(Inst::store(Operand::Sym(out), Operand::ImmI(0), t.into(), MemLoc::affine(out, 0, 0)));
        ei.push(Inst::halt());
        f.block_mut(exit).insts = ei;
        m
    }

    #[test]
    fn uniform_accumulators_become_a_vector_accumulator() {
        let mut m = reduction(4);
        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        assert_eq!(r.packs_formed, 2, "{}", ilpc_ir::text::serialize(&m));
        let ops: Vec<Opcode> = m.func.insts().map(|(_, i)| i.op).collect();
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VLoad).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VAdd).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VSplat).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == Opcode::VReduce).count(), 1);
        // The scalar chain keeps its running variable and gains the
        // reduced partial sum exactly once.
        assert_eq!(ops.iter().filter(|o| **o == Opcode::FAdd).count(), 1);
    }

    #[test]
    fn accumulator_with_nonuniform_init_stays_scalar() {
        let mut m = reduction(4);
        let pre = m.func.layout_order()[0];
        // Skew one initializer: lanes no longer share a constant.
        m.func.block_mut(pre).insts[3].src[0] = Operand::ImmF(1.0);
        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        assert_eq!(r.packs_formed, 0);
    }

    /// One load group feeding two expression chains: every use of every
    /// lane is absorbed by a committed pack, so both chains vectorize
    /// and the shared loads are deleted with them.
    #[test]
    fn shared_load_feeding_two_chains_packs_both() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let b = m.symtab.declare("B", 16, RegClass::Flt);
        let c = m.symtab.declare("C", 16, RegClass::Flt);
        let d = m.symtab.declare("D", 16, RegClass::Flt);
        let f = &mut m.func;
        let blk = f.add_block("b");
        let mut insts = Vec::new();
        let mut vals = Vec::new();
        for k in 0..4i64 {
            let x = f.new_reg(RegClass::Flt);
            let y = f.new_reg(RegClass::Flt);
            let p = f.new_reg(RegClass::Flt);
            let q = f.new_reg(RegClass::Flt);
            let mut la = Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 0, k));
            la.ext = k;
            let mut lb = Inst::load(y, Operand::Sym(b), Operand::ImmI(0), MemLoc::affine(b, 0, k));
            lb.ext = k;
            insts.push(la);
            insts.push(lb);
            vals.push((x, y, p, q));
        }
        for &(x, y, p, _) in &vals {
            insts.push(Inst::alu(Opcode::FMul, p, x.into(), y.into()));
        }
        for &(_, y, _, q) in &vals {
            insts.push(Inst::alu(Opcode::FMul, q, y.into(), Operand::ImmF(2.0)));
        }
        for (k, &(_, _, p, _)) in vals.iter().enumerate() {
            let mut st =
                Inst::store(Operand::Sym(c), Operand::ImmI(0), p.into(), MemLoc::affine(c, 0, k as i64));
            st.ext = k as i64;
            insts.push(st);
        }
        for (k, &(_, _, _, q)) in vals.iter().enumerate() {
            let mut st =
                Inst::store(Operand::Sym(d), Operand::ImmI(0), q.into(), MemLoc::affine(d, 0, k as i64));
            st.ext = k as i64;
            insts.push(st);
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;

        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        // 2 load packs, 2 multiply packs, 2 store packs; no scalar residue.
        assert_eq!(r.packs_formed, 6);
        assert_eq!(r.stmts_vectorized, 24);
        let body = &m.func.block(blk).insts;
        assert!(body.iter().all(|i| i.op != Opcode::Load && i.op != Opcode::FMul));
    }

    /// Renaming/induction expansion give each unrolled copy its own index
    /// register; adjacency is proven from the alias tags and the vector
    /// access carries lane 0's address operands.
    #[test]
    fn distinct_index_registers_pack_via_displacement_tags() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let c = m.symtab.declare("C", 16, RegClass::Flt);
        let f = &mut m.func;
        let blk = f.add_block("b");
        let mut insts = Vec::new();
        let mut vals = Vec::new();
        for k in 0..4i64 {
            let idx = f.new_reg(RegClass::Int);
            insts.push(Inst::mov(idx, Operand::ImmI(k)));
            let x = f.new_reg(RegClass::Flt);
            let p = f.new_reg(RegClass::Flt);
            insts.push(Inst::load(x, Operand::Sym(a), idx.into(), MemLoc::affine(a, 1, k)));
            vals.push((idx, x, p));
        }
        for &(_, x, p) in &vals {
            insts.push(Inst::alu(Opcode::FMul, p, x.into(), Operand::ImmF(3.0)));
        }
        for (k, &(idx, _, p)) in vals.iter().enumerate() {
            insts.push(Inst::store(
                Operand::Sym(c),
                idx.into(),
                p.into(),
                MemLoc::affine(c, 1, k as i64),
            ));
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;

        let lane0_idx = vals[0].0;
        let r = slp_vectorize(&mut m, 4);
        verify_module(&m).unwrap();
        assert_eq!(r.packs_formed, 3);
        assert_eq!(r.stmts_vectorized, 12);
        let body = &m.func.block(blk).insts;
        let vld = body.iter().find(|i| i.op == Opcode::VLoad).unwrap();
        let vst = body.iter().find(|i| i.op == Opcode::VStore).unwrap();
        assert_eq!(vld.src[1], Operand::Reg(lane0_idx));
        assert_eq!(vst.src[1], Operand::Reg(lane0_idx));
    }
}
