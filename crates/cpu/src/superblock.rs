//! Superblock translation: the direct-threaded micro-op IR behind every
//! instruction the machine executes.
//!
//! Every instruction but a host call executes as a [`LoweredOp`]: the
//! [`MicroOp`] its [`Inst`] lowers to, plus its fall-through pc, PLT
//! membership and ABTB pattern role. A single step (`Machine::step_one`,
//! which also serves host calls, demand fault-in and `superblock:
//! false`) is a 1-op block: it lowers the predecoded instruction on the
//! fly, paying a fixed tax on every retired instruction — revalidate
//! the predecoded page, bounds-check the slot, lower, and re-check run
//! bookkeeping that cannot change mid-straight-line-run. The superblock
//! engine pays that tax once, at translation time: a hot straight-line
//! region — a run of instructions ending at a control transfer, a
//! [`Mark`](Inst::Mark), a host call or the page boundary — is scanned
//! out of the predecoded page and lowered into a dense array of
//! [`SbOp`]s. Execution then runs micro-ops tail-to-tail, and finished
//! blocks chain to their successors through a per-block memo so
//! steady-state dispatch never touches a hash table.
//!
//! **Everything architectural is preserved.** Both paths retire each
//! instruction through the same exec-then-retire function, so fetch
//! and data charging, counter updates, predictor/ABTB traffic, bus
//! broadcasts and mark recording happen identically and in the same
//! order; faults stop the block with the pc parked on the faulting
//! instruction. The differential-test oracle digests are bit-identical
//! with the engine on or off (`difftest --no-superblock` runs every
//! instruction on the 1-op path).
//!
//! **Observed runs use blocks too.** A retire event is due at every
//! block terminal and host call, never in between, so both paths
//! deliver the same event stream; the event's instruction is rebuilt
//! from the terminal micro-op ([`MicroOp::terminal_inst`]), so ops carry
//! nothing extra for observers.
//!
//! **Invalidation discipline.** A block is tagged with the space
//! [`uid`](dynlink_mem::AddressSpace::uid), the
//! [`code_version`](dynlink_mem::AddressSpace::code_version), the PLT
//! epoch and the cache-wide eviction generation at translation time,
//! and every dispatch revalidates all four — the same discipline the
//! predecoded pages use, pinned by `decode_coherence.rs`:
//!
//! * `patch_code` bumps the code version → stale block retranslates;
//! * module GC (`invalidate_for_module_gc`) retags the space uid →
//!   stale blocks can never revalidate;
//! * ASID-aliased processes have distinct uids → translations are
//!   never shared across spaces;
//! * demand eviction (`drop_page`) bumps the eviction generation →
//!   a conservative full-cache shootdown, so a block over a faulted-out
//!   page cannot keep executing from the translation cache;
//! * `set_plt_ranges` bumps the PLT epoch → cached `in_plt` flags are
//!   never stale.
//!
//! The per-dispatch revalidation is the shootdown mechanism, mirroring
//! the lazy tag checks of the predecode arena. The
//! `MachineConfig::superblock_validate` knob (default on) is the
//! negative control: disabling it skips the version/generation checks
//! and makes exactly the stale-translation divergences reachable that
//! the discipline exists to prevent.

use std::collections::HashMap;

use dynlink_isa::{AluOp, Cond, HostFnId, Inst, MemRef, Operand, Reg, VirtAddr};

/// Upper bound on micro-ops per block. Straight-line runs in linked
/// code are short (a PLT slot is two instructions); the cap only
/// bounds translation work for degenerate all-ALU pages. A run longer
/// than the cap simply continues in the successor block.
pub(crate) const MAX_BLOCK_OPS: usize = 64;

/// Retire-stage pattern role of an instruction, computed once when its
/// page is predecoded so the retire stage never re-derives the `Inst`
/// predicate chain (`is_call`/`is_mem_indirect_jump`/`written_reg`…)
/// per retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Any call: arms the trampoline-pattern detector.
    Call,
    /// Memory-indirect jump: may complete the pattern and train the
    /// ABTB.
    MemIndirectJump,
    /// Writes only the linker scratch register (no control, load or
    /// store): tolerated inside ARM-style trampoline bodies.
    ScratchOnly,
    /// Anything else: breaks a pending pattern.
    Other,
}

impl Role {
    pub(crate) fn of(inst: &Inst) -> Role {
        if inst.is_call() {
            Role::Call
        } else if inst.is_mem_indirect_jump() {
            Role::MemIndirectJump
        } else if inst.written_reg() == Some(Reg::SCRATCH)
            && !inst.is_control()
            && !inst.is_load()
            && !inst.is_store()
        {
            Role::ScratchOnly
        } else {
            Role::Other
        }
    }
}

/// The micro-op IR: [`Inst`] with operand accessors pre-resolved. The
/// register/immediate split of ALU and compare-branch sources is
/// flattened into distinct variants so the executor never matches on a
/// nested [`Operand`](dynlink_isa::Operand); direct targets,
/// fall-through pcs and PLT flags ride in the enclosing [`LoweredOp`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// `dst = dst <op> src` (register source).
    AluRR { op: AluOp, dst: Reg, src: Reg },
    /// `dst = dst <op> imm` (immediate source).
    AluRI { op: AluOp, dst: Reg, imm: u64 },
    /// `dst = imm`.
    MovImm { dst: Reg, imm: u64 },
    /// `dst = src`.
    MovReg { dst: Reg, src: Reg },
    /// `dst = effective_address(mem)`.
    Lea { dst: Reg, mem: MemRef },
    /// `dst = *mem`.
    Load { dst: Reg, mem: MemRef },
    /// `*mem = src`.
    Store { src: Reg, mem: MemRef },
    /// Stack push.
    Push { src: Reg },
    /// Stack pop.
    Pop { dst: Reg },
    /// No-op.
    Nop,
    /// Direct call (block terminal).
    CallDirect { target: VirtAddr },
    /// Register-indirect call (terminal).
    CallIndirectReg { target: Reg },
    /// Memory-indirect call (terminal).
    CallIndirectMem { mem: MemRef },
    /// Direct jump (terminal).
    JmpDirect { target: VirtAddr },
    /// Memory-indirect jump — the trampoline body (terminal).
    JmpIndirectMem { mem: MemRef },
    /// Register-indirect jump (terminal).
    JmpIndirectReg { target: Reg },
    /// Compare-and-branch, register rhs (terminal).
    BranchRR {
        cond: Cond,
        lhs: Reg,
        rhs: Reg,
        target: VirtAddr,
    },
    /// Compare-and-branch, immediate rhs (terminal).
    BranchRI {
        cond: Cond,
        lhs: Reg,
        imm: u64,
        target: VirtAddr,
    },
    /// Return (terminal).
    Ret,
    /// Halt (terminal).
    Halt,
    /// Instrumentation mark (terminal, so mark-count run bounds stay
    /// exact: the count can only change at a block boundary).
    Mark { id: u64 },
}

impl MicroOp {
    /// Whether this op is register-only, so executing it can neither
    /// fault nor touch memory-system state — the property that bounds
    /// fetch runs and fusion. Anything that reads or writes memory
    /// (including implicit stack traffic) is not.
    fn fold_safe(&self) -> bool {
        matches!(
            self,
            MicroOp::AluRR { .. }
                | MicroOp::AluRI { .. }
                | MicroOp::MovImm { .. }
                | MicroOp::MovReg { .. }
                | MicroOp::Lea { .. }
                | MicroOp::Nop
        )
    }

    /// Whether this op ends a block: every control transfer, `Halt`,
    /// and `Mark`.
    #[inline]
    pub(crate) fn is_terminal(&self) -> bool {
        self.terminal_inst().is_some()
    }

    /// The [`Inst`] a block terminal was lowered from — the inverse of
    /// [`lower`] on terminals, which is all a
    /// [`RetireEvent`](crate::RetireEvent) needs, so lowered ops never
    /// carry their source instruction. `None` for every other op.
    #[inline]
    pub(crate) fn terminal_inst(&self) -> Option<Inst> {
        Some(match *self {
            MicroOp::CallDirect { target } => Inst::CallDirect { target },
            MicroOp::CallIndirectReg { target } => Inst::CallIndirectReg { target },
            MicroOp::CallIndirectMem { mem } => Inst::CallIndirectMem { mem },
            MicroOp::JmpDirect { target } => Inst::JmpDirect { target },
            MicroOp::JmpIndirectMem { mem } => Inst::JmpIndirectMem { mem },
            MicroOp::JmpIndirectReg { target } => Inst::JmpIndirectReg { target },
            MicroOp::BranchRR {
                cond,
                lhs,
                rhs,
                target,
            } => Inst::BranchCond {
                cond,
                lhs,
                rhs: Operand::Reg(rhs),
                target,
            },
            MicroOp::BranchRI {
                cond,
                lhs,
                imm,
                target,
            } => Inst::BranchCond {
                cond,
                lhs,
                rhs: Operand::Imm(imm),
                target,
            },
            MicroOp::Ret => Inst::Ret,
            MicroOp::Halt => Inst::Halt,
            MicroOp::Mark { id } => Inst::Mark { id },
            _ => return None,
        })
    }
}

/// One instruction lowered for execution: the micro-op plus everything
/// the retire stage would otherwise recompute per execution. Blocks
/// hold these; a single step lowers one on the fly and retires it
/// through the same executor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoweredOp {
    /// The pre-resolved operation.
    pub(crate) op: MicroOp,
    /// This instruction's pc (fetch charging, fault reporting).
    pub(crate) pc: VirtAddr,
    /// Fall-through pc (`pc + encoded_len`), precomputed.
    pub(crate) fall: VirtAddr,
    /// PLT membership of `pc` at predecode time (guarded by the PLT
    /// epoch tag of the page or block it came from).
    pub(crate) in_plt: bool,
    /// Retire-pattern role, computed at predecode.
    pub(crate) role: Role,
}

/// One block entry: a main instruction, optionally with a fused
/// register-only predecessor, plus its fetch-run window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbOp {
    /// Fused register-only predecessor: it cannot fault, touch the
    /// memory system or transfer control, so executing it in the same
    /// dispatch as `main` is architecturally invisible — it still
    /// retires as its own instruction (fetch charge, base cycles,
    /// counters, pattern training). Its pc shares the main op's I-cache
    /// line and I-TLB page (the fusion precondition).
    pub(crate) pre: Option<LoweredOp>,
    /// The main instruction.
    pub(crate) main: LoweredOp,
    /// Fetch-run window, in *ops*: on a window head, the number of
    /// consecutive ops (≥ 1) whose instruction fetches are all charged
    /// at the head; 1 elsewhere. Within a window every instruction
    /// shares the head's I-cache line and I-TLB page and only the last
    /// can fault, so charging all fetches up front commutes with
    /// execution.
    pub(crate) fetch_run: u8,
    /// Total *instructions* in the window this op heads (counting
    /// fused pre-ops); meaningful on window heads only.
    pub(crate) fetch_insts: u8,
}

impl SbOp {
    /// pc of the first instruction this op retires (the fused pre-op's
    /// if present).
    pub(crate) fn first_pc(&self) -> VirtAddr {
        match &self.pre {
            Some(p) => p.pc,
            None => self.main.pc,
        }
    }

    /// Number of instructions this op retires (1, or 2 with a fused
    /// pre-op).
    pub(crate) fn count(&self) -> u64 {
        1 + self.pre.is_some() as u64
    }
}

/// Builds a block's ops from its lowered instructions, fusing each
/// register-only instruction onto its successor when both pcs share an
/// I-cache line and I-TLB page (so the pair's fetch charges can be
/// folded at one address) — one dispatch then retires both
/// instructions. Pairs greedily, left to right.
pub(crate) fn fuse_ops(insts: Vec<LoweredOp>, line_bytes: u64, page_bytes: u64) -> Vec<SbOp> {
    let mut out = Vec::with_capacity(insts.len());
    let mut it = insts.into_iter().peekable();
    while let Some(op) = it.next() {
        let fusable = op.op.fold_safe()
            && it.peek().is_some_and(|next| {
                next.pc.cache_line(line_bytes) == op.pc.cache_line(line_bytes)
                    && next.pc.page_number(page_bytes) == op.pc.page_number(page_bytes)
            });
        let (pre, main) = if fusable {
            (Some(op), it.next().expect("peeked successor"))
        } else {
            (None, op)
        };
        out.push(SbOp {
            pre,
            main,
            fetch_run: 1,
            fetch_insts: 1,
        });
    }
    out
}

/// Computes [`SbOp::fetch_run`]/[`SbOp::fetch_insts`] for a freshly
/// fused block: greedily extends each window while the previous op's
/// main operation is register-only ([`MicroOp::fold_safe`]) and the
/// next op stays on the head's I-cache line and I-TLB page. (A fused
/// op's two pcs share a line by construction, so checking the main pc
/// covers both.)
pub(crate) fn assign_fetch_runs(ops: &mut [SbOp], line_bytes: u64, page_bytes: u64) {
    let mut i = 0;
    while i < ops.len() {
        let head_line = ops[i].first_pc().cache_line(line_bytes);
        let head_page = ops[i].first_pc().page_number(page_bytes);
        let mut k = 1usize;
        while i + k < ops.len()
            && ops[i + k - 1].main.op.fold_safe()
            && ops[i + k].main.pc.cache_line(line_bytes) == head_line
            && ops[i + k].main.pc.page_number(page_bytes) == head_page
        {
            k += 1;
        }
        ops[i].fetch_run = k as u8;
        ops[i].fetch_insts = ops[i..i + k]
            .iter()
            .map(|o| o.count() as usize)
            .sum::<usize>() as u8;
        i += k;
    }
}

/// Lowers the instruction at `pc` with the PLT flag and retire role it
/// was predecoded with. `Err` carries the id of a host call, the one
/// instruction that never lowers: it runs a callback from the
/// machine's table against every core, which no micro-op reaches.
pub(crate) fn lower(
    inst: Inst,
    pc: VirtAddr,
    in_plt: bool,
    role: Role,
) -> Result<LoweredOp, HostFnId> {
    let op = match inst {
        Inst::Alu { op, dst, src } => match src {
            Operand::Reg(src) => MicroOp::AluRR { op, dst, src },
            Operand::Imm(imm) => MicroOp::AluRI { op, dst, imm },
        },
        Inst::MovImm { dst, imm } => MicroOp::MovImm { dst, imm },
        Inst::MovReg { dst, src } => MicroOp::MovReg { dst, src },
        Inst::Lea { dst, mem } => MicroOp::Lea { dst, mem },
        Inst::Load { dst, mem } => MicroOp::Load { dst, mem },
        Inst::Store { src, mem } => MicroOp::Store { src, mem },
        Inst::Push { src } => MicroOp::Push { src },
        Inst::Pop { dst } => MicroOp::Pop { dst },
        Inst::Nop => MicroOp::Nop,
        Inst::CallDirect { target } => MicroOp::CallDirect { target },
        Inst::CallIndirectReg { target } => MicroOp::CallIndirectReg { target },
        Inst::CallIndirectMem { mem } => MicroOp::CallIndirectMem { mem },
        Inst::JmpDirect { target } => MicroOp::JmpDirect { target },
        Inst::JmpIndirectMem { mem } => MicroOp::JmpIndirectMem { mem },
        Inst::JmpIndirectReg { target } => MicroOp::JmpIndirectReg { target },
        Inst::BranchCond {
            cond,
            lhs,
            rhs,
            target,
        } => match rhs {
            Operand::Reg(rhs) => MicroOp::BranchRR {
                cond,
                lhs,
                rhs,
                target,
            },
            Operand::Imm(imm) => MicroOp::BranchRI {
                cond,
                lhs,
                imm,
                target,
            },
        },
        Inst::Ret => MicroOp::Ret,
        Inst::Halt => MicroOp::Halt,
        Inst::Mark { id } => MicroOp::Mark { id },
        Inst::HostCall { id } => return Err(id),
    };
    Ok(LoweredOp {
        op,
        pc,
        fall: pc + inst.encoded_len(),
        in_plt,
        role,
    })
}

/// A translated superblock: a non-empty straight-line run of micro-ops
/// plus the invalidation tags it was translated under and the chaining
/// memo to its most recent successor.
#[derive(Debug)]
pub(crate) struct SuperBlock {
    /// Entry pc (dispatch key, revalidated on every use).
    pub(crate) entry: VirtAddr,
    /// Space code identity at translation
    /// ([`dynlink_mem::AddressSpace::code_uid`]), so one translation
    /// serves every member of a shared-code fork family.
    pub(crate) uid: u64,
    /// Code version at translation.
    pub(crate) version: u64,
    /// PLT epoch at translation.
    pub(crate) plt_epoch: u64,
    /// Cache-wide eviction generation at translation.
    pub(crate) gen: u64,
    /// The micro-ops, in execution order; the last op is either a
    /// terminal or the run was cut by the page boundary / length cap /
    /// an untranslatable next instruction.
    pub(crate) ops: Box<[SbOp]>,
    /// Total instructions the block retires when run to completion
    /// (ops plus their fused pre-ops) — the fast budget check.
    pub(crate) inst_total: u64,
    /// Block chaining: `(next_pc, block index)` of the successor this
    /// block most recently dispatched to. Validated before use — the
    /// successor of a call varies when the ABTB starts skipping its
    /// trampoline, and the target block may itself have gone stale —
    /// so a mismatch just falls back to the index lookup.
    pub(crate) succ: Option<(VirtAddr, u32)>,
}

/// Hasher for the `(uid, pc)` dispatch index: same rationale as the
/// page-table hasher in `dynlink-mem` — keys are simulator-controlled
/// integers, so a multiply-fold beats SipHash on the dispatch path.
#[derive(Debug, Default, Clone, Copy)]
struct SbKeyHasher(u64);

impl std::hash::Hasher for SbKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = (v ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct BuildSbKeyHasher;

impl std::hash::BuildHasher for BuildSbKeyHasher {
    type Hasher = SbKeyHasher;

    #[inline]
    fn build_hasher(&self) -> SbKeyHasher {
        SbKeyHasher(0)
    }
}

/// Upper bound on cached superblocks. Single-process runs sit far
/// below it; a fleet of thousands of churned tenants would otherwise
/// accumulate blocks under retired code identities without bound.
pub(crate) const SB_CAPACITY: usize = 8192;

/// The translation cache: an arena of blocks plus the `(uid, entry pc)`
/// dispatch index and the eviction generation. Shared by every core of
/// a machine — blocks are tagged by space identity, not by core, so a
/// translation is valid wherever the process is scheduled (exactly like
/// the predecode arena).
#[derive(Debug, Default)]
pub(crate) struct SbCache {
    pub(crate) blocks: Vec<SuperBlock>,
    index: HashMap<(u64, u64), u32, BuildSbKeyHasher>,
    /// Bumped whenever the arena is cleared by the capacity reset;
    /// callers holding raw block indices across an `install` compare it
    /// to know their indices survived.
    pub(crate) resets: u64,
    /// Bumped on every predecode-page drop (demand eviction, module-GC
    /// unmap): a conservative whole-cache shootdown. Blocks never cross
    /// pages, but the cache does not track which page each block sits
    /// on — evictions are rare and retranslation is cheap, so one
    /// generation tag beats per-page back-pointers on the dispatch
    /// path.
    pub(crate) gen: u64,
}

impl SbCache {
    /// Looks up the arena index of the block entered at `(uid, pc)`.
    #[inline]
    pub(crate) fn lookup(&self, uid: u64, pc: VirtAddr) -> Option<u32> {
        self.index.get(&(uid, pc.as_u64())).copied()
    }

    /// Installs `block` (replacing any stale block already indexed at
    /// its `(uid, entry)`) and returns its arena index.
    ///
    /// The arena is bounded at [`SB_CAPACITY`] blocks: a vacant insert
    /// at capacity clears the whole cache first (bumping both the
    /// generation and [`SbCache::resets`]) and starts over — retired
    /// identities from churned processes would otherwise pin arena
    /// slots forever. Retranslation is cheap and the reset is
    /// architecturally invisible, like every eviction here.
    pub(crate) fn install(&mut self, block: SuperBlock) -> u32 {
        if let Some(&idx) = self.index.get(&(block.uid, block.entry.as_u64())) {
            self.blocks[idx as usize] = block;
            return idx;
        }
        if self.blocks.len() >= SB_CAPACITY {
            self.blocks.clear();
            self.index.clear();
            self.gen += 1;
            self.resets += 1;
        }
        let idx = u32::try_from(self.blocks.len()).expect("translation cache overflow");
        self.index.insert((block.uid, block.entry.as_u64()), idx);
        self.blocks.push(block);
        idx
    }

    /// Records the whole-cache shootdown owed after a predecoded page
    /// is dropped: every live block's generation tag goes stale, so no
    /// dispatch can revalidate a translation that may span the dropped
    /// page.
    #[inline]
    pub(crate) fn invalidate_all(&mut self) {
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(inst: Inst) -> LoweredOp {
        lower(inst, VirtAddr::new(0x1000), false, Role::of(&inst)).unwrap()
    }

    #[test]
    fn lowering_flattens_operands_and_flags_terminals() {
        let op = lowered(Inst::add_imm(Reg::R0, 5)).op;
        assert!(matches!(op, MicroOp::AluRI { imm: 5, .. }));
        assert!(!op.is_terminal());
        let op = lowered(Inst::add_reg(Reg::R0, Reg::R1)).op;
        assert!(matches!(op, MicroOp::AluRR { src: Reg::R1, .. }));
        assert!(!op.is_terminal());
        assert!(lowered(Inst::Ret).op.is_terminal());
        assert!(
            lowered(Inst::Mark { id: 3 }).op.is_terminal(),
            "marks terminate blocks so run bounds stay exact"
        );
        let op = lowered(Inst::BranchCond {
            cond: Cond::Ne,
            lhs: Reg::R1,
            rhs: Operand::Imm(9),
            target: VirtAddr::new(0x40),
        })
        .op;
        assert!(matches!(op, MicroOp::BranchRI { imm: 9, .. }));
        assert!(op.is_terminal());
    }

    #[test]
    fn terminal_inst_inverts_lowering_on_every_terminal() {
        let target = VirtAddr::new(0x40);
        let mem = MemRef::Abs(VirtAddr::new(0x60));
        let terminals = [
            Inst::CallDirect { target },
            Inst::CallIndirectReg { target: Reg::R1 },
            Inst::CallIndirectMem { mem },
            Inst::JmpDirect { target },
            Inst::JmpIndirectMem { mem },
            Inst::JmpIndirectReg { target: Reg::R2 },
            Inst::BranchCond {
                cond: Cond::Eq,
                lhs: Reg::R1,
                rhs: Operand::Reg(Reg::R2),
                target,
            },
            Inst::BranchCond {
                cond: Cond::Ne,
                lhs: Reg::R1,
                rhs: Operand::Imm(9),
                target,
            },
            Inst::Ret,
            Inst::Halt,
            Inst::Mark { id: 3 },
        ];
        for inst in terminals {
            let op = lowered(inst).op;
            assert!(op.is_terminal(), "{inst:?}");
            assert_eq!(op.terminal_inst(), Some(inst));
        }
        for inst in [
            Inst::add_reg(Reg::R0, Reg::R1),
            Inst::add_imm(Reg::R0, 5),
            Inst::mov_imm(Reg::R0, 1),
            Inst::MovReg {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Inst::Lea { dst: Reg::R0, mem },
            Inst::Load { dst: Reg::R0, mem },
            Inst::Store { src: Reg::R0, mem },
            Inst::Push { src: Reg::R0 },
            Inst::Pop { dst: Reg::R0 },
            Inst::Nop,
        ] {
            let op = lowered(inst).op;
            assert!(!op.is_terminal(), "{inst:?}");
            assert_eq!(op.terminal_inst(), None);
        }
    }

    #[test]
    fn lowering_precomputes_fall_through_and_rejects_host_calls() {
        let pc = VirtAddr::new(0x1000);
        let inst = Inst::mov_imm(Reg::R0, 1);
        let op = lower(inst, pc, true, Role::Other).unwrap();
        assert_eq!(op.fall, pc + 7);
        assert!(op.in_plt);
        let id = dynlink_isa::HostFnId(1);
        assert_eq!(
            lower(Inst::HostCall { id }, pc, false, Role::Other).unwrap_err(),
            id
        );
    }

    #[test]
    fn roles_match_the_inst_predicates() {
        assert_eq!(
            Role::of(&Inst::CallDirect {
                target: VirtAddr::new(0x10)
            }),
            Role::Call
        );
        assert_eq!(
            Role::of(&Inst::JmpIndirectMem {
                mem: MemRef::Abs(VirtAddr::new(0x10))
            }),
            Role::MemIndirectJump
        );
        assert_eq!(Role::of(&Inst::mov_imm(Reg::SCRATCH, 1)), Role::ScratchOnly);
        assert_eq!(
            Role::of(&Inst::Load {
                dst: Reg::SCRATCH,
                mem: MemRef::Abs(VirtAddr::new(0x10))
            }),
            Role::Other,
            "a load is never scratch-only even when it writes SCRATCH"
        );
        assert_eq!(Role::of(&Inst::mov_imm(Reg::R0, 1)), Role::Other);
    }

    #[test]
    fn install_replaces_stale_blocks_in_place() {
        let mut cache = SbCache::default();
        let blk = |version| SuperBlock {
            entry: VirtAddr::new(0x1000),
            uid: 7,
            version,
            plt_epoch: 0,
            gen: 0,
            ops: Box::new([]),
            inst_total: 0,
            succ: None,
        };
        let a = cache.install(blk(0));
        let b = cache.install(blk(1));
        assert_eq!(a, b, "same (uid, entry) reuses the arena slot");
        assert_eq!(cache.blocks.len(), 1);
        assert_eq!(cache.blocks[a as usize].version, 1);
        assert_eq!(cache.lookup(7, VirtAddr::new(0x1000)), Some(a));
        assert_eq!(cache.lookup(8, VirtAddr::new(0x1000)), None);
    }

    #[test]
    fn invalidate_all_bumps_the_generation() {
        let mut cache = SbCache::default();
        let g = cache.gen;
        cache.invalidate_all();
        assert_eq!(cache.gen, g + 1);
    }
}
