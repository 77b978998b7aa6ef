//! Focused edge-case tests for the machine: addressing modes, deep
//! recursion past the RAS, memory-indirect calls, Bloom false-positive
//! flushes, counter plumbing, and a retire observer that panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use dynlink_cpu::{Machine, MachineConfig, RetireEvent, RetireObserver};
use dynlink_isa::{AluOp, Cond, Inst, MemRef, Operand, Reg, VirtAddr};
use dynlink_mem::{AddressSpace, Perms};

const TEXT: u64 = 0x40_0000;
const DATA: u64 = 0x60_0000;
const FUNC: u64 = 0x7f_0000;
const STACK_TOP: u64 = 0x100_0000;

fn space() -> AddressSpace {
    let mut s = AddressSpace::new(1);
    s.map_code_region(VirtAddr::new(TEXT), 0x4000, Perms::RX)
        .unwrap();
    s.map_code_region(VirtAddr::new(FUNC), 0x1000, Perms::RX)
        .unwrap();
    s.map_region(VirtAddr::new(DATA), 0x2000, Perms::RW)
        .unwrap();
    s
}

fn machine(s: AddressSpace) -> Machine {
    let mut m = Machine::new(MachineConfig::baseline(), s);
    m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
    m.reset(VirtAddr::new(TEXT));
    m
}

fn place(s: &mut AddressSpace, insts: &[Inst]) {
    let mut at = VirtAddr::new(TEXT);
    for &i in insts {
        s.place_code(at, i).unwrap();
        at += i.encoded_len();
    }
}

#[test]
fn base_index_scale_disp_addressing() {
    let mut s = space();
    s.write_u64(VirtAddr::new(DATA + 0x100 + 5 * 8), 0xfeed)
        .unwrap();
    place(
        &mut s,
        &[
            Inst::mov_imm(Reg::R1, DATA),
            Inst::mov_imm(Reg::R2, 5),
            Inst::Load {
                dst: Reg::R0,
                mem: MemRef::BaseIndexDisp {
                    base: Reg::R1,
                    index: Reg::R2,
                    scale: 8,
                    disp: 0x100,
                },
            },
            Inst::Halt,
        ],
    );
    let mut m = machine(s);
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R0), 0xfeed);
}

#[test]
fn negative_displacement_addressing() {
    let mut s = space();
    s.write_u64(VirtAddr::new(DATA + 0x100), 77).unwrap();
    place(
        &mut s,
        &[
            Inst::mov_imm(Reg::R1, DATA + 0x108),
            Inst::Load {
                dst: Reg::R0,
                mem: MemRef::BaseDisp {
                    base: Reg::R1,
                    disp: -8,
                },
            },
            Inst::Halt,
        ],
    );
    let mut m = machine(s);
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R0), 77);
}

#[test]
fn lea_computes_without_memory_access() {
    let mut s = space();
    place(
        &mut s,
        &[
            Inst::mov_imm(Reg::R1, 0x1000),
            Inst::mov_imm(Reg::R2, 4),
            Inst::Lea {
                dst: Reg::R0,
                mem: MemRef::BaseIndexDisp {
                    base: Reg::R1,
                    index: Reg::R2,
                    scale: 4,
                    disp: 3,
                },
            },
            Inst::Halt,
        ],
    );
    let mut m = machine(s);
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R0), 0x1000 + 16 + 3);
    assert_eq!(m.counters().loads, 0, "lea performs no data access");
}

#[test]
fn call_indirect_mem_reads_function_pointer() {
    let mut s = space();
    s.write_u64(VirtAddr::new(DATA + 64), FUNC).unwrap();
    place(
        &mut s,
        &[
            Inst::CallIndirectMem {
                mem: MemRef::Abs(VirtAddr::new(DATA + 64)),
            },
            Inst::Halt,
        ],
    );
    s.place_code(VirtAddr::new(FUNC), Inst::mov_imm(Reg::R0, 12))
        .unwrap();
    s.place_code(VirtAddr::new(FUNC + 7), Inst::Ret).unwrap();
    let mut m = machine(s);
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R0), 12);
}

#[test]
fn recursion_deeper_than_ras_still_returns_correctly() {
    // Recursive countdown to depth 64 with a 16-entry RAS: predictions
    // go wrong after the wrap, architecture must not.
    let mut s = space();
    // main: r0 = 64; call rec; halt
    // rec: if r0 == 0 ret; r0 -= 1; call rec; r1 += 1; ret
    let rec = VirtAddr::new(FUNC);
    place(
        &mut s,
        &[
            Inst::mov_imm(Reg::R0, 64),
            Inst::CallDirect { target: rec },
            Inst::Halt,
        ],
    );
    let mut at = rec;
    let mut emit = |s: &mut AddressSpace, inst: Inst| {
        s.place_code(at, inst).unwrap();
        at += inst.encoded_len();
    };
    let ret_at = rec
        + Inst::BranchCond {
            cond: Cond::Eq,
            lhs: Reg::R0,
            rhs: Operand::Imm(0),
            target: rec,
        }
        .encoded_len()
        + Inst::sub_imm(Reg::R0, 1).encoded_len()
        + Inst::CallDirect { target: rec }.encoded_len()
        + Inst::add_imm(Reg::R1, 1).encoded_len();
    emit(
        &mut s,
        Inst::BranchCond {
            cond: Cond::Eq,
            lhs: Reg::R0,
            rhs: Operand::Imm(0),
            target: ret_at,
        },
    );
    emit(&mut s, Inst::sub_imm(Reg::R0, 1));
    emit(&mut s, Inst::CallDirect { target: rec });
    emit(&mut s, Inst::add_imm(Reg::R1, 1));
    emit(&mut s, Inst::Ret);

    let mut m = machine(s);
    m.run(100_000).unwrap();
    assert!(m.halted());
    assert_eq!(m.reg(Reg::R1), 64, "all frames unwound");
    assert_eq!(m.reg(Reg::SP), STACK_TOP, "stack balanced");
}

#[test]
fn bloom_false_positive_flush_is_harmless() {
    // Stores to addresses that may collide in the Bloom filter can only
    // cause extra flushes, never wrong execution: hammer many store
    // addresses between calls and verify the result.
    let mut cfg = MachineConfig::enhanced();
    cfg.bloom_bits = 16; // tiny filter: false positives guaranteed
    let mut s = space();
    let plt = VirtAddr::new(FUNC + 0x800);
    s.map_code_region(plt.cache_line(4096), 0x1000, Perms::RX)
        .ok();
    let got = VirtAddr::new(DATA + 0x800);
    let func = VirtAddr::new(FUNC);
    s.write_u64(got, func.as_u64()).unwrap();
    s.place_code(
        plt,
        Inst::JmpIndirectMem {
            mem: MemRef::Abs(got),
        },
    )
    .unwrap();
    s.place_code(func, Inst::add_imm(Reg::R0, 1)).unwrap();
    s.place_code(func + 4, Inst::Ret).unwrap();

    // loop: call plt; store r9 -> DATA+8*(r2 & 63); r2 -= 1; bne
    let i0 = Inst::mov_imm(Reg::R2, 200);
    let loop_pc = VirtAddr::new(TEXT) + i0.encoded_len();
    place(
        &mut s,
        &[
            i0,
            Inst::CallDirect { target: plt },
            Inst::MovReg {
                dst: Reg::R3,
                src: Reg::R2,
            },
            Inst::Alu {
                op: AluOp::And,
                dst: Reg::R3,
                src: Operand::Imm(63),
            },
            Inst::Alu {
                op: AluOp::Shl,
                dst: Reg::R3,
                src: Operand::Imm(3),
            },
            Inst::add_imm(Reg::R3, DATA),
            Inst::Store {
                src: Reg::R9,
                mem: MemRef::BaseDisp {
                    base: Reg::R3,
                    disp: 0,
                },
            },
            Inst::sub_imm(Reg::R2, 1),
            Inst::BranchCond {
                cond: Cond::Ne,
                lhs: Reg::R2,
                rhs: Operand::Imm(0),
                target: loop_pc,
            },
            Inst::Halt,
        ],
    );
    let mut m = Machine::new(cfg, s);
    m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
    m.reset(VirtAddr::new(TEXT));
    m.run(1_000_000).unwrap();
    assert_eq!(m.reg(Reg::R0), 200, "false positives never corrupt");
    let c = m.counters();
    // After each flush the filter re-arms with a single key, so the
    // false-positive rate per store is (k/bits)^k; with 16 bits we still
    // expect several spurious flushes over 200 iterations.
    assert!(
        c.abtb_flushes >= 2,
        "a 16-bit filter must false-positive sometimes ({} flushes)",
        c.abtb_flushes
    );
}

#[test]
fn shift_and_bitwise_ops_behave_like_x86() {
    let mut s = space();
    place(
        &mut s,
        &[
            Inst::mov_imm(Reg::R0, 0b1010),
            Inst::Alu {
                op: AluOp::Shl,
                dst: Reg::R0,
                src: Operand::Imm(60),
            },
            Inst::Alu {
                op: AluOp::Shr,
                dst: Reg::R0,
                src: Operand::Imm(62),
            },
            Inst::Halt,
        ],
    );
    let mut m = machine(s);
    m.run(100).unwrap();
    // 0b1010 << 60 keeps the low two bits (wrapping), >> 62 brings them down.
    assert_eq!(m.reg(Reg::R0), 0b10);
}

#[test]
fn jmp_indirect_reg_transfers_control() {
    let mut s = space();
    place(
        &mut s,
        &[
            Inst::mov_imm(Reg::R4, FUNC),
            Inst::JmpIndirectReg { target: Reg::R4 },
            Inst::Halt, // skipped
        ],
    );
    s.place_code(VirtAddr::new(FUNC), Inst::mov_imm(Reg::R0, 3))
        .unwrap();
    s.place_code(VirtAddr::new(FUNC + 7), Inst::Halt).unwrap();
    let mut m = machine(s);
    m.run(100).unwrap();
    assert_eq!(m.reg(Reg::R0), 3);
}

/// An observer that panics once poisons its mutex. Later observed runs
/// must keep delivering events to it rather than panic on the lock.
#[test]
fn a_poisoned_observer_does_not_break_later_runs() {
    #[derive(Default)]
    struct PanicsOnce {
        panicked: bool,
        last_pc: Option<VirtAddr>,
    }
    impl RetireObserver for PanicsOnce {
        fn on_retire(&mut self, e: &RetireEvent) {
            if !self.panicked {
                self.panicked = true;
                panic!("observer fails once");
            }
            self.last_pc = Some(e.pc);
        }
    }
    // The mark is a block terminal, so the first event — the one that
    // panics — arrives before the halt and the next run still has
    // events to deliver.
    let mut s = space();
    let mark = Inst::Mark { id: 0 };
    place(&mut s, &[Inst::Nop, mark, Inst::Halt]);
    let mut m = machine(s);
    let obs = Arc::new(Mutex::new(PanicsOnce::default()));
    m.add_observer(obs.clone());
    assert!(catch_unwind(AssertUnwindSafe(|| m.run(100))).is_err());
    assert!(obs.is_poisoned());
    assert!(!m.halted());

    m.run(100).expect("the next observed run completes");
    assert!(m.halted());
    let halt_pc = VirtAddr::new(TEXT + Inst::Nop.encoded_len() + mark.encoded_len());
    let last_pc = obs.lock().unwrap_or_else(|e| e.into_inner()).last_pc;
    assert_eq!(last_pc, Some(halt_pc), "the observer saw the halt retire");
}
