//! Property tests: the accelerated machine is architecturally invisible.
//!
//! The paper's central correctness claim is that the ABTB mechanism
//! "maintain[s] an architectural state identical to the unmodified
//! system" (§3). These tests generate random multi-module programs —
//! library calls, function-pointer (virtual) calls, data traffic,
//! loops — and check that the baseline and enhanced machines compute
//! identical results, that the enhanced machine retires exactly the
//! baseline instruction count minus the skipped trampolines, and that
//! it never adds branch mispredictions (§3.3). They also check that
//! every way of dispatching the machine — superblock engine, 1-op
//! steps, observed runs, budget-sliced runs — is cycle-exact, and that
//! a retire observer sees the same event stream on every path. Programs
//! come from seeded `dynlink_rng` loops, so every run is deterministic.

use std::sync::{Arc, Mutex};

use dynlink_core::{
    LinkAccel, LinkMode, MachineConfig, RetireEvent, RetireObserver, RunExit, SystemBuilder,
    TrampolineFlavor,
};
use dynlink_cpu::{ComponentStats, CycleBreakdown};
use dynlink_isa::{AluOp, Inst, Operand, Reg};
use dynlink_linker::{ModuleBuilder, ModuleSpec};
use dynlink_rng::Rng;
use dynlink_uarch::PerfCounters;

const CASES: u64 = 48;

/// One step of the randomly generated `main`.
#[derive(Debug, Clone)]
enum Step {
    /// Call imported function `fn_idx` directly (through the PLT).
    Call(usize),
    /// Call imported function `fn_idx` through a function pointer
    /// (virtual-dispatch style — must never be memoized).
    CallViaPointer(usize),
    /// ALU operation on the accumulator.
    Alu(u8, u64),
    /// Store then reload a value through app data.
    DataRoundtrip(u64),
    /// A counted inner loop accumulating into R1.
    Loop(u8),
}

fn random_step(rng: &mut Rng, n_fns: usize) -> Step {
    match rng.next_below(5) {
        0 => Step::Call(rng.gen_index(0..n_fns)),
        1 => Step::CallViaPointer(rng.gen_index(0..n_fns)),
        2 => Step::Alu(rng.gen_range(0..4) as u8, rng.gen_range(1..1000)),
        3 => Step::DataRoundtrip(rng.gen_range(1..u64::MAX)),
        _ => Step::Loop(rng.gen_range(1..20) as u8),
    }
}

#[derive(Debug, Clone)]
struct ProgramSpec {
    n_libs: usize,
    /// Per function: (delta added to R0, extra body ops).
    fns: Vec<(u64, u8)>,
    steps: Vec<Step>,
    repeat: u8,
}

fn random_program(rng: &mut Rng) -> ProgramSpec {
    let n_libs = rng.gen_index(1..4);
    let fns: Vec<(u64, u8)> = (0..rng.gen_index(1..6))
        .map(|_| (rng.gen_range(1..100), rng.gen_range(0..6) as u8))
        .collect();
    let n = fns.len();
    let steps: Vec<Step> = (0..rng.gen_index(1..24))
        .map(|_| random_step(rng, n))
        .collect();
    let repeat = rng.gen_range(1..6) as u8;
    ProgramSpec {
        n_libs,
        fns,
        steps,
        repeat,
    }
}

fn build_modules(spec: &ProgramSpec) -> Vec<ModuleSpec> {
    let mut libs: Vec<ModuleBuilder> = (0..spec.n_libs)
        .map(|i| ModuleBuilder::new(&format!("lib{i}")))
        .collect();
    for (i, &(delta, body)) in spec.fns.iter().enumerate() {
        let lib = &mut libs[i % spec.n_libs];
        lib.begin_function(&format!("f{i}"), true);
        for b in 0..body {
            lib.asm().push(Inst::Alu {
                op: AluOp::Xor,
                dst: Reg::R3,
                src: Operand::Imm(u64::from(b) + 1),
            });
        }
        lib.asm().push(Inst::add_imm(Reg::R0, delta));
        lib.asm().push(Inst::Ret);
    }

    let mut app = ModuleBuilder::new("app");
    let refs: Vec<_> = (0..spec.fns.len())
        .map(|i| app.import(&format!("f{i}")))
        .collect();
    let data = app.reserve_data(64);
    app.begin_function("main", true);
    let top = app.asm().fresh_label("repeat");
    app.asm()
        .push(Inst::mov_imm(Reg::R2, u64::from(spec.repeat)));
    app.asm().bind(top);
    for step in &spec.steps {
        match step {
            Step::Call(i) => {
                app.asm().push_call_extern(refs[*i]);
            }
            Step::CallViaPointer(i) => {
                app.asm().push_load_extern_ptr(Reg::R10, refs[*i]);
                app.asm().push(Inst::CallIndirectReg { target: Reg::R10 });
            }
            Step::Alu(op, v) => {
                let op = match op % 4 {
                    0 => AluOp::Add,
                    1 => AluOp::Xor,
                    2 => AluOp::Sub,
                    _ => AluOp::Or,
                };
                app.asm().push(Inst::Alu {
                    op,
                    dst: Reg::R1,
                    src: Operand::Imm(*v),
                });
            }
            Step::DataRoundtrip(v) => {
                app.asm().push_lea_data(Reg::R8, data);
                app.asm().push(Inst::mov_imm(Reg::R4, *v));
                app.asm().push(Inst::Store {
                    src: Reg::R4,
                    mem: dynlink_isa::MemRef::base(Reg::R8, 8),
                });
                app.asm().push(Inst::Load {
                    dst: Reg::R5,
                    mem: dynlink_isa::MemRef::base(Reg::R8, 8),
                });
                app.asm().push(Inst::add_reg(Reg::R1, Reg::R5));
            }
            Step::Loop(n) => {
                let l = app.asm().fresh_label("inner");
                app.asm().push(Inst::mov_imm(Reg::R6, u64::from(*n)));
                app.asm().bind(l);
                app.asm().push(Inst::add_imm(Reg::R1, 1));
                app.asm().push(Inst::sub_imm(Reg::R6, 1));
                app.asm().push_branch_nz(Reg::R6, l);
            }
        }
    }
    app.asm().push(Inst::sub_imm(Reg::R2, 1));
    app.asm().push_branch_nz(Reg::R2, top);
    app.asm().push(Inst::Halt);

    let mut modules = vec![app.finish().expect("app assembles")];
    modules.extend(libs.into_iter().map(|l| l.finish().expect("lib assembles")));
    modules
}

/// How [`run`] drives the machine.
#[derive(Debug, Clone, Copy)]
enum Dispatch {
    /// One `run` call on the superblock engine (the default).
    Engine,
    /// One `run` call with `superblock: false`: every instruction is a
    /// 1-op step.
    NoSuperblock,
    /// The engine, driven by `run(k)` calls until the program halts.
    Sliced(u64),
}

/// Every dispatch path but [`Dispatch::Engine`].
const OTHER_PATHS: [Dispatch; 5] = [
    Dispatch::NoSuperblock,
    Dispatch::Sliced(1),
    Dispatch::Sliced(2),
    Dispatch::Sliced(3),
    Dispatch::Sliced(7),
];

/// Records every retire event, every field.
#[derive(Default)]
struct Recorder {
    events: Vec<RetireEvent>,
}

impl RetireObserver for Recorder {
    fn on_retire(&mut self, event: &RetireEvent) {
        self.events.push(*event);
    }
}

const BUDGET: u64 = 5_000_000;

/// Final registers, counters, cycle breakdown and structure statistics
/// of one run.
type Outcome = ([u64; 3], PerfCounters, CycleBreakdown, ComponentStats);

/// Runs `spec` to `halt`, with a [`Recorder`] attached when `observed`;
/// returns the outcome and the recorded events (none when unobserved).
fn run(
    spec: &ProgramSpec,
    accel: LinkAccel,
    mode: LinkMode,
    flavor: TrampolineFlavor,
    dispatch: Dispatch,
    observed: bool,
) -> (Outcome, Vec<RetireEvent>) {
    let mut system = SystemBuilder::new()
        .modules(build_modules(spec))
        .link_mode(mode)
        .accel(accel)
        .trampoline_flavor(flavor)
        .machine_config(MachineConfig {
            accel,
            superblock: !matches!(dispatch, Dispatch::NoSuperblock),
            ..MachineConfig::default()
        })
        .build()
        .expect("loads");
    let recorder = Arc::new(Mutex::new(Recorder::default()));
    if observed {
        system.machine_mut().add_observer(recorder.clone());
    }
    match dispatch {
        Dispatch::Engine | Dispatch::NoSuperblock => {
            system.run(BUDGET).expect("runs to completion");
        }
        Dispatch::Sliced(k) => {
            for _ in 0..BUDGET / k {
                if system.run(k).expect("runs") == RunExit::Halted {
                    break;
                }
            }
        }
    }
    assert!(system.machine().halted(), "program must halt");
    let outcome = (
        [
            system.reg(Reg::R0),
            system.reg(Reg::R1),
            system.reg(Reg::R3),
        ],
        system.counters(),
        system.machine().cycle_breakdown(),
        system.machine().component_stats(),
    );
    let events = std::mem::take(&mut recorder.lock().unwrap().events);
    (outcome, events)
}

/// Shorthand for the default flavor on the unobserved engine.
fn run_engine(spec: &ProgramSpec, accel: LinkAccel, mode: LinkMode) -> Outcome {
    run(
        spec,
        accel,
        mode,
        TrampolineFlavor::X86,
        Dispatch::Engine,
        false,
    )
    .0
}

/// Every dispatch path is cycle-exact: the engine, 1-op steps, an
/// attached observer and budget-sliced runs agree on registers,
/// counters, the cycle breakdown and every structure's statistics.
#[test]
fn dispatch_paths_are_cycle_exact() {
    let rng = Rng::seed_from_u64(0xe9_0006);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        for accel in [LinkAccel::Off, LinkAccel::Abtb, LinkAccel::AbtbNoBloom] {
            for flavor in [TrampolineFlavor::X86, TrampolineFlavor::Arm] {
                let go =
                    |d, observed| run(&spec, accel, LinkMode::DynamicLazy, flavor, d, observed).0;
                let engine = go(Dispatch::Engine, false);
                let observed = go(Dispatch::Engine, true);
                assert_eq!(
                    observed, engine,
                    "case {case}, {accel:?}/{flavor:?}, observed"
                );
                for dispatch in OTHER_PATHS {
                    assert_eq!(
                        go(dispatch, false),
                        engine,
                        "case {case}, {accel:?}/{flavor:?}, {dispatch:?}"
                    );
                }
            }
        }
    }
}

/// The retire-event contract: an observer sees one event per retired
/// block terminal or host call, and the same stream — every field — on
/// every dispatch path. The events' `retired` counts sum to the run's
/// instruction count, and the control transfers among them are exactly
/// the counted branches, so no instruction and no branch goes unseen.
#[test]
fn retire_events_are_dispatch_independent() {
    let rng = Rng::seed_from_u64(0xe9_0007);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        for accel in [LinkAccel::Off, LinkAccel::Abtb, LinkAccel::AbtbNoBloom] {
            for flavor in [TrampolineFlavor::X86, TrampolineFlavor::Arm] {
                let ctx = format!("case {case}, {accel:?}/{flavor:?}");
                let go = |d| run(&spec, accel, LinkMode::DynamicLazy, flavor, d, true);
                let (engine, events) = go(Dispatch::Engine);
                let counters = engine.1;
                let retired: u64 = events.iter().map(|e| e.retired).sum();
                assert_eq!(retired, counters.instructions, "{ctx}");
                let control = events.iter().filter(|e| e.inst.is_control()).count();
                assert_eq!(control as u64, counters.branches, "{ctx}");
                for dispatch in OTHER_PATHS {
                    let (outcome, stream) = go(dispatch);
                    assert!(
                        stream == events,
                        "{ctx}, {dispatch:?}: event streams differ"
                    );
                    assert_eq!(outcome, engine, "{ctx}, {dispatch:?}");
                }
            }
        }
    }
}

/// Architectural state is identical with and without the ABTB, and
/// the retired-instruction difference is exactly the skipped
/// trampolines.
#[test]
fn abtb_is_architecturally_invisible() {
    let rng = Rng::seed_from_u64(0xe9_0001);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        let (regs_base, c_base, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::DynamicLazy);
        let (regs_enh, c_enh, ..) = run_engine(&spec, LinkAccel::Abtb, LinkMode::DynamicLazy);
        assert_eq!(regs_base, regs_enh);
        assert_eq!(
            c_base.instructions,
            c_enh.instructions + c_enh.trampolines_skipped
        );
    }
}

/// §3.3: the mechanism introduces no branch mispredictions that the
/// baseline does not also incur.
#[test]
fn no_extra_mispredictions() {
    let rng = Rng::seed_from_u64(0xe9_0002);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        let (_, c_base, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::DynamicLazy);
        let (_, c_enh, ..) = run_engine(&spec, LinkAccel::Abtb, LinkMode::DynamicLazy);
        assert!(
            c_enh.branch_mispredictions <= c_base.branch_mispredictions,
            "enhanced {} > base {}",
            c_enh.branch_mispredictions,
            c_base.branch_mispredictions
        );
    }
}

/// All link modes compute the same result (static linking is the
/// semantic reference).
#[test]
fn link_modes_agree() {
    let rng = Rng::seed_from_u64(0xe9_0003);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        let (regs_static, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::Static);
        let (regs_lazy, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::DynamicLazy);
        let (regs_now, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::DynamicNow);
        assert_eq!(regs_static, regs_lazy);
        assert_eq!(regs_static, regs_now);
    }
}

/// The §3.4 no-Bloom variant is also invisible as long as the
/// software contract (resolver invalidates after GOT writes) holds.
#[test]
fn no_bloom_variant_is_correct_under_contract() {
    let rng = Rng::seed_from_u64(0xe9_0004);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        let (regs_base, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::DynamicLazy);
        let (regs_nb, ..) = run_engine(&spec, LinkAccel::AbtbNoBloom, LinkMode::DynamicLazy);
        assert_eq!(regs_base, regs_nb);
    }
}

/// Eager binding (BIND_NOW) with the ABTB never invokes the resolver
/// yet still skips trampolines.
#[test]
fn eager_binding_skips_without_resolver() {
    let rng = Rng::seed_from_u64(0xe9_0005);
    for case in 0..CASES {
        let mut rng = rng.derive(case);
        let spec = random_program(&mut rng);
        let (regs_base, ..) = run_engine(&spec, LinkAccel::Off, LinkMode::DynamicNow);
        let (regs_enh, c_enh, ..) = run_engine(&spec, LinkAccel::Abtb, LinkMode::DynamicNow);
        assert_eq!(regs_base, regs_enh);
        assert_eq!(c_enh.resolver_invocations, 0);
        let calls = spec
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Call(_)))
            .count();
        if calls > 0 && spec.repeat >= 4 {
            assert!(c_enh.trampolines_skipped > 0, "repeated calls must skip");
        }
    }
}
