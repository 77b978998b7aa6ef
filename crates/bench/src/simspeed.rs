//! Sim-speed (simulated-MIPS) benchmark: how fast does the *simulator*
//! run, in millions of simulated instructions per host second?
//!
//! Everything else in this crate measures the *simulated* machine
//! (cycles, misses, trampolines). This module measures the simulator
//! itself, because wall-clock throughput is what bounds difftest depth,
//! fuzz case counts and experiment sweeps. Three representative
//! workloads cover the hot paths:
//!
//! * **trampoline-heavy** — the paper's §2 shape: a tight library-call
//!   loop through a PLT trampoline and a GOT load, on the baseline
//!   machine so every trampoline executes. Stresses instruction
//!   dispatch and the memory-indirect jump path.
//! * **data-heavy** — a load/store sweep over a 64 KiB buffer.
//!   Stresses the `AddressSpace` data fast paths.
//! * **switch-heavy** — two processes running the trampoline loop,
//!   swapped every 64 instructions. Stresses `swap_process` and
//!   decode-cache retention across context switches.
//! * **switch-heavy-2core** — the same two processes, each pinned to
//!   its own core of a 2-core machine and swapped at the same cadence.
//!   Stresses the multi-core dispatch path (per-core state custody plus
//!   the coherence-bus drain after every instruction).
//!
//! Results are appended to `BENCH_simspeed.json` (a JSON array of run
//! records, schema `dynlink-simspeed/1`) so the performance trajectory
//! is tracked in-repo across PRs. Wall-clock numbers are only
//! meaningful on the machine that produced them; CI therefore runs the
//! benchmark with a tiny budget and validates the schema, never a
//! timing threshold — see `docs/PERF.md`.

use std::time::Instant;

use dynlink_cpu::{Machine, MachineBuilder, MachineConfig, ProcessContext};
use dynlink_isa::{Cond, Inst, MemRef, Operand, Reg, VirtAddr};
use dynlink_mem::{AddressSpace, Perms};

pub mod json;

const TEXT: u64 = 0x40_0000;
const PLT: u64 = 0x41_0000;
const GOT: u64 = 0x60_0000;
const FUNC: u64 = 0x7f_0000;
const BUF: u64 = 0x80_0000;
const STACK_TOP: u64 = 0x100_0000;

/// The schema tag written into every run record.
pub const SCHEMA: &str = "dynlink-simspeed/1";

/// One timed workload result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name (stable identifier, e.g. `trampoline-heavy`).
    pub name: &'static str,
    /// Simulated instructions retired during the timed run.
    pub instructions: u64,
    /// Host wall-clock nanoseconds for the timed run.
    pub nanos: u128,
}

impl Measurement {
    /// Millions of simulated instructions per host second.
    pub fn mips(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        self.instructions as f64 * 1e3 / self.nanos as f64
    }
}

/// A complete benchmark run: one measurement per workload.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Free-form label distinguishing the code state measured (e.g.
    /// `pr4-baseline`, `pr4-predecoded`).
    pub label: String,
    /// Instruction budget each workload executed.
    pub budget: u64,
    /// Per-workload measurements.
    pub workloads: Vec<Measurement>,
}

/// Stable list of workload names, in report order.
pub const WORKLOADS: [&str; 4] = [
    "trampoline-heavy",
    "data-heavy",
    "switch-heavy",
    "switch-heavy-2core",
];

/// The measured machine configuration: baseline hardware, with the
/// superblock translation engine switched per the benchmark's engine
/// axis (`simspeed --no-superblock` times 1-op steps, the A/B that
/// quantifies what translation buys).
fn config(superblock: bool) -> MachineConfig {
    MachineConfig {
        superblock,
        ..MachineConfig::baseline()
    }
}

fn place(s: &mut AddressSpace, at: VirtAddr, insts: &[Inst]) {
    let mut cursor = at;
    for &i in insts {
        s.place_code(cursor, i)
            .expect("benchmark program placement");
        cursor += i.encoded_len();
    }
}

/// Builds the canonical dynamic-linking loop (call → PLT trampoline →
/// GOT load → library function → return) in `s`, iterating practically
/// forever so runs are bounded by the instruction budget alone.
fn build_trampoline_program(s: &mut AddressSpace) {
    s.map_code_region(VirtAddr::new(TEXT), 0x1000, Perms::RX)
        .unwrap();
    s.map_code_region(VirtAddr::new(PLT), 0x1000, Perms::RX)
        .unwrap();
    s.map_region(VirtAddr::new(GOT), 0x1000, Perms::RW).unwrap();
    s.map_code_region(VirtAddr::new(FUNC), 0x1000, Perms::RX)
        .unwrap();
    let plt0 = VirtAddr::new(PLT);
    let got0 = VirtAddr::new(GOT + 16);
    let func = VirtAddr::new(FUNC);
    let i0 = Inst::mov_imm(Reg::R2, u64::MAX);
    let loop_pc = VirtAddr::new(TEXT) + i0.encoded_len();
    place(
        s,
        VirtAddr::new(TEXT),
        &[
            i0,
            Inst::CallDirect { target: plt0 },
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
    place(
        s,
        plt0,
        &[Inst::JmpIndirectMem {
            mem: MemRef::Abs(got0),
        }],
    );
    s.write_u64(got0, func.as_u64()).unwrap();
    place(s, func, &[Inst::add_imm(Reg::R0, 1), Inst::Ret]);
}

fn trampoline_machine(asid: u64, superblock: bool) -> Machine {
    let mut s = AddressSpace::new(asid);
    build_trampoline_program(&mut s);
    let mut m = Machine::new(config(superblock), s);
    m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
    m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
    m.reset(VirtAddr::new(TEXT));
    m
}

fn run_trampoline_heavy(budget: u64, superblock: bool) -> u64 {
    let mut m = trampoline_machine(1, superblock);
    m.run(budget).expect("trampoline workload");
    m.counters().instructions
}

/// A load/store sweep: two stores and two loads per iteration walking a
/// 64 KiB buffer with wraparound, exercising the single-page data fast
/// paths (the §2 GOT-slot access pattern, scaled up).
fn run_data_heavy(budget: u64, superblock: bool) -> u64 {
    let mut s = AddressSpace::new(1);
    s.map_code_region(VirtAddr::new(TEXT), 0x1000, Perms::RX)
        .unwrap();
    s.map_region(VirtAddr::new(BUF), 0x10000, Perms::RW)
        .unwrap();
    let i0 = Inst::mov_imm(Reg::R1, BUF);
    let i1 = Inst::mov_imm(Reg::R5, 0);
    let i2 = Inst::mov_imm(Reg::R2, u64::MAX);
    let loop_pc = VirtAddr::new(TEXT) + i0.encoded_len() + i1.encoded_len() + i2.encoded_len();
    let slot = |disp: i64| MemRef::BaseIndexDisp {
        base: Reg::R1,
        index: Reg::R5,
        scale: 1,
        disp,
    };
    place(
        &mut s,
        VirtAddr::new(TEXT),
        &[
            i0,
            i1,
            i2,
            Inst::Store {
                src: Reg::R0,
                mem: slot(0),
            },
            Inst::Store {
                src: Reg::R2,
                mem: slot(8),
            },
            Inst::Load {
                dst: Reg::R3,
                mem: slot(0),
            },
            Inst::Load {
                dst: Reg::R4,
                mem: slot(8),
            },
            Inst::add_imm(Reg::R5, 16),
            Inst::Alu {
                op: dynlink_isa::AluOp::And,
                dst: Reg::R5,
                src: Operand::Imm(0xFFF0),
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
    let mut m = Machine::new(config(superblock), s);
    m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
    m.reset(VirtAddr::new(TEXT));
    m.run(budget).expect("data workload");
    m.counters().instructions
}

/// Two trampoline-loop processes multiplexed on one machine, swapped
/// every 64 instructions: the §3.3 context-switch shape, dominated by
/// `swap_process` cost when timeslices are this short.
fn run_switch_heavy(budget: u64, superblock: bool) -> u64 {
    const SLICE: u64 = 64;
    let mut m = Machine::new(config(superblock), AddressSpace::new(0));
    m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
    let mut procs: Vec<ProcessContext> = (1..=2)
        .map(|asid| {
            let mut s = AddressSpace::new(asid);
            build_trampoline_program(&mut s);
            ProcessContext::new(s, VirtAddr::new(TEXT), VirtAddr::new(STACK_TOP), 0x10000).unwrap()
        })
        .collect();
    let mut current = 0usize;
    m.swap_process(&mut procs[current]);
    while m.counters().instructions < budget {
        let left = budget - m.counters().instructions;
        m.run(SLICE.min(left)).expect("switch workload");
        m.swap_process(&mut procs[current]);
        current ^= 1;
        m.swap_process(&mut procs[current]);
    }
    m.counters().instructions
}

/// The switch-heavy shape on a 2-core machine: process `p` is pinned to
/// core `p`, the active core alternates every 64 instructions, and the
/// suspended core keeps its warm microarchitectural state while
/// snooping the coherence bus — the multi-core dispatch overhead the
/// `--cores` difftest axis pays on every instruction.
fn run_switch_heavy_2core(budget: u64, superblock: bool) -> u64 {
    const SLICE: u64 = 64;
    let mut m = MachineBuilder::new(config(superblock))
        .cores(2)
        .build(AddressSpace::new(0));
    m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
    let mut procs: Vec<ProcessContext> = (1..=2)
        .map(|asid| {
            let mut s = AddressSpace::new(asid);
            build_trampoline_program(&mut s);
            ProcessContext::new(s, VirtAddr::new(TEXT), VirtAddr::new(STACK_TOP), 0x10000).unwrap()
        })
        .collect();
    let mut current = 0usize;
    m.swap_space_with(procs[current].space_mut());
    m.load_thread(current, &procs[current]);
    m.set_active_core(current);
    while m.counters().instructions < budget {
        let left = budget - m.counters().instructions;
        m.run(SLICE.min(left)).expect("2-core switch workload");
        m.park_thread(current, &mut procs[current]);
        m.swap_space_with(procs[current].space_mut());
        current ^= 1;
        m.swap_space_with(procs[current].space_mut());
        m.load_thread(current, &procs[current]);
        m.set_active_core(current);
    }
    m.counters().instructions
}

fn run_workload(name: &str, budget: u64, superblock: bool) -> u64 {
    match name {
        "trampoline-heavy" => run_trampoline_heavy(budget, superblock),
        "data-heavy" => run_data_heavy(budget, superblock),
        "switch-heavy" => run_switch_heavy(budget, superblock),
        "switch-heavy-2core" => run_switch_heavy_2core(budget, superblock),
        other => panic!("unknown simspeed workload `{other}`"),
    }
}

/// Runs every workload for `budget` simulated instructions (after an
/// untimed warmup at one eighth of the budget) and returns the timed
/// measurements, in [`WORKLOADS`] order.
///
/// Each workload is timed `reps` times and the *fastest* repetition is
/// kept. The workloads are deterministic, so host scheduler preemption
/// can only add time, never remove it — the minimum is the least-noisy
/// estimate of true simulator cost on a shared machine (see
/// `docs/PERF.md`).
pub fn measure_all(budget: u64, reps: u32, superblock: bool) -> Vec<Measurement> {
    measure_only(budget, reps, superblock, None)
}

/// [`measure_all`] restricted to the workloads whose name passes
/// `filter` (`None` keeps all four). Used by `simspeed --only` to time
/// or profile a single workload without the others diluting the run.
pub fn measure_only(
    budget: u64,
    reps: u32,
    superblock: bool,
    filter: Option<&str>,
) -> Vec<Measurement> {
    let reps = reps.max(1);
    WORKLOADS
        .iter()
        .filter(|&&name| filter.is_none_or(|f| f == name))
        .map(|&name| {
            run_workload(name, (budget / 8).max(1), superblock);
            (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    let instructions = run_workload(name, budget, superblock);
                    let nanos = start.elapsed().as_nanos();
                    Measurement {
                        name: match name {
                            "trampoline-heavy" => "trampoline-heavy",
                            "data-heavy" => "data-heavy",
                            "switch-heavy-2core" => "switch-heavy-2core",
                            _ => "switch-heavy",
                        },
                        instructions,
                        nanos,
                    }
                })
                .min_by_key(|m| m.nanos)
                .expect("at least one repetition")
        })
        .collect()
}

/// Renders the fixed-layout result table. Workload order and the
/// instruction column are deterministic; the timing columns are
/// host-dependent by nature.
pub fn render_table(record: &RunRecord) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sim-speed `{}` (budget {} instructions per workload)\n",
        record.label, record.budget
    ));
    out.push_str(&format!(
        "  {:<20} {:>14} {:>12} {:>10}\n",
        "workload", "instructions", "millis", "MIPS"
    ));
    for m in &record.workloads {
        out.push_str(&format!(
            "  {:<20} {:>14} {:>12.2} {:>10.2}\n",
            m.name,
            m.instructions,
            m.nanos as f64 / 1e6,
            m.mips()
        ));
    }
    out
}

/// Serializes a run record as a `dynlink-simspeed/1` JSON object.
pub fn record_to_json(record: &RunRecord) -> json::Value {
    let workloads = record
        .workloads
        .iter()
        .map(|m| {
            json::Value::Object(vec![
                ("name".into(), json::Value::String(m.name.into())),
                (
                    "instructions".into(),
                    json::Value::Number(m.instructions as f64),
                ),
                ("nanos".into(), json::Value::Number(m.nanos as f64)),
                ("mips".into(), json::Value::Number(m.mips())),
            ])
        })
        .collect();
    json::Value::Object(vec![
        ("schema".into(), json::Value::String(SCHEMA.into())),
        ("label".into(), json::Value::String(record.label.clone())),
        ("budget".into(), json::Value::Number(record.budget as f64)),
        ("workloads".into(), json::Value::Array(workloads)),
    ])
}

/// Appends `record` to the JSON array in `path` (creating the file as a
/// one-element array if absent) and returns the new run count.
///
/// The appended array is re-validated before anything is written, so a
/// duplicate label or a label that would land out of PR order (see
/// [`validate`]) rejects the append and leaves the file untouched.
///
/// # Errors
///
/// Returns a message if the existing file fails to parse or validate,
/// if appending `record` would make it invalid, or on I/O failure.
pub fn append_record(path: &std::path::Path, record: &RunRecord) -> Result<usize, String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match validate(&text) {
            Ok(v) => v,
            Err(e) => return Err(format!("{}: existing file invalid: {e}", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.push(record_to_json(record));
    let text = json::Value::Array(runs.clone()).pretty();
    if let Err(e) = validate(&text) {
        return Err(format!(
            "{}: appending `{}` would invalidate the file: {e}",
            path.display(),
            record.label
        ));
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(runs.len())
}

/// The PR sequence number of a `pr<N>-...` benchmark label, if the
/// label follows that convention (the convention every checked-in
/// record uses; free-form labels simply opt out of ordering checks).
fn pr_sequence(label: &str) -> Option<u64> {
    let digits: String = label
        .strip_prefix("pr")?
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parses `text` and checks it against the `dynlink-simspeed/1` schema:
/// a JSON array of run objects, each with a `schema` tag, a `label`, a
/// positive `budget` and a non-empty `workloads` array of
/// `{name, instructions, nanos, mips}` objects. Returns the run values.
///
/// Beyond per-run shape, the array as a whole is the project's
/// performance trajectory, so its history rules are checked too:
/// labels must be unique (a duplicate silently shadows the run it
/// repeats) and `pr<N>-...` labels must appear in non-decreasing PR
/// order (an out-of-order insert rewrites history).
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate(text: &str) -> Result<Vec<json::Value>, String> {
    let value = json::parse(text)?;
    let json::Value::Array(runs) = value else {
        return Err("top level is not a JSON array".into());
    };
    let mut labels: Vec<String> = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let json::Value::Object(fields) = run else {
            return Err(format!("run {i}: not an object"));
        };
        let get = |key: &str| -> Option<&json::Value> {
            fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        };
        match get("schema") {
            Some(json::Value::String(s)) if s == SCHEMA => {}
            _ => return Err(format!("run {i}: missing or wrong `schema` tag")),
        }
        match get("label") {
            Some(json::Value::String(s)) if !s.is_empty() => {
                if labels.iter().any(|l| l == s) {
                    return Err(format!("run {i}: duplicate label `{s}`"));
                }
                if let (Some(prev), Some(seq)) =
                    (labels.last().and_then(|l| pr_sequence(l)), pr_sequence(s))
                {
                    if seq < prev {
                        return Err(format!(
                            "run {i}: label `{s}` is out of order after `pr{prev}` entries"
                        ));
                    }
                }
                labels.push(s.clone());
            }
            _ => return Err(format!("run {i}: missing `label`")),
        }
        match get("budget") {
            Some(json::Value::Number(n)) if *n > 0.0 => {}
            _ => return Err(format!("run {i}: missing positive `budget`")),
        }
        let Some(json::Value::Array(workloads)) = get("workloads") else {
            return Err(format!("run {i}: missing `workloads` array"));
        };
        if workloads.is_empty() {
            return Err(format!("run {i}: empty `workloads`"));
        }
        for (j, w) in workloads.iter().enumerate() {
            let json::Value::Object(wf) = w else {
                return Err(format!("run {i} workload {j}: not an object"));
            };
            let wget = |key: &str| -> Option<&json::Value> {
                wf.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            };
            match wget("name") {
                Some(json::Value::String(s)) if !s.is_empty() => {}
                _ => return Err(format!("run {i} workload {j}: missing `name`")),
            }
            for key in ["instructions", "nanos", "mips"] {
                match wget(key) {
                    Some(json::Value::Number(n)) if *n >= 0.0 => {}
                    _ => return Err(format!("run {i} workload {j}: missing numeric `{key}`")),
                }
            }
        }
    }
    Ok(runs)
}

/// Extracts the MIPS figure for `workload` from a validated run value,
/// if present (used by the trajectory summary and tests).
pub fn run_mips(run: &json::Value, workload: &str) -> Option<f64> {
    let json::Value::Object(fields) = run else {
        return None;
    };
    let (_, json::Value::Array(workloads)) = fields.iter().find(|(k, _)| k == "workloads")? else {
        return None;
    };
    for w in workloads {
        let json::Value::Object(wf) = w else { continue };
        let name_ok = wf
            .iter()
            .any(|(k, v)| k == "name" && matches!(v, json::Value::String(s) if s == workload));
        if name_ok {
            if let Some((_, json::Value::Number(n))) = wf.iter().find(|(k, _)| k == "mips") {
                return Some(*n);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_execute_their_budget() {
        for name in WORKLOADS {
            let executed = run_workload(name, 20_000, true);
            assert!(
                executed >= 20_000,
                "{name}: executed only {executed} of 20000"
            );
            // The switch-heavy slice granularity may run a hair over.
            assert!(executed < 21_000, "{name}: ran far past budget");
        }
    }

    #[test]
    fn measurements_report_positive_mips() {
        let ms = measure_all(10_000, 2, true);
        assert_eq!(ms.len(), WORKLOADS.len());
        for m in &ms {
            assert!(m.mips() > 0.0, "{}: zero MIPS", m.name);
        }
    }

    #[test]
    fn record_roundtrips_through_schema_validation() {
        let record = RunRecord {
            label: "test".into(),
            budget: 10_000,
            workloads: measure_all(10_000, 1, false),
        };
        let text = json::Value::Array(vec![record_to_json(&record)]).pretty();
        let runs = validate(&text).expect("self-produced record validates");
        assert_eq!(runs.len(), 1);
        assert!(run_mips(&runs[0], "trampoline-heavy").unwrap() > 0.0);
    }

    #[test]
    fn append_grows_the_array() {
        let dir = std::env::temp_dir().join(format!("simspeed-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        let record = |label: &str| RunRecord {
            label: label.into(),
            budget: 1,
            workloads: vec![Measurement {
                name: "trampoline-heavy",
                instructions: 1,
                nanos: 1,
            }],
        };
        assert_eq!(append_record(&path, &record("pr1-a")).unwrap(), 1);
        assert_eq!(append_record(&path, &record("pr2-b")).unwrap(), 2);
        let runs = validate(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(runs.len(), 2);

        // A duplicate label or an out-of-PR-order label must reject the
        // append and leave the file as it was.
        let before = std::fs::read_to_string(&path).unwrap();
        let dup = append_record(&path, &record("pr1-a")).unwrap_err();
        assert!(dup.contains("duplicate label"), "{dup}");
        let stale = append_record(&path, &record("pr1-c")).unwrap_err();
        assert!(stale.contains("out of order"), "{stale}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);

        // Same PR number and free-form labels are both still fine.
        assert_eq!(append_record(&path, &record("pr2-c")).unwrap(), 3);
        assert_eq!(append_record(&path, &record("scratch")).unwrap(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validation_rejects_duplicate_and_out_of_order_labels() {
        let run = |label: &str| {
            format!(
                "{{\"schema\": \"{SCHEMA}\", \"label\": \"{label}\", \"budget\": 5, \
                 \"workloads\": [{{\"name\": \"t\", \"instructions\": 1, \"nanos\": 1, \
                 \"mips\": 1}}]}}"
            )
        };
        let dup = format!("[{}, {}]", run("pr4-x"), run("pr4-x"));
        assert!(
            validate(&dup).unwrap_err().contains("duplicate label"),
            "duplicate labels must be rejected"
        );
        let unordered = format!("[{}, {}]", run("pr6-x"), run("pr4-y"));
        assert!(
            validate(&unordered).unwrap_err().contains("out of order"),
            "a PR label landing after a later PR must be rejected"
        );
        let ok = format!("[{}, {}, {}]", run("pr4-x"), run("pr4-y"), run("pr6-z"));
        assert_eq!(validate(&ok).unwrap().len(), 3);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate("{}").is_err(), "object top level");
        assert!(validate("[1]").is_err(), "non-object run");
        assert!(
            validate("[{\"schema\": \"wrong/9\"}]").is_err(),
            "wrong schema tag"
        );
        let missing_mips = format!(
            "[{{\"schema\": \"{SCHEMA}\", \"label\": \"x\", \"budget\": 5, \
             \"workloads\": [{{\"name\": \"t\", \"instructions\": 1, \"nanos\": 1}}]}}]"
        );
        assert!(validate(&missing_mips).is_err(), "workload missing mips");
    }
}
