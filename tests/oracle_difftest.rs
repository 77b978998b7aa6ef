//! End-to-end tests of the differential-testing subsystem: the §3.4
//! software-invalidate contract, fault-injection detection, shrinking,
//! `--jobs` determinism of the difftest report, and the pinned contract
//! digests.

use dynlink_bench::difftest::{
    check_case, check_multi_case, run_difftest, run_multi_difftest, DiffReport, Injection,
};
use dynlink_core::{LinkAccel, LinkMode, System, SystemBuilder};
use dynlink_isa::Reg;
use dynlink_repro::{adder_library, calling_app};
use dynlink_workloads::fuzz::{
    shrink_case, shrink_multi_case, FuzzCase, FuzzEvent, MultiFuzzCase, MultiFuzzEvent,
    MultiScheduledEvent, ScheduledEvent,
};

/// An app calling `inc` ten times, bound to `libinc` (+1 per call),
/// with a `shadow` provider (+5 per call) loaded last, on a machine
/// whose ABTB has no companion Bloom filter — the §3.4 configuration
/// where software is responsible for invalidation.
fn shadowed_system() -> System {
    SystemBuilder::new()
        .module(calling_app("inc", 10).unwrap())
        .module(adder_library("libinc", "inc", 1).unwrap())
        .module(adder_library("shadow", "inc", 5).unwrap())
        .link_mode(LinkMode::DynamicLazy)
        .accel(LinkAccel::AbtbNoBloom)
        .build()
        .unwrap()
}

/// Rewrites every GOT slot bound to `inc` so it points at the `shadow`
/// provider, as a raw memory write: no store-path notification and no
/// ABTB invalidate — the runtime bug §3.4 warns about.
fn raw_rebind_to_shadow(sys: &mut System) {
    let target = sys
        .image()
        .module("shadow")
        .and_then(|m| m.export("inc"))
        .expect("shadow exports inc");
    let slots: Vec<_> = sys
        .image()
        .modules()
        .iter()
        .flat_map(|m| m.plt_slots.iter())
        .filter(|s| s.symbol == "inc")
        .map(|s| s.got_slot)
        .collect();
    assert!(!slots.is_empty(), "no GOT slot bound to inc");
    for slot in slots {
        sys.machine_mut()
            .space_mut()
            .write_u64(slot, target.as_u64())
            .unwrap();
    }
}

#[test]
fn explicit_invalidate_after_got_rewrite_restores_correctness() {
    let mut sys = shadowed_system();
    sys.run(100_000).unwrap();
    assert_eq!(sys.reg(Reg::R0), 10, "initial binding adds 1 per call");
    assert!(
        sys.counters().trampolines_skipped > 0,
        "ABTB must be trained for the invalidate to matter"
    );

    // Correct §3.4 sequence: rewrite the GOT, then explicitly
    // invalidate the ABTB (there is no Bloom filter to catch the
    // store). Restart keeps the microarchitectural state.
    raw_rebind_to_shadow(&mut sys);
    sys.machine_mut().invalidate_abtb();
    sys.set_reg(Reg::R0, 0);
    sys.restart();
    sys.run(100_000).unwrap();
    assert_eq!(sys.reg(Reg::R0), 50, "rebound provider adds 5 per call");
}

#[test]
fn missing_invalidate_leaves_stale_abtb_divergence() {
    // The negative twin of the test above: identical GOT rewrite but
    // no invalidate. The trained ABTB keeps skipping to the *old*
    // provider, so the architectural result is stale — exactly the
    // divergence class the difftest harness exists to catch.
    let mut sys = shadowed_system();
    sys.run(100_000).unwrap();
    assert_eq!(sys.reg(Reg::R0), 10);
    assert!(sys.counters().trampolines_skipped > 0);

    raw_rebind_to_shadow(&mut sys);
    sys.set_reg(Reg::R0, 0);
    sys.restart();
    sys.run(100_000).unwrap();
    assert_eq!(
        sys.reg(Reg::R0),
        10,
        "without the invalidate the stale ABTB target keeps winning"
    );
}

/// A handcrafted one-library case with a single late rebind: the
/// smallest schedule that exercises the §3.4 path.
///
/// The rebind must land *after* the BTB has been retrained to the
/// mapped function (≥3 calls), so post-rebind calls skip the
/// trampoline outright. If the trampoline still executed, its retired
/// call + indirect-jump pattern would re-train the ABTB with the new
/// GOT target and heal the stale entry on the very next call.
fn rebind_case() -> FuzzCase {
    FuzzCase {
        seed: 0xdead_beef,
        mode: LinkMode::DynamicLazy,
        hw_level: 0,
        lib_delta: vec![7],
        lib_callee: vec![None],
        lib_store: vec![false],
        shadow: true,
        use_ifunc: false,
        demand: false,
        iterations: 8,
        calls: vec![0],
        schedule: vec![ScheduledEvent {
            at_mark: 6,
            event: FuzzEvent::Rebind { lib: 0 },
        }],
    }
}

#[test]
fn harness_detects_dropped_invalidate_on_handcrafted_case() {
    let case = rebind_case();
    let clean = check_case(&case, Injection::None);
    assert!(
        clean.failures.is_empty(),
        "correct runtime entry points must pass: {:?}",
        clean.failures
    );

    let buggy = check_case(&case, Injection::DropInvalidate);
    assert!(
        !buggy.failures.is_empty(),
        "raw GOT rewrite without invalidate must be caught"
    );
    assert!(
        buggy.failures.iter().any(|f| f.contains("divergence")),
        "expected an architectural divergence, got: {:?}",
        buggy.failures
    );
}

#[test]
fn injected_bug_is_found_and_shrunk_to_a_smaller_case() {
    // Scan generated seeds until the injection bites (most schedules
    // contain a rebind or unbind, so this terminates fast).
    let failing = (0..64)
        .map(FuzzCase::generate)
        .find(|c| !check_case(c, Injection::DropInvalidate).failures.is_empty())
        .expect("no seed in 0..64 triggered the injected bug");

    let shrunk = shrink_case(&failing, |c| {
        !check_case(c, Injection::DropInvalidate).failures.is_empty()
    });
    assert!(
        !check_case(&shrunk, Injection::DropInvalidate)
            .failures
            .is_empty(),
        "shrunk case must still reproduce the failure"
    );
    assert!(shrunk.schedule.len() <= failing.schedule.len());
    assert!(shrunk.calls.len() <= failing.calls.len());
    assert!(shrunk.iterations <= failing.iterations);
    // And the clean runtime still passes the minimal case — the
    // failure is the injection, not the program.
    assert!(check_case(&shrunk, Injection::None).failures.is_empty());
}

/// The minimal §3.3 policy discriminator: a stale ABTB entry created by
/// a raw (uninvalidated) rebind in process 0, carried *across* a
/// context switch.
///
/// Process 0 trains its ABTB, gets its GOT rebound to the shadow as a
/// raw write at mark 6 — with no instructions run before the switch
/// away, so the stale entry cannot self-heal — and resumes after
/// process 1 has run. Under `FlushOnSwitch` the switch itself clears
/// the stale entry, so even the buggy rewrite is architecturally
/// invisible; under `AsidTagged` the entry is retained (that is the
/// policy's whole point) and process 0's remaining calls skip to the
/// *old* provider.
///
/// Process 1 binds eagerly (`DynamicNow`) so its run performs no GOT
/// stores: a lazy resolution in process 1 would hit the (deliberately
/// unsalted) Bloom filter on the aliased slot address and heal process
/// 0's stale entry — the exact over-flush conservatism the satellite
/// bugfix introduced.
fn cross_switch_rebind_case() -> MultiFuzzCase {
    let proc0 = FuzzCase {
        seed: 0xc0de,
        mode: LinkMode::DynamicLazy,
        hw_level: 0,
        lib_delta: vec![7],
        lib_callee: vec![None],
        lib_store: vec![false],
        shadow: true,
        use_ifunc: false,
        demand: false,
        iterations: 8,
        calls: vec![0],
        schedule: Vec::new(),
    };
    let proc1 = FuzzCase {
        seed: 0xc0de,
        mode: LinkMode::DynamicNow,
        hw_level: 0,
        lib_delta: vec![3],
        lib_callee: vec![None],
        lib_store: vec![false],
        shadow: false,
        use_ifunc: false,
        demand: false,
        iterations: 4,
        calls: vec![0],
        schedule: Vec::new(),
    };
    MultiFuzzCase {
        seed: 0xc0de,
        procs: vec![proc0, proc1],
        cores: 1,
        demand: false,
        shared_got_pair: None,
        schedule: vec![
            MultiScheduledEvent {
                at_mark: 6,
                event: MultiFuzzEvent::Rebind { lib: 0 },
            },
            MultiScheduledEvent {
                at_mark: 6,
                event: MultiFuzzEvent::Switch { to: 1 },
            },
            MultiScheduledEvent {
                at_mark: 3,
                event: MultiFuzzEvent::Switch { to: 0 },
            },
        ],
    }
}

#[test]
fn stale_entry_across_switch_is_caught_only_under_asid_retention() {
    let case = cross_switch_rebind_case();
    let clean = check_multi_case(&case, Injection::None);
    assert!(
        clean.failures.is_empty(),
        "correct runtime entry points must pass under both policies: {:?}",
        clean.failures
    );

    let buggy = check_multi_case(&case, Injection::DropInvalidate);
    assert!(
        !buggy.failures.is_empty(),
        "raw cross-switch rebind must be caught"
    );
    assert!(
        buggy.failures.iter().all(|f| f.contains("AsidTagged")),
        "every failure must be under ASID retention: {:?}",
        buggy.failures
    );
    assert!(
        buggy
            .failures
            .iter()
            .any(|f| f.contains("architectural divergence")),
        "expected a per-process divergence, got: {:?}",
        buggy.failures
    );
}

#[test]
fn injected_multi_bug_is_found_and_shrunk() {
    let failing = (0..32)
        .map(MultiFuzzCase::generate)
        .find(|c| {
            !check_multi_case(c, Injection::DropInvalidate)
                .failures
                .is_empty()
        })
        .expect("no seed in 0..32 triggered the injected bug");

    let shrunk = shrink_multi_case(&failing, |c| {
        !check_multi_case(c, Injection::DropInvalidate)
            .failures
            .is_empty()
    });
    assert!(
        !check_multi_case(&shrunk, Injection::DropInvalidate)
            .failures
            .is_empty(),
        "shrunk case must still reproduce the failure"
    );
    assert!(shrunk.procs.len() <= failing.procs.len());
    assert!(shrunk.schedule.len() <= failing.schedule.len());
    assert!(
        check_multi_case(&shrunk, Injection::None)
            .failures
            .is_empty(),
        "the failure is the injection, not the program"
    );
}

#[test]
fn multi_difftest_report_is_identical_across_job_counts() {
    let serial = run_multi_difftest(40, 12, 1, Injection::None, false, 1, false, false, true);
    let sharded = run_multi_difftest(40, 12, 4, Injection::None, false, 1, false, false, true);
    assert_eq!(serial.failures, 0, "{}", serial.output);
    assert_eq!(
        serial.output, sharded.output,
        "report must not depend on --jobs"
    );
    assert_eq!(serial.digest, sharded.digest);
    assert!(serial.output.contains("0 failure(s) across 12 case(s)"));
}

#[test]
fn multicore_difftest_report_is_identical_across_job_counts() {
    let serial = run_multi_difftest(40, 8, 1, Injection::None, false, 2, false, false, true);
    let sharded = run_multi_difftest(40, 8, 4, Injection::None, false, 2, false, false, true);
    assert_eq!(serial.failures, 0, "{}", serial.output);
    assert_eq!(
        serial.output, sharded.output,
        "multicore report must not depend on --jobs"
    );
    assert_eq!(serial.digest, sharded.digest);
    assert!(serial.output.contains("core coverage"));
}

#[test]
fn difftest_report_is_identical_across_job_counts() {
    let serial = run_difftest(100, 24, 1, Injection::None, false, false, false, true);
    let sharded = run_difftest(100, 24, 4, Injection::None, false, false, false, true);
    assert_eq!(serial.failures, 0, "{}", serial.output);
    assert_eq!(
        serial.output, sharded.output,
        "report must not depend on --jobs"
    );
    assert_eq!(serial.digest, sharded.digest);
    assert!(serial.output.contains("0 failure(s) across 24 case(s)"));
}

/// Asserts one contract digest (see `docs/TESTING.md`, "Contract
/// digests") with the superblock engine on and off, and no failures.
fn assert_pinned_digest(pinned: u64, sweep: impl Fn(bool) -> DiffReport) {
    for superblock in [true, false] {
        let report = sweep(superblock);
        assert_eq!(report.failures, 0, "{}", report.output);
        assert_eq!(
            report.digest, pinned,
            "superblock={superblock}: digest {:#018x}",
            report.digest
        );
    }
}

/// `difftest --cases 500`.
#[test]
fn single_difftest_digest_is_pinned() {
    assert_pinned_digest(0x26dd_1bdb_1d9e_9317, |sb| {
        run_difftest(0, 500, 2, Injection::None, false, false, false, sb)
    });
}

/// `difftest --multi --cases 200`.
#[test]
fn multi_difftest_digest_is_pinned() {
    assert_pinned_digest(0x1b17_063b_ebc7_172f, |sb| {
        run_multi_difftest(0, 200, 2, Injection::None, false, 1, false, false, sb)
    });
}

/// `difftest --demand --cases 200`.
#[test]
fn demand_difftest_digest_is_pinned() {
    assert_pinned_digest(0x4814_f80e_1faa_8f44, |sb| {
        run_difftest(0, 200, 2, Injection::None, false, true, false, sb)
    });
}

/// `difftest --prelink --cases 200`.
#[test]
fn prelink_difftest_digest_is_pinned() {
    assert_pinned_digest(0x2cd9_5a60_71a7_f4b4, |sb| {
        run_difftest(0, 200, 2, Injection::None, false, false, true, sb)
    });
}
