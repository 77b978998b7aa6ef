//! Replays every checked-in reproducer in `corpus/` against the full
//! differential harness on each `cargo test`.
//!
//! Each corpus file is a shrunk reproducer in the plain-text format the
//! shrinker prints (see `docs/TESTING.md`). Replaying them here turns
//! one-off fuzzing discoveries into permanent regression tests: a
//! single-process case runs under every `{LinkAccel, Flavor}` combo, a
//! multi-process case additionally under both context-switch policies,
//! and any architectural divergence or counter-invariant violation
//! fails the suite.

use std::fs;
use std::path::PathBuf;

use dynlink_bench::difftest::{
    check_case, check_case_with_demand_invalidation, check_case_with_prelink_validation,
    check_case_with_superblock, check_case_with_superblock_validation, check_multi_case,
    check_multi_case_coverage, check_multi_case_with_bus,
    check_multi_case_with_demand_invalidation, check_multi_case_with_superblock, Injection,
};
use dynlink_workloads::coverage::describe_bit;
use dynlink_workloads::repro::{parse_corpus_file, CorpusCase};

/// The checked-in corpus directory at the workspace root.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Every `corpus/*.txt` file, sorted by name for stable iteration.
fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus/ directory must exist at the workspace root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty_and_parses() {
    let files = corpus_files();
    assert!(
        files.len() >= 4,
        "expected at least the PR 2–3 reproducers plus the PR 6 cross-core case, found {files:?}"
    );
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        parse_corpus_file(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn corpus_cases_round_trip_through_the_reproducer_format() {
    for path in corpus_files() {
        let text = fs::read_to_string(&path).unwrap();
        let case = parse_corpus_file(&text).unwrap();
        let reprinted = case.to_string();
        let reparsed = parse_corpus_file(&reprinted)
            .unwrap_or_else(|e| panic!("{}: reprint did not parse: {e}", path.display()));
        assert_eq!(
            case,
            reparsed,
            "{}: Display/FromStr must round-trip",
            path.display()
        );
    }
}

#[test]
fn corpus_replays_clean_under_every_accel_flavor_combo() {
    for path in corpus_files() {
        let text = fs::read_to_string(&path).unwrap();
        let failures = match parse_corpus_file(&text).unwrap() {
            CorpusCase::Single(case) => check_case(&case, Injection::None).failures,
            CorpusCase::Multi(case) => check_multi_case(&case, Injection::None).failures,
        };
        assert!(
            failures.is_empty(),
            "{}: corpus replay failed:\n{}",
            path.display(),
            failures.join("\n")
        );
    }
}

/// The cross-core reproducer must stay an exact witness of the §3.2
/// coherence path: with the broadcast bus on, the case is clean and
/// core 0's Bloom filter visibly absorbs the remote rebind (nonzero
/// coherence flushes, recorded as the `CoherenceFlush` core-count
/// coverage facet); with the bus off, the resident core's retained
/// ABTB entry goes stale and the oracle catches the skip divergence.
#[test]
fn cross_core_stale_rebind_needs_the_coherence_bus() {
    let text = fs::read_to_string(corpus_dir().join("cross_core_stale_rebind.txt")).unwrap();
    let CorpusCase::Multi(case) = parse_corpus_file(&text).unwrap() else {
        panic!("cross_core_stale_rebind.txt must be a multi-process case");
    };
    assert_eq!(
        case.cores, 2,
        "the cores field must round-trip from the file"
    );

    let (clean, map) = check_multi_case_coverage(&case, Injection::None);
    assert!(
        clean.failures.is_empty(),
        "with the coherence bus the case must pass: {:?}",
        clean.failures
    );
    assert!(
        map.iter_set()
            .map(describe_bit)
            .any(|d| d.contains("CoherenceFlush")),
        "the clean replay must witness a coherence-caused flush on a remote core"
    );

    let stale = check_multi_case_with_bus(&case, Injection::None, false);
    assert!(
        !stale.failures.is_empty(),
        "disabling the broadcast must leave the resident core stale"
    );
    assert!(
        stale
            .failures
            .iter()
            .any(|f| f.contains("architectural divergence")),
        "expected a stale-skip divergence, got: {:?}",
        stale.failures
    );
}

/// The single-process `DropInvalidate` reproducer must still reproduce:
/// if the injected stale-ABTB bug stops diverging on it, the corpus
/// entry has rotted (or the harness has gone blind).
/// The demand-paging GC witness must stay an exact witness of the
/// module-GC invalidation: with the mandated invalidation (the
/// default), `dlclose` re-arms the GOT, unmaps the module's code and
/// flushes the front end, so the next call re-resolves cleanly through
/// the interposing shadow provider; with `demand_invalidate = false`
/// the trained ABTB skips past the re-armed stub straight into the
/// unmapped range, and the system diverges from the oracle under both
/// Bloom variants.
#[test]
fn stale_skip_into_unmapped_page_needs_the_gc_invalidation() {
    let text = fs::read_to_string(corpus_dir().join("stale_skip_unmapped_page.txt")).unwrap();
    let CorpusCase::Single(case) = parse_corpus_file(&text).unwrap() else {
        panic!("stale_skip_unmapped_page.txt must be a single-process case");
    };
    assert!(case.demand, "the demand flag must round-trip from the file");

    let clean = check_case_with_demand_invalidation(&case, Injection::None, true);
    assert!(
        clean.failures.is_empty(),
        "with the GC invalidation the case must pass: {:?}",
        clean.failures
    );

    let stale = check_case_with_demand_invalidation(&case, Injection::None, false);
    assert!(
        !stale.failures.is_empty(),
        "skipping the GC invalidation must leave the trained ABTB stale"
    );
    for accel in ["/Abtb]", "/AbtbNoBloom]"] {
        assert!(
            stale.failures.iter().any(|f| f.contains(accel)),
            "expected a stale-skip failure under {accel}, got: {:?}",
            stale.failures
        );
    }
}

/// The tenant-churn witness must stay an exact witness of the §3.3
/// retention hazard: under `AsidTagged` tenancy, an eager co-tenant's
/// time slice performs no GOT stores and no switch ever flushes, so
/// the suspended tenant's trained ABTB entries survive untouched.
/// When that tenant resumes and `dlclose`s the trained library, the
/// mandated GC shootdown is the *only* thing standing between the
/// retained entry and a trampoline skip into the unmapped range —
/// with `demand_invalidate = false` the run faults and diverges, but
/// **only** in the `AsidTagged` cells: `FlushOnSwitch` destroyed the
/// entry on the way out and must stay clean, pinning the divergence
/// as policy-dependent (the fleet-tenancy hazard, not a generic GC
/// bug).
#[test]
fn tenant_churn_stale_skip_is_asid_tagged_only() {
    let text = fs::read_to_string(corpus_dir().join("tenant_churn_stale_skip.txt")).unwrap();
    let CorpusCase::Multi(case) = parse_corpus_file(&text).unwrap() else {
        panic!("tenant_churn_stale_skip.txt must be a multi-process case");
    };
    assert!(case.demand, "the demand flag must round-trip from the file");

    let clean = check_multi_case_with_demand_invalidation(&case, Injection::None, true);
    assert!(
        clean.failures.is_empty(),
        "with the GC shootdown the case must pass: {:?}",
        clean.failures
    );

    let stale = check_multi_case_with_demand_invalidation(&case, Injection::None, false);
    assert!(
        !stale.failures.is_empty(),
        "skipping the GC shootdown must leave the retained ABTB entry stale"
    );
    assert!(
        stale.failures.iter().all(|f| f.contains("AsidTagged")),
        "the divergence must be confined to the AsidTagged cells: {:?}",
        stale.failures
    );
    for accel in ["/Abtb/", "/AbtbNoBloom/"] {
        assert!(
            stale.failures.iter().any(|f| f.contains(accel)),
            "expected a stale-skip failure under {accel}, got: {:?}",
            stale.failures
        );
    }
}

/// The stable-linking witness must stay an exact witness of the
/// cache/demand-GC seam: `dlclose` tombstones the prelink-cache entry
/// resolved into the closed module, so the immediately following
/// `prelink` self-restore skips it under the default validation and the
/// case is clean. With `prelink_validate = false` the tombstoned entry
/// is replayed verbatim, re-arming the GOT slot into the GC-unmapped
/// range; the next call jumps through it into unmapped memory and the
/// system diverges from the always-validating oracle — under every
/// accel mode, because the stale GOT word is architectural state.
#[test]
fn stale_prelink_restore_needs_validation() {
    let text = fs::read_to_string(corpus_dir().join("stale_prelink_restore.txt")).unwrap();
    let CorpusCase::Single(case) = parse_corpus_file(&text).unwrap() else {
        panic!("stale_prelink_restore.txt must be a single-process case");
    };
    assert!(
        case.schedule
            .iter()
            .any(|e| e.event.to_string() == "prelink"),
        "the prelink event must round-trip from the file"
    );

    let clean = check_case_with_prelink_validation(&case, Injection::None, true);
    assert!(
        clean.failures.is_empty(),
        "with restore validation the case must pass: {:?}",
        clean.failures
    );

    let stale = check_case_with_prelink_validation(&case, Injection::None, false);
    assert!(
        !stale.failures.is_empty(),
        "replaying the tombstoned entry verbatim must diverge"
    );
    for accel in ["/Off]", "/Abtb]", "/AbtbNoBloom]"] {
        assert!(
            stale.failures.iter().any(|f| f.contains(accel)),
            "expected a stale-restore failure under {accel}, got: {:?}",
            stale.failures
        );
    }
}

/// Replays the whole corpus — including the demand-GC witness
/// (`stale_skip_unmapped_page.txt`) and the stable-linking witness
/// (`stale_prelink_restore.txt`) — with the superblock translation
/// engine forced on and forced off, and asserts both sweeps are clean
/// *and* report identical digest folds. Translation is a simulator
/// speedup, never an architectural event: if any reproducer's digest
/// moves when the engine flips, a translated path has leaked timing or
/// state that 1-op steps do not produce.
#[test]
fn corpus_digests_are_engine_independent() {
    for path in corpus_files() {
        let text = fs::read_to_string(&path).unwrap();
        let (translated, interpreted) = match parse_corpus_file(&text).unwrap() {
            CorpusCase::Single(case) => (
                check_case_with_superblock(&case, Injection::None, true),
                check_case_with_superblock(&case, Injection::None, false),
            ),
            CorpusCase::Multi(case) => (
                check_multi_case_with_superblock(&case, Injection::None, true),
                check_multi_case_with_superblock(&case, Injection::None, false),
            ),
        };
        assert!(
            translated.failures.is_empty() && interpreted.failures.is_empty(),
            "{}: engine A/B replay failed:\n{}",
            path.display(),
            translated
                .failures
                .iter()
                .chain(&interpreted.failures)
                .cloned()
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(
            translated.digest_fold,
            interpreted.digest_fold,
            "{}: superblock engine changed the architectural digest",
            path.display()
        );
    }
}

/// Fuzz-schedule events never rewrite code under a live translation
/// (rebind/unbind/prelink touch the GOT, which translated loads read
/// live; GC and demand eviction retire the region before control can
/// re-enter it), so replaying the corpus with `superblock_validate =
/// false` must stay clean — the knob's divergence witness is the
/// direct `patch_code`-under-a-cached-block test in
/// `crates/cpu/tests/decode_coherence.rs`. This replay pins the other
/// half of the discipline: the corpus alone cannot prove the
/// revalidation necessary, so the negative control must live at the
/// machine level.
#[test]
fn corpus_stays_clean_without_superblock_revalidation() {
    for path in corpus_files() {
        let text = fs::read_to_string(&path).unwrap();
        if let CorpusCase::Single(case) = parse_corpus_file(&text).unwrap() {
            let stale = check_case_with_superblock_validation(&case, Injection::None, false);
            assert!(
                stale.failures.is_empty(),
                "{}: schedule events should never patch code under a live block:\n{}",
                path.display(),
                stale.failures.join("\n")
            );
        }
    }
}

#[test]
fn drop_invalidate_reproducer_still_bites_under_injection() {
    let text = fs::read_to_string(corpus_dir().join("drop_invalidate_rebind.txt")).unwrap();
    let CorpusCase::Single(case) = parse_corpus_file(&text).unwrap() else {
        panic!("drop_invalidate_rebind.txt must be a single-process case");
    };
    let buggy = check_case(&case, Injection::DropInvalidate);
    assert!(
        !buggy.failures.is_empty(),
        "the checked-in reproducer no longer triggers the injected bug"
    );
}
