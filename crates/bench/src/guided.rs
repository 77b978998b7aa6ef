//! Coverage-guided mutational fuzzing over the difftest harness.
//!
//! The random difftest samples the ABTB/Bloom/BTB state machine
//! blindly; this scheduler closes the loop. Each **round** builds a
//! batch of candidate cases on the main thread (round 0 replays the
//! plain `seed_start + i` seeds, so a guided run and a random run start
//! from identical cases; later rounds mutate coverage-novel corpus
//! parents with `dynlink_workloads::mutate`, plus a trickle of fresh
//! random cases to keep exploring). Candidates are evaluated sharded
//! over the [`ParallelRunner`], then a **barrier merge** folds their
//! [`CoverageMap`]s into the global map *in submission order* — so
//! which candidate gets credit for a contested key, and therefore the
//! corpus, the coverage count and the whole report, are byte-identical
//! at every `--jobs` level.
//!
//! Cases that set at least one new coverage key (and pass) join the
//! corpus; cases that fail are reported with their *full reproducer
//! text* (a mutant is not reconstructible from a seed) and the first
//! failure is shrunk exactly like the random mode's. A round that
//! found failures is the campaign's last — completing it keeps the
//! report deterministic, stopping after it keeps the campaign short.
//!
//! `--save-corpus DIR` persists each corpus entry, minimized against
//! the predicate "still covers every key it contributed", in the same
//! plain-text reproducer format the shrinker prints (parseable by
//! `dynlink_workloads::repro`), ready to check into `corpus/`.

use std::path::PathBuf;

use dynlink_rng::Rng;
use dynlink_workloads::coverage::{describe_bit, CoverageMap};
use dynlink_workloads::fuzz::{shrink_case, FuzzCase};
use dynlink_workloads::mutate::mutate_case;
use dynlink_workloads::repro::{parse_corpus_file, CorpusCase};

use crate::difftest::{
    check_case, check_case_coverage, fold64, fold_str, CaseReport, DiffReport, Injection,
    FNV_OFFSET,
};
use crate::runner::{Cell, CellOutcome, ParallelRunner};

/// Fraction (1/N) of post-seed candidates that are fresh random cases
/// rather than corpus mutants, so the campaign never stops exploring.
const FRESH_RATIO: u64 = 8;

/// Configuration of one guided campaign.
#[derive(Debug, Clone)]
pub struct GuidedConfig {
    /// Seeds round 0's cases (`seed_start + i`) and the mutation RNG.
    pub seed_start: u64,
    /// Number of rounds (the campaign may stop earlier on a failure).
    pub rounds: u64,
    /// Candidate cases evaluated per round.
    pub round_size: u64,
    /// Worker threads for candidate evaluation.
    pub jobs: usize,
    /// Fault injection for the system side of every run.
    pub injection: Injection,
    /// Shrink the first failing case to a minimal reproducer.
    pub shrink: bool,
    /// Directory of reproducer files to seed the corpus from (read
    /// before round 0, evaluated and counted against the case budget).
    pub corpus_dir: Option<PathBuf>,
    /// Directory to persist minimized novel cases into.
    pub save_dir: Option<PathBuf>,
}

impl GuidedConfig {
    /// A small-default configuration: 4 rounds of 25 cases.
    pub fn new(seed_start: u64) -> GuidedConfig {
        GuidedConfig {
            seed_start,
            rounds: 4,
            round_size: 25,
            jobs: 1,
            injection: Injection::None,
            shrink: true,
            corpus_dir: None,
            save_dir: None,
        }
    }
}

/// One retained corpus entry: the case and the coverage keys it was
/// first to set (its minimization predicate).
struct CorpusEntry {
    case: FuzzCase,
    novel_bits: Vec<usize>,
}

/// Loads the seed corpus: single-process reproducers become round-zero
/// candidates; multi-process entries are reported and skipped (guided
/// scheduling is single-process — multi coverage comes from the random
/// `--multi` mode). Files are visited in name order so the report stays
/// deterministic. Unreadable or unparseable files become failures: a
/// rotten checked-in reproducer must fail CI, not vanish.
fn load_seed_corpus(dir: &PathBuf, output: &mut String, failures: &mut usize) -> Vec<FuzzCase> {
    let mut names: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .collect(),
        Err(e) => {
            output.push_str(&format!("FAIL corpus dir {}: {e}\n", dir.display()));
            *failures += 1;
            return Vec::new();
        }
    };
    names.sort();
    let mut seeds = Vec::new();
    for path in names {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                output.push_str(&format!("FAIL corpus {}: {e}\n", path.display()));
                *failures += 1;
                continue;
            }
        };
        match parse_corpus_file(&text) {
            Ok(CorpusCase::Single(case)) => seeds.push(case),
            Ok(CorpusCase::Multi(_)) => {
                output.push_str(&format!(
                    "corpus {}: multi-process reproducer, replayed by `--multi`/tests only\n",
                    path.display()
                ));
            }
            Err(e) => {
                output.push_str(&format!("FAIL corpus {}: {e}\n", path.display()));
                *failures += 1;
            }
        }
    }
    seeds
}

/// Runs a coverage-guided campaign. The returned
/// [`DiffReport::output`] is byte-identical at every
/// [`GuidedConfig::jobs`] level for a fixed config.
pub fn run_guided(cfg: &GuidedConfig) -> DiffReport {
    let mut output = format!(
        "guided difftest: {} round(s) x {} candidate(s), seeds from {}, {{Off,Abtb,AbtbNoBloom}} x {{X86,Arm}}{}\n",
        cfg.rounds,
        cfg.round_size,
        cfg.seed_start,
        match cfg.injection {
            Injection::None => "",
            Injection::DropInvalidate => ", injecting stale-ABTB bug",
        }
    );

    let mut rng = Rng::seed_from_u64(cfg.seed_start ^ 0x9d1d_ed5e_ed00_0001);
    let mut coverage = CoverageMap::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut digest = FNV_OFFSET;
    let mut timing = FNV_OFFSET;
    let mut failures = 0usize;
    let mut cases_total = 0u64;
    let mut first_failure: Option<FuzzCase> = None;

    let seed_cases = match &cfg.corpus_dir {
        Some(dir) => load_seed_corpus(dir, &mut output, &mut failures),
        None => Vec::new(),
    };

    // Round -1 (label "seed") replays the checked-in corpus; rounds
    // 0..rounds generate and mutate.
    let rounds: Vec<(String, Vec<FuzzCase>)> = {
        let mut r = Vec::new();
        if !seed_cases.is_empty() {
            r.push(("seed".to_owned(), seed_cases));
        }
        r
    };
    let mut planned = rounds;

    for round in 0..cfg.rounds {
        planned.push((format!("{round}"), Vec::new()));
    }

    for (label, mut candidates) in planned {
        // Candidate construction is main-thread sequential: identical
        // at every jobs level.
        if candidates.is_empty() {
            candidates = (0..cfg.round_size)
                .map(|i| {
                    if label == "0" || corpus.is_empty() {
                        // Round 0 replays the same seeds the random
                        // mode would check, for budget-for-budget
                        // comparability.
                        if label == "0" {
                            FuzzCase::generate(cfg.seed_start + i)
                        } else {
                            FuzzCase::generate(rng.next_u64())
                        }
                    } else if rng.gen_ratio(1, FRESH_RATIO) {
                        FuzzCase::generate(rng.next_u64())
                    } else {
                        let pool: Vec<FuzzCase> = corpus.iter().map(|e| e.case.clone()).collect();
                        // Frontier bias: half the picks mutate one of
                        // the newest corpus entries — the cases that
                        // most recently opened new coverage are the
                        // ones whose neighborhood is least explored.
                        let frontier = pool.len().saturating_sub(4);
                        let parent = if rng.gen_ratio(1, 2) {
                            &pool[frontier + rng.gen_index(0..pool.len() - frontier)]
                        } else {
                            &pool[rng.gen_index(0..pool.len())]
                        };
                        mutate_case(parent, &pool, &mut rng)
                    }
                })
                .collect();
        }

        let injection = cfg.injection;
        let cells: Vec<Cell<(CaseReport, CoverageMap)>> = candidates
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let case = case.clone();
                Cell::new(format!("r{label}c{i}"), move |_ctx| {
                    check_case_coverage(&case, injection)
                })
            })
            .collect();
        let report = ParallelRunner::new(cfg.jobs).run(cfg.seed_start ^ 0x9d1d_0001, cells);

        // Barrier merge in submission order: coverage credit, corpus
        // membership and the digest are independent of scheduling.
        let cov_before = coverage.count();
        let corpus_before = corpus.len();
        let mut round_failures = 0usize;
        for (i, cell) in report.cells.into_iter().enumerate() {
            cases_total += 1;
            match cell.outcome {
                CellOutcome::Done((r, map)) => {
                    digest = fold64(digest, r.digest_fold);
                    timing = fold64(timing, r.timing_fold);
                    let novel = coverage.merge(&map);
                    if !r.failures.is_empty() {
                        if first_failure.is_none() {
                            first_failure = Some(candidates[i].clone());
                        }
                        output.push_str(&format!("FAIL case: {}\n", candidates[i]));
                        for f in &r.failures {
                            output.push_str(&format!("  {f}\n"));
                            round_failures += 1;
                        }
                    } else if !novel.is_empty() {
                        corpus.push(CorpusEntry {
                            case: candidates[i].clone(),
                            novel_bits: novel,
                        });
                    }
                }
                CellOutcome::Panicked(msg) => {
                    output.push_str(&format!("FAIL {}: panicked: {msg}\n", cell.label));
                    round_failures += 1;
                }
            }
        }
        failures += round_failures;
        output.push_str(&format!(
            "round {label}: coverage {} (+{}), corpus {} (+{}), failures {round_failures}\n",
            coverage.count(),
            coverage.count() - cov_before,
            corpus.len(),
            corpus.len() - corpus_before,
        ));
        if round_failures > 0 {
            // The failure round completes (deterministic accounting),
            // then the campaign stops: further mutation of a broken
            // mechanism only re-finds the same bug.
            break;
        }
    }

    if let Some(case) = first_failure.take().filter(|_| cfg.shrink) {
        let shrunk = shrink_case(&case, |c| !check_case(c, cfg.injection).failures.is_empty());
        output.push_str("shrunk minimal reproducer:\n");
        output.push_str(&format!("  {shrunk}\n"));
        for f in check_case(&shrunk, cfg.injection).failures {
            output.push_str(&format!("  {f}\n"));
        }
    }

    // The corpus is part of the report (and of the digest): the
    // determinism guarantee covers exactly which cases were kept.
    if !corpus.is_empty() {
        output.push_str(&format!("corpus ({} case(s)):\n", corpus.len()));
        for entry in &corpus {
            let text = entry.case.to_string();
            digest = fold_str(digest, &text);
            output.push_str(&format!("  {text}\n"));
        }
    }

    if let Some(dir) = &cfg.save_dir {
        save_corpus(dir, &corpus, cfg.injection, &mut output, &mut failures);
    }

    output.push_str(&format!(
        "guided difftest: {failures} failure(s) across {cases_total} case(s); coverage {} key(s); corpus {} case(s); state digest {digest:#018x}; timing digest {timing:#018x}\n",
        coverage.count(),
        corpus.len(),
    ));
    DiffReport {
        output,
        failures,
        cases: cases_total,
        digest,
        timing,
        coverage: coverage.count(),
    }
}

/// Minimizes each corpus entry against "still passes and still covers
/// every key it contributed", then writes it as a commented reproducer
/// file named after its index and coverage contribution.
fn save_corpus(
    dir: &PathBuf,
    corpus: &[CorpusEntry],
    injection: Injection,
    output: &mut String,
    failures: &mut usize,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        output.push_str(&format!("FAIL save-corpus {}: {e}\n", dir.display()));
        *failures += 1;
        return;
    }
    for (i, entry) in corpus.iter().enumerate() {
        let minimized = shrink_case(&entry.case, |c| {
            let (r, m) = check_case_coverage(c, injection);
            r.failures.is_empty() && entry.novel_bits.iter().all(|&b| m.contains(b))
        });
        let mut text = String::from("# guided-fuzzer corpus entry; novel coverage keys:\n");
        for &b in &entry.novel_bits {
            text.push_str(&format!("#   {}\n", describe_bit(b)));
        }
        text.push_str(&format!("{minimized}\n"));
        let path = dir.join(format!("guided_{i:04}.txt"));
        match std::fs::write(&path, &text) {
            Ok(()) => output.push_str(&format!("saved {}\n", path.display())),
            Err(e) => {
                output.push_str(&format!("FAIL save {}: {e}\n", path.display()));
                *failures += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GuidedConfig {
        GuidedConfig {
            seed_start: 0,
            rounds: 2,
            round_size: 4,
            jobs: 2,
            injection: Injection::None,
            shrink: false,
            corpus_dir: None,
            save_dir: None,
        }
    }

    #[test]
    fn clean_campaign_grows_coverage_and_corpus() {
        let r = run_guided(&small_cfg());
        assert_eq!(r.failures, 0, "{}", r.output);
        assert_eq!(r.cases, 8);
        assert!(r.coverage > 0, "{}", r.output);
        assert!(r.output.contains("round 0: coverage"), "{}", r.output);
        assert!(r.output.contains("corpus ("), "{}", r.output);
    }

    #[test]
    fn injected_bug_stops_the_campaign_and_is_shrunk() {
        let mut cfg = small_cfg();
        cfg.rounds = 8;
        cfg.injection = Injection::DropInvalidate;
        cfg.shrink = true;
        let r = run_guided(&cfg);
        assert!(r.failures > 0, "{}", r.output);
        assert!(
            r.output.contains("shrunk minimal reproducer"),
            "{}",
            r.output
        );
        assert!(
            r.cases < 8 * cfg.round_size,
            "campaign must stop at the failing round: {}",
            r.output
        );
    }
}
