//! `difftest` — differential fuzzing of the accelerated machine
//! against the golden architectural oracle.
//!
//! ```text
//! difftest [--seed-start N] [--cases N] [--jobs N] [--inject-stale]
//!          [--demand] [--prelink] [--no-superblock] [--no-shrink]
//!          [--multi [--cores N]] [--fleet-smoke]
//!          [--guided [--rounds N] [--round-size N]
//!                    [--corpus DIR] [--save-corpus DIR]]
//! ```
//!
//! Every case is generated from its seed (`seed_start + index`), run
//! through the `dynlink-oracle` interpreter and through the full
//! `System` under `{Off, Abtb, AbtbNoBloom} x {X86, Arm}`, and checked
//! for architectural divergence and counter-invariant violations.
//! `--multi` switches to multi-process cases (paper §3.3): 2–4
//! processes with context switches, ASID-aliasing layouts and an
//! optional shared-GOT pair, each checked additionally across
//! `{FlushOnSwitch, AsidTagged}` switch policies. `--cores N` runs the
//! system side of each multi case on an N-core machine (processes
//! pinned round-robin, GOT stores snooping remote Bloom filters over
//! the coherence bus); the oracle is architectural, so the state
//! digest is identical at every `--cores` level. `--demand` turns
//! every generated case into a demand-paging case *after* generation
//! (lazy code pages fault in on first fetch; evict/dlclose/reopen
//! events join the schedule), so the demand-off digests are untouched.
//! `--prelink` enables the stable-linking axis: each case additionally
//! captures a warm-up resolution snapshot, round-trips it through the
//! versioned `DLSN` format, and checks boot-restored system runs
//! against a boot-restored oracle; the extra runs are compared
//! pairwise and never folded into the state digest, so `--prelink`
//! reports the same digest as the plain sweep.
//! `--no-superblock` runs every system instruction as a 1-op step (no
//! superblock translation). Translation is architecturally invisible,
//! so the digest must be byte-identical with and without the flag; the
//! pinned-digest tests in `tests/oracle_difftest.rs` run each contract
//! sweep both ways.
//! `--fleet-smoke` switches to tiny-fleet cases: 8–16 *identical*
//! tenant processes booted through the arena/fork path
//! (`MultiProcessSystem::new_fleet` — one class template, shared
//! `code_uid`, COW pages) under an ASID-churning switch storm, each
//! checked against per-process oracle digests across the full accel ×
//! flavor × switch-policy matrix. This difftests the representation
//! the `fleet` bench scales to thousands of tenants.
//! `--guided` switches to coverage-guided mutational fuzzing:
//! `--rounds` rounds of `--round-size` candidates, keeping
//! behavioral-coverage-novel cases as mutation parents; `--corpus DIR`
//! seeds from checked-in reproducers, `--save-corpus DIR` persists
//! minimized novel cases in the same reproducer format.
//! Stdout is byte-identical at every `--jobs` level; exit status is
//! non-zero when any case fails. `--inject-stale` enables the
//! intentional stale-ABTB bug (raw GOT rewrites that bypass the store
//! path and skip the §3.4 invalidate) to prove the harness catches and
//! shrinks real divergences. See `docs/TESTING.md` for the workflow.

use std::process::ExitCode;
use std::time::Instant;

use dynlink_bench::difftest::{run_difftest, run_fleet_smoke, run_multi_difftest, Injection};
use dynlink_bench::guided::{run_guided, GuidedConfig};
use dynlink_bench::runner::default_jobs;

fn usage() -> ExitCode {
    eprintln!(
        "usage: difftest [--seed-start N] [--cases N] [--jobs N] [--inject-stale] [--demand] [--prelink] [--no-superblock] [--no-shrink] [--multi [--cores N]] [--fleet-smoke]\n\
         \x20               [--guided [--rounds N] [--round-size N] [--corpus DIR] [--save-corpus DIR]]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut seed_start = 0u64;
    let mut cases = 500u64;
    let mut jobs = default_jobs();
    let mut injection = Injection::None;
    let mut shrink = true;
    let mut multi = false;
    let mut fleet_smoke = false;
    let mut cores = 1usize;
    let mut demand = false;
    let mut prelink = false;
    let mut superblock = true;
    let mut guided = false;
    let mut rounds = 8u64;
    let mut round_size = 64u64;
    let mut corpus_dir: Option<std::path::PathBuf> = None;
    let mut save_dir: Option<std::path::PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed-start" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(s) => seed_start = s,
                    None => return usage(),
                }
            }
            "--cases" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(c) if c >= 1 => cases = c,
                    _ => return usage(),
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(j) if j >= 1 => jobs = j,
                    _ => return usage(),
                }
            }
            "--rounds" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(r) if r >= 1 => rounds = r,
                    _ => return usage(),
                }
            }
            "--round-size" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(r) if r >= 1 => round_size = r,
                    _ => return usage(),
                }
            }
            "--corpus" => {
                i += 1;
                match args.get(i) {
                    Some(d) => corpus_dir = Some(d.into()),
                    None => return usage(),
                }
            }
            "--save-corpus" => {
                i += 1;
                match args.get(i) {
                    Some(d) => save_dir = Some(d.into()),
                    None => return usage(),
                }
            }
            "--cores" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(c) if (1..=8).contains(&c) => cores = c,
                    _ => return usage(),
                }
            }
            "--inject-stale" => injection = Injection::DropInvalidate,
            "--demand" => demand = true,
            "--prelink" => prelink = true,
            "--no-superblock" => superblock = false,
            "--no-shrink" => shrink = false,
            "--multi" => multi = true,
            "--fleet-smoke" => fleet_smoke = true,
            "--guided" => guided = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
        i += 1;
    }
    if guided && demand {
        eprintln!("difftest: --guided reaches demand cases through mutation; drop --demand");
        return usage();
    }
    if guided && prelink {
        eprintln!("difftest: --guided reaches prelink events through mutation; drop --prelink");
        return usage();
    }
    if guided && !superblock {
        eprintln!(
            "difftest: --guided always runs with superblock translation; drop --no-superblock"
        );
        return usage();
    }
    if guided && multi {
        eprintln!(
            "difftest: --guided is single-process; combine coverage from --multi runs instead"
        );
        return usage();
    }
    if fleet_smoke && (multi || guided || demand || prelink || !superblock) {
        eprintln!("difftest: --fleet-smoke is its own mode; drop the other mode flags");
        return usage();
    }
    if cores > 1 && !multi {
        eprintln!("difftest: --cores applies to multi-process cases; add --multi");
        return usage();
    }

    let started = Instant::now();
    let report = if guided {
        run_guided(&GuidedConfig {
            seed_start,
            rounds,
            round_size,
            jobs,
            injection,
            shrink,
            corpus_dir,
            save_dir,
        })
    } else if fleet_smoke {
        run_fleet_smoke(seed_start, cases, jobs)
    } else if multi {
        run_multi_difftest(
            seed_start, cases, jobs, injection, shrink, cores, demand, prelink, superblock,
        )
    } else {
        run_difftest(
            seed_start, cases, jobs, injection, shrink, demand, prelink, superblock,
        )
    };
    print!("{}", report.output);
    eprintln!(
        "total wall-clock: {:.2?} ({jobs} job(s))",
        started.elapsed()
    );

    if report.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
