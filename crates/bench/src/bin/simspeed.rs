//! `simspeed` — host-side simulator-throughput benchmark.
//!
//! ```text
//! simspeed [--budget N] [--reps N] [--label S] [--out PATH] [--no-record] [--no-superblock]
//!          [--only WORKLOAD]
//! simspeed --validate PATH
//! ```
//!
//! Runs the four representative workloads (trampoline-heavy,
//! data-heavy, switch-heavy, switch-heavy-2core — the last on a 2-core
//! machine) for `--budget` simulated instructions
//! each (best of `--reps` timed repetitions, default 3), prints the
//! MIPS table, and appends a machine-readable run record to `--out`
//! (default `BENCH_simspeed.json`). `--no-superblock` times 1-op steps
//! instead of the superblock translation engine — the engine A/B that
//! quantifies what translation buys. `--validate`
//! skips the benchmark and only checks a file against the
//! `dynlink-simspeed/1` schema — the timing-free mode CI uses. See `docs/PERF.md` for the
//! methodology.

use std::path::PathBuf;
use std::process::ExitCode;

use dynlink_bench::simspeed::{
    append_record, measure_only, render_table, run_mips, validate, RunRecord, WORKLOADS,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: simspeed [--budget N] [--reps N] [--label S] [--out PATH] [--no-record] [--no-superblock]\n\
                         [--only WORKLOAD]\n\
                simspeed --validate PATH"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut budget = 16_000_000u64;
    let mut reps = 3u32;
    let mut label = String::from("dev");
    let mut out = PathBuf::from("BENCH_simspeed.json");
    let mut record = true;
    let mut superblock = true;
    let mut only: Option<String> = None;
    let mut validate_path: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(b) if b >= 1 => budget = b,
                    _ => return usage(),
                }
            }
            "--reps" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u32>().ok()) {
                    Some(r) if r >= 1 => reps = r,
                    _ => return usage(),
                }
            }
            "--label" => {
                i += 1;
                match args.get(i) {
                    Some(l) if !l.is_empty() => label = l.clone(),
                    _ => return usage(),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = PathBuf::from(p),
                    None => return usage(),
                }
            }
            "--no-record" => record = false,
            "--no-superblock" => superblock = false,
            "--only" => {
                i += 1;
                match args.get(i) {
                    Some(w) if WORKLOADS.contains(&w.as_str()) => only = Some(w.clone()),
                    _ => return usage(),
                }
            }
            "--validate" => {
                i += 1;
                match args.get(i) {
                    Some(p) => validate_path = Some(PathBuf::from(p)),
                    None => return usage(),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
        i += 1;
    }

    if let Some(path) = validate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simspeed: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match validate(&text) {
            Ok(runs) => {
                println!(
                    "{}: valid dynlink-simspeed/1 document, {} run(s)",
                    path.display(),
                    runs.len()
                );
                for run in &runs {
                    if let Some(mips) = run_mips(run, "trampoline-heavy") {
                        if mips <= 0.0 {
                            eprintln!("simspeed: non-positive trampoline-heavy MIPS");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simspeed: {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    let run = RunRecord {
        label,
        budget,
        workloads: measure_only(budget, reps, superblock, only.as_deref()),
    };
    print!("{}", render_table(&run));

    if record {
        match append_record(&out, &run) {
            Ok(count) => println!(
                "recorded run {count} as `{}` in {}",
                run.label,
                out.display()
            ),
            Err(e) => {
                eprintln!("simspeed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
