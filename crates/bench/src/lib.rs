//! # dynlink-bench
//!
//! Experiment drivers regenerating **every table and figure** of the
//! evaluation section of *Architectural Support for Dynamic Linking*
//! (ASPLOS 2015), plus the `repro` binary that prints them.
//!
//! Experiment index (see `DESIGN.md` for the full mapping):
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Table 2 (trampoline PKI) | [`experiments::table2`] |
//! | Table 3 (distinct trampolines) | [`experiments::table3`] |
//! | Figure 4 (rank–frequency) | [`experiments::fig4`] |
//! | Table 4 (performance counters) | [`experiments::table4`] |
//! | Figure 5 (ABTB sizing) | [`experiments::fig5`] |
//! | Figure 6 (Apache latency CDFs) | [`experiments::fig6`] |
//! | Table 5 (Firefox scores) | [`experiments::table5`] |
//! | Figure 7 (Memcached histograms) | [`experiments::fig7`] |
//! | Figure 8 / Table 6 (MySQL latency) | [`experiments::fig8_table6`] |
//! | §5.5 (memory savings) | [`memsave::memory_savings`] |
//! | §5.3 (hardware cost) | [`experiments::hw_cost`] |
//!
//! All of the above are also listed in [`registry::registry`], the
//! single dispatch table consumed by the `repro` binary (`--exp`,
//! `--list`). [`runner::ParallelRunner`] shards
//! experiment cells across `--jobs` worker threads with deterministic
//! per-cell seeds and panic isolation.
//!
//! Beyond the paper: [`experiments::btb_pressure`] (§2.2 quantified),
//! [`experiments::cycle_breakdown`] (§5.2 first- vs second-order),
//! [`experiments::context_switch_sweep`] (§3.3 policies),
//! [`experiments::negative_control`] (compute-bound neutrality),
//! [`experiments::sensitivity`] (machine-parameter robustness) and
//! [`experiments::multitenant`] (two processes co-scheduled on one
//! core with ASID-tagged vs flushed ABTBs).
//!
//! Correctness at scale: [`difftest`] (driven by the `difftest`
//! binary) fuzzes random programs and event schedules against the
//! golden `dynlink-oracle` interpreter under every accelerator mode,
//! with fault injection and automatic shrinking — see `docs/TESTING.md`.
//!
//! Simulator speed: [`simspeed`] (driven by the `simspeed` binary)
//! measures host-side simulated-MIPS on representative workloads and
//! appends the trajectory to `BENCH_simspeed.json` — see
//! `docs/PERF.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod difftest;
pub mod experiments;
pub mod fleet;
pub mod guided;
pub mod memsave;
pub mod registry;
pub mod runner;
pub mod simspeed;

pub use experiments::{collect, collect_all, collect_all_jobs, Scale, WorkloadDataset};
pub use registry::{registry, Experiment, ExperimentCtx};
pub use runner::{default_jobs, Cell, CellOutcome, ParallelRunner, RunReport};
