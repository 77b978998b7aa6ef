//! # dynlink-cpu
//!
//! The CPU simulator at the centre of the *Architectural Support for
//! Dynamic Linking* reproduction.
//!
//! [`Machine`] executes `dynlink-isa` instructions functionally against a
//! `dynlink-mem` address space while modelling the microarchitectural
//! structures the paper measures: L1 I/D caches backed by a unified L2,
//! I/D TLBs, a gshare direction predictor, a BTB, a return-address
//! stack — and, when enabled, the paper's proposed hardware: the
//! retire-time **ABTB** plus GOT-guarding **Bloom filter**.
//!
//! ## The mechanism, as implemented (paper §3)
//!
//! * **Fetch/predict** — a direct call consults the BTB. If the BTB
//!   holds the *library function* address (installed by a prior ABTB
//!   hit), the trampoline is never fetched: no I-TLB/I-cache accesses
//!   for the PLT line, no GOT load, no second branch.
//! * **Resolve/verify** — when the call's target resolves, the
//!   architectural target (the trampoline address) is looked up in the
//!   ABTB. On a hit, a prediction matching *either* the trampoline or
//!   the mapped function is correct; the BTB is retrained with the
//!   function address. This introduces no mispredictions the baseline
//!   does not also incur (§3.3).
//! * **Train** — at retire, a direct call immediately followed by a
//!   memory-indirect jump (allowing the scratch-register arithmetic of
//!   ARM-flavoured trampolines in between) inserts `trampoline →
//!   jump-target` into the ABTB and the GOT slot address into the Bloom
//!   filter.
//! * **Guard** — any retired store (or store reported through
//!   [`Machine::broadcast_store`]) whose address hits the Bloom filter
//!   clears the ABTB and the filter. With [`LinkAccel::AbtbNoBloom`] (§3.4) the filter
//!   is absent and software must call [`Machine::invalidate_abtb`].
//!
//! The machine is functionally exact: enabling the accelerator never
//! changes architectural results, only which instructions execute — the
//! property the integration suite checks exhaustively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod events;
mod machine;
mod superblock;

pub use config::{LinkAccel, MachineConfig, Penalties, SwitchPolicy};
pub use events::{CpuError, HostCtx, HostFn, MarkEvent, RetireEvent, RetireObserver, RunExit};
pub use machine::{
    ComponentStats, CycleBreakdown, Machine, MachineBuilder, ProcessContext, Topology,
};
