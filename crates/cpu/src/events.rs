//! Events, errors and host-callback plumbing.

use std::fmt;

use dynlink_isa::{Inst, Reg, VirtAddr};
use dynlink_mem::MemError;
use dynlink_uarch::PerfCounters;

use crate::machine::{Core, Shared};

/// A fatal execution error: the machine cannot make progress.
///
/// Marked `#[non_exhaustive]`: future fault classes (e.g. illegal
/// instruction, watchdog) may add fields without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct CpuError {
    /// Program counter at the fault.
    pub pc: VirtAddr,
    /// The underlying memory fault.
    pub source: MemError,
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu fault at {}: {}", self.pc, self.source)
    }
}

impl std::error::Error for CpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Why [`crate::Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget was exhausted first.
    InstLimit,
}

/// An instrumentation mark recorded when an [`Inst::Mark`] retires
/// (request boundaries in the server workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkEvent {
    /// Marker identifier.
    pub id: u64,
    /// Retired-instruction count at the mark.
    pub instructions: u64,
    /// Cycle count at the mark.
    pub cycles: u64,
}

/// A retired block terminal or host call, as seen by
/// [`RetireObserver`]s.
///
/// One event is delivered per retired control transfer, `halt`, `mark`
/// and host call — the instructions that end a superblock, plus the one
/// instruction no block holds. Straight-line instructions in between
/// retire without an event and are counted in the next event's
/// [`retired`](RetireEvent::retired). The stream is the same on every
/// dispatch path: superblocks, 1-op steps, `superblock: false` and
/// budget-sliced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Address of the retired instruction.
    pub pc: VirtAddr,
    /// The instruction.
    pub inst: Inst,
    /// The next program counter (control-flow outcome).
    pub next_pc: VirtAddr,
    /// For memory-indirect control transfers, the slot the target was
    /// loaded from (a GOT entry for PLT trampolines).
    pub loaded_slot: Option<VirtAddr>,
    /// Set on a call whose trampoline was skipped by the ABTB mechanism:
    /// holds the skipped trampoline's address (the call's architectural
    /// target).
    pub skipped_trampoline: Option<VirtAddr>,
    /// Whether `pc` lies in a PLT section (trampoline instruction).
    pub in_plt: bool,
    /// Instructions retired on this core since its previous event (or
    /// since its counters were last reset), this one included. Summed
    /// over a run that ends in `halt`, it is the run's retired
    /// instruction count.
    pub retired: u64,
}

/// Observer invoked for every [`RetireEvent`] — every retired block
/// terminal and host call (the Pin-like tracing hook used by
/// `dynlink-trace`). Like a Pin trace callback, it sees each run of
/// straight-line code once, at its exit, rather than each instruction;
/// every control transfer ends a run, so none retires unseen. Attaching
/// an observer does not change how the machine dispatches.
pub trait RetireObserver {
    /// Called after each block terminal or host call retires.
    fn on_retire(&mut self, event: &RetireEvent);
}

/// The context a host callback receives: access to registers, simulated
/// memory (through the machine's store path, so the Bloom filter sees
/// GOT rewrites), control flow and the accelerator.
pub struct HostCtx<'a> {
    pub(crate) cores: &'a mut Vec<Core>,
    pub(crate) active: usize,
    pub(crate) shared: &'a mut Shared,
    pub(crate) redirect: Option<VirtAddr>,
}

impl<'a> HostCtx<'a> {
    /// Reads a register (of the core that executed the host call).
    pub fn reg(&self, r: Reg) -> u64 {
        self.cores[self.active].reg(r)
    }

    /// Writes a register (of the core that executed the host call).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.cores[self.active].set_reg(r, value);
    }

    /// Reads simulated memory without microarchitectural side effects
    /// (the host peeking at state, not the program executing a load).
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the address space.
    pub fn peek_u64(&self, addr: VirtAddr) -> Result<u64, MemError> {
        self.shared.space.read_u64(addr)
    }

    /// Writes simulated memory *through the machine's store path*: the
    /// store is counted, charged, and checked against the Bloom filter
    /// exactly like a retired store instruction — including the
    /// coherence-bus broadcast to the other cores of a multi-core
    /// machine. The lazy resolver uses this for GOT rewrites.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the address space.
    pub fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemError> {
        self.cores[self.active].retire_store(self.shared, addr, value)
    }

    /// Redirects execution: the instruction after the host call resumes
    /// at `target` instead of falling through.
    pub fn set_pc(&mut self, target: VirtAddr) {
        self.redirect = Some(target);
    }

    /// Explicitly clears the ABTB on *every* core — the §3.4
    /// software-visible invalidation instruction, which reaches all
    /// cores like an IPI-backed TLB shootdown.
    pub fn invalidate_abtb(&mut self) {
        for core in self.cores.iter_mut() {
            core.invalidate_abtb();
        }
    }

    /// Marks this host call as a lazy-resolver invocation in the
    /// counters (of the core that executed the host call).
    pub fn count_resolver(&mut self) {
        self.cores[self.active].counters.resolver_invocations += 1;
    }

    /// Read-only access to the performance counters (of the core that
    /// executed the host call).
    pub fn counters(&self) -> &PerfCounters {
        &self.cores[self.active].counters
    }
}

/// A registered host callback.
///
/// `Send` so a [`crate::Machine`] (and any `System` wrapping it) can
/// move between threads — the parallel experiment runner ships whole
/// systems to `std::thread::scope` workers.
pub type HostFn = Box<dyn FnMut(&mut HostCtx<'_>) + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_error_display() {
        let e = CpuError {
            pc: VirtAddr::new(0x40),
            source: MemError::Unmapped {
                addr: VirtAddr::new(0x40),
            },
        };
        assert!(e.to_string().contains("0x40"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
