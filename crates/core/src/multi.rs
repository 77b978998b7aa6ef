//! Processes time-sharing one simulated machine (paper §3.3).
//!
//! [`MultiProcessSystem`] loads one or more independent processes —
//! each with its own [`AddressSpace`], [`ProcessImage`] and live
//! resolution table — onto a single [`Machine`], switching between them
//! with the machine's park/load/swap primitives. It holds one
//! [`Process`] value per process, and the state the lazy resolver reads
//! behind one mutex ([`Linker`]); every runtime-linker operation is
//! written once, against the active process or process `p`.
//! [`crate::System`] is the one-process case and wraps one.
//!
//! This is the system-under-test counterpart of
//! `dynlink_oracle::MultiOracle`: the machine carries all the
//! microarchitectural state (BTB, ABTB, Bloom filter, caches) across
//! switches per its configured §3.3 policy, while the oracle switches
//! trivially; any architectural divergence between the two is a bug in
//! the accelerated machine's switch handling.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use dynlink_cpu::{CpuError, Machine, MachineBuilder, MachineConfig, ProcessContext};
use dynlink_isa::{Inst, Reg, VirtAddr};
use dynlink_linker::{
    apply_call_site_patches, fingerprint, LinkMode, LinkOptions, Loader, ModuleSpec, ProcessImage,
    ResolutionSnapshot, ResolutionTable, RestoreOutcome, SnapshotBuilder, SnapshotEntry,
    RESOLVER_HOST_FN,
};
use dynlink_mem::layout::STACK_TOP;
use dynlink_mem::{AddressSpace, Perms, PAGE_BYTES};
use dynlink_trace::{lock_recovering, ResolutionKind, ResolutionRecord, TelemetryWriter};
use dynlink_uarch::PerfCounters;

use crate::SystemError;

/// Default stack size for simulated processes.
const STACK_BYTES: u64 = 1 << 20;

/// What module GC tore down, kept so a later reopen can rebuild the
/// module's code at the same virtual addresses.
struct GcRemnant {
    /// The unmapped code extents (`(base, len)`).
    extents: Vec<(VirtAddr, u64)>,
    /// The instructions that lived there.
    code: Vec<(VirtAddr, Inst)>,
}

/// One loaded process: everything kept per process except what the
/// resolver host function reads (see [`Linker`]).
struct Process {
    /// The process's thread and address space while it is suspended.
    /// While it is active the machine holds both, and this slot parks
    /// the placeholder space instead.
    context: ProcessContext,
    image: Arc<ProcessImage>,
    /// The options it was loaded with (demand paging, ifunc hardware
    /// level).
    link: LinkOptions,
    /// Code snapshots of `dlclose`d modules, for reopening.
    gc_remnants: HashMap<String, GcRemnant>,
    /// Marks retired so far. The machine's mark buffer is drained into
    /// the active process after every run segment, so schedule targets
    /// are relative to the process they name.
    marks: u64,
    /// What the boot-time prelink restore did, if there was one.
    prelink_outcome: Option<RestoreOutcome>,
}

impl Process {
    /// Whether code was loaded demand-paged (honoured under lazy binding
    /// only), so a reopen re-registers extents without faulting them in.
    fn demand_paged(&self) -> bool {
        self.link.demand_paging && self.link.mode == LinkMode::DynamicLazy
    }
}

/// What the resolver host function shares with the system. The single
/// registered resolver dispatches on `active`, which is necessary
/// because deliberately aliasing layouts give different processes
/// *identical* stub keys.
struct Linker {
    active: usize,
    /// One live binding table per process.
    tables: Vec<ResolutionTable>,
    /// One in-memory prelink cache per process: lazy resolutions and
    /// rebinds are recorded, `dlclose` victims tombstoned.
    builders: Vec<SnapshotBuilder>,
    /// Resolution telemetry, shared across processes in event order.
    telemetry: TelemetryWriter,
}

/// Loaded processes not yet on a machine: what a [`MultiProcessSystem`]
/// boots from. Every constructor, [`crate::SystemBuilder`] and the fleet
/// arena fill it through [`BootParts::add`].
#[derive(Default)]
pub(crate) struct BootParts {
    procs: Vec<Process>,
    tables: Vec<ResolutionTable>,
    module_refs: HashMap<String, usize>,
    telemetry: TelemetryWriter,
}

impl BootParts {
    /// Number of processes added so far. Process `i` has ASID `i + 1`.
    pub(crate) fn len(&self) -> usize {
        self.procs.len()
    }

    /// Loads `modules` into a fresh address space with the next ASID
    /// (entry `main`, default stack) and adds the process.
    pub(crate) fn load(
        &mut self,
        modules: &[ModuleSpec],
        link: LinkOptions,
    ) -> Result<(), SystemError> {
        let mut space = AddressSpace::new(self.len() as u64 + 1);
        let image = Loader::new(link).load(modules, "main", &mut space)?;
        self.add(Arc::new(image), link, space, STACK_BYTES)
    }

    /// Adds a process whose `space` holds `image`, loaded into it or
    /// forked from the space it was loaded into: maps its stack, takes a
    /// reference on each module and seeds its live table. Eager
    /// (`BIND_NOW`) loads resolved everything at link time: their binds
    /// are recorded as telemetry but never enter the prelink cache,
    /// which records only lazy resolution work worth skipping.
    pub(crate) fn add(
        &mut self,
        image: Arc<ProcessImage>,
        link: LinkOptions,
        space: AddressSpace,
        stack_bytes: u64,
    ) -> Result<(), SystemError> {
        let context = ProcessContext::new(space, image.entry(), STACK_TOP, stack_bytes)?;
        for m in image.modules() {
            *self.module_refs.entry(m.name.clone()).or_insert(0) += 1;
        }
        if link.mode == LinkMode::DynamicNow {
            for b in image.resolution().iter() {
                self.telemetry.record(
                    b.module,
                    b.import,
                    ResolutionKind::Eager,
                    b.got_slot,
                    b.target,
                    0,
                );
            }
        }
        self.tables.push(image.resolution().clone());
        self.procs.push(Process {
            context,
            image,
            link,
            gc_remnants: HashMap::new(),
            marks: 0,
            prelink_outcome: None,
        });
        Ok(())
    }
}

/// Registers the lazy resolver: it reads the binding key from the
/// scratch register, looks it up in the *active* process's table,
/// rewrites the GOT slot *through the store path* (so the Bloom filter
/// observes it) and redirects to the target. Every resolution is
/// recorded in the active process's prelink cache and in the telemetry
/// stream.
fn register_resolver(machine: &mut Machine, linker: Arc<Mutex<Linker>>) {
    let explicit_invalidate = !machine.config().accel.has_bloom();
    machine.register_host_fn(
        RESOLVER_HOST_FN,
        Box::new(move |ctx| {
            let key = ctx.reg(Reg::SCRATCH);
            let mut guard = lock_recovering(&linker);
            let Linker {
                active,
                tables,
                builders,
                telemetry,
            } = &mut *guard;
            let table = &tables[*active];
            let binding = table
                .binding_for_key(key)
                .expect("lazy stub fired with unknown binding key");
            // A binding into a `dlclose`d module resolves through to the
            // next open provider in interposition order.
            let target = table.effective_target(&binding.symbol, binding.target);
            let (module, import, got_slot) = (binding.module, binding.import, binding.got_slot);
            let owner = table.owner_of(target);
            ctx.store_u64(got_slot, target.as_u64())
                .expect("GOT slot is mapped read-write");
            if explicit_invalidate {
                // §3.4: software-visible ABTB invalidation in the
                // no-Bloom variant.
                ctx.invalidate_abtb();
            }
            ctx.set_pc(target);
            ctx.count_resolver();
            let builder = &mut builders[*active];
            builder.record(module, import, got_slot, target, owner);
            telemetry.record(
                module,
                import,
                ResolutionKind::Lazy,
                got_slot,
                target,
                builder.epoch(),
            );
        }),
    );
}

fn unknown_module(name: &str) -> SystemError {
    SystemError::UnknownModule {
        name: name.to_owned(),
    }
}

/// Several loaded processes time-sharing one simulated [`Machine`].
///
/// Process 0 starts active. Each process's context slot parks its
/// state while it is suspended; the slot of the *active* process holds
/// the placeholder space instead.
pub struct MultiProcessSystem {
    machine: Machine,
    procs: Vec<Process>,
    linker: Arc<Mutex<Linker>>,
    shared_got_pair: Option<(usize, usize)>,
    active: usize,
    switches: u64,
    /// Which process's microarchitectural context last ran on each
    /// core. A switch that lands a process back on a core where it
    /// stayed resident is a *warm resume*: no structures are flushed
    /// (that is what makes cross-core staleness reachable); landing on
    /// a core that last ran a different process is a *displacement*
    /// and flushes per the core's §3.3 policy.
    resident: Vec<Option<usize>>,
    /// Displacements (per-core flush events), total and per core.
    /// Equal to `switches` on a 1-core machine, where every switch
    /// displaces.
    thread_switches: u64,
    thread_switches_per_core: Vec<u64>,
    /// Module name → number of processes holding it open. The code
    /// pages model OS-shared physical frames: each `dlclose` tears down
    /// the closing process's own mapping, but the module counts as
    /// garbage-collected (and `modules_gcd` ticks) only when the last
    /// reference drops.
    module_refs: HashMap<String, usize>,
}

impl MultiProcessSystem {
    /// Loads each `(modules, options)` pair into its own address space
    /// (ASIDs `1..=n`, all sharing one virtual layout recipe so spaces
    /// deliberately alias) and boots process 0 onto a machine built
    /// from `cfg`. `shared_got_pair` marks two processes as mapping one
    /// physical GOT page; their GOT bytes are mirrored from the
    /// departing process to its partner at every switch.
    ///
    /// Performance counters are reset after boot, so the boot swap does
    /// not count toward switch-flush totals.
    ///
    /// # Errors
    ///
    /// Propagates loader and memory-mapping failures; rejects an empty
    /// process list or bad pair indices via [`SystemError::NoModules`].
    pub fn new(
        procs: Vec<(Vec<ModuleSpec>, LinkOptions)>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
    ) -> Result<Self, SystemError> {
        Self::new_with_cores(procs, cfg, shared_got_pair, 1)
    }

    /// [`MultiProcessSystem::new`] over a machine with `cores` cores.
    /// Process `p` is pinned to core `p % cores`; a switch that resumes
    /// a process on a core where it stayed resident is warm (nothing is
    /// flushed), so with the coherence bus disabled a remote rebind can
    /// leave a resident core's ABTB stale — the cross-core divergence
    /// the difftest `--cores` axis hunts.
    ///
    /// # Errors
    ///
    /// As [`MultiProcessSystem::new`]; additionally rejects `cores ==
    /// 0` via [`SystemError::NoModules`].
    pub fn new_with_cores(
        procs: Vec<(Vec<ModuleSpec>, LinkOptions)>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
        cores: usize,
    ) -> Result<Self, SystemError> {
        Self::new_with_cores_prelink(procs, cfg, shared_got_pair, cores, Vec::new())
    }

    /// [`MultiProcessSystem::new_with_cores`] in the `Prelink` start
    /// mode: `prelink[p]`, when present, is a serialized resolution
    /// snapshot restored into process `p` right after boot (fingerprint
    /// and validation rules as in `System::restore_snapshot`; fallback
    /// to lazy on mismatch). Query
    /// [`MultiProcessSystem::prelink_outcome_of`] for what each restore
    /// did.
    ///
    /// # Errors
    ///
    /// As [`MultiProcessSystem::new_with_cores`]; additionally
    /// propagates memory faults from restoring a snapshot with
    /// validation off.
    pub fn new_with_cores_prelink(
        procs: Vec<(Vec<ModuleSpec>, LinkOptions)>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
        cores: usize,
        prelink: Vec<Option<ResolutionSnapshot>>,
    ) -> Result<Self, SystemError> {
        if procs.is_empty() || cores == 0 {
            return Err(SystemError::NoModules);
        }
        if let Some((a, b)) = shared_got_pair {
            if a >= procs.len() || b >= procs.len() || a == b {
                return Err(SystemError::NoModules);
            }
        }
        let mut parts = BootParts::default();
        for (specs, opts) in &procs {
            parts.load(specs, *opts)?;
        }
        Self::boot(parts, cfg, shared_got_pair, cores, prelink)
    }

    /// Spawns a *fleet* of tenant processes from class templates and
    /// boots it like [`MultiProcessSystem::new_with_cores`].
    ///
    /// Each [`crate::arena::TenantClass`] is loaded **once** into a
    /// template address space; its tenants are
    /// [`AddressSpace::fork_shared_code`] forks of that template, so
    /// thousands of tenants share one set of COW pages, one
    /// [`ProcessImage`], and — until a tenant's code state diverges —
    /// one fetch-side predecode/superblock identity. Tenants are
    /// numbered class-major (`class 0`'s tenants first) with ASIDs
    /// `1..=n`, exactly the deliberate ASID-aliasing layout of the
    /// per-process constructors; `stack_bytes` is configurable because
    /// a thousand default 1 MiB stacks would dwarf the text they run.
    ///
    /// # Errors
    ///
    /// As [`MultiProcessSystem::new_with_cores`]; additionally rejects
    /// an empty class list or a class with zero tenants.
    pub fn new_fleet(
        classes: &[crate::arena::TenantClass],
        cfg: MachineConfig,
        cores: usize,
        stack_bytes: u64,
    ) -> Result<Self, SystemError> {
        if cores == 0 {
            return Err(SystemError::NoModules);
        }
        let parts = crate::arena::spawn_tenants(classes, stack_bytes)?;
        Self::boot(parts, cfg, None, cores, Vec::new())
    }

    /// Boots a machine over loaded processes: registers the resolver,
    /// hands process 0's space and thread to the machine, and applies
    /// any boot-time prelink restores.
    pub(crate) fn boot(
        parts: BootParts,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
        cores: usize,
        prelink: Vec<Option<ResolutionSnapshot>>,
    ) -> Result<Self, SystemError> {
        let BootParts {
            mut procs,
            tables,
            module_refs,
            telemetry,
        } = parts;
        let linker = Arc::new(Mutex::new(Linker {
            active: 0,
            builders: vec![SnapshotBuilder::new(); tables.len()],
            tables,
            telemetry,
        }));
        let mut machine = MachineBuilder::new(cfg)
            .cores(cores)
            .build(AddressSpace::new(0));
        register_resolver(&mut machine, Arc::clone(&linker));

        // Hand process 0's address space to the machine (its context
        // slot now parks the placeholder space), load its thread state
        // onto core 0, and neutralise the boot switch's counter effects.
        machine.swap_space_with(procs[0].context.space_mut());
        machine.load_thread(0, &procs[0].context);
        machine.set_active_core(0);
        machine.core_context_switch(0);
        machine.set_plt_ranges(procs[0].image.plt_ranges());
        machine.reset_counters();
        machine.take_marks();
        let mut resident = vec![None; cores];
        resident[0] = Some(0);

        let mut mps = MultiProcessSystem {
            machine,
            procs,
            linker,
            shared_got_pair,
            active: 0,
            switches: 0,
            resident,
            thread_switches: 0,
            thread_switches_per_core: vec![0; cores],
            module_refs,
        };
        for (p, snapshot) in prelink.into_iter().enumerate().take(mps.n_procs()) {
            if let Some(snapshot) = snapshot {
                let outcome = mps.restore_snapshot_for(p, &snapshot)?;
                mps.procs[p].prelink_outcome = Some(outcome);
            }
        }
        Ok(mps)
    }

    /// Locks the resolver state. Recovering a poisoned guard is sound:
    /// the resolver's only panics (an unknown binding key, an unmapped
    /// GOT slot) come before it changes anything, and every other
    /// update is one call on one table, cache or writer.
    fn linker(&self) -> MutexGuard<'_, Linker> {
        lock_recovering(&self.linker)
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// Index of the active process.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Context switches performed so far (excluding boot).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of cores on the underlying machine.
    pub fn core_count(&self) -> usize {
        self.machine.core_count()
    }

    /// Displacements so far: switches that landed a process on a core
    /// which last ran a *different* process, flushing per the core's
    /// policy. Equal to [`MultiProcessSystem::switches`] on one core.
    pub fn thread_switches(&self) -> u64 {
        self.thread_switches
    }

    /// Displacements of core `core`.
    pub fn thread_switches_of(&self, core: usize) -> u64 {
        self.thread_switches_per_core[core]
    }

    /// Process `p`'s image.
    pub fn image(&self, p: usize) -> &ProcessImage {
        &self.procs[p].image
    }

    /// The underlying machine (which holds the *active* process).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (fault injection, raw writes).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Marks retired by process `p` so far.
    pub fn marks_of(&self, p: usize) -> u64 {
        self.procs[p].marks
    }

    /// Whether process `p` has halted. The active process's flag lives
    /// on the machine; suspended processes carry their own.
    pub fn halted(&self, p: usize) -> bool {
        if p == self.active {
            self.machine.halted()
        } else {
            self.procs[p].context.halted()
        }
    }

    /// Snapshot of the machine-wide performance counters (the sum over
    /// cores).
    pub fn counters(&self) -> PerfCounters {
        self.machine.counters()
    }

    /// Snapshot of core `core`'s performance counters.
    pub fn counters_for(&self, core: usize) -> PerfCounters {
        self.machine.counters_for(core)
    }

    fn drain_marks(&mut self) {
        self.procs[self.active].marks += self.machine.take_marks().len() as u64;
    }

    /// See `MultiOracle::mirror_shared_got_from_active`: copies the
    /// pair's GOT bytes from the active process (on the machine) into
    /// its suspended partner, modelling one shared physical GOT page.
    /// A raw copy — the store that changed the bytes already went
    /// through the machine's coherence machinery when it retired.
    fn mirror_shared_got_from_active(&mut self) {
        let Some((a, b)) = self.shared_got_pair else {
            return;
        };
        let partner = match self.active {
            p if p == a => b,
            p if p == b => a,
            _ => return,
        };
        let mut blocks: Vec<(VirtAddr, Vec<u8>)> = Vec::new();
        for m in self.procs[self.active].image.modules() {
            if m.got_len == 0 {
                continue;
            }
            let mut buf = vec![0u8; m.got_len as usize];
            if self
                .machine
                .space()
                .read_bytes(m.got_base, &mut buf)
                .is_ok()
            {
                blocks.push((m.got_base, buf));
            }
        }
        for (base, buf) in blocks {
            let _ = self.procs[partner]
                .context
                .space_mut()
                .write_bytes(base, &buf);
        }
    }

    /// Switches execution to process `p` (on its pinned core `p %
    /// cores`). Out-of-range targets and switches to the already-active
    /// process are no-ops returning `false` — the same rule as the
    /// oracle, so shrunk schedules stay comparable. Mirrors the shared
    /// GOT out of the departing process first, then parks the departing
    /// thread and its space, loads the incoming thread onto its core,
    /// and repoints trampoline classification and the resolver dispatch
    /// at the incoming process. Structures are flushed (per the core's
    /// §3.3 policy) only when the incoming thread *displaces* a
    /// different resident thread; a warm resume flushes nothing.
    pub fn switch_to(&mut self, p: usize) -> bool {
        if p == self.active || p >= self.procs.len() {
            return false;
        }
        self.drain_marks();
        self.mirror_shared_got_from_active();
        let old = self.active;
        let ncores = self.machine.core_count();
        let (old_core, new_core) = (old % ncores, p % ncores);
        // Park the departing thread's architectural state and hand its
        // address space back to its own context slot (which was parking
        // the placeholder space).
        self.machine
            .park_thread(old_core, &mut self.procs[old].context);
        self.machine
            .swap_space_with(self.procs[old].context.space_mut());
        // Pull the incoming thread's space onto the machine (its slot
        // now parks the placeholder) and its state onto its core.
        self.machine
            .swap_space_with(self.procs[p].context.space_mut());
        self.machine.load_thread(new_core, &self.procs[p].context);
        self.machine.set_active_core(new_core);
        if self.resident[new_core] != Some(p) {
            self.machine.core_context_switch(new_core);
            self.thread_switches += 1;
            self.thread_switches_per_core[new_core] += 1;
        }
        self.resident[new_core] = Some(p);
        self.machine
            .set_plt_ranges(self.procs[p].image.plt_ranges());
        self.active = p;
        self.switches += 1;
        self.linker().active = p;
        true
    }

    /// Runs the active process until *its* total mark count reaches
    /// `at_mark` (no-op if already there, or halted), mirroring
    /// `MultiOracle::run_active_until_marks`.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn run_active_until_marks(
        &mut self,
        at_mark: u64,
        max_instructions: u64,
    ) -> Result<(), CpuError> {
        let needed = at_mark.saturating_sub(self.procs[self.active].marks);
        if needed > 0 {
            self.machine
                .run_until_marks(needed as usize, max_instructions)?;
        }
        self.drain_marks();
        Ok(())
    }

    /// Runs the active process until halt or budget exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn run_active(&mut self, max_instructions: u64) -> Result<(), CpuError> {
        self.machine.run(max_instructions)?;
        self.drain_marks();
        Ok(())
    }

    /// Explicitly clears the ABTB (§3.4 software invalidate).
    pub fn invalidate_abtb(&mut self) {
        self.machine.invalidate_abtb();
    }

    /// Rewrites one of the active process's GOT slots through the
    /// external-store path, so the Bloom filters observe it.
    fn store_got(&mut self, slot: VirtAddr, value: VirtAddr) -> Result<(), SystemError> {
        self.machine.space_mut().write_u64(slot, value.as_u64())?;
        self.machine.broadcast_store(slot);
        Ok(())
    }

    /// §3.4 software-managed variant: after rewriting GOT slots with no
    /// Bloom filter watching them, the runtime must invalidate the ABTB
    /// itself.
    fn invalidate_after_rewrites(&mut self, rewrites: usize) {
        if rewrites > 0 && !self.machine.config().accel.has_bloom() {
            self.machine.invalidate_abtb();
        }
    }

    /// `System::unbind_library` scoped to the active process: re-arms
    /// every GOT slot bound into `victim`, notifying the machine of
    /// each store on the active core's broadcast path (plus the §3.4
    /// explicit invalidate when no Bloom filter watches the slots).
    /// On a multi-core machine the notification reaches remote cores
    /// only through the coherence bus, so disabling `coherence_bus`
    /// leaves resident remote ABTBs stale.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `victim` is not loaded.
    pub fn unbind_active(&mut self, victim: &str) -> Result<u64, SystemError> {
        let image = &self.procs[self.active].image;
        if image.module(victim).is_none() {
            return Err(unknown_module(victim));
        }
        let writes = image.unbind_writes_for(victim);
        for &(got_slot, stub) in &writes {
            self.store_got(got_slot, stub)?;
        }
        self.invalidate_after_rewrites(writes.len());
        Ok(writes.len() as u64)
    }

    /// `System::rebind_symbol` scoped to the active process: rewrites
    /// every importer's GOT slot to `provider`'s copy of `symbol` and
    /// updates the active process's live resolution table.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] / [`SystemError::UnknownSymbol`]
    /// when the provider or symbol is missing.
    pub fn rebind_active(&mut self, symbol: &str, provider: &str) -> Result<u64, SystemError> {
        let p = self.active;
        let image = &self.procs[p].image;
        let module = image
            .module(provider)
            .ok_or_else(|| unknown_module(provider))?;
        let new_target = module
            .export(symbol)
            .ok_or_else(|| SystemError::UnknownSymbol {
                symbol: symbol.to_owned(),
                provider: provider.to_owned(),
            })?;
        let provider_idx = module.index;
        let slots: Vec<(usize, usize, VirtAddr)> = image
            .modules()
            .iter()
            .flat_map(|m| {
                m.plt_slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.symbol == symbol)
                    .map(move |(i, s)| (m.index, i, s.got_slot))
            })
            .collect();
        for &(module_idx, import_idx, got_slot) in &slots {
            self.store_got(got_slot, new_target)?;
            let mut linker = self.linker();
            if let Some(b) = linker.tables[p].binding_mut(module_idx, import_idx) {
                b.target = new_target;
            }
            // The rebound slot supersedes whatever the prelink cache
            // recorded for it (and clears any tombstone: the slot now
            // points at a live provider again).
            linker.builders[p].record(
                module_idx,
                import_idx,
                got_slot,
                new_target,
                Some(provider_idx),
            );
        }
        self.invalidate_after_rewrites(slots.len());
        Ok(slots.len() as u64)
    }

    /// Open-reference count of module `name` across all processes.
    pub fn module_refs(&self, name: &str) -> usize {
        self.module_refs.get(name).copied().unwrap_or(0)
    }

    /// `System::dlclose` scoped to the active process, with the module
    /// refcounted across processes: the closing process's GOT slots are
    /// re-armed (raw kernel-side writes — *not* broadcast on the store
    /// snoop path), its mapping of the module's code pages is torn
    /// down, and the module counts as garbage-collected only when the
    /// last process-level reference drops. The mandated front-end
    /// invalidation (fresh predecode identity for the *active* space,
    /// ABTB + BTB shootdown) is gated on
    /// [`MachineConfig::demand_invalidate`]; suspended processes keep
    /// their own predecode identities, so their pages stay warm.
    ///
    /// Closing an already-closed module is a no-op returning `Ok(0)`.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `victim` is not loaded in
    /// the active process.
    pub fn dlclose_active(&mut self, victim: &str) -> Result<u64, SystemError> {
        let p = self.active;
        let image = &self.procs[p].image;
        let idx = image
            .module_index(victim)
            .ok_or_else(|| unknown_module(victim))?;
        if self.linker().tables[p].is_closed(idx) {
            return Ok(0);
        }
        let writes = image.unbind_writes_for(victim);
        for &(got_slot, stub) in &writes {
            self.machine
                .space_mut()
                .write_u64(got_slot, stub.as_u64())?;
        }
        {
            let mut linker = self.linker();
            linker.tables[p].close_module(idx);
            // The closed module's code is about to be GC-unmapped:
            // tombstone every prelink-cache entry resolved into it, so a
            // later restore cannot re-arm a GOT slot into the recycled
            // range.
            linker.builders[p].tombstone(idx);
        }
        // Snapshot the code before tearing it down so a later reopen can
        // rebuild it at the same addresses (`code_in_range` sees the
        // backing image of demand-evicted pages too).
        let extents = image.code_extents_of(victim);
        let code = extents
            .iter()
            .flat_map(|&(base, len)| self.machine.space().code_in_range(base, len))
            .collect();
        for &(base, len) in &extents {
            self.machine.gc_unmap_code_region(base, len);
        }
        self.procs[p]
            .gc_remnants
            .insert(victim.to_owned(), GcRemnant { extents, code });
        let refs = self
            .module_refs
            .get_mut(victim)
            .expect("loaded module is refcounted");
        *refs -= 1;
        if *refs == 0 {
            self.machine.note_module_gc();
        }
        if self.machine.config().demand_invalidate {
            self.machine.invalidate_for_module_gc();
        }
        Ok(writes.len() as u64)
    }

    /// `System::dlreopen` scoped to the active process: rebuilds the
    /// module's code at its original addresses (lazily, if the process
    /// was loaded with demand paging), restores its interposition rank
    /// in the active resolution table, and takes a fresh process-level
    /// reference. `Ok(false)` when the module is not closed.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `name` was never loaded in
    /// the active process.
    pub fn reopen_active(&mut self, name: &str) -> Result<bool, SystemError> {
        let p = self.active;
        let idx = self.procs[p]
            .image
            .module_index(name)
            .ok_or_else(|| unknown_module(name))?;
        if !self.linker().tables[p].is_closed(idx) {
            return Ok(false);
        }
        let proc = &mut self.procs[p];
        let remnant = proc
            .gc_remnants
            .remove(name)
            .expect("closed module has a GC remnant");
        let space = self.machine.space_mut();
        for &(base, len) in &remnant.extents {
            space.map_code_region(base, len, Perms::RX)?;
        }
        for &(addr, inst) in &remnant.code {
            space.place_code(addr, inst)?;
        }
        if proc.demand_paged() {
            for &(base, len) in &remnant.extents {
                space.evict_code_region(base, len);
            }
        }
        self.linker().tables[p].reopen_module(idx);
        *self
            .module_refs
            .get_mut(name)
            .expect("loaded module is refcounted") += 1;
        Ok(true)
    }

    /// `System::evict_lib_page` scoped to the active process: evicts
    /// one resident text page of `lib` (chosen by `page` modulo the
    /// text size), to be faulted back in on next fetch. `Ok(false)`
    /// when nothing was resident or the module is closed.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `lib` is not loaded in the
    /// active process.
    pub fn evict_active_page(&mut self, lib: &str, page: u64) -> Result<bool, SystemError> {
        let p = self.active;
        let m = self.procs[p]
            .image
            .module(lib)
            .ok_or_else(|| unknown_module(lib))?;
        let (idx, text_base, text_len) = (m.index, m.text_base, m.text_len.max(1));
        if self.linker().tables[p].is_closed(idx) {
            return Ok(false);
        }
        let pages = text_len.div_ceil(PAGE_BYTES);
        let addr = text_base + (page % pages) * PAGE_BYTES;
        Ok(self.machine.evict_code_page(addr)?)
    }

    /// `dlopen(3)` into the active process (see `System::dlopen`): the
    /// new module's imports resolve against the loaded modules, its lazy
    /// bindings join the live table, it takes a reference, and
    /// trampoline classification is refreshed.
    pub(crate) fn dlopen_active(&mut self, spec: &ModuleSpec) -> Result<(), SystemError> {
        let p = self.active;
        let proc = &mut self.procs[p];
        let image = Arc::make_mut(&mut proc.image);
        let bindings =
            Loader::new(proc.link).load_additional(image, spec, self.machine.space_mut())?;
        self.machine.set_plt_ranges(image.plt_ranges());
        self.linker().tables[p].push_module(bindings);
        *self.module_refs.entry(spec.name.clone()).or_insert(0) += 1;
        Ok(())
    }

    /// The §4.3 software emulation on the active process's running
    /// image (see `System::patch_call_sites`).
    pub(crate) fn patch_active_call_sites(&mut self) -> Result<u64, SystemError> {
        let image = &self.procs[self.active].image;
        Ok(apply_call_site_patches(image, self.machine.space_mut())?)
    }

    /// Freezes process `p`'s in-memory prelink cache into a
    /// serializable snapshot stamped with that process's live
    /// [`fingerprint`].
    pub fn capture_snapshot_of(&self, p: usize) -> ResolutionSnapshot {
        let linker = self.linker();
        linker.builders[p].snapshot(self.fingerprint_of(p, &linker))
    }

    fn fingerprint_of(&self, p: usize, linker: &Linker) -> u64 {
        let proc = &self.procs[p];
        fingerprint(&proc.image, &linker.tables[p], proc.link.hw_level)
    }

    /// Restores a serialized snapshot into process `p` (rules as in
    /// `System::restore_snapshot`: fingerprint gate plus per-entry
    /// validation when [`MachineConfig::prelink_validate`] is on,
    /// verbatim replay when off). The active process's GOT writes go
    /// through the machine's external-store path; a suspended process's
    /// go straight into its parked address space.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from GOT writes.
    pub fn restore_snapshot_for(
        &mut self,
        p: usize,
        snapshot: &ResolutionSnapshot,
    ) -> Result<RestoreOutcome, SystemError> {
        let validate = self.machine.config().prelink_validate;
        if validate && snapshot.fingerprint != self.fingerprint_of(p, &self.linker()) {
            return Ok(RestoreOutcome::Fallback);
        }
        self.install_entries(p, &snapshot.entries, validate)
    }

    /// Re-installs the *active* process's own in-memory prelink cache
    /// into its GOT — the mid-run `prelink` schedule event (see
    /// `System::prelink_restore_self`). With
    /// [`MachineConfig::prelink_validate`] off, entries tombstoned by
    /// an earlier `dlclose` are re-armed into GC-unmapped code.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from GOT writes.
    pub fn prelink_restore_active(&mut self) -> Result<RestoreOutcome, SystemError> {
        let p = self.active;
        let entries: Vec<SnapshotEntry> = self.linker().builders[p].iter().copied().collect();
        let validate = self.machine.config().prelink_validate;
        self.install_entries(p, &entries, validate)
    }

    fn install_entries(
        &mut self,
        p: usize,
        entries: &[SnapshotEntry],
        validate: bool,
    ) -> Result<RestoreOutcome, SystemError> {
        let mut installed = 0;
        let mut skipped = 0;
        let epoch = self.linker().builders[p].epoch();
        for e in entries {
            let kind = if validate && e.should_skip(&self.linker().tables[p]) {
                skipped += 1;
                ResolutionKind::CacheMiss
            } else {
                if p == self.active {
                    self.store_got(e.got_slot, e.target)?;
                } else {
                    self.procs[p]
                        .context
                        .space_mut()
                        .write_u64(e.got_slot, e.target.as_u64())?;
                }
                installed += 1;
                ResolutionKind::CacheHit
            };
            self.linker().telemetry.record(
                e.module as usize,
                e.import as usize,
                kind,
                e.got_slot,
                e.target,
                epoch,
            );
        }
        if p == self.active {
            self.invalidate_after_rewrites(installed);
        }
        Ok(RestoreOutcome::Restored { installed, skipped })
    }

    /// What process `p`'s boot-time prelink restore did, when this
    /// system was built via
    /// [`MultiProcessSystem::new_with_cores_prelink`].
    pub fn prelink_outcome_of(&self, p: usize) -> Option<RestoreOutcome> {
        self.procs[p].prelink_outcome
    }

    /// A copy of process `p`'s in-memory prelink cache.
    pub(crate) fn snapshot_builder_of(&self, p: usize) -> SnapshotBuilder {
        self.linker().builders[p].clone()
    }

    /// Drains the resolution telemetry collected so far, in event order
    /// across all processes.
    pub fn take_resolution_telemetry(&mut self) -> Vec<ResolutionRecord> {
        self.linker().telemetry.take()
    }

    /// Reads a register of process `p` (from the machine when active,
    /// from its parked context otherwise).
    pub fn reg_of(&self, p: usize, r: Reg) -> u64 {
        if p == self.active {
            self.machine.reg(r)
        } else {
            self.procs[p].context.reg(r)
        }
    }

    /// Program counter of process `p`.
    pub fn pc_of(&self, p: usize) -> VirtAddr {
        if p == self.active {
            self.machine.pc()
        } else {
            self.procs[p].context.pc()
        }
    }

    /// Address space of process `p` (the machine's when active, the
    /// parked context's otherwise). Together with [`Self::reg_of`],
    /// [`Self::pc_of`] and [`Self::halted`] this gives the difftest
    /// harness everything `ArchDigest::capture` needs per process,
    /// without `dynlink-core` depending on the oracle crate.
    pub fn space_of(&self, p: usize) -> &AddressSpace {
        if p == self.active {
            self.machine.space()
        } else {
            self.procs[p].context.space()
        }
    }
}

impl std::fmt::Debug for MultiProcessSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiProcessSystem")
            .field("n_procs", &self.n_procs())
            .field("active", &self.active)
            .field("switches", &self.switches)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_isa::Inst;
    use dynlink_linker::{LinkMode, ModuleBuilder};

    fn counting_proc(n: u64, delta: u64) -> (Vec<ModuleSpec>, LinkOptions) {
        let mut lib = ModuleBuilder::new("libinc");
        lib.begin_function("inc", true);
        lib.asm().push(Inst::add_imm(Reg::R0, delta));
        lib.asm().push(Inst::Ret);
        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        let top = app.asm().fresh_label("top");
        app.asm().push(Inst::mov_imm(Reg::R2, n));
        app.asm().bind(top);
        app.asm().push(Inst::Mark { id: 0 });
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::sub_imm(Reg::R2, 1));
        app.asm().push_branch_nz(Reg::R2, top);
        app.asm().push(Inst::Halt);
        let opts = LinkOptions {
            mode: LinkMode::DynamicLazy,
            ..LinkOptions::default()
        };
        (vec![app.finish().unwrap(), lib.finish().unwrap()], opts)
    }

    #[test]
    fn interleaved_processes_compute_independently() {
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(6, 1), counting_proc(4, 10)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(3, 100_000).unwrap();
        assert_eq!(mps.marks_of(0), 3);
        assert!(mps.switch_to(1));
        mps.run_active_until_marks(2, 100_000).unwrap();
        assert!(mps.switch_to(0));
        mps.run_active(100_000).unwrap();
        assert!(mps.switch_to(1));
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0) && mps.halted(1));
        assert_eq!(mps.reg_of(0, Reg::R0), 6);
        assert_eq!(mps.reg_of(1, Reg::R0), 40);
        assert_eq!(mps.switches(), 3);
    }

    #[test]
    fn switch_flush_accounting_matches_policy() {
        // Flush-on-switch: every switch flushes; boot swap excluded.
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(4, 1), counting_proc(4, 1)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        assert_eq!(mps.counters().abtb_switch_flushes, 0, "boot excluded");
        mps.run_active_until_marks(2, 100_000).unwrap();
        mps.switch_to(1);
        mps.run_active(100_000).unwrap();
        mps.switch_to(0);
        mps.run_active(100_000).unwrap();
        assert_eq!(mps.counters().abtb_switch_flushes, mps.switches());

        // ASID-tagged: switches never flush.
        let mut cfg = MachineConfig::enhanced();
        cfg.flush_abtb_on_context_switch = false;
        let mut mps =
            MultiProcessSystem::new(vec![counting_proc(4, 1), counting_proc(4, 1)], cfg, None)
                .unwrap();
        mps.run_active_until_marks(2, 100_000).unwrap();
        mps.switch_to(1);
        mps.run_active(100_000).unwrap();
        mps.switch_to(0);
        mps.run_active(100_000).unwrap();
        assert!(mps.switches() > 0);
        assert_eq!(mps.counters().abtb_switch_flushes, 0);
    }

    #[test]
    fn resolver_dispatches_to_the_active_processes_table() {
        // Identical layouts mean identical stub keys; each process must
        // still resolve against its own table and compute its own sum.
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(5, 1), counting_proc(5, 100)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(2, 100_000).unwrap();
        mps.switch_to(1);
        mps.run_active(100_000).unwrap();
        mps.switch_to(0);
        mps.run_active(100_000).unwrap();
        assert_eq!(mps.reg_of(0, Reg::R0), 5);
        assert_eq!(mps.reg_of(1, Reg::R0), 500);
        assert_eq!(mps.counters().resolver_invocations, 2, "one per process");
    }

    #[test]
    fn warm_resume_keeps_a_resident_core_trained() {
        // Bus off so process 1's own resolver store (layouts alias, so
        // its GOT slot VA matches process 0's) cannot conservatively
        // wipe core 0's Bloom mid-test.
        let mut cfg = MachineConfig::enhanced();
        cfg.coherence_bus = false;
        let mut mps = MultiProcessSystem::new_with_cores(
            vec![counting_proc(6, 1), counting_proc(6, 10)],
            cfg,
            None,
            2,
        )
        .unwrap();
        assert_eq!(mps.core_count(), 2);
        mps.run_active_until_marks(4, 100_000).unwrap();
        assert!(mps.machine().abtb_len() > 0, "core 0 trained");
        assert!(mps.switch_to(1)); // displaces core 1 (first use)
        mps.run_active_until_marks(2, 100_000).unwrap();
        assert!(mps.switch_to(0)); // warm resume on core 0
        assert!(mps.machine().abtb_len() > 0, "warm resume kept the ABTB");
        mps.run_active(100_000).unwrap();
        assert!(mps.switch_to(1)); // warm resume on core 1
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0) && mps.halted(1));
        assert_eq!(mps.reg_of(0, Reg::R0), 6);
        assert_eq!(mps.reg_of(1, Reg::R0), 60);
        assert_eq!(mps.switches(), 3);
        assert_eq!(mps.thread_switches(), 1, "only the first switch displaced");
        assert_eq!(mps.thread_switches_of(0), 0);
        assert_eq!(mps.thread_switches_of(1), 1);
        assert_eq!(mps.counters().abtb_switch_flushes, mps.thread_switches());
    }

    #[test]
    fn remote_rebind_reaches_a_resident_core_only_via_the_bus() {
        for bus in [true, false] {
            let mut cfg = MachineConfig::enhanced();
            cfg.coherence_bus = bus;
            let mut mps = MultiProcessSystem::new_with_cores(
                vec![counting_proc(8, 1), counting_proc(8, 1)],
                cfg,
                Some((0, 1)),
                2,
            )
            .unwrap();
            // Train process 0's ABTB on core 0, then leave it resident.
            mps.run_active_until_marks(4, 100_000).unwrap();
            assert!(mps.machine().abtb_len() > 0);
            assert!(mps.switch_to(1));
            mps.run_active_until_marks(2, 100_000).unwrap();
            // Process 1 rebinds; the layouts alias, so the rewritten GOT
            // slot address is exactly the one core 0's Bloom watches.
            // (Delta across the rebind: a core's *own* resolver stores
            // can self-hit its Bloom earlier, bus or no bus.)
            let before = mps.counters_for(0).abtb_coherence_flushes;
            let n = mps.rebind_active("inc", "libinc").unwrap();
            assert!(n > 0);
            let delta = mps.counters_for(0).abtb_coherence_flushes - before;
            if bus {
                assert!(
                    delta >= 1,
                    "the bus delivered the rebind to the resident core"
                );
            } else {
                assert_eq!(delta, 0, "bus off: the resident core was left stale");
            }
        }
    }

    #[test]
    fn dlclose_refcounts_across_processes() {
        // Both processes load `libinc`; closing it in process 0 must
        // not count as a GC (process 1 still holds it), and process 1
        // keeps running out of its own warm mapping.
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(6, 1), counting_proc(6, 10)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        assert_eq!(mps.module_refs("libinc"), 2);
        mps.run_active_until_marks(3, 100_000).unwrap();
        mps.dlclose_active("libinc").unwrap();
        assert_eq!(mps.module_refs("libinc"), 1);
        assert_eq!(
            mps.counters().modules_gcd,
            0,
            "another process still references the module"
        );
        // The suspended process's pages were untouched by the close.
        let resident_before = mps.space_of(1).resident_code_pages();
        assert!(resident_before > 0);
        assert!(mps.switch_to(1));
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(1));
        assert_eq!(mps.reg_of(1, Reg::R0), 60);

        // The last reference dropping is the GC.
        mps.dlclose_active("libinc").unwrap();
        assert_eq!(mps.module_refs("libinc"), 0);
        assert_eq!(mps.counters().modules_gcd, 1);

        // Reopening takes a fresh reference and restores resolution.
        assert!(mps.reopen_active("libinc").unwrap());
        assert_eq!(mps.module_refs("libinc"), 1);
        assert!(
            !mps.reopen_active("libinc").unwrap(),
            "reopen is idempotent"
        );
    }

    #[test]
    fn close_continues_via_shadow_and_double_close_is_noop() {
        // Process 0's app imports `inc` provided by both libinc and a
        // shadow copy; after dlclose(libinc) mid-run the next stub fire
        // must land in the shadow.
        let proc_with_shadow = |n: u64| {
            let (mut specs, opts) = counting_proc(n, 1);
            let mut shadow = ModuleBuilder::new("libshadow");
            shadow.begin_function("inc", true);
            shadow.asm().push(Inst::add_imm(Reg::R0, 1000));
            shadow.asm().push(Inst::Ret);
            specs.push(shadow.finish().unwrap());
            (specs, opts)
        };
        let mut mps = MultiProcessSystem::new(
            vec![proc_with_shadow(6), counting_proc(2, 1)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(3, 100_000).unwrap();
        let n = mps.dlclose_active("libinc").unwrap();
        assert!(n >= 1, "the bound GOT slot was re-armed");
        assert_eq!(mps.dlclose_active("libinc").unwrap(), 0, "double close");
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0));
        // Each mark retires just before its iteration's call, so the
        // stop at mark 3 leaves 2 calls through libinc (+1 each) and 4
        // through the shadow (+1000 each).
        assert_eq!(mps.reg_of(0, Reg::R0), 2 + 4 * 1000);
    }

    #[test]
    fn evict_active_page_is_transparent() {
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(6, 1), counting_proc(2, 1)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(3, 100_000).unwrap();
        assert!(mps.evict_active_page("libinc", 0).unwrap());
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0));
        assert_eq!(mps.reg_of(0, Reg::R0), 6);
        assert_eq!(mps.counters().demand_faults_in, 1);
        assert_eq!(mps.counters().demand_faults_out, 1);
        assert!(matches!(
            mps.evict_active_page("nope", 0),
            Err(SystemError::UnknownModule { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_bad_pairs() {
        assert!(MultiProcessSystem::new(vec![], MachineConfig::baseline(), None).is_err());
        assert!(MultiProcessSystem::new(
            vec![counting_proc(1, 1), counting_proc(1, 1)],
            MachineConfig::baseline(),
            Some((0, 0)),
        )
        .is_err());
        assert!(MultiProcessSystem::new(
            vec![counting_proc(1, 1), counting_proc(1, 1)],
            MachineConfig::baseline(),
            Some((0, 5)),
        )
        .is_err());
    }
}
