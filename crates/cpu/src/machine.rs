//! The machine: functional execution + microarchitectural accounting.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use dynlink_isa::{Inst, MemRef, Reg, VirtAddr};
use dynlink_mem::{AddressSpace, MemError, Perms, PAGE_BYTES};
use dynlink_uarch::{
    Abtb, BloomFilter, Btb, Cache, DirectionPredictor, FlushCause, PerfCounters,
    ReturnAddressStack, Tlb,
};

use crate::config::{MachineConfig, SwitchPolicy};
use crate::events::{CpuError, HostCtx, HostFn, MarkEvent, RetireEvent, RetireObserver, RunExit};
use crate::superblock::{
    assign_fetch_runs, fuse_ops, lower, LoweredOp, MicroOp, Role, SbCache, SbOp, SuperBlock,
    MAX_BLOCK_OPS,
};

/// Where a charged cycle went (index into the breakdown array).
#[derive(Debug, Clone, Copy)]
enum Cause {
    Base = 0,
    ICache = 1,
    DCache = 2,
    ITlb = 3,
    DTlb = 4,
    Mispredict = 5,
    HostCall = 6,
}

/// Cycles attributed to each cost source — the "where did the time go"
/// view that quantifies the paper's §5.2 first-order (instructions
/// eliminated) vs second-order (miss/misprediction penalties avoided)
/// distinction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Base issue/retire cost of the retired instructions.
    pub base: u64,
    /// Instruction-cache miss penalties.
    pub icache: u64,
    /// Data-cache miss penalties.
    pub dcache: u64,
    /// I-TLB walk penalties.
    pub itlb: u64,
    /// D-TLB walk penalties.
    pub dtlb: u64,
    /// Branch misprediction penalties.
    pub mispredict: u64,
    /// Host-call (lazy resolver) overhead.
    pub host_call: u64,
}

impl CycleBreakdown {
    /// Total cycles across all causes.
    pub fn total(&self) -> u64 {
        self.base
            + self.icache
            + self.dcache
            + self.itlb
            + self.dtlb
            + self.mispredict
            + self.host_call
    }

    /// Penalty cycles (everything except the base instruction cost) —
    /// the "second-order" component in the paper's terms.
    pub fn penalties(&self) -> u64 {
        self.total() - self.base
    }
}

/// Retire-stage trampoline pattern detector state (paper §3.2,
/// "Populating the ABTB").
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The resolved target of the retired call (the trampoline address).
    call_target: VirtAddr,
    /// Non-branch instructions seen since the call.
    body: u32,
}

/// Outcome of executing one instruction.
struct Exec {
    next_pc: VirtAddr,
    /// For memory-indirect control transfers: the slot the target was
    /// loaded from.
    loaded_slot: Option<VirtAddr>,
    /// The trampoline address skipped by the ABTB mechanism, if any.
    skipped: Option<VirtAddr>,
}

/// A predecoded slot: the instruction at a byte offset plus its
/// precomputed PLT membership and retire-pattern role, or `None` where
/// no instruction starts.
type PredecodedSlot = Option<(Inst, bool, Role)>;

// The role rides in the slot's padding: a predecoded page stays 4096
// slots of 40 bytes.
const _: () = assert!(std::mem::size_of::<PredecodedSlot>() == 40);

/// One page worth of predecoded instructions, tagged with everything
/// that could invalidate it. Purely a simulator speedup: the dense
/// `slots` array turns the per-instruction decode into an index load,
/// and each entry carries its precomputed PLT membership and pattern
/// role so the retire stage never rescans `plt_ranges` or re-derives
/// the role for the common (executed-pc) case.
/// Upper bound on live predecode-arena pages (~160 KiB each). Small
/// multi-process runs never approach it; a fleet of thousands of
/// *diverged* tenants (post-churn, every tenant private) would
/// otherwise grow the arena without bound. Exceeding the cap recycles
/// slots round-robin — purely a simulator-memory policy, architecturally
/// invisible like every other predecode decision.
const PREDECODE_CAPACITY: usize = 1024;

struct PredecodedPage {
    /// Identity of the space the page was decoded from
    /// ([`AddressSpace::code_uid`] — never reused across code-state
    /// generations, unlike the ASID, which experiments deliberately
    /// alias). A shared-code fork family presents one `code_uid`, so
    /// all of its members are served by one decoded page.
    uid: u64,
    /// Virtual page number.
    pn: u64,
    /// [`AddressSpace::code_version`] at decode time (runtime patches
    /// bump it, invalidating this page).
    version: u64,
    /// `Core::plt_epoch` at decode time (re-declaring PLT ranges
    /// invalidates the cached `in_plt` flags).
    plt_epoch: u64,
    /// One slot per byte offset: `Some((inst, in_plt, role))` where an
    /// instruction was placed at decode time, `None` elsewhere.
    slots: Box<[PredecodedSlot]>,
}

/// State shared by every core of a [`Machine`]: the (active) address
/// space, the predecoded-page arena, the normalized PLT range table and
/// the inter-core store-broadcast bus.
///
/// The predecode arena lives here — not per core — because pages are
/// tagged by space uid/version/PLT epoch, so decoded code is identical
/// from every core's point of view and sharing it keeps each process's
/// predecode warm wherever it is scheduled. What *is* per core is the
/// `last_page` memo (a fetch-locality hint that would thrash if cores
/// shared it).
pub(crate) struct Shared {
    pub(crate) space: AddressSpace,
    /// Predecoded-page arena (see `Core::fetch_decoded`): per-page dense
    /// decode caches, looked up through `page_index` and fronted by each
    /// core's `last_page`. Purely a simulator speedup; no architectural
    /// effect. Bounded at [`PREDECODE_CAPACITY`] live pages: tombstoned
    /// slots are recycled through `free`, and once the arena is full new
    /// pages evict round-robin via `clock` — per-core `last_page` memos
    /// revalidate every tag, so recycling a slot under a memo is safe.
    predecoded: Vec<PredecodedPage>,
    /// `(space code_uid, page number)` -> index into `predecoded`.
    page_index: HashMap<(u64, u64), usize>,
    /// Tombstoned arena slots available for reuse.
    free: Vec<usize>,
    /// Round-robin eviction cursor, advanced when the arena is full.
    clock: usize,
    /// Bumped by [`Machine::set_plt_ranges`]; predecoded pages carry the
    /// epoch their `in_plt` flags were computed under.
    plt_epoch: u64,
    /// Sorted, non-overlapping, non-empty — normalized by
    /// [`Machine::set_plt_ranges`] so `is_plt` can binary-search.
    plt_ranges: Vec<(VirtAddr, VirtAddr)>,
    /// The invalidation bus: addresses of stores retired by the active
    /// core this step, drained into every *other* core's Bloom filter
    /// after the instruction completes (the §3.2 coherence path).
    bus: Vec<VirtAddr>,
    /// Whether retired stores broadcast at all: true only on a
    /// multi-core machine with [`MachineConfig::coherence_bus`] enabled.
    snoop: bool,
}

impl Shared {
    fn new(space: AddressSpace, snoop: bool) -> Self {
        Shared {
            space,
            predecoded: Vec::new(),
            page_index: HashMap::new(),
            free: Vec::new(),
            clock: 0,
            plt_epoch: 0,
            plt_ranges: Vec::new(),
            bus: Vec::new(),
            snoop,
        }
    }

    /// PLT membership via binary search over the sorted, disjoint
    /// ranges normalized by [`Machine::set_plt_ranges`]. The hot path
    /// (retired pcs) answers this from the predecoded slot instead;
    /// this is the fallback for addresses outside predecoded pages
    /// (e.g. skipped-trampoline targets) and for page predecode itself.
    fn is_plt(&self, addr: VirtAddr) -> bool {
        let i = self.plt_ranges.partition_point(|&(start, _)| start <= addr);
        i > 0 && addr < self.plt_ranges[i - 1].1
    }

    /// Slow path of [`Core::fetch_decoded`]: find the arena page for
    /// `(uid, pn)`, refreshing a stale one in place, or decode and
    /// insert a new page.
    fn locate_page(
        &mut self,
        uid: u64,
        pn: u64,
        version: u64,
        pc: VirtAddr,
    ) -> Result<usize, MemError> {
        if let Some(&idx) = self.page_index.get(&(uid, pn)) {
            let p = &self.predecoded[idx];
            if p.version != version || p.plt_epoch != self.plt_epoch {
                let slots = self.decode_page(pn, pc)?;
                let p = &mut self.predecoded[idx];
                p.version = version;
                p.plt_epoch = self.plt_epoch;
                p.slots = slots;
            }
            return Ok(idx);
        }
        let slots = self.decode_page(pn, pc)?;
        let page = PredecodedPage {
            uid,
            pn,
            version,
            plt_epoch: self.plt_epoch,
            slots,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.predecoded[idx] = page;
            idx
        } else if self.predecoded.len() < PREDECODE_CAPACITY {
            self.predecoded.push(page);
            self.predecoded.len() - 1
        } else {
            // Arena full: evict round-robin. Any core memo pointing at
            // the victim fails its tag revalidation (the new occupant
            // has a different identity, or the same identity with
            // freshly decoded — identical — content), so reuse is safe.
            let idx = self.clock % self.predecoded.len();
            self.clock = idx + 1;
            let old = &self.predecoded[idx];
            if old.uid != 0 {
                self.page_index.remove(&(old.uid, old.pn));
            }
            self.predecoded[idx] = page;
            idx
        };
        self.page_index.insert((uid, pn), idx);
        Ok(idx)
    }

    /// Drains the invalidation bus: every store the active core retired
    /// this instruction is snooped by every *other* core's Bloom filter
    /// (cross-core §3.2 coherence) before the next instruction issues.
    /// Empty — and free — on single-core machines or with the bus
    /// disabled.
    #[inline]
    fn drain_bus(&mut self, others: &mut [&mut [Core]; 2]) {
        if !self.bus.is_empty() {
            for &addr in &self.bus {
                for core in others.iter_mut().flat_map(|cores| cores.iter_mut()) {
                    core.snoop_store(addr);
                }
            }
            self.bus.clear();
        }
    }

    /// Tombstones the arena page for `(uid, pn)`, if any: removed from
    /// `page_index` and poisoned in place so per-core `last_page` memos
    /// stop revalidating against it, then queued for slot reuse — cores
    /// hold raw indices into `predecoded`, so slots are recycled in
    /// place, never shifted.
    fn drop_page(&mut self, uid: u64, pn: u64) {
        if let Some(idx) = self.page_index.remove(&(uid, pn)) {
            // Space uids start at 1, so 0 can never match a live space.
            self.predecoded[idx].uid = 0;
            self.predecoded[idx].slots = Box::new([]);
            self.free.push(idx);
        }
    }

    /// Decodes every placed instruction on `pc`'s page into a dense
    /// slot array, pairing each with its PLT membership and pattern
    /// role. Page-level checks (mapped, executable, code kind) error
    /// against `pc` just as `fetch_code(pc)` would.
    fn decode_page(&self, pn: u64, pc: VirtAddr) -> Result<Box<[PredecodedSlot]>, MemError> {
        let mut slots = vec![None; PAGE_BYTES as usize].into_boxed_slice();
        let base = VirtAddr::new(pn * PAGE_BYTES);
        for (off, inst) in self.space.code_page_insts(pc)? {
            slots[off as usize] = Some((inst, self.is_plt(base + u64::from(off)), Role::of(&inst)));
        }
        Ok(slots)
    }
}

/// Splits the active core out of `cores`: the core that executes, and
/// the others on either side of it, which only snoop the bus.
fn split_active(cores: &mut [Core], active: usize) -> (&mut Core, [&mut [Core]; 2]) {
    let (left, rest) = cores.split_at_mut(active);
    let (core, right) = rest.split_first_mut().expect("active core in range");
    (core, [left, right])
}

/// One simulated core: architectural register file plus every private
/// microarchitectural structure (caches, TLBs, predictors, ABTB +
/// Bloom filter, performance counters). Everything cross-core-visible —
/// the address space, the predecode arena, the invalidation bus — lives
/// in [`Shared`], so `Core` methods take the shared state as an
/// explicit parameter.
pub(crate) struct Core {
    cfg: MachineConfig,
    regs: [u64; dynlink_isa::NUM_REGS],
    pc: VirtAddr,
    halted: bool,
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    bpred: DirectionPredictor,
    btb: Btb,
    ras: ReturnAddressStack,
    abtb: Abtb,
    bloom: BloomFilter,
    pub(crate) counters: PerfCounters,
    cycle_millis: u64,
    breakdown_millis: [u64; 7],
    /// Arena index of the most recently fetched page (`usize::MAX`
    /// before anything is cached): straight-line code revalidates with
    /// four compares and zero hash lookups. Per core — it is a fetch
    /// locality hint, and cores fetch from different pages.
    last_page: usize,
    pending: Option<Pending>,
    marks: Vec<MarkEvent>,
    /// `counters.instructions` at this core's last [`RetireEvent`]: the
    /// next event's `retired` counts from here. Reset with the counters.
    event_mark: u64,
}

impl Core {
    fn new(cfg: MachineConfig) -> Self {
        Core {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb_entries, cfg.itlb_ways, cfg.page_bytes),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.dtlb_ways, cfg.page_bytes),
            bpred: DirectionPredictor::with_history(cfg.bpred_bits, cfg.bpred_history_bits),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: ReturnAddressStack::new(cfg.ras_depth),
            abtb: Abtb::new(cfg.abtb_entries),
            bloom: BloomFilter::new(cfg.bloom_bits, cfg.bloom_hashes),
            cfg,
            regs: [0; dynlink_isa::NUM_REGS],
            pc: VirtAddr::NULL,
            halted: true,
            counters: PerfCounters::default(),
            cycle_millis: 0,
            breakdown_millis: [0; 7],
            last_page: usize::MAX,
            pending: None,
            marks: Vec::new(),
            event_mark: 0,
        }
    }

    #[inline]
    pub(crate) fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    #[inline]
    pub(crate) fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    #[inline]
    fn charge_cause(&mut self, cycles: u64, cause: Cause) {
        self.cycle_millis += cycles * 1000;
        self.breakdown_millis[cause as usize] += cycles * 1000;
    }

    #[inline]
    fn cycles(&self) -> u64 {
        self.cycle_millis / 1000
    }

    /// Decodes the instruction at `pc` — plus its precomputed PLT flag
    /// and pattern role — through the shared predecoded-page arena.
    ///
    /// Fast path: `pc` lands on the same page as this core's previous
    /// fetch and the page's tags are still current, so the answer is one
    /// bounds-checked index away. Slow path: consult the shared
    /// `page_index`, rebuilding or creating the page as needed.
    #[inline]
    fn fetch_decoded(
        &mut self,
        shared: &mut Shared,
        pc: VirtAddr,
    ) -> Result<(Inst, bool, Role), MemError> {
        let pn = pc.page_number(PAGE_BYTES);
        let off = pc.page_offset(PAGE_BYTES) as usize;
        let uid = shared.space.code_uid();
        let version = shared.space.code_version();
        let idx = match shared.predecoded.get(self.last_page) {
            Some(p)
                if p.pn == pn
                    && p.uid == uid
                    && p.version == version
                    && p.plt_epoch == shared.plt_epoch =>
            {
                self.last_page
            }
            _ => shared.locate_page(uid, pn, version, pc)?,
        };
        self.last_page = idx;
        if let Some(entry) = shared.predecoded[idx].slots[off] {
            return Ok(entry);
        }
        // No instruction here at predecode time. `place_code` may have
        // added one since (it deliberately does not bump
        // `code_version`), so fall back to a direct fetch — whose
        // errors, including `NoInstruction`, are exactly what the
        // uncached path reports — and backfill the slot on success.
        let inst = shared.space.fetch_code(pc)?;
        let entry = (inst, shared.is_plt(pc), Role::of(&inst));
        shared.predecoded[idx].slots[off] = Some(entry);
        Ok(entry)
    }

    /// I-cache accounting for one instruction fetch; returns whether it
    /// hit.
    #[inline]
    fn charge_icache(&mut self, pc: VirtAddr) -> bool {
        if self.icache.access(pc).is_hit() {
            return true;
        }
        self.counters.icache_misses += 1;
        let miss_cost = if self.l2.access(pc).is_hit() {
            self.cfg.penalties.l2_hit
        } else {
            self.cfg.penalties.memory
        };
        self.charge_cause(miss_cost, Cause::ICache);
        if self.cfg.icache_next_line_prefetch {
            let next = pc.cache_line(self.cfg.icache.line_bytes) + self.cfg.icache.line_bytes;
            self.icache.fill(next);
            self.l2.fill(next);
        }
        false
    }

    /// Fetch and base-cycle accounting for issuing a run of `k ≥ 1`
    /// consecutive same-line, same-page fetches whose non-final ops
    /// cannot fault (the [`SbOp::fetch_run`] contract; a single step is
    /// the `k = 1` run). The first access is charged exactly; for the
    /// tail the structural outcomes are already determined, so the
    /// accounting folds to counter arithmetic plus one real access that
    /// lands the final LRU stamp:
    ///
    /// * **I-TLB** — the entry is resident after the first access (a
    ///   miss fills it, nothing evicts mid-run: execution never touches
    ///   the I-TLB and there is no I-TLB prefetch), so every tail
    ///   access is a hit on the same entry. Always foldable.
    /// * **I-cache** — foldable only when the first access *hit*: a
    ///   miss triggers the next-line prefetch fill, which in degenerate
    ///   geometries can evict the just-filled line, making tail
    ///   outcomes (and their L2 probes, which interleave with data-side
    ///   L2 traffic) depend on execution order. In that case the caller
    ///   must replay [`Core::charge_icache`] per tail instruction, in
    ///   program order; `false` reports this.
    #[inline]
    fn charge_issue(&mut self, asid: u64, pc: VirtAddr, k: u64) -> bool {
        if self.itlb.access(asid, pc).is_miss() {
            self.counters.itlb_misses += 1;
            self.charge_cause(self.cfg.penalties.tlb_walk, Cause::ITlb);
        }
        let icache_hit = self.charge_icache(pc);
        if k > 1 {
            // Tail accesses 2..k are guaranteed hits on the entry the
            // first access just touched: fold them to counter
            // arithmetic plus the final LRU restamp.
            self.itlb.fold_hits(k - 1);
            if icache_hit {
                self.icache.fold_hits(k - 1);
            }
        }
        let base = self.cfg.penalties.base_milli_cycles * k;
        self.cycle_millis += base;
        self.breakdown_millis[Cause::Base as usize] += base;
        icache_hit
    }

    /// Data-side access accounting.
    fn charge_data(&mut self, asid: u64, addr: VirtAddr) {
        if self.dtlb.access(asid, addr).is_miss() {
            self.counters.dtlb_misses += 1;
            self.charge_cause(self.cfg.penalties.tlb_walk, Cause::DTlb);
        }
        if self.dcache.access(addr).is_miss() {
            self.counters.dcache_misses += 1;
            let miss_cost = if self.l2.access(addr).is_hit() {
                self.cfg.penalties.l2_hit
            } else {
                self.cfg.penalties.memory
            };
            self.charge_cause(miss_cost, Cause::DCache);
        }
    }

    fn effective_addr(&self, mem: MemRef) -> VirtAddr {
        match mem {
            MemRef::Abs(a) => a,
            MemRef::BaseDisp { base, disp } => {
                VirtAddr::new(self.reg(base).wrapping_add(disp as u64))
            }
            MemRef::BaseIndexDisp {
                base,
                index,
                scale,
                disp,
            } => VirtAddr::new(
                self.reg(base)
                    .wrapping_add(self.reg(index).wrapping_mul(u64::from(scale)))
                    .wrapping_add(disp as u64),
            ),
        }
    }

    fn load_u64(&mut self, shared: &mut Shared, addr: VirtAddr) -> Result<u64, MemError> {
        self.charge_data(shared.space.asid(), addr);
        self.counters.loads += 1;
        shared.space.read_u64(addr)
    }

    /// A retired store: counted, charged, checked against this core's
    /// Bloom filter (the guard that keeps skipped trampolines correct)
    /// and — on a multi-core machine with the coherence bus enabled —
    /// queued on the bus so every *other* core's filter sees it too.
    pub(crate) fn retire_store(
        &mut self,
        shared: &mut Shared,
        addr: VirtAddr,
        value: u64,
    ) -> Result<(), MemError> {
        self.charge_data(shared.space.asid(), addr);
        self.counters.stores += 1;
        shared.space.write_u64(addr, value)?;
        if self.cfg.accel.has_bloom() && self.bloom.maybe_contains(addr.as_u64()) {
            self.counters.bloom_store_hits += 1;
            self.flush_abtb(FlushCause::Coherence);
        }
        if shared.snoop {
            shared.bus.push(addr);
        }
        Ok(())
    }

    /// A store observed from *outside* this core's pipeline — a bus
    /// broadcast from another core or a [`Machine::broadcast_store`]
    /// notification — checked against this core's Bloom filter exactly
    /// like a retired store.
    fn snoop_store(&mut self, addr: VirtAddr) {
        if self.cfg.accel.has_bloom() && self.bloom.maybe_contains(addr.as_u64()) {
            self.counters.bloom_store_hits += 1;
            self.flush_abtb(FlushCause::Coherence);
        }
    }

    /// ASID-salts an address for **ABTB keys** when the ABTB is
    /// configured as ASID-tagged (retained across context switches, like
    /// an ASID-tagged TLB, paper §3.3). With the default flush-on-switch
    /// policy the address is used raw — the flush makes tagging moot.
    ///
    /// Bloom-filter keys are deliberately *not* salted: the Bloom filter
    /// watches physical GOT slots, and the paper's coherence rule is
    /// that *any* writer to a watched slot must flush, whichever address
    /// space it runs in. Salting the membership check with the writer's
    /// ASID would let a store from process B to a GOT slot shared with
    /// process A miss A's entry and leave a stale skip (see
    /// `crates/cpu/tests/multiprocess.rs`). A raw key can only
    /// over-flush, which is architecturally safe.
    #[inline]
    fn tagged(&self, asid: u64, a: VirtAddr) -> VirtAddr {
        if self.cfg.flush_abtb_on_context_switch {
            a
        } else {
            VirtAddr::new(a.as_u64() ^ asid.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }

    fn flush_abtb(&mut self, cause: FlushCause) {
        self.abtb.clear_for(cause);
        self.bloom.clear();
        self.counters.abtb_flushes += 1;
        match cause {
            FlushCause::Switch => self.counters.abtb_switch_flushes += 1,
            FlushCause::Coherence => self.counters.abtb_coherence_flushes += 1,
        }
    }

    pub(crate) fn invalidate_abtb(&mut self) {
        if self.cfg.accel.has_abtb() {
            self.flush_abtb(FlushCause::Coherence);
        }
    }

    /// The microarchitectural side of any context switch, shared by
    /// [`Machine::context_switch`] and [`Machine::swap_process`]: flush
    /// the untagged predictors (BTB, RAS) and, under the flush-on-switch
    /// policy, the ABTB *together with* its companion Bloom filter —
    /// clearing one without the other would either leak stale mappings
    /// or leave the filter watching slots that back no entries.
    fn on_context_switch(&mut self) {
        self.btb.flush();
        self.ras.clear();
        self.pending = None;
        if self.cfg.accel.has_abtb() && self.cfg.flush_abtb_on_context_switch {
            self.flush_abtb(FlushCause::Switch);
        }
    }

    /// Resolves a BTB-predicted control transfer at `pc` whose
    /// architectural target is `arch_target`.
    ///
    /// Implements the paper's modified branch-resolution rule: on an
    /// ABTB hit, a prediction matching either the architectural target
    /// or the mapped function address counts as correct, the BTB is
    /// retrained with the mapped address, and control proceeds past the
    /// trampoline whenever the mapped address is used.
    fn resolve_btb_branch(
        &mut self,
        asid: u64,
        pc: VirtAddr,
        arch_target: VirtAddr,
    ) -> (VirtAddr, Option<VirtAddr>) {
        // The ABTB consult reads only the ABTB, so it can precede the
        // BTB probe; the retrain target is then known up front and the
        // BTB lookup + update fuse into one probe (`Btb::resolve`).
        // Counter and cycle increments within one resolution commute.
        if self.cfg.accel.has_abtb() {
            let key = self.tagged(asid, arch_target);
            if let Some(mapped) = self.abtb.lookup(key) {
                self.counters.abtb_hits += 1;
                let pred = self.btb.resolve(pc, mapped);
                let correct = pred == Some(mapped) || pred == Some(arch_target);
                if !correct {
                    self.counters.branch_mispredictions += 1;
                    self.charge_cause(self.cfg.penalties.branch_mispredict, Cause::Mispredict);
                }
                // The trampoline executes only when fetch actually went
                // there (prediction matched the architectural target).
                if pred == Some(arch_target) {
                    return (arch_target, None);
                }
                self.counters.btb_function_trains += 1;
                return (mapped, Some(arch_target));
            }
        }
        let pred = self.btb.resolve(pc, arch_target);
        if pred != Some(arch_target) {
            self.counters.branch_mispredictions += 1;
            self.charge_cause(self.cfg.penalties.branch_mispredict, Cause::Mispredict);
        }
        (arch_target, None)
    }

    /// Resolves a conditional branch at `pc` against the direction
    /// predictor and returns the next pc.
    #[inline]
    fn resolve_cond_branch(
        &mut self,
        pc: VirtAddr,
        taken: bool,
        target: VirtAddr,
        fall: VirtAddr,
    ) -> VirtAddr {
        self.counters.branches += 1;
        if self.bpred.predict(pc) != taken {
            self.counters.branch_mispredictions += 1;
            self.charge_cause(self.cfg.penalties.branch_mispredict, Cause::Mispredict);
        }
        self.bpred.update(pc, taken);
        if taken {
            // Taken branches occupy BTB entries (pressure model).
            self.btb.update(pc, target);
            target
        } else {
            fall
        }
    }

    fn push_stack(&mut self, shared: &mut Shared, value: u64) -> Result<(), MemError> {
        let sp = VirtAddr::new(self.reg(Reg::SP).wrapping_sub(8));
        self.set_reg(Reg::SP, sp.as_u64());
        self.retire_store(shared, sp, value)
    }

    fn pop_stack(&mut self, shared: &mut Shared) -> Result<u64, MemError> {
        let sp = VirtAddr::new(self.reg(Reg::SP));
        let value = self.load_u64(shared, sp)?;
        self.set_reg(Reg::SP, sp.as_u64().wrapping_add(8));
        Ok(value)
    }

    /// Executes one lowered instruction and retires it: functional
    /// execution, bus drain, retire counters and pattern training —
    /// everything but the fetch and base charges, which the caller's
    /// fetch-run window holds. A single step, a block's main op and a
    /// fused pre-op all retire through here. A fault parks the pc on the
    /// faulting instruction.
    ///
    /// Inlined, with [`Core::exec_op`], into each call site: as an
    /// out-of-line call it made 1-op steps measurably slower.
    #[inline(always)]
    fn step_op(
        &mut self,
        shared: &mut Shared,
        others: &mut [&mut [Core]; 2],
        asid: u64,
        op: &LoweredOp,
    ) -> Result<Exec, CpuError> {
        let exec = match self.exec_op(shared, asid, op) {
            Ok(exec) => exec,
            Err(source) => {
                self.pc = op.pc;
                return Err(CpuError { pc: op.pc, source });
            }
        };
        shared.drain_bus(others);
        self.retire(shared, asid, op.in_plt, op.role, &exec);
        Ok(exec)
    }

    /// Delivers the [`RetireEvent`] of an instruction that just retired
    /// on this core — a block terminal or a host call — to every
    /// observer, with the count of instructions retired since this
    /// core's previous event. Blocks and 1-op steps both deliver through
    /// here, so the stream does not depend on how the machine
    /// dispatched.
    fn deliver(
        &mut self,
        observers: &[Arc<Mutex<dyn RetireObserver + Send>>],
        pc: VirtAddr,
        inst: Inst,
        in_plt: bool,
        exec: &Exec,
    ) {
        let event = RetireEvent {
            pc,
            inst,
            next_pc: exec.next_pc,
            loaded_slot: exec.loaded_slot,
            skipped_trampoline: exec.skipped,
            in_plt,
            retired: self.counters.instructions - self.event_mark,
        };
        self.event_mark = self.counters.instructions;
        for obs in observers {
            // An observer that panicked once must not turn every later
            // observed run into a panic: its state is the caller's to
            // judge, so keep delivering.
            obs.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .on_retire(&event);
        }
    }

    /// Retire-stage bookkeeping for one executed instruction: counters,
    /// then pattern training.
    #[inline]
    fn retire(&mut self, shared: &Shared, asid: u64, in_plt: bool, role: Role, exec: &Exec) {
        self.counters.instructions += 1;
        if in_plt {
            self.counters.trampoline_instructions += 1;
        }
        if let Some(tramp) = exec.skipped {
            if shared.is_plt(tramp) {
                self.counters.trampolines_skipped += 1;
            }
        }
        self.train_role(asid, role, exec);
    }

    /// Executes one lowered instruction functionally — the only
    /// instruction semantics in this crate.
    #[inline(always)]
    fn exec_op(
        &mut self,
        shared: &mut Shared,
        asid: u64,
        op: &LoweredOp,
    ) -> Result<Exec, MemError> {
        let pc = op.pc;
        let fall = op.fall;
        let mut loaded_slot = None;
        let mut skipped = None;
        let next_pc = match op.op {
            MicroOp::AluRR { op, dst, src } => {
                let value = op.apply(self.reg(dst), self.reg(src));
                self.set_reg(dst, value);
                fall
            }
            MicroOp::AluRI { op, dst, imm } => {
                let value = op.apply(self.reg(dst), imm);
                self.set_reg(dst, value);
                fall
            }
            MicroOp::MovImm { dst, imm } => {
                self.set_reg(dst, imm);
                fall
            }
            MicroOp::MovReg { dst, src } => {
                let v = self.reg(src);
                self.set_reg(dst, v);
                fall
            }
            MicroOp::Lea { dst, mem } => {
                let ea = self.effective_addr(mem);
                self.set_reg(dst, ea.as_u64());
                fall
            }
            MicroOp::Load { dst, mem } => {
                let ea = self.effective_addr(mem);
                let v = self.load_u64(shared, ea)?;
                self.set_reg(dst, v);
                fall
            }
            MicroOp::Store { src, mem } => {
                let ea = self.effective_addr(mem);
                let v = self.reg(src);
                self.retire_store(shared, ea, v)?;
                fall
            }
            MicroOp::Push { src } => {
                let v = self.reg(src);
                self.push_stack(shared, v)?;
                fall
            }
            MicroOp::Pop { dst } => {
                let v = self.pop_stack(shared)?;
                self.set_reg(dst, v);
                fall
            }
            MicroOp::CallDirect { target } => {
                self.counters.branches += 1;
                self.push_stack(shared, fall.as_u64())?;
                self.ras.push(fall);
                let (next, skip) = self.resolve_btb_branch(asid, pc, target);
                skipped = skip;
                next
            }
            MicroOp::CallIndirectReg { target } => {
                self.counters.branches += 1;
                let t = VirtAddr::new(self.reg(target));
                self.push_stack(shared, fall.as_u64())?;
                self.ras.push(fall);
                let (next, skip) = self.resolve_btb_branch(asid, pc, t);
                skipped = skip;
                next
            }
            MicroOp::CallIndirectMem { mem } => {
                self.counters.branches += 1;
                let ea = self.effective_addr(mem);
                let t = VirtAddr::new(self.load_u64(shared, ea)?);
                loaded_slot = Some(ea);
                self.push_stack(shared, fall.as_u64())?;
                self.ras.push(fall);
                let (next, skip) = self.resolve_btb_branch(asid, pc, t);
                skipped = skip;
                next
            }
            MicroOp::JmpDirect { target } => {
                self.counters.branches += 1;
                let (next, skip) = self.resolve_btb_branch(asid, pc, target);
                skipped = skip;
                next
            }
            MicroOp::JmpIndirectMem { mem } => {
                self.counters.branches += 1;
                let ea = self.effective_addr(mem);
                let t = VirtAddr::new(self.load_u64(shared, ea)?);
                loaded_slot = Some(ea);
                let (next, skip) = self.resolve_btb_branch(asid, pc, t);
                skipped = skip;
                next
            }
            MicroOp::JmpIndirectReg { target } => {
                self.counters.branches += 1;
                let t = VirtAddr::new(self.reg(target));
                let (next, skip) = self.resolve_btb_branch(asid, pc, t);
                skipped = skip;
                next
            }
            MicroOp::BranchRR {
                cond,
                lhs,
                rhs,
                target,
            } => {
                let taken = cond.eval(self.reg(lhs), self.reg(rhs));
                self.resolve_cond_branch(pc, taken, target, fall)
            }
            MicroOp::BranchRI {
                cond,
                lhs,
                imm,
                target,
            } => {
                let taken = cond.eval(self.reg(lhs), imm);
                self.resolve_cond_branch(pc, taken, target, fall)
            }
            MicroOp::Ret => {
                self.counters.branches += 1;
                let predicted = self.ras.pop();
                let actual = VirtAddr::new(self.pop_stack(shared)?);
                if predicted != Some(actual) {
                    self.counters.branch_mispredictions += 1;
                    self.charge_cause(self.cfg.penalties.branch_mispredict, Cause::Mispredict);
                }
                actual
            }
            MicroOp::Nop => fall,
            MicroOp::Halt => {
                self.halted = true;
                pc
            }
            MicroOp::Mark { id } => {
                let ev = MarkEvent {
                    id,
                    instructions: self.counters.instructions + 1,
                    cycles: self.cycles(),
                };
                self.marks.push(ev);
                fall
            }
        };
        Ok(Exec {
            next_pc,
            loaded_slot,
            skipped,
        })
    }

    /// Retire-stage ABTB training (paper §3.2), with the pattern role
    /// computed at predecode: a retired call arms the detector; an
    /// immediately following memory-indirect jump (with up to
    /// `max_trampoline_body` scratch-only instructions in between, for
    /// ARM-style trampolines) trains the ABTB and the Bloom filter.
    #[inline]
    fn train_role(&mut self, asid: u64, role: Role, exec: &Exec) {
        if !self.cfg.accel.has_abtb() {
            return;
        }
        match role {
            Role::Call => {
                self.pending = if exec.skipped.is_none() {
                    Some(Pending {
                        call_target: exec.next_pc,
                        body: 0,
                    })
                } else {
                    None
                };
            }
            Role::MemIndirectJump => {
                if let (Some(p), Some(slot)) = (self.pending.take(), exec.loaded_slot) {
                    let key = self.tagged(asid, p.call_target);
                    self.counters.abtb_inserts += 1;
                    self.abtb.insert(key, exec.next_pc);
                    if self.cfg.accel.has_bloom() {
                        // Raw (unsalted) key: any writer to this slot —
                        // whatever its ASID — must be able to hit the
                        // filter. See the coherence note on `tagged`.
                        self.bloom.insert(slot.as_u64());
                    }
                }
            }
            // Scratch-only arithmetic may appear inside
            // multi-instruction (ARM-flavoured) trampolines; anything
            // else breaks the pattern.
            Role::ScratchOnly => {
                if let Some(p) = &mut self.pending {
                    p.body += 1;
                    if p.body > self.cfg.max_trampoline_body {
                        self.pending = None;
                    }
                }
            }
            Role::Other => self.pending = None,
        }
    }
}

/// A suspended process: architectural register file, program counter,
/// halt flag and address space. Swap one onto a [`Machine`] with
/// [`Machine::swap_process`] to simulate OS-level multiprogramming on a
/// single simulated core.
///
/// # Examples
///
/// ```
/// use dynlink_cpu::{Machine, MachineConfig, ProcessContext};
/// use dynlink_isa::{Inst, Reg, VirtAddr};
/// use dynlink_mem::{AddressSpace, Perms};
///
/// // A one-instruction process: set R0 then halt.
/// let mut space = AddressSpace::new(7);
/// space.map_code_region(VirtAddr::new(0x1000), 0x1000, Perms::RX)?;
/// space.place_code(VirtAddr::new(0x1000), Inst::mov_imm(Reg::R0, 9))?;
/// space.place_code(VirtAddr::new(0x1007), Inst::Halt)?;
/// let mut proc = ProcessContext::new(
///     space,
///     VirtAddr::new(0x1000),
///     VirtAddr::new(0x10_0000),
///     0x1000,
/// )?;
///
/// let mut machine = Machine::new(MachineConfig::baseline(), AddressSpace::new(0));
/// machine.swap_process(&mut proc); // schedule it
/// machine.run(100)?;
/// assert!(machine.halted());
/// assert_eq!(machine.reg(Reg::R0), 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ProcessContext {
    regs: [u64; dynlink_isa::NUM_REGS],
    pc: VirtAddr,
    halted: bool,
    space: AddressSpace,
}

impl ProcessContext {
    /// Creates a runnable context over a loaded address space: maps a
    /// stack of `stack_bytes` ending at `stack_top`, points SP/FP at it
    /// and sets the program counter to `entry`.
    ///
    /// # Errors
    ///
    /// Fails if the stack region overlaps an existing mapping.
    pub fn new(
        mut space: AddressSpace,
        entry: VirtAddr,
        stack_top: VirtAddr,
        stack_bytes: u64,
    ) -> Result<Self, MemError> {
        space.map_region(
            VirtAddr::new(stack_top.as_u64() - stack_bytes),
            stack_bytes,
            Perms::RW,
        )?;
        let mut regs = [0u64; dynlink_isa::NUM_REGS];
        regs[Reg::SP.index()] = stack_top.as_u64();
        regs[Reg::FP.index()] = stack_top.as_u64();
        Ok(ProcessContext {
            regs,
            pc: entry,
            halted: false,
            space,
        })
    }

    /// Returns `true` once the process has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reads a register of the suspended process.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// The suspended process's saved program counter.
    pub fn pc(&self) -> VirtAddr {
        self.pc
    }

    /// The suspended process's address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the suspended process's address space, for OS-
    /// level writes into a parked process (e.g. mirroring a shared GOT
    /// page). Such writes bypass the store path, so callers are
    /// responsible for any required ABTB invalidation — see
    /// [`Machine::broadcast_store`].
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }
}

/// Raw access/miss statistics for each modelled structure.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct ComponentStats {
    pub icache_accesses: u64,
    pub icache_misses: u64,
    pub dcache_accesses: u64,
    pub dcache_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub itlb_accesses: u64,
    pub itlb_misses: u64,
    pub dtlb_accesses: u64,
    pub dtlb_misses: u64,
    pub btb_lookups: u64,
    pub btb_hits: u64,
    pub abtb_occupancy: usize,
    pub abtb_capacity: usize,
    pub abtb_evictions: u64,
    pub bloom_fill_ratio: f64,
}

/// The simulated machine: CPU, memory hierarchy, predictors and (when
/// configured) the paper's ABTB hardware.
///
/// # Examples
///
/// ```
/// use dynlink_cpu::{Machine, MachineConfig, RunExit};
/// use dynlink_isa::{Inst, Reg, VirtAddr};
/// use dynlink_mem::{AddressSpace, Perms};
///
/// let mut space = AddressSpace::new(1);
/// space.map_code_region(VirtAddr::new(0x1000), 0x1000, Perms::RX)?;
/// space.place_code(VirtAddr::new(0x1000), Inst::mov_imm(Reg::RET, 42))?;
/// space.place_code(VirtAddr::new(0x1007), Inst::Halt)?;
///
/// let mut m = Machine::new(MachineConfig::baseline(), space);
/// m.init_stack(VirtAddr::new(0x20_0000), 0x4000)?;
/// m.reset(VirtAddr::new(0x1000));
/// assert_eq!(m.run(1_000)?, RunExit::Halted);
/// assert_eq!(m.reg(Reg::RET), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Machine {
    shared: Shared,
    cores: Vec<Core>,
    /// Index of the core currently executing instructions. Exactly one
    /// core runs at a time (the interleaving is deterministic and
    /// driven by the scheduler above, e.g. `MultiProcessSystem`); the
    /// other cores' private state stays warm and snoops the bus.
    active: usize,
    /// The superblock translation cache (see `crate::superblock`):
    /// straight-line regions compiled to micro-op blocks, tagged with
    /// the same uid/code-version/PLT-epoch discipline as the predecode
    /// arena plus a cache-wide eviction generation. A separate field
    /// from [`Shared`] so block ops can be borrowed while core/shared
    /// state is mutated during execution.
    sb: SbCache,
    host_fns: HashMap<u32, HostFn>,
    observers: Vec<Arc<Mutex<dyn RetireObserver + Send>>>,
}

/// The core layout of a [`Machine`]: how many cores, and each core's
/// §3.3 ABTB context-switch policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    policies: Vec<SwitchPolicy>,
}

impl Topology {
    /// `cores` identical cores, all running `policy`. Panics if `cores`
    /// is zero.
    pub fn symmetric(cores: usize, policy: SwitchPolicy) -> Topology {
        assert!(cores > 0, "a machine needs at least one core");
        Topology {
            policies: vec![policy; cores],
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.policies.len()
    }

    /// The switch policy of core `core`.
    pub fn policy(&self, core: usize) -> SwitchPolicy {
        self.policies[core]
    }
}

/// Builder for multi-core [`Machine`]s.
///
/// `Machine::new(cfg, space)` remains the 1-core compatibility
/// constructor; the builder is the general spelling:
///
/// ```
/// use dynlink_cpu::{MachineBuilder, MachineConfig, SwitchPolicy};
/// use dynlink_mem::AddressSpace;
///
/// let m = MachineBuilder::new(MachineConfig::enhanced())
///     .cores(2)
///     .policy(1, SwitchPolicy::AsidTagged)
///     .build(AddressSpace::new(0));
/// assert_eq!(m.core_count(), 2);
/// assert_eq!(m.topology().policy(0), SwitchPolicy::FlushOnSwitch);
/// assert_eq!(m.topology().policy(1), SwitchPolicy::AsidTagged);
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: MachineConfig,
    topology: Topology,
}

impl MachineBuilder {
    /// Starts from `cfg` with a single core whose switch policy is the
    /// one `cfg.flush_abtb_on_context_switch` encodes.
    pub fn new(cfg: MachineConfig) -> Self {
        let policy = SwitchPolicy::from_flush_flag(cfg.flush_abtb_on_context_switch);
        MachineBuilder {
            cfg,
            topology: Topology::symmetric(1, policy),
        }
    }

    /// Sets the core count, resetting every core to the base config's
    /// switch policy (apply [`MachineBuilder::policy`] afterwards for
    /// per-core overrides). Panics if `n` is zero.
    pub fn cores(mut self, n: usize) -> Self {
        let policy = SwitchPolicy::from_flush_flag(self.cfg.flush_abtb_on_context_switch);
        self.topology = Topology::symmetric(n, policy);
        self
    }

    /// Overrides the switch policy of core `core`. Panics if `core` is
    /// out of range for the current core count.
    pub fn policy(mut self, core: usize, policy: SwitchPolicy) -> Self {
        self.topology.policies[core] = policy;
        self
    }

    /// Replaces the whole topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builds the machine over `space`. Core `i` gets a clone of the
    /// base config with `flush_abtb_on_context_switch` set per its
    /// topology policy; the store-broadcast bus is armed only when the
    /// machine has more than one core and `cfg.coherence_bus` is on.
    pub fn build(self, space: AddressSpace) -> Machine {
        let n = self.topology.core_count();
        let snoop = n > 1 && self.cfg.coherence_bus;
        let cores = (0..n)
            .map(|i| {
                let mut cfg = self.cfg.clone();
                cfg.flush_abtb_on_context_switch = self.topology.policy(i).flushes_on_switch();
                Core::new(cfg)
            })
            .collect();
        Machine {
            shared: Shared::new(space, snoop),
            cores,
            active: 0,
            sb: SbCache::default(),
            host_fns: HashMap::new(),
            observers: Vec::new(),
        }
    }
}

impl Machine {
    /// Creates a single-core machine over a loaded address space — the
    /// 1-core compatibility constructor; multi-core machines come from
    /// [`MachineBuilder`].
    pub fn new(cfg: MachineConfig, space: AddressSpace) -> Self {
        MachineBuilder::new(cfg).build(space)
    }

    /// The active core (all single-core accessors read through it).
    #[inline]
    fn core(&self) -> &Core {
        &self.cores[self.active]
    }

    /// Mutable active core.
    #[inline]
    fn core_mut(&mut self) -> &mut Core {
        &mut self.cores[self.active]
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Index of the core currently executing.
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// Selects which core executes subsequent instructions. The
    /// scheduler (e.g. `MultiProcessSystem`) pairs this with
    /// [`Machine::park_thread`]/[`Machine::load_thread`] and
    /// [`Machine::swap_space_with`] when migrating the running thread.
    /// Panics if `core` is out of range.
    pub fn set_active_core(&mut self, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        self.active = core;
    }

    /// The machine's core layout.
    pub fn topology(&self) -> Topology {
        Topology {
            policies: self
                .cores
                .iter()
                .map(|c| SwitchPolicy::from_flush_flag(c.cfg.flush_abtb_on_context_switch))
                .collect(),
        }
    }

    /// Maps a stack region of `bytes` ending at `top` and points the
    /// stack and frame pointers at it.
    ///
    /// # Errors
    ///
    /// Fails if the region overlaps an existing mapping.
    pub fn init_stack(&mut self, top: VirtAddr, bytes: u64) -> Result<(), MemError> {
        self.shared
            .space
            .map_region(VirtAddr::new(top.as_u64() - bytes), bytes, Perms::RW)?;
        self.core_mut().set_reg(Reg::SP, top.as_u64());
        self.core_mut().set_reg(Reg::FP, top.as_u64());
        Ok(())
    }

    /// Resets the program counter and unhalts the machine (the active
    /// core).
    pub fn reset(&mut self, entry: VirtAddr) {
        self.core_mut().pc = entry;
        self.core_mut().halted = false;
    }

    /// Registers a host callback (e.g. the dynamic linker's lazy
    /// resolver) under `id`.
    pub fn register_host_fn(&mut self, id: dynlink_isa::HostFnId, f: HostFn) {
        self.host_fns.insert(id.0, f);
    }

    /// Adds a retire observer (tracing hook): it gets a [`RetireEvent`]
    /// for every retired block terminal and host call, and the machine
    /// keeps dispatching superblocks.
    ///
    /// Observers are `Arc<Mutex<_>>` so callers can keep a handle for
    /// inspection after the run while the machine — and any thread it
    /// was shipped to — drives the callbacks. `Machine` itself stays
    /// `Send`.
    pub fn add_observer(&mut self, obs: Arc<Mutex<dyn RetireObserver + Send>>) {
        self.observers.push(obs);
    }

    /// Declares the PLT address ranges used to classify trampoline
    /// instructions (from `ProcessImage::plt_ranges`).
    ///
    /// Ranges are normalized on ingestion: empty ranges are dropped,
    /// the rest are sorted and coalesced so membership tests can
    /// binary-search. Overlapping input is legal — multitenant setups
    /// union the PLT ranges of VA-aliased process images — and is
    /// merged, not misclassified.
    pub fn set_plt_ranges(&mut self, ranges: &[(VirtAddr, VirtAddr)]) {
        let mut sorted: Vec<(VirtAddr, VirtAddr)> =
            ranges.iter().copied().filter(|&(s, e)| s < e).collect();
        sorted.sort_by_key(|&(s, _)| s);
        let mut merged: Vec<(VirtAddr, VirtAddr)> = Vec::with_capacity(sorted.len());
        for (s, e) in sorted {
            match merged.last_mut() {
                Some(last) if s <= last.1 => {
                    if e > last.1 {
                        last.1 = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        if merged == self.shared.plt_ranges {
            // Identical normalized ranges classify every pc identically,
            // so the cached `in_plt` flags are still exact — skip the
            // epoch bump. This keeps predecode and superblocks warm
            // across context switches between same-layout processes,
            // where callers re-declare the same table every switch.
            return;
        }
        self.shared.plt_ranges = merged;
        // Predecoded pages carry stale `in_plt` flags now; retag lazily.
        self.shared.plt_epoch += 1;
    }

    /// Executes a single instruction. Observers get its
    /// [`RetireEvent`] only if it ends a block or is a host call, as in
    /// a run.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on an unrecoverable fault (unmapped fetch,
    /// bad data access, unknown host function).
    pub fn step(&mut self) -> Result<(), CpuError> {
        if self.core().halted {
            return Ok(());
        }
        if self.observers.is_empty() {
            self.step_one::<false>()
        } else {
            self.step_one::<true>()
        }
    }

    /// One instruction as a 1-op block, monomorphized over whether
    /// retire observers are attached so unobserved runs pay nothing for
    /// the hook: lower the predecoded instruction, retire it through
    /// [`Core::step_op`] and, if it is a block terminal, deliver its
    /// event through [`Core::deliver`], exactly as a block would. Only
    /// what no block can hold lives here: host calls (which need the
    /// callback table and every core, and always deliver an event) and
    /// the demand fault-in retry. Callers check `halted` (and pick
    /// `OBSERVE`) once per dispatch batch, not per instruction.
    fn step_one<const OBSERVE: bool>(&mut self) -> Result<(), CpuError> {
        let active = self.active;
        let asid = self.shared.space.asid();
        let pc = self.cores[active].pc;
        let (inst, in_plt, role) = match self.cores[active].fetch_decoded(&mut self.shared, pc) {
            Ok(v) => v,
            Err(MemError::NotPresent { .. }) => {
                // Demand fetch fault: the page's extent is registered
                // but its contents are not present. Fault it in, count
                // the event, and retry the fetch — the demand-paging
                // path is architecturally invisible, so the retried
                // fetch must behave exactly as an eager mapping would.
                self.shared
                    .space
                    .fault_in_code(pc)
                    .map_err(|source| CpuError { pc, source })?;
                self.cores[active].counters.demand_faults_in += 1;
                self.cores[active]
                    .fetch_decoded(&mut self.shared, pc)
                    .map_err(|source| CpuError { pc, source })?
            }
            Err(source) => return Err(CpuError { pc, source }),
        };
        self.cores[active].charge_issue(asid, pc, 1);
        let (exec, delivers) = match lower(inst, pc, in_plt, role) {
            Ok(op) => {
                let (core, mut others) = split_active(&mut self.cores, active);
                let exec = core.step_op(&mut self.shared, &mut others, asid, &op)?;
                (exec, op.op.is_terminal())
            }
            Err(id) => {
                let core = &mut self.cores[active];
                core.charge_cause(core.cfg.penalties.host_call, Cause::HostCall);
                // Split borrow: the callback table, the core array and
                // the shared state are disjoint fields, so the callback
                // can run against them while borrowed from the map in
                // place — no remove/re-insert (two hash-table writes)
                // per host call.
                let f = self.host_fns.get_mut(&id.0).ok_or(CpuError {
                    pc,
                    source: MemError::NoInstruction { addr: pc },
                })?;
                let mut ctx = HostCtx {
                    cores: &mut self.cores,
                    active,
                    shared: &mut self.shared,
                    redirect: None,
                };
                f(&mut ctx);
                let exec = Exec {
                    next_pc: ctx.redirect.unwrap_or(pc + inst.encoded_len()),
                    loaded_slot: None,
                    skipped: None,
                };
                let (core, mut others) = split_active(&mut self.cores, active);
                self.shared.drain_bus(&mut others);
                core.retire(&self.shared, asid, in_plt, role, &exec);
                (exec, true)
            }
        };
        if OBSERVE && delivers {
            self.cores[active].deliver(&self.observers, pc, inst, in_plt, &exec);
        }
        self.cores[active].pc = exec.next_pc;
        Ok(())
    }

    /// The dispatch loop behind [`Machine::run`] and
    /// [`Machine::run_until_marks`]: the observer check is hoisted into
    /// the monomorphization and the mark-count check is compiled out of
    /// plain runs.
    ///
    /// Observed or not, runs dispatch translated superblocks (see
    /// `crate::superblock`) unless `cfg.superblock` is off: resolve the
    /// block entered at the current pc — successor memo, then dispatch
    /// index, then translation — and execute its micro-ops
    /// tail-to-tail. Any entry that cannot start a block (a host call,
    /// a code hole or a fetch fault) takes a 1-op step. Both deliver a
    /// [`RetireEvent`] per block terminal or host call, so observers see
    /// the same stream either way. Run bookkeeping (halt, budget, mark
    /// count) is checked once per block, which is exact: budget cuts
    /// stop mid-block at an op boundary, and `Mark` is a block terminal
    /// so the mark count can only change where the loop already checks
    /// it.
    fn run_loop<const OBSERVE: bool, const MARKS: bool>(
        &mut self,
        budget_end: u64,
        target_marks: usize,
    ) -> Result<RunExit, CpuError> {
        let blocks = self.core().cfg.superblock;
        let mut prev: Option<u32> = None;
        loop {
            let core = &self.cores[self.active];
            if core.halted {
                return Ok(RunExit::Halted);
            }
            if MARKS && core.marks.len() >= target_marks {
                return Ok(RunExit::InstLimit);
            }
            if core.counters.instructions >= budget_end {
                return Ok(RunExit::InstLimit);
            }
            if blocks {
                let pc = core.pc;
                let budget = budget_end - core.counters.instructions;
                let resets = self.sb.resets;
                // A block whose first op is fused retires two
                // instructions atomically; with only one left in the
                // budget, a 1-op step handles the boundary exactly.
                if let Some(idx) = self
                    .sb_block_at(pc, prev)
                    .filter(|&idx| self.sb.blocks[idx as usize].ops[0].count() <= budget)
                {
                    // A capacity reset inside `sb_block_at` retired the
                    // arena index `prev` refers to; skip the memo then.
                    if let Some(p) = prev.filter(|_| resets == self.sb.resets) {
                        self.sb.blocks[p as usize].succ = Some((pc, idx));
                    }
                    prev =
                        Some(self.sb_run_chain::<OBSERVE, MARKS>(idx, budget_end, target_marks)?);
                    continue;
                }
                prev = None;
            }
            self.step_one::<OBSERVE>()?;
        }
    }

    /// Resolves the translated block entered at `pc`, revalidating its
    /// tags (uid always; code version, PLT epoch and eviction generation
    /// unless [`MachineConfig::superblock_validate`] is off — the
    /// stale-translation negative control). Misses and stale hits
    /// retranslate in place; `None` means the entry instruction itself
    /// is untranslatable and the caller must take a 1-op step.
    fn sb_block_at(&mut self, pc: VirtAddr, prev: Option<u32>) -> Option<u32> {
        let uid = self.shared.space.code_uid();
        let version = self.shared.space.code_version();
        let epoch = self.shared.plt_epoch;
        let gen = self.sb.gen;
        let validate = self.cores[self.active].cfg.superblock_validate;
        let current = |b: &SuperBlock| {
            b.uid == uid
                && (!validate || (b.version == version && b.plt_epoch == epoch && b.gen == gen))
        };
        // Chained dispatch: the previous block usually memoizes exactly
        // this successor, making steady-state dispatch hash-free.
        if let Some(p) = prev {
            if let Some((spc, sidx)) = self.sb.blocks[p as usize].succ {
                if spc == pc {
                    let b = &self.sb.blocks[sidx as usize];
                    if b.entry == pc && current(b) {
                        return Some(sidx);
                    }
                }
            }
        }
        if let Some(idx) = self.sb.lookup(uid, pc) {
            // The index key pins (uid, entry); only the staleness tags
            // need rechecking.
            if current(&self.sb.blocks[idx as usize]) {
                return Some(idx);
            }
        }
        let ops = self.sb_translate(pc);
        if ops.is_empty() {
            return None;
        }
        Some(self.sb.install(SuperBlock {
            entry: pc,
            uid,
            version,
            plt_epoch: epoch,
            gen,
            inst_total: ops.iter().map(SbOp::count).sum(),
            ops: ops.into_boxed_slice(),
            succ: None,
        }))
    }

    /// Scans the straight-line run starting at `entry` out of the
    /// predecoded page: consecutive same-page instructions up to and
    /// including the first block terminal, or cut short by the length
    /// cap, the page boundary, or the first untranslatable (host-call)
    /// or missing instruction. Translation itself is architecturally
    /// invisible: decoding mutates only the predecode arena, never
    /// counters or cycle charges, so looking ahead past instructions
    /// that may never execute is safe. Fetch errors (demand faults,
    /// holes) just end the run — a 1-op step services the condition if
    /// execution actually reaches that pc.
    fn sb_translate(&mut self, entry: VirtAddr) -> Vec<SbOp> {
        let active = self.active;
        let entry_pn = entry.page_number(PAGE_BYTES);
        let mut insts = Vec::new();
        let mut pc = entry;
        while insts.len() < MAX_BLOCK_OPS && pc.page_number(PAGE_BYTES) == entry_pn {
            let Ok((inst, in_plt, role)) = self.cores[active].fetch_decoded(&mut self.shared, pc)
            else {
                break;
            };
            let Ok(op) = lower(inst, pc, in_plt, role) else {
                break;
            };
            insts.push(op);
            if op.op.is_terminal() {
                break;
            }
            pc = op.fall;
        }
        let cfg = &self.cores[active].cfg;
        let mut ops = fuse_ops(insts, cfg.icache.line_bytes, cfg.page_bytes);
        assign_fetch_runs(&mut ops, cfg.icache.line_bytes, cfg.page_bytes);
        ops
    }

    /// Executes block `idx` and then keeps chaining through successor
    /// memos, without returning to the dispatcher, for as long as each
    /// memoized successor revalidates. Returns the index of the last
    /// block executed (the dispatcher seeds its next memo from it).
    ///
    /// Every invalidation tag — space uid, code version, PLT epoch,
    /// eviction generation, ASID — is loop-invariant across the whole
    /// chain and hoisted out of it: blocks never contain host calls,
    /// and micro-op execution cannot patch code, swap processes, drop
    /// pages or redeclare PLT ranges (stores to code pages are
    /// `KindMismatch` faults). The memo hop still compares the
    /// *successor's* stored tags against the hoisted values: the memo
    /// may predate a patch or eviction, and a stale successor must fall
    /// back to the dispatcher for retranslation.
    ///
    /// Each instruction retires through [`Core::step_op`], as a 1-op
    /// step's does, after its window's fetch and base charges, and with
    /// `OBSERVE` a retired terminal delivers its event through
    /// [`Core::deliver`]. A budget cut stops at an op boundary with the
    /// pc on the first unexecuted op (resuming there later translates a
    /// new block mid-run); a memory fault parks the pc on the faulting
    /// op.
    fn sb_run_chain<const OBSERVE: bool, const MARKS: bool>(
        &mut self,
        mut idx: u32,
        budget_end: u64,
        target_marks: usize,
    ) -> Result<u32, CpuError> {
        let active = self.active;
        let Machine {
            shared,
            cores,
            sb,
            observers,
            ..
        } = self;
        let asid = shared.space.asid();
        let uid = shared.space.code_uid();
        let version = shared.space.code_version();
        let epoch = shared.plt_epoch;
        let gen = sb.gen;
        // Split the active core out of the slice once: the per-op body
        // then works through one straight `&mut Core` (no bounds check
        // per use), and the bus drain still reaches every *other* core.
        let (core, mut others) = split_active(cores, active);
        let validate = core.cfg.superblock_validate;
        loop {
            let blk = &sb.blocks[idx as usize];
            let ops = &blk.ops;
            let budget = budget_end - core.counters.instructions;
            // Ops executable within the instruction budget. A fused op
            // retires two instructions atomically, so a budget cut can
            // only land between ops; the dispatcher and the memo hop
            // both guarantee at least the first op fits.
            let n = if budget >= blk.inst_total {
                ops.len()
            } else {
                let mut n = 0usize;
                let mut left_budget = budget;
                while n < ops.len() {
                    let c = ops[n].count();
                    if c > left_budget {
                        break;
                    }
                    left_budget -= c;
                    n += 1;
                }
                n
            };
            debug_assert!(n > 0, "dispatched block with no budget or no ops");
            let mut next_pc = core.pc;
            // Fetch-run windows: the head op's window covers
            // `fetch_insts` instructions on one I-cache line of which
            // only the last can fault, so all fetch and base-cycle
            // charges land up front (folded where the structural
            // outcome is predetermined) before the window executes.
            let mut i = 0;
            while i < n {
                let head = &ops[i];
                let k_ops = head.fetch_run as usize;
                if i + k_ops <= n {
                    let folded =
                        core.charge_issue(asid, head.first_pc(), u64::from(head.fetch_insts));
                    // When the head fetch missed the I-cache the tail
                    // outcomes were not foldable: replay the I-cache
                    // side per instruction, in program order, skipping
                    // the window's first (already charged in full).
                    let mut skip_first = true;
                    for op in &ops[i..i + k_ops] {
                        if let Some(pre) = &op.pre {
                            if !folded && !skip_first {
                                core.charge_icache(pre.pc);
                            }
                            skip_first = false;
                            core.step_op(shared, &mut others, asid, pre)?;
                        }
                        if !folded && !skip_first {
                            core.charge_icache(op.main.pc);
                        }
                        skip_first = false;
                        let exec = core.step_op(shared, &mut others, asid, &op.main)?;
                        if OBSERVE {
                            if let Some(inst) = op.main.op.terminal_inst() {
                                core.deliver(observers, op.main.pc, inst, op.main.in_plt, &exec);
                            }
                        }
                        next_pc = exec.next_pc;
                    }
                    i += k_ops;
                } else {
                    // Budget-truncated window: charge per instruction,
                    // in program order, exactly as 1-op steps would.
                    for op in &ops[i..n] {
                        if let Some(pre) = &op.pre {
                            core.charge_issue(asid, pre.pc, 1);
                            core.step_op(shared, &mut others, asid, pre)?;
                        }
                        core.charge_issue(asid, op.main.pc, 1);
                        // Only a block's last op can be a terminal, and a
                        // truncated window never reaches it: no event.
                        debug_assert!(!op.main.op.is_terminal());
                        next_pc = core.step_op(shared, &mut others, asid, &op.main)?.next_pc;
                    }
                    i = n;
                }
            }
            core.pc = next_pc;
            // Run bookkeeping between blocks, as the dispatcher would.
            if core.halted
                || (MARKS && core.marks.len() >= target_marks)
                || core.counters.instructions >= budget_end
            {
                return Ok(idx);
            }
            // Memo hop: stay in the chain only for a successor recorded
            // at exactly this pc that still revalidates.
            let Some((spc, sidx)) = sb.blocks[idx as usize].succ else {
                return Ok(idx);
            };
            let next = &sb.blocks[sidx as usize];
            if spc != next_pc
                || next.entry != next_pc
                || next.uid != uid
                || (validate
                    && (next.version != version || next.plt_epoch != epoch || next.gen != gen))
                // A fused first op retires two instructions atomically;
                // if the remaining budget cannot cover it, hand back to
                // the dispatcher, whose guard takes a 1-op step.
                || next.ops[0].count() > budget_end - core.counters.instructions
            {
                return Ok(idx);
            }
            idx = sidx;
        }
    }

    /// Runs until `halt` retires or `max_instructions` more instructions
    /// have executed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`].
    pub fn run(&mut self, max_instructions: u64) -> Result<RunExit, CpuError> {
        let budget_end = self.core().counters.instructions + max_instructions;
        if self.observers.is_empty() {
            self.run_loop::<false, false>(budget_end, usize::MAX)
        } else {
            self.run_loop::<true, false>(budget_end, usize::MAX)
        }
    }

    /// Runs until the machine has recorded at least `target_marks` mark
    /// events in total (an exact request-boundary stopping point for
    /// steady-state measurement windows), halting, or exhausting the
    /// instruction budget.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`].
    pub fn run_until_marks(
        &mut self,
        target_marks: usize,
        max_instructions: u64,
    ) -> Result<RunExit, CpuError> {
        let budget_end = self.core().counters.instructions + max_instructions;
        if self.observers.is_empty() {
            self.run_loop::<false, true>(budget_end, target_marks)
        } else {
            self.run_loop::<true, true>(budget_end, target_marks)
        }
    }

    /// A context switch on the active core: flushes the BTB and RAS
    /// (virtually-indexed, untagged), the TLBs, and — unless the core's
    /// ABTB is configured as ASID-tagged — the ABTB, mirroring the
    /// paper's §3.3 discussion.
    pub fn context_switch(&mut self) {
        let core = self.core_mut();
        core.on_context_switch();
        core.itlb.flush();
        core.dtlb.flush();
    }

    /// The microarchitectural side of scheduling a *different* thread
    /// onto `core` (the multi-core analogue of what
    /// [`Machine::swap_process`] does on the active core): untagged
    /// structures (BTB, RAS) are flushed, ASID-tagged TLBs retain their
    /// entries, and the ABTB follows the core's configured policy. Not
    /// needed — and not called by schedulers — when a thread resumes on
    /// a core where it stayed resident. Panics if `core` is out of
    /// range.
    pub fn core_context_switch(&mut self, core: usize) {
        self.cores[core].on_context_switch();
    }

    /// Copies the running thread's architectural state (registers, pc,
    /// halt flag — not the address space) out of `core` into `ctx`.
    /// Pair with [`Machine::swap_space_with`] to park the address space
    /// and [`Machine::load_thread`] to resume another thread. Panics if
    /// `core` is out of range.
    pub fn park_thread(&self, core: usize, ctx: &mut ProcessContext) {
        let c = &self.cores[core];
        ctx.regs = c.regs;
        ctx.pc = c.pc;
        ctx.halted = c.halted;
    }

    /// Copies `ctx`'s architectural state (registers, pc, halt flag —
    /// not the address space) onto `core`. Panics if `core` is out of
    /// range.
    pub fn load_thread(&mut self, core: usize, ctx: &ProcessContext) {
        let c = &mut self.cores[core];
        c.regs = ctx.regs;
        c.pc = ctx.pc;
        c.halted = ctx.halted;
    }

    /// Swaps the machine's shared address space with `space` — the
    /// space-custody half of a multi-core thread switch (a placeholder
    /// space circulates through the parked contexts). Predecoded pages
    /// are uid-tagged, so each space's predecode stays warm across
    /// swaps.
    pub fn swap_space_with(&mut self, space: &mut AddressSpace) {
        std::mem::swap(&mut self.shared.space, space);
    }

    /// Suspends the currently running process into `ctx` and resumes the
    /// process previously stored there — an OS context switch between
    /// two different programs on the active core. Untagged structures
    /// (BTB, RAS) are flushed; ASID-tagged TLBs retain their entries;
    /// the ABTB follows its configured policy (and in ASID-tagged mode
    /// its keys are salted per address space, so entries from different
    /// processes can never alias).
    pub fn swap_process(&mut self, ctx: &mut ProcessContext) {
        let core = &mut self.cores[self.active];
        std::mem::swap(&mut core.regs, &mut ctx.regs);
        std::mem::swap(&mut core.pc, &mut ctx.pc);
        std::mem::swap(&mut core.halted, &mut ctx.halted);
        std::mem::swap(&mut self.shared.space, &mut ctx.space);
        // No decode-cache flush: predecoded pages are tagged with the
        // incoming space's uid (not its ASID, which may alias), so stale
        // pages simply stop matching and each process's predecode stays
        // warm across switches.
        core.on_context_switch();
    }

    /// Invalidates the active core's L1/L2 cache contents (e.g. to
    /// model worst-case pollution around a context switch); statistics
    /// are retained.
    pub fn flush_caches(&mut self) {
        let core = self.core_mut();
        core.icache.flush();
        core.dcache.flush();
        core.l2.flush();
    }

    /// Notifies the machine of a store performed by software running on
    /// the **active core** without going through the simulated store
    /// pipeline (e.g. the runtime loader rewriting GOT slots during a
    /// rebind): the active core's Bloom filter is checked directly, and
    /// the store broadcasts to the other cores only when the coherence
    /// bus is enabled. On a multi-core machine with `coherence_bus`
    /// disabled, remote cores are left stale — the negative control for
    /// cross-core staleness experiments.
    pub fn broadcast_store(&mut self, addr: VirtAddr) {
        self.cores[self.active].snoop_store(addr);
        if self.shared.snoop {
            let active = self.active;
            for (i, core) in self.cores.iter_mut().enumerate() {
                if i != active {
                    core.snoop_store(addr);
                }
            }
        }
    }

    /// Explicitly clears the ABTB (the §3.4 software-managed variant).
    /// The invalidate is global: like an `icache`-flush IPI, it reaches
    /// every core, so a rebind on one core cannot leave another core's
    /// ABTB stale.
    pub fn invalidate_abtb(&mut self) {
        for core in &mut self.cores {
            core.invalidate_abtb();
        }
    }

    /// Evicts the code page containing `addr` back to the not-present
    /// state (demand fault-out): the page's predecode is tombstoned so
    /// the next fetch genuinely faults, and the active core's
    /// `demand_faults_out` counter records the event. Returns `false`
    /// (and counts nothing) if the page was already not present.
    ///
    /// Eviction is architecturally invisible — the backing image is
    /// retained and the refault restores identical instructions — so
    /// any digest divergence after an eviction indicts the fetch-side
    /// invalidation plumbing, not the program.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::Unmapped`] or [`MemError::KindMismatch`]
    /// (data page).
    pub fn evict_code_page(&mut self, addr: VirtAddr) -> Result<bool, MemError> {
        let evicted = self.shared.space.evict_code_page(addr)?;
        if evicted {
            // Captured *after* the eviction: a shared-code space has
            // just privatized, so its fresh identity has no pages to
            // drop — siblings keep theirs — while a private space keeps
            // its identity and the drop lands as before.
            let uid = self.shared.space.code_uid();
            self.shared.drop_page(uid, addr.page_number(PAGE_BYTES));
            self.sb.invalidate_all();
            self.cores[self.active].counters.demand_faults_out += 1;
        }
        Ok(evicted)
    }

    /// Module-GC teardown of a code region: every page overlapping
    /// `[start, start+len)` is removed from the space entirely and its
    /// predecode tombstoned. Returns the number of pages removed.
    /// Callers tear down each code extent (text, PLT, stubs) of a
    /// module whose refcount reached zero — never its GOT or data,
    /// which stay architecturally live for digesting.
    pub fn gc_unmap_code_region(&mut self, start: VirtAddr, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        // Captured *before* the unmap so the drops target the identity
        // the pages were decoded under — for a shared-code space that
        // is the family identity, and surviving siblings simply
        // re-decode the (still mapped, for them) range on next fetch.
        let uid = self.shared.space.code_uid();
        let removed = self.shared.space.unmap_region(start, len);
        if removed > 0 {
            let first = start.page_number(PAGE_BYTES);
            let last = (start + (len - 1)).page_number(PAGE_BYTES);
            for pn in first..=last {
                self.shared.drop_page(uid, pn);
            }
            self.sb.invalidate_all();
        }
        removed
    }

    /// The fetch-side invalidation a module GC owes the machine after
    /// [`Machine::gc_unmap_code_region`] recycles a VA range: the space
    /// is retagged with a fresh predecode identity (stale pages can
    /// never revalidate), every core's ABTB is invalidated (a retained
    /// skip could land in the unmapped range) and every BTB is flushed.
    /// The active core's `modules_gcd` counter records the collection.
    ///
    /// Callers gate this on [`MachineConfig::demand_invalidate`]; the
    /// skipped-invalidation negative control is exactly the stale-skip
    /// divergence the demand-paging difftest hunts.
    pub fn invalidate_for_module_gc(&mut self) {
        self.shared.space.refresh_uid();
        for core in &mut self.cores {
            core.invalidate_abtb();
            core.btb.flush();
        }
    }

    /// Records a completed module GC on the active core: a `dlclose`
    /// dropped the last reference and the module's code extents were
    /// unmapped. Counted separately from
    /// [`Machine::invalidate_for_module_gc`] so the
    /// skipped-invalidation bug model differs from the correct machine
    /// *only* in invalidation, never in event accounting.
    pub fn note_module_gc(&mut self) {
        self.cores[self.active].counters.modules_gcd += 1;
    }

    /// Cycles attributed to each cost source on the active core (see
    /// [`CycleBreakdown`]).
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        let b = &self.core().breakdown_millis;
        CycleBreakdown {
            base: b[0] / 1000,
            icache: b[1] / 1000,
            dcache: b[2] / 1000,
            itlb: b[3] / 1000,
            dtlb: b[4] / 1000,
            mispredict: b[5] / 1000,
            host_call: b[6] / 1000,
        }
    }

    /// Per-structure access/miss statistics for the active core
    /// (observability beyond the Table 4 counters).
    pub fn component_stats(&self) -> ComponentStats {
        let core = self.core();
        ComponentStats {
            icache_accesses: core.icache.accesses(),
            icache_misses: core.icache.misses(),
            dcache_accesses: core.dcache.accesses(),
            dcache_misses: core.dcache.misses(),
            l2_accesses: core.l2.accesses(),
            l2_misses: core.l2.misses(),
            itlb_accesses: core.itlb.accesses(),
            itlb_misses: core.itlb.misses(),
            dtlb_accesses: core.dtlb.accesses(),
            dtlb_misses: core.dtlb.misses(),
            btb_lookups: core.btb.lookups(),
            btb_hits: core.btb.hits(),
            abtb_occupancy: core.abtb.len(),
            abtb_capacity: core.abtb.capacity(),
            abtb_evictions: core.abtb.evictions(),
            bloom_fill_ratio: core.bloom.fill_ratio(),
        }
    }

    /// Snapshot of the machine-wide performance counters: the per-field
    /// **sum over every core** (cycles filled in from each core's timing
    /// accumulator), the way VTune aggregates hardware counters across
    /// cores. On a 1-core machine this is exactly the active core's
    /// counters; use [`Machine::counters_for`] for a single core's view.
    pub fn counters(&self) -> PerfCounters {
        let mut total = PerfCounters::default();
        for i in 0..self.cores.len() {
            total.accumulate(&self.counters_for(i));
        }
        total
    }

    /// Snapshot of one core's performance counters (cycles filled in
    /// from that core's timing accumulator). Panics if `core` is out of
    /// range.
    pub fn counters_for(&self, core: usize) -> PerfCounters {
        let c = &self.cores[core];
        let mut out = c.counters;
        out.cycles = c.cycles();
        out
    }

    /// Resets the performance counters and timing accumulators of
    /// **every** core while keeping all microarchitectural state (cache
    /// contents, predictor training, ABTB entries) warm — used to
    /// exclude warmup from steady-state measurements, as the paper's
    /// methodology does.
    pub fn reset_counters(&mut self) {
        for core in &mut self.cores {
            core.counters = PerfCounters::default();
            core.cycle_millis = 0;
            core.breakdown_millis = [0; 7];
            core.marks.clear();
            core.event_mark = 0;
        }
    }

    /// Drains the [`MarkEvent`]s recorded by the active core.
    pub fn take_marks(&mut self) -> Vec<MarkEvent> {
        std::mem::take(&mut self.core_mut().marks)
    }

    /// Reads a register of the active core (for tests and harnesses).
    pub fn reg(&self, r: Reg) -> u64 {
        self.core().reg(r)
    }

    /// Writes a register of the active core (for harness setup, e.g.
    /// passing arguments).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.core_mut().set_reg(r, value);
    }

    /// The active core's program counter.
    pub fn pc(&self) -> VirtAddr {
        self.core().pc
    }

    /// Returns `true` once `halt` has retired on the active core.
    pub fn halted(&self) -> bool {
        self.core().halted
    }

    /// Shared access to the address space.
    pub fn space(&self) -> &AddressSpace {
        &self.shared.space
    }

    /// Mutable access to the address space (runtime loading, dlclose).
    /// Writes made this way bypass the store path; call
    /// [`Machine::broadcast_store`] for each GOT slot rewritten so the
    /// Bloom filters (local and, over the bus, remote) can observe it.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.shared.space
    }

    /// Live ABTB occupancy of the active core (diagnostics).
    pub fn abtb_len(&self) -> usize {
        self.core().abtb.len()
    }

    /// Live ABTB occupancy of core `core` (diagnostics). Panics if
    /// `core` is out of range.
    pub fn abtb_len_for(&self, core: usize) -> usize {
        self.cores[core].abtb.len()
    }

    /// The machine configuration (the active core's clone; cores differ
    /// only in `flush_abtb_on_context_switch` per their topology
    /// policy).
    pub fn config(&self) -> &MachineConfig {
        &self.core().cfg
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("active", &self.active)
            .field("pc", &self.core().pc)
            .field("halted", &self.core().halted)
            .field("accel", &self.core().cfg.accel)
            .field("instructions", &self.core().counters.instructions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_isa::{AluOp, Cond, HostFnId, Operand};

    const TEXT: u64 = 0x40_0000;
    const PLT: u64 = 0x41_0000;
    const GOT: u64 = 0x60_0000;
    const FUNC: u64 = 0x7f_0000;
    const STACK_TOP: u64 = 0x100_0000;

    fn space() -> AddressSpace {
        let mut s = AddressSpace::new(1);
        s.map_code_region(VirtAddr::new(TEXT), 0x1000, Perms::RX)
            .unwrap();
        s.map_code_region(VirtAddr::new(PLT), 0x1000, Perms::RX)
            .unwrap();
        s.map_region(VirtAddr::new(GOT), 0x1000, Perms::RW).unwrap();
        s.map_code_region(VirtAddr::new(FUNC), 0x1000, Perms::RX)
            .unwrap();
        s
    }

    fn machine_with(cfg: MachineConfig, s: AddressSpace) -> Machine {
        let mut m = Machine::new(cfg, s);
        m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
        m.reset(VirtAddr::new(TEXT));
        m
    }

    /// Places a straight-line program at TEXT.
    fn place(s: &mut AddressSpace, insts: &[Inst]) -> Vec<VirtAddr> {
        let mut pcs = Vec::new();
        let mut at = VirtAddr::new(TEXT);
        for &i in insts {
            s.place_code(at, i).unwrap();
            pcs.push(at);
            at += i.encoded_len();
        }
        pcs
    }

    #[test]
    fn demand_fault_in_is_transparent_and_counted() {
        let mut s = space();
        place(&mut s, &[Inst::mov_imm(Reg::R0, 7), Inst::Halt]);
        // Register the extent, then mark it not present: first fetch
        // must demand-fault the page in and retry invisibly.
        assert_eq!(s.evict_code_region(VirtAddr::new(TEXT), 0x1000), 1);
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(100).unwrap();
        assert!(m.halted());
        assert_eq!(m.reg(Reg::R0), 7);
        assert_eq!(m.counters().demand_faults_in, 1);
        assert_eq!(m.counters().demand_faults_out, 0);
    }

    #[test]
    fn evict_mid_run_refaults_through_the_tombstoned_predecode() {
        let mut s = space();
        place(
            &mut s,
            &[
                Inst::mov_imm(Reg::R0, 1),
                Inst::add_imm(Reg::R0, 2),
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(1).unwrap();
        // The page is predecoded and hot in the core's last-page memo;
        // eviction must tombstone it or the next fetch never faults.
        assert!(m.evict_code_page(VirtAddr::new(TEXT)).unwrap());
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R0), 3);
        assert_eq!(m.counters().demand_faults_out, 1);
        assert_eq!(m.counters().demand_faults_in, 1);
        // Evicting an already-not-present page counts nothing.
        assert!(matches!(
            m.evict_code_page(VirtAddr::new(0x9999_0000)),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn gc_unmap_makes_fetch_an_unrecoverable_fault() {
        let mut s = space();
        place(&mut s, &[Inst::mov_imm(Reg::R0, 1), Inst::Halt]);
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(1).unwrap();
        assert_eq!(m.gc_unmap_code_region(VirtAddr::new(TEXT), 0x1000), 1);
        m.invalidate_for_module_gc();
        m.note_module_gc();
        let err = m.run(100).unwrap_err();
        assert!(
            matches!(err.source, MemError::Unmapped { .. }),
            "a fetch from a GC'd hole is not a demand fault: {err:?}"
        );
        assert_eq!(m.counters().modules_gcd, 1);
    }

    #[test]
    fn module_gc_invalidation_retags_the_space() {
        let s = space();
        let mut m = machine_with(MachineConfig::enhanced(), s);
        let before = m.space().uid();
        m.invalidate_for_module_gc();
        assert_ne!(m.space().uid(), before);
    }

    #[test]
    fn alu_and_mov_semantics() {
        let mut s = space();
        place(
            &mut s,
            &[
                Inst::mov_imm(Reg::R0, 10),
                Inst::add_imm(Reg::R0, 5),
                Inst::MovReg {
                    dst: Reg::R1,
                    src: Reg::R0,
                },
                Inst::Alu {
                    op: AluOp::Mul,
                    dst: Reg::R1,
                    src: Operand::Imm(3),
                },
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R0), 15);
        assert_eq!(m.reg(Reg::R1), 45);
        assert_eq!(m.counters().instructions, 5);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut s = space();
        place(
            &mut s,
            &[
                Inst::mov_imm(Reg::R0, 0xabcd),
                Inst::Store {
                    src: Reg::R0,
                    mem: MemRef::Abs(VirtAddr::new(GOT + 0x100)),
                },
                Inst::Load {
                    dst: Reg::R1,
                    mem: MemRef::Abs(VirtAddr::new(GOT + 0x100)),
                },
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R1), 0xabcd);
        let c = m.counters();
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 1);
    }

    #[test]
    fn push_pop_and_stack_pointer() {
        let mut s = space();
        place(
            &mut s,
            &[
                Inst::mov_imm(Reg::R0, 7),
                Inst::Push { src: Reg::R0 },
                Inst::mov_imm(Reg::R0, 0),
                Inst::Pop { dst: Reg::R1 },
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R1), 7);
        assert_eq!(m.reg(Reg::SP), STACK_TOP);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut s = space();
        // main: call FUNC; mov r1, 1; halt    FUNC: mov r0, 9; ret
        place(
            &mut s,
            &[
                Inst::CallDirect {
                    target: VirtAddr::new(FUNC),
                },
                Inst::mov_imm(Reg::R1, 1),
                Inst::Halt,
            ],
        );
        s.place_code(VirtAddr::new(FUNC), Inst::mov_imm(Reg::R0, 9))
            .unwrap();
        s.place_code(VirtAddr::new(FUNC + 7), Inst::Ret).unwrap();
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R0), 9);
        assert_eq!(m.reg(Reg::R1), 1);
        assert!(m.halted());
    }

    #[test]
    fn countdown_loop_and_direction_prediction() {
        let mut s = space();
        // r0 = 50; loop: r0 -= 1; bne r0, 0, loop; halt
        let i0 = Inst::mov_imm(Reg::R0, 50);
        let i1 = Inst::sub_imm(Reg::R0, 1);
        let loop_pc = VirtAddr::new(TEXT) + i0.encoded_len();
        place(
            &mut s,
            &[
                i0,
                i1,
                Inst::BranchCond {
                    cond: Cond::Ne,
                    lhs: Reg::R0,
                    rhs: Operand::Imm(0),
                    target: loop_pc,
                },
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(1000).unwrap();
        assert_eq!(m.reg(Reg::R0), 0);
        let c = m.counters();
        assert_eq!(c.branches, 50);
        // The loop back-edge trains quickly; only a handful mispredict
        // (initial state + final not-taken).
        assert!(c.branch_mispredictions <= 4, "{}", c.branch_mispredictions);
    }

    /// Builds the canonical dynamic-linking shape:
    ///
    /// ```text
    /// main:  r2 = N
    /// loop:  call plt0
    ///        r2 -= 1
    ///        bne r2, 0, loop
    ///        halt
    /// plt0:  jmp *(GOT)         ; 16-byte PLT slot
    /// func:  r0 += 1 ; ret
    /// ```
    fn library_call_program(s: &mut AddressSpace, iterations: u64) {
        let plt0 = VirtAddr::new(PLT);
        let got0 = VirtAddr::new(GOT + 16);
        let func = VirtAddr::new(FUNC);
        let i0 = Inst::mov_imm(Reg::R2, iterations);
        let call = Inst::CallDirect { target: plt0 };
        let dec = Inst::sub_imm(Reg::R2, 1);
        let loop_pc = VirtAddr::new(TEXT) + i0.encoded_len();
        let bne = Inst::BranchCond {
            cond: Cond::Ne,
            lhs: Reg::R2,
            rhs: Operand::Imm(0),
            target: loop_pc,
        };
        place(s, &[i0, call, dec, bne, Inst::Halt]);
        s.place_code(
            plt0,
            Inst::JmpIndirectMem {
                mem: MemRef::Abs(got0),
            },
        )
        .unwrap();
        s.write_u64(got0, func.as_u64()).unwrap();
        s.place_code(func, Inst::add_imm(Reg::R0, 1)).unwrap();
        s.place_code(func + 4, Inst::Ret).unwrap();
    }

    fn run_library_calls(cfg: MachineConfig, iterations: u64) -> (Machine, PerfCounters) {
        let mut s = space();
        library_call_program(&mut s, iterations);
        let mut m = machine_with(cfg, s);
        m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
        m.run(100_000).unwrap();
        let c = m.counters();
        (m, c)
    }

    #[test]
    fn baseline_executes_every_trampoline() {
        let (_m, c) = run_library_calls(MachineConfig::baseline(), 100);
        assert_eq!(c.trampoline_instructions, 100);
        assert_eq!(c.trampolines_skipped, 0);
    }

    #[test]
    fn enhanced_skips_trampolines_after_warmup() {
        let (m, c) = run_library_calls(MachineConfig::enhanced(), 100);
        // Call 1 executes + trains; call 2 verifies via BTB retrain;
        // calls 3..100 skip.
        assert!(
            c.trampolines_skipped >= 97,
            "skipped only {}",
            c.trampolines_skipped
        );
        assert!(c.trampoline_instructions <= 3);
        assert!(m.abtb_len() >= 1);
        assert!(c.abtb_hits >= 97);
    }

    #[test]
    fn architectural_results_identical_base_vs_enhanced() {
        let (mb, cb) = run_library_calls(MachineConfig::baseline(), 64);
        let (me, ce) = run_library_calls(MachineConfig::enhanced(), 64);
        assert_eq!(mb.reg(Reg::R0), 64);
        assert_eq!(me.reg(Reg::R0), 64);
        assert_eq!(mb.reg(Reg::SP), me.reg(Reg::SP));
        // Enhanced retires fewer instructions (the elided trampolines).
        assert!(ce.instructions < cb.instructions);
        assert_eq!(cb.instructions - ce.instructions, ce.trampolines_skipped);
    }

    #[test]
    fn no_extra_mispredictions_versus_baseline() {
        // Paper §3.3: "we do not introduce any branch mispredictions
        // that were not present in the base system."
        let (_mb, cb) = run_library_calls(MachineConfig::baseline(), 200);
        let (_me, ce) = run_library_calls(MachineConfig::enhanced(), 200);
        assert!(
            ce.branch_mispredictions <= cb.branch_mispredictions,
            "enhanced {} > base {}",
            ce.branch_mispredictions,
            cb.branch_mispredictions
        );
    }

    #[test]
    fn enhanced_reduces_icache_and_dcache_traffic() {
        let (_mb, cb) = run_library_calls(MachineConfig::baseline(), 500);
        let (_me, ce) = run_library_calls(MachineConfig::enhanced(), 500);
        // Fewer loads: the GOT load disappears with the trampoline.
        assert!(ce.loads < cb.loads);
        assert!(ce.cycles <= cb.cycles);
    }

    #[test]
    fn got_rewrite_through_store_flushes_abtb() {
        // Program: call plt; store new target into GOT; call plt; halt.
        // The second call must reach the *new* function in both modes.
        let mut s = space();
        let plt0 = VirtAddr::new(PLT);
        let got0 = VirtAddr::new(GOT + 16);
        let f1 = VirtAddr::new(FUNC);
        let f2 = VirtAddr::new(FUNC + 0x100);
        let call = Inst::CallDirect { target: plt0 };
        place(
            &mut s,
            &[
                call, // call 1 -> f1
                call, // call 2 -> f1 (train)
                call, // call 3 -> f1 (skip in enhanced)
                Inst::mov_imm(Reg::R5, f2.as_u64()),
                Inst::Store {
                    src: Reg::R5,
                    mem: MemRef::Abs(got0),
                }, // rewrite GOT: must flush ABTB
                call, // call 4 -> f2
                Inst::Halt,
            ],
        );
        s.place_code(
            plt0,
            Inst::JmpIndirectMem {
                mem: MemRef::Abs(got0),
            },
        )
        .unwrap();
        s.write_u64(got0, f1.as_u64()).unwrap();
        // f1: r0 += 1; ret      f2: r1 += 1; ret
        s.place_code(f1, Inst::add_imm(Reg::R0, 1)).unwrap();
        s.place_code(f1 + 4, Inst::Ret).unwrap();
        s.place_code(f2, Inst::add_imm(Reg::R1, 1)).unwrap();
        s.place_code(f2 + 4, Inst::Ret).unwrap();

        for cfg in [MachineConfig::baseline(), MachineConfig::enhanced()] {
            let accel = cfg.accel;
            let mut m = machine_with(cfg, s.clone());
            m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
            m.run(1000).unwrap();
            assert_eq!(m.reg(Reg::R0), 3, "{accel:?}: three calls to f1");
            assert_eq!(m.reg(Reg::R1), 1, "{accel:?}: one call to f2");
            if accel.has_bloom() {
                assert!(m.counters().abtb_flushes >= 1, "GOT store must flush");
            }
        }
    }

    #[test]
    fn no_bloom_variant_requires_explicit_invalidate() {
        // §3.4: without the Bloom filter, a GOT rewrite alone leaves a
        // stale ABTB entry; the skip then goes to the *old* target, just
        // as skipping an icache flush executes stale instructions.
        let mut s = space();
        let plt0 = VirtAddr::new(PLT);
        let got0 = VirtAddr::new(GOT + 16);
        let f1 = VirtAddr::new(FUNC);
        let f2 = VirtAddr::new(FUNC + 0x100);
        let call = Inst::CallDirect { target: plt0 };
        place(
            &mut s,
            &[
                call,
                call,
                call,
                Inst::mov_imm(Reg::R5, f2.as_u64()),
                Inst::Store {
                    src: Reg::R5,
                    mem: MemRef::Abs(got0),
                },
                call,
                Inst::Halt,
            ],
        );
        s.place_code(
            plt0,
            Inst::JmpIndirectMem {
                mem: MemRef::Abs(got0),
            },
        )
        .unwrap();
        s.write_u64(got0, f1.as_u64()).unwrap();
        s.place_code(f1, Inst::add_imm(Reg::R0, 1)).unwrap();
        s.place_code(f1 + 4, Inst::Ret).unwrap();
        s.place_code(f2, Inst::add_imm(Reg::R1, 1)).unwrap();
        s.place_code(f2 + 4, Inst::Ret).unwrap();

        let mut m = machine_with(MachineConfig::enhanced_no_bloom(), s);
        m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
        m.run(1000).unwrap();
        // Stale skip: the fourth call still reached f1.
        assert_eq!(m.reg(Reg::R0), 4);
        assert_eq!(m.reg(Reg::R1), 0);
    }

    #[test]
    fn broadcast_store_notification_flushes() {
        let (mut m, _c) = run_library_calls(MachineConfig::enhanced(), 10);
        assert!(m.abtb_len() > 0);
        // A software store to the watched GOT slot.
        m.broadcast_store(VirtAddr::new(GOT + 16));
        assert_eq!(m.abtb_len(), 0);
        // An unrelated address does not flush.
        let (mut m2, _c) = run_library_calls(MachineConfig::enhanced(), 10);
        m2.broadcast_store(VirtAddr::new(GOT + 0x800));
        assert!(m2.abtb_len() > 0);
    }

    #[test]
    fn context_switch_flushes_abtb_by_default() {
        let (mut m, _c) = run_library_calls(MachineConfig::enhanced(), 10);
        assert!(m.abtb_len() > 0);
        m.context_switch();
        assert_eq!(m.abtb_len(), 0);
    }

    #[test]
    fn asid_tagged_abtb_survives_context_switch() {
        let mut cfg = MachineConfig::enhanced();
        cfg.flush_abtb_on_context_switch = false;
        let mut s = space();
        library_call_program(&mut s, 10);
        let mut m = machine_with(cfg, s);
        m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
        m.run(100_000).unwrap();
        assert!(m.abtb_len() > 0);
        m.context_switch();
        assert!(m.abtb_len() > 0);
    }

    #[test]
    fn mark_events_record_progress() {
        let mut s = space();
        place(
            &mut s,
            &[
                Inst::Mark { id: 1 },
                Inst::Nop,
                Inst::Nop,
                Inst::Mark { id: 2 },
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.run(100).unwrap();
        let marks = m.take_marks();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].id, 1);
        assert_eq!(marks[1].id, 2);
        assert!(marks[1].instructions > marks[0].instructions);
        assert!(m.take_marks().is_empty(), "drained");
    }

    #[test]
    fn host_call_redirect_and_store_path() {
        let mut s = space();
        place(
            &mut s,
            &[
                Inst::HostCall { id: HostFnId(9) },
                Inst::Halt, // skipped by redirect
            ],
        );
        let target = VirtAddr::new(FUNC);
        s.place_code(target, Inst::mov_imm(Reg::R3, 77)).unwrap();
        s.place_code(target + 7, Inst::Halt).unwrap();
        let mut m = machine_with(MachineConfig::baseline(), s);
        m.register_host_fn(
            HostFnId(9),
            Box::new(move |ctx| {
                ctx.set_reg(Reg::R4, 55);
                ctx.store_u64(VirtAddr::new(GOT + 8), 0x1234).unwrap();
                ctx.set_pc(target);
                ctx.count_resolver();
            }),
        );
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R3), 77);
        assert_eq!(m.reg(Reg::R4), 55);
        assert_eq!(m.space().read_u64(VirtAddr::new(GOT + 8)).unwrap(), 0x1234);
        let c = m.counters();
        assert_eq!(c.resolver_invocations, 1);
        assert_eq!(c.stores, 1, "host store goes through the store path");
    }

    #[test]
    fn unknown_host_fn_faults() {
        let mut s = space();
        place(&mut s, &[Inst::HostCall { id: HostFnId(42) }]);
        let mut m = machine_with(MachineConfig::baseline(), s);
        assert!(m.step().is_err());
    }

    #[test]
    fn unmapped_fetch_faults_with_pc() {
        let mut m = machine_with(MachineConfig::baseline(), space());
        m.reset(VirtAddr::new(0xdead_0000));
        let err = m.step().unwrap_err();
        assert_eq!(err.pc, VirtAddr::new(0xdead_0000));
    }

    #[test]
    fn run_respects_instruction_limit() {
        let mut s = space();
        // Infinite loop.
        let spin = VirtAddr::new(TEXT);
        s.place_code(spin, Inst::JmpDirect { target: spin })
            .unwrap();
        let mut m = machine_with(MachineConfig::baseline(), s);
        assert_eq!(m.run(1000).unwrap(), RunExit::InstLimit);
        assert_eq!(m.counters().instructions, 1000);
    }

    #[test]
    fn virtual_dispatch_never_trains_abtb() {
        // An indirect call through a register (C++ virtual style,
        // §2.4.2) followed by normal code must not create ABTB entries.
        let mut s = space();
        let func = VirtAddr::new(FUNC);
        place(
            &mut s,
            &[
                Inst::mov_imm(Reg::R6, func.as_u64()),
                Inst::CallIndirectReg { target: Reg::R6 },
                Inst::Halt,
            ],
        );
        s.place_code(func, Inst::mov_imm(Reg::R0, 5)).unwrap();
        s.place_code(func + 7, Inst::Ret).unwrap();
        let mut m = machine_with(MachineConfig::enhanced(), s);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R0), 5);
        assert_eq!(m.abtb_len(), 0);
    }

    #[test]
    fn arm_flavor_trampoline_trains_and_skips() {
        // plt: add scratch, 0 ; add scratch, 0 ; jmp *(got)
        let mut s = space();
        let plt0 = VirtAddr::new(PLT);
        let got0 = VirtAddr::new(GOT + 16);
        let func = VirtAddr::new(FUNC);
        let i0 = Inst::mov_imm(Reg::R2, 50);
        let call = Inst::CallDirect { target: plt0 };
        let dec = Inst::sub_imm(Reg::R2, 1);
        let loop_pc = VirtAddr::new(TEXT) + i0.encoded_len();
        place(
            &mut s,
            &[
                i0,
                call,
                dec,
                Inst::BranchCond {
                    cond: Cond::Ne,
                    lhs: Reg::R2,
                    rhs: Operand::Imm(0),
                    target: loop_pc,
                },
                Inst::Halt,
            ],
        );
        let scratch_add = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::SCRATCH,
            src: Operand::Imm(0),
        };
        s.place_code(plt0, scratch_add).unwrap();
        s.place_code(plt0 + 4, scratch_add).unwrap();
        s.place_code(
            plt0 + 8,
            Inst::JmpIndirectMem {
                mem: MemRef::Abs(got0),
            },
        )
        .unwrap();
        s.write_u64(got0, func.as_u64()).unwrap();
        s.place_code(func, Inst::add_imm(Reg::R0, 1)).unwrap();
        s.place_code(func + 4, Inst::Ret).unwrap();

        let mut m = machine_with(MachineConfig::enhanced(), s);
        m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
        m.run(10_000).unwrap();
        assert_eq!(m.reg(Reg::R0), 50);
        let c = m.counters();
        assert!(
            c.trampolines_skipped >= 47,
            "ARM trampoline skipped {} times",
            c.trampolines_skipped
        );
    }

    /// Records every event's pc, instruction and retired count.
    #[derive(Default)]
    struct Collect {
        events: Vec<(VirtAddr, Inst, u64)>,
    }

    impl RetireObserver for Collect {
        fn on_retire(&mut self, e: &RetireEvent) {
            self.events.push((e.pc, e.inst, e.retired));
        }
    }

    #[test]
    fn observer_sees_retired_instructions() {
        let mut s = space();
        let pcs = place(&mut s, &[Inst::Nop, Inst::Nop, Inst::Halt]);
        let mut m = machine_with(MachineConfig::baseline(), s);
        let obs = Arc::new(Mutex::new(Collect::default()));
        m.add_observer(obs.clone());
        m.run(10).unwrap();
        // One event, at the block's terminal, carrying all three
        // retired instructions.
        assert_eq!(obs.lock().unwrap().events, [(pcs[2], Inst::Halt, 3)]);
    }

    #[test]
    fn reset_counters_restarts_the_retired_count() {
        let mut s = space();
        let pcs = place(
            &mut s,
            &[
                Inst::Nop,
                Inst::Nop,
                Inst::Mark { id: 1 },
                Inst::Nop,
                Inst::Nop,
                Inst::Nop,
                Inst::Halt,
            ],
        );
        let mut m = machine_with(MachineConfig::baseline(), s);
        let obs = Arc::new(Mutex::new(Collect::default()));
        m.add_observer(obs.clone());
        // Stop two instructions past the mark's event, then drop those
        // two from the counters: the halt's event counts only what
        // retired after the reset.
        m.run(5).unwrap();
        m.reset_counters();
        m.run(10).unwrap();
        assert!(m.halted());
        assert_eq!(
            obs.lock().unwrap().events,
            [(pcs[2], Inst::Mark { id: 1 }, 3), (pcs[6], Inst::Halt, 2)]
        );
        assert_eq!(m.counters().instructions, 2);
    }

    #[test]
    fn next_line_prefetch_reduces_icache_misses_on_straightline_code() {
        let build = |prefetch: bool| {
            let mut s = space();
            // 200 sequential instructions spanning many lines.
            let mut insts = vec![Inst::mov_imm(Reg::R0, 1); 200];
            insts.push(Inst::Halt);
            place(&mut s, &insts);
            let mut cfg = MachineConfig::baseline();
            cfg.icache_next_line_prefetch = prefetch;
            let mut m = machine_with(cfg, s);
            m.run(1000).unwrap();
            m.counters().icache_misses
        };
        let without = build(false);
        let with = build(true);
        assert!(
            with < without,
            "prefetch {with} misses vs {without} without"
        );
    }

    #[test]
    fn cycles_grow_with_penalties() {
        let (_m, c) = run_library_calls(MachineConfig::baseline(), 50);
        assert!(c.cycles > 0);
        assert!(c.cpi() > 0.0);
    }

    #[test]
    fn cycle_breakdown_accounts_for_every_cycle() {
        let (m, c) = run_library_calls(MachineConfig::baseline(), 100);
        let b = m.cycle_breakdown();
        // Milli-cycle truncation can lose at most 1 cycle total.
        assert!(
            c.cycles.abs_diff(b.total()) <= 1,
            "{} vs {}",
            c.cycles,
            b.total()
        );
        assert!(b.base > 0);
        assert!(b.mispredict > 0, "first call mispredicts");
        assert_eq!(b.host_call, 0, "no resolver in this hand-built program");
        assert_eq!(b.penalties(), b.total() - b.base);
    }

    #[test]
    fn enhanced_machine_saves_penalty_cycles() {
        let (mb, _) = run_library_calls(MachineConfig::baseline(), 500);
        let (me, _) = run_library_calls(MachineConfig::enhanced(), 500);
        let (bb, be) = (mb.cycle_breakdown(), me.cycle_breakdown());
        assert!(be.base < bb.base, "fewer instructions retire");
        assert!(be.total() <= bb.total());
    }

    // ------------------------------------------------------------------
    // Multi-core: builder, bus, coherence.
    // ------------------------------------------------------------------

    /// Address of the store-program placed after the library-call loop:
    /// a second entry point another core can run to rewrite the GOT.
    const STORE_PROG: u64 = TEXT + 0x800;

    /// A 2-core machine over the canonical library-call program, with an
    /// extra program at STORE_PROG that stores `0xbeef` into the GOT
    /// slot the trampoline loads through.
    fn two_core_machine(cfg: MachineConfig) -> Machine {
        let mut s = space();
        library_call_program(&mut s, 50);
        let got0 = VirtAddr::new(GOT + 16);
        let mut at = VirtAddr::new(STORE_PROG);
        for inst in [
            Inst::mov_imm(Reg::R5, 0xbeef),
            Inst::Store {
                src: Reg::R5,
                mem: MemRef::Abs(got0),
            },
            Inst::Halt,
        ] {
            s.place_code(at, inst).unwrap();
            at += inst.encoded_len();
        }
        let mut m = MachineBuilder::new(cfg).cores(2).build(s);
        m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
        m.reset(VirtAddr::new(TEXT));
        m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
        m
    }

    /// Trains core 0's ABTB by running the library-call loop there.
    fn train_core0(m: &mut Machine) {
        m.run(100_000).unwrap();
        assert!(m.abtb_len_for(0) > 0, "core 0 trained its ABTB");
        assert!(m.counters_for(0).trampolines_skipped > 0);
    }

    #[test]
    fn builder_topology_round_trips() {
        let m = MachineBuilder::new(MachineConfig::enhanced())
            .cores(3)
            .policy(2, SwitchPolicy::AsidTagged)
            .build(space());
        assert_eq!(m.core_count(), 3);
        assert_eq!(m.active_core(), 0);
        let t = m.topology();
        assert_eq!(t.core_count(), 3);
        assert_eq!(t.policy(0), SwitchPolicy::FlushOnSwitch);
        assert_eq!(t.policy(1), SwitchPolicy::FlushOnSwitch);
        assert_eq!(t.policy(2), SwitchPolicy::AsidTagged);
    }

    #[test]
    fn retired_store_on_one_core_snoops_the_others() {
        let mut m = two_core_machine(MachineConfig::enhanced());
        train_core0(&mut m);

        // Run the GOT-rewriting store program on core 1.
        m.set_active_core(1);
        m.reset(VirtAddr::new(STORE_PROG));
        m.run(100).unwrap();

        // The store broadcast on the bus and hit core 0's Bloom filter.
        assert_eq!(m.abtb_len_for(0), 0, "core 0's ABTB was flushed");
        let c0 = m.counters_for(0);
        assert!(c0.abtb_coherence_flushes >= 1, "coherence flush witness");
        assert!(c0.bloom_store_hits >= 1);
        // Core 1 executed no trampolines and took no coherence flush of
        // its own training (it never trained).
        assert_eq!(m.counters_for(1).trampolines_skipped, 0);
    }

    #[test]
    fn bus_off_leaves_the_remote_core_stale() {
        let mut cfg = MachineConfig::enhanced();
        cfg.coherence_bus = false;
        let mut m = two_core_machine(cfg);
        train_core0(&mut m);
        let len_before = m.abtb_len_for(0);

        m.set_active_core(1);
        m.reset(VirtAddr::new(STORE_PROG));
        m.run(100).unwrap();

        // No broadcast: core 0 still holds its (now stale) entries.
        assert_eq!(m.abtb_len_for(0), len_before);
        assert_eq!(m.counters_for(0).abtb_coherence_flushes, 0);
        // Core 1's own pipeline store still checked its *local* filter.
        assert_eq!(m.counters_for(1).abtb_coherence_flushes, 0);
    }

    #[test]
    fn broadcast_store_respects_the_bus_switch() {
        for (bus, expect_remote_flush) in [(true, true), (false, false)] {
            let mut cfg = MachineConfig::enhanced();
            cfg.coherence_bus = bus;
            let mut m = two_core_machine(cfg);
            train_core0(&mut m);
            m.set_active_core(1);
            m.broadcast_store(VirtAddr::new(GOT + 16));
            assert_eq!(
                m.counters_for(0).abtb_coherence_flushes >= 1,
                expect_remote_flush,
                "bus={bus}"
            );
        }
    }

    #[test]
    fn invalidate_abtb_reaches_every_core() {
        let mut m = two_core_machine(MachineConfig::enhanced_no_bloom());
        train_core0(&mut m);
        m.set_active_core(1);
        m.invalidate_abtb();
        assert_eq!(m.abtb_len_for(0), 0);
        assert_eq!(m.abtb_len_for(1), 0);
    }

    #[test]
    fn aggregate_counters_sum_over_cores() {
        let mut m = two_core_machine(MachineConfig::enhanced());
        train_core0(&mut m);
        m.set_active_core(1);
        m.reset(VirtAddr::new(STORE_PROG));
        m.run(100).unwrap();

        let (c0, c1) = (m.counters_for(0), m.counters_for(1));
        let total = m.counters();
        assert_eq!(total.instructions, c0.instructions + c1.instructions);
        assert_eq!(total.cycles, c0.cycles + c1.cycles);
        assert_eq!(total.stores, c0.stores + c1.stores);
        assert!(c1.instructions >= 3, "core 1 ran the store program");

        m.reset_counters();
        assert_eq!(m.counters().instructions, 0);
        assert_eq!(m.counters_for(0).cycles, 0);
    }

    #[test]
    fn park_load_and_space_swap_round_trip() {
        let mut m = two_core_machine(MachineConfig::enhanced());
        train_core0(&mut m);
        let r2 = m.reg(Reg::R2);

        // Park core 0's thread, run something else on it, then resume.
        let mut parked = ProcessContext::new(
            AddressSpace::new(99),
            VirtAddr::new(0),
            VirtAddr::new(0x10_0000),
            0x1000,
        )
        .unwrap();
        m.park_thread(0, &mut parked);
        assert_eq!(parked.reg(Reg::R2), r2);
        assert!(parked.halted());

        m.reset(VirtAddr::new(STORE_PROG));
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R5), 0xbeef);

        m.load_thread(0, &parked);
        assert_eq!(m.reg(Reg::R2), r2);
        assert!(m.halted());

        // Space custody: swapping out and back leaves execution intact.
        let mut placeholder = AddressSpace::new(0);
        m.swap_space_with(&mut placeholder);
        m.swap_space_with(&mut placeholder);
        // Repair the GOT slot the store program clobbered, with the
        // proper invalidation notification.
        m.space_mut()
            .write_u64(VirtAddr::new(GOT + 16), FUNC)
            .unwrap();
        m.broadcast_store(VirtAddr::new(GOT + 16));
        m.reset(VirtAddr::new(TEXT));
        m.run(100_000).unwrap();
        assert!(m.halted());
    }

    #[test]
    fn per_core_switch_policy_controls_the_abtb_flush() {
        let mut m = MachineBuilder::new(MachineConfig::enhanced())
            .cores(2)
            .policy(1, SwitchPolicy::AsidTagged)
            .build({
                let mut s = space();
                library_call_program(&mut s, 50);
                s
            });
        m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
        m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);

        // Train both cores on the same loop.
        for core in 0..2 {
            m.set_active_core(core);
            m.set_reg(Reg::SP, STACK_TOP);
            m.set_reg(Reg::FP, STACK_TOP);
            m.reset(VirtAddr::new(TEXT));
            m.run(100_000).unwrap();
            assert!(m.abtb_len_for(core) > 0);
        }

        m.core_context_switch(0);
        m.core_context_switch(1);
        assert_eq!(m.abtb_len_for(0), 0, "FlushOnSwitch core flushed");
        assert!(m.abtb_len_for(1) > 0, "AsidTagged core survived");
        assert!(m.counters_for(0).abtb_switch_flushes >= 1);
        assert_eq!(m.counters_for(1).abtb_switch_flushes, 0);
    }

    #[test]
    fn single_core_builder_matches_compat_constructor() {
        let run = |m: &mut Machine| {
            m.init_stack(VirtAddr::new(STACK_TOP), 0x10000).unwrap();
            m.reset(VirtAddr::new(TEXT));
            m.set_plt_ranges(&[(VirtAddr::new(PLT), VirtAddr::new(PLT + 0x1000))]);
            m.run(100_000).unwrap();
            m.counters()
        };
        let mk_space = || {
            let mut s = space();
            library_call_program(&mut s, 100);
            s
        };
        let mut a = Machine::new(MachineConfig::enhanced(), mk_space());
        let mut b = MachineBuilder::new(MachineConfig::enhanced())
            .cores(1)
            .build(mk_space());
        assert_eq!(run(&mut a), run(&mut b));
    }
}
