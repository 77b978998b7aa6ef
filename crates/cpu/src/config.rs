//! Machine configuration.

use dynlink_uarch::CacheConfig;

/// Which dynamic-linking accelerator the machine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkAccel {
    /// The baseline machine: no ABTB; trampolines always execute.
    #[default]
    Off,
    /// The paper's proposal (§3): ABTB + Bloom filter, transparent to
    /// software.
    Abtb,
    /// The §3.4 alternate implementation: ABTB without a Bloom filter;
    /// software must explicitly invalidate after rewriting a GOT slot.
    AbtbNoBloom,
}

impl LinkAccel {
    /// Returns `true` if an ABTB is present.
    pub fn has_abtb(self) -> bool {
        !matches!(self, LinkAccel::Off)
    }

    /// Returns `true` if the Bloom filter guards GOT stores.
    pub fn has_bloom(self) -> bool {
        matches!(self, LinkAccel::Abtb)
    }
}

/// Per-core ABTB context-switch policy (paper §3.3): what happens to a
/// core's ABTB when the OS schedules a different thread onto it.
///
/// This is the topology-level spelling of
/// [`MachineConfig::flush_abtb_on_context_switch`]; the
/// `MachineBuilder` translates a per-core policy into that flag on the
/// core's config clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchPolicy {
    /// The ABTB (and its companion Bloom filter) is flushed on every
    /// context switch — the paper's conservative default.
    #[default]
    FlushOnSwitch,
    /// ABTB entries are ASID-tagged and survive context switches, like
    /// an ASID-tagged TLB (§3.3).
    AsidTagged,
}

impl SwitchPolicy {
    /// Whether a context switch flushes the ABTB under this policy.
    pub fn flushes_on_switch(self) -> bool {
        matches!(self, SwitchPolicy::FlushOnSwitch)
    }

    /// The policy encoded by a [`MachineConfig`]'s
    /// `flush_abtb_on_context_switch` flag.
    pub fn from_flush_flag(flush: bool) -> Self {
        if flush {
            SwitchPolicy::FlushOnSwitch
        } else {
            SwitchPolicy::AsidTagged
        }
    }
}

/// Cycle costs charged by the timing model.
///
/// The timing layer is an event-cost model (base cost per retired
/// instruction plus penalties per miss event), which is what the paper's
/// counter-based methodology measures; absolute cycle counts are not
/// meant to match the authors' Xeon, only the relative shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Penalties {
    /// Base cost per retired instruction, in milli-cycles (400 = 0.4
    /// cycles/instruction, i.e. a wide superscalar sustaining IPC 2.5).
    pub base_milli_cycles: u64,
    /// L1 miss that hits in the unified L2, in cycles.
    pub l2_hit: u64,
    /// L2 miss (memory access), in cycles.
    pub memory: u64,
    /// TLB miss page walk, in cycles.
    pub tlb_walk: u64,
    /// Branch misprediction (pipeline flush), in cycles.
    pub branch_mispredict: u64,
    /// Host-call overhead (the lazy resolver's hundreds of native
    /// instructions), in cycles.
    pub host_call: u64,
}

impl Default for Penalties {
    fn default() -> Self {
        Penalties {
            base_milli_cycles: 400,
            l2_hit: 12,
            memory: 180,
            tlb_walk: 30,
            branch_mispredict: 15,
            host_call: 200,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Accelerator selection.
    pub accel: LinkAccel,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// I-TLB entries.
    pub itlb_entries: u32,
    /// I-TLB associativity.
    pub itlb_ways: u32,
    /// D-TLB entries.
    pub dtlb_entries: u32,
    /// D-TLB associativity.
    pub dtlb_ways: u32,
    /// BTB entries.
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u32,
    /// Direction-predictor index bits (table size = 2^bits).
    pub bpred_bits: u32,
    /// Direction-predictor global-history bits XORed into the index:
    /// equal to `bpred_bits` for classic gshare (the default), 0 for a
    /// pure bimodal predictor.
    pub bpred_history_bits: u32,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// ABTB capacity in entries (used when `accel` has an ABTB). The
    /// default, 128 entries, is the paper abstract's 1.5 KB budget at 12
    /// bytes per entry.
    pub abtb_entries: usize,
    /// Bloom filter size in bits.
    pub bloom_bits: u64,
    /// Bloom filter hash count.
    pub bloom_hashes: u32,
    /// Maximum non-branch instructions tolerated between a retired call
    /// and the trampoline's indirect jump when training the ABTB: 0 for
    /// x86-style single-instruction trampolines, 2 for ARM-style
    /// (Figure 2). Intermediate instructions must only write the linker
    /// scratch register.
    pub max_trampoline_body: u32,
    /// Whether a context switch flushes the ABTB (true, the default) or
    /// the ABTB is ASID-tagged and survives, like an ASID-tagged TLB
    /// (§3.3).
    pub flush_abtb_on_context_switch: bool,
    /// Enable a next-line instruction prefetcher: every L1-I miss also
    /// fills the following cache line. Off by default (the paper's
    /// baseline machine predates aggressive front-end prefetching in
    /// this model); useful as an ablation, since prefetching hides some
    /// of the trampolines' I-cache cost.
    pub icache_next_line_prefetch: bool,
    /// Whether retired GOT-slot stores broadcast on the inter-core
    /// invalidation bus of a multi-core machine, so they can hit every
    /// *other* core's Bloom filter (the §3.2 coherence-invalidation
    /// path). On by default; disabling it on a multi-core machine makes
    /// stale-skip-after-remote-rebind reachable — the negative control
    /// the cross-core difftest regression uses. Irrelevant on a 1-core
    /// machine.
    pub coherence_bus: bool,
    /// Whether module GC (`dlclose` unmapping a module's code pages)
    /// performs the mandated fetch-side invalidation: retag the space's
    /// predecode identity, invalidate every core's ABTB, and flush the
    /// BTBs. On by default; disabling it models a kernel/loader that
    /// recycles a VA range without telling the front end — the negative
    /// control that makes stale-ABTB-skip-into-an-unmapped-or-recycled
    /// page reachable for the demand-paging difftest regression.
    pub demand_invalidate: bool,
    /// Whether a prelink snapshot restore validates each cached entry
    /// against the live module set before installing it into the GOT.
    /// On by default; disabling it models a loader that replays a
    /// persisted resolution cache verbatim — tombstoned entries whose
    /// provider was `dlclose`d after capture land back in the GOT and
    /// the next call jumps into GC-unmapped code. The negative control
    /// for the stable-linking difftest regression, mirroring
    /// `demand_invalidate`.
    pub prelink_validate: bool,
    /// Whether the batched run loops execute through the superblock
    /// translation engine: hot straight-line regions are translated
    /// into a direct-threaded micro-op IR and run tail-to-tail with
    /// block chaining (see `docs/PERF.md`, "Superblock translation").
    /// Purely a simulator speedup — architectural results, counters
    /// and digests are bit-identical either way (`difftest
    /// --no-superblock` is the scriptable A/B check). On by default;
    /// disabling it runs every instruction as a 1-op step.
    pub superblock: bool,
    /// Whether each superblock dispatch revalidates the block's
    /// invalidation tags (space uid, code version, PLT epoch, eviction
    /// generation) before executing it. On by default; disabling it
    /// models a translation cache whose shootdowns are skipped — a
    /// runtime code patch or demand eviction leaves a stale
    /// translation executing dead instructions. The negative control
    /// for the superblock difftest regression, mirroring
    /// `demand_invalidate`/`prelink_validate`.
    pub superblock_validate: bool,
    /// Timing penalties.
    pub penalties: Penalties,
    /// Page size used by the TLBs.
    pub page_bytes: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            accel: LinkAccel::Off,
            icache: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            dcache: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            itlb_entries: 64,
            itlb_ways: 4,
            dtlb_entries: 64,
            dtlb_ways: 4,
            btb_entries: 2048,
            btb_ways: 4,
            bpred_bits: 14,
            bpred_history_bits: 14,
            ras_depth: 16,
            abtb_entries: 128,
            bloom_bits: 1024,
            bloom_hashes: 2,
            max_trampoline_body: 2,
            flush_abtb_on_context_switch: true,
            icache_next_line_prefetch: false,
            coherence_bus: true,
            demand_invalidate: true,
            prelink_validate: true,
            superblock: true,
            superblock_validate: true,
            penalties: Penalties::default(),
            page_bytes: dynlink_mem::PAGE_BYTES,
        }
    }
}

impl MachineConfig {
    /// The baseline machine (no accelerator).
    pub fn baseline() -> Self {
        MachineConfig::default()
    }

    /// The enhanced machine: baseline plus the paper's ABTB + Bloom
    /// hardware.
    pub fn enhanced() -> Self {
        MachineConfig {
            accel: LinkAccel::Abtb,
            ..MachineConfig::default()
        }
    }

    /// The §3.4 variant: ABTB with explicit software invalidation.
    pub fn enhanced_no_bloom() -> Self {
        MachineConfig {
            accel: LinkAccel::AbtbNoBloom,
            ..MachineConfig::default()
        }
    }

    /// Sets the ABTB capacity (builder style).
    pub fn with_abtb_entries(mut self, entries: usize) -> Self {
        self.abtb_entries = entries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_predicates() {
        assert!(!LinkAccel::Off.has_abtb());
        assert!(LinkAccel::Abtb.has_abtb());
        assert!(LinkAccel::AbtbNoBloom.has_abtb());
        assert!(LinkAccel::Abtb.has_bloom());
        assert!(!LinkAccel::AbtbNoBloom.has_bloom());
        assert!(!LinkAccel::Off.has_bloom());
    }

    #[test]
    fn presets() {
        assert_eq!(MachineConfig::baseline().accel, LinkAccel::Off);
        assert_eq!(MachineConfig::enhanced().accel, LinkAccel::Abtb);
        assert_eq!(
            MachineConfig::enhanced_no_bloom().accel,
            LinkAccel::AbtbNoBloom
        );
        assert_eq!(
            MachineConfig::enhanced().with_abtb_entries(16).abtb_entries,
            16
        );
    }

    #[test]
    fn switch_policy_round_trips_through_the_flush_flag() {
        assert!(SwitchPolicy::FlushOnSwitch.flushes_on_switch());
        assert!(!SwitchPolicy::AsidTagged.flushes_on_switch());
        for p in [SwitchPolicy::FlushOnSwitch, SwitchPolicy::AsidTagged] {
            assert_eq!(SwitchPolicy::from_flush_flag(p.flushes_on_switch()), p);
        }
        assert!(
            MachineConfig::default().coherence_bus,
            "the coherence bus is on by default"
        );
        assert!(
            MachineConfig::default().demand_invalidate,
            "module-GC invalidation is on by default"
        );
        assert!(
            MachineConfig::default().prelink_validate,
            "prelink restore validation is on by default"
        );
        assert!(
            MachineConfig::default().superblock,
            "the superblock engine is on by default"
        );
        assert!(
            MachineConfig::default().superblock_validate,
            "superblock tag validation is on by default"
        );
    }

    #[test]
    fn default_abtb_fits_paper_budget() {
        let cfg = MachineConfig::default();
        assert_eq!(
            cfg.abtb_entries as u64 * dynlink_uarch::ABTB_ENTRY_BYTES,
            1536
        );
    }
}
