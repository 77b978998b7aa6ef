//! # dynlink-trace
//!
//! Pin-like tracing and analysis for the *Architectural Support for
//! Dynamic Linking* reproduction.
//!
//! The paper's methodology (§4.3) uses Intel Pin to observe library-call
//! behaviour: which trampolines execute, how often, and with which
//! resolved targets. This crate plays that role for the simulator:
//!
//! * [`TrampolineTracer`] — a [`dynlink_cpu::RetireObserver`] that
//!   records every executed trampoline (a memory-indirect jump retiring
//!   inside a PLT range), its GOT slot and its target, plus the full
//!   access sequence and the retired-instruction total.
//! * [`TrampolineStats`] — per-trampoline execution counts, distinct
//!   counts (paper Table 3) and the rank–frequency series (Figure 4).
//! * [`BtbPressure`] — the distinct call sites, trampoline jumps and
//!   other branches a run needs BTB entries for (§2.2).
//! * [`abtb_skip_percentages`] — replays the recorded trampoline access
//!   sequence through LRU ABTBs of varying capacity to produce the
//!   "% trampolines skipped vs ABTB size" curve (Figure 5).
//! * [`ResolutionRecord`] / [`TelemetryWriter`] — resolution telemetry
//!   for the stable-linking subsystem: one compact fixed-width binary
//!   record per resolution event (who resolved what, lazily or eagerly
//!   or via the prelink cache, and at which cache epoch), collected in
//!   per-shard writers that merge deterministically in submission order
//!   so parallel runs stay byte-identical at any job count.
//!
//! Traces are collected on the **baseline** machine (accelerator off),
//! exactly as the paper traces an unmodified system with Pin. Like a
//! pintool that instruments traces rather than single instructions, an
//! observer receives one [`RetireEvent`] per retired block terminal
//! (every control transfer, `halt` and `mark`) and per host call; the
//! straight-line instructions in between arrive as the event's
//! [`retired`](RetireEvent::retired) count. Everything these observers
//! classify is a control transfer, so none of it falls between events,
//! and attaching them leaves the machine on its superblock engine.
//!
//! ```
//! use dynlink_trace::{lock_recovering, TrampolineTracer};
//!
//! let tracer = TrampolineTracer::shared();
//! // machine.add_observer(tracer.clone());
//! // ... run ...
//! let stats = lock_recovering(&tracer).stats();
//! assert_eq!(stats.distinct(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use dynlink_cpu::{RetireEvent, RetireObserver};
use dynlink_isa::VirtAddr;
use dynlink_uarch::Abtb;

/// Locks a shared observer, recovering from mutex poisoning.
///
/// The parallel runner isolates per-cell panics with `catch_unwind`; a
/// panicking shard that held a shared tracer's mutex leaves it poisoned,
/// and a plain `lock().unwrap()` in a sibling shard (or in the
/// end-of-run stats pass) would then abort the whole experiment even
/// though the tracer's data — plain counters and append-only sequences
/// updated in one `on_retire` call — is never left half-written in a
/// way later reads can't tolerate. Recovery keeps the surviving shards'
/// statistics reportable.
pub fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One recorded trampoline execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrampolineHit {
    /// Address of the trampoline's indirect jump.
    pub pc: VirtAddr,
    /// The GOT slot the target was loaded from.
    pub got_slot: VirtAddr,
    /// The resolved target.
    pub target: VirtAddr,
}

/// A retire observer recording trampoline executions (the pintool).
#[derive(Debug, Default)]
pub struct TrampolineTracer {
    counts: HashMap<VirtAddr, u64>,
    /// Last-seen GOT slot and target per trampoline.
    details: HashMap<VirtAddr, (VirtAddr, VirtAddr)>,
    /// The full trampoline access sequence (for ABTB replay).
    sequence: Vec<VirtAddr>,
    retired: u64,
}

impl TrampolineTracer {
    /// Creates a tracer.
    pub fn new() -> Self {
        TrampolineTracer::default()
    }

    /// Creates a tracer already wrapped for
    /// [`dynlink_cpu::Machine::add_observer`]. The handle is `Send`, so
    /// traced systems can run on worker threads.
    pub fn shared() -> Arc<Mutex<TrampolineTracer>> {
        Arc::new(Mutex::new(TrampolineTracer::new()))
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> TrampolineStats {
        TrampolineStats {
            counts: self.counts.clone(),
            retired: self.retired,
        }
    }

    /// The raw trampoline access sequence, in execution order.
    pub fn sequence(&self) -> &[VirtAddr] {
        &self.sequence
    }

    /// Last-recorded GOT slot and target for a trampoline.
    pub fn details(&self, pc: VirtAddr) -> Option<(VirtAddr, VirtAddr)> {
        self.details.get(&pc).copied()
    }

    /// Total retired instructions observed: the sum of every event's
    /// [`RetireEvent::retired`].
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Folds another tracer's observations into this one — the barrier
    /// merge for per-shard tracers. Counts and retired totals add,
    /// sequences append, and `other`'s last-seen details win (merge
    /// shards in submission order for deterministic results).
    pub fn merge(&mut self, other: &TrampolineTracer) {
        for (&pc, &n) in &other.counts {
            *self.counts.entry(pc).or_insert(0) += n;
        }
        for (&pc, &d) in &other.details {
            self.details.insert(pc, d);
        }
        self.sequence.extend_from_slice(&other.sequence);
        self.retired += other.retired;
    }
}

impl RetireObserver for TrampolineTracer {
    fn on_retire(&mut self, event: &RetireEvent) {
        self.retired += event.retired;
        if event.in_plt && event.inst.is_mem_indirect_jump() {
            *self.counts.entry(event.pc).or_insert(0) += 1;
            if let Some(slot) = event.loaded_slot {
                self.details.insert(event.pc, (slot, event.next_pc));
            }
            self.sequence.push(event.pc);
        }
    }
}

/// Aggregated per-trampoline statistics.
#[derive(Debug, Clone, Default)]
pub struct TrampolineStats {
    counts: HashMap<VirtAddr, u64>,
    retired: u64,
}

impl TrampolineStats {
    /// Number of distinct trampolines executed (paper Table 3).
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total trampoline executions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Trampoline executions per kilo-instruction over the observed
    /// window (paper Table 2; one instruction per x86 trampoline).
    pub fn pki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.total() as f64 * 1000.0 / self.retired as f64
        }
    }

    /// Execution counts sorted descending — the Figure 4 rank–frequency
    /// series (x = trampoline rank, y = execution count, log–log).
    pub fn rank_frequency(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// The smallest number of top-ranked trampolines covering `fraction`
    /// of all executions (e.g. the paper's observation that the majority
    /// of Memcached calls go to fewer than 10 functions).
    pub fn coverage_count(&self, fraction: f64) -> usize {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0;
        }
        let mut acc = 0.0;
        for (i, c) in self.rank_frequency().iter().enumerate() {
            acc += *c as f64;
            if acc / total >= fraction {
                return i + 1;
            }
        }
        self.counts.len()
    }
}

/// Branch-target-buffer pressure analysis (paper §2.2): dynamically
/// linked calls occupy **two** BTB entries each — one for the call site
/// (targeting the trampoline) and one for the trampoline's indirect
/// jump — where a static call needs one. This observer counts both
/// populations.
#[derive(Debug, Default)]
pub struct BtbPressure {
    call_sites: std::collections::HashSet<VirtAddr>,
    trampoline_jumps: std::collections::HashSet<VirtAddr>,
    other_branches: std::collections::HashSet<VirtAddr>,
}

impl BtbPressure {
    /// Creates a fresh analyser.
    pub fn new() -> Self {
        BtbPressure::default()
    }

    /// Creates an analyser wrapped for
    /// [`dynlink_cpu::Machine::add_observer`]. The handle is `Send`, so
    /// traced systems can run on worker threads.
    pub fn shared() -> Arc<Mutex<BtbPressure>> {
        Arc::new(Mutex::new(BtbPressure::new()))
    }

    /// Distinct call-site PCs observed.
    pub fn call_sites(&self) -> usize {
        self.call_sites.len()
    }

    /// Distinct trampoline indirect-jump PCs observed — the *extra* BTB
    /// entries dynamic linking costs versus static linking.
    pub fn trampoline_entries(&self) -> usize {
        self.trampoline_jumps.len()
    }

    /// Distinct other control-transfer PCs (loops, returns, ...).
    pub fn other_branches(&self) -> usize {
        self.other_branches.len()
    }

    /// Total BTB entries the dynamically linked program needs.
    pub fn total_dynamic(&self) -> usize {
        self.call_sites() + self.trampoline_entries() + self.other_branches()
    }

    /// BTB entries the equivalent statically linked program would need
    /// (no trampoline jumps).
    pub fn total_static(&self) -> usize {
        self.call_sites() + self.other_branches()
    }

    /// Fractional BTB-entry overhead of dynamic linking.
    pub fn overhead_ratio(&self) -> f64 {
        let s = self.total_static();
        if s == 0 {
            0.0
        } else {
            self.trampoline_entries() as f64 / s as f64
        }
    }
}

impl RetireObserver for BtbPressure {
    fn on_retire(&mut self, event: &RetireEvent) {
        if event.in_plt && event.inst.is_mem_indirect_jump() {
            self.trampoline_jumps.insert(event.pc);
        } else if event.inst.is_call() {
            self.call_sites.insert(event.pc);
        } else if event.inst.is_control() {
            self.other_branches.insert(event.pc);
        }
    }
}

/// Replays a trampoline access sequence through an LRU ABTB of
/// `capacity` entries and returns the fraction (0.0..=1.0) of
/// executions that would have been skipped — one point of the paper's
/// Figure 5.
///
/// A trampoline execution is skippable when its address already has an
/// ABTB entry; the first touch (and any touch after LRU eviction)
/// executes and retrains.
///
/// # Examples
///
/// ```
/// use dynlink_isa::VirtAddr;
/// use dynlink_trace::abtb_skip_fraction;
///
/// // The same trampoline ten times: only the first touch executes.
/// let seq = vec![VirtAddr::new(0x401000); 10];
/// assert_eq!(abtb_skip_fraction(&seq, 16), 0.9);
/// ```
pub fn abtb_skip_fraction(sequence: &[VirtAddr], capacity: usize) -> f64 {
    if sequence.is_empty() {
        return 0.0;
    }
    let mut abtb = Abtb::new(capacity);
    let mut skipped = 0u64;
    for &tramp in sequence {
        if abtb.lookup(tramp).is_some() {
            skipped += 1;
        } else {
            // Executes once and trains at retire.
            abtb.insert(tramp, VirtAddr::new(tramp.as_u64() ^ 1));
        }
    }
    skipped as f64 / sequence.len() as f64
}

/// Computes Figure 5's series: percentage of trampolines skipped for
/// each ABTB capacity in `sizes`.
pub fn abtb_skip_percentages(sequence: &[VirtAddr], sizes: &[usize]) -> Vec<(usize, f64)> {
    sizes
        .iter()
        .map(|&s| (s, 100.0 * abtb_skip_fraction(sequence, s)))
        .collect()
}

/// How a resolution event bound (or failed to bind) its GOT slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolutionKind {
    /// The lazy runtime resolver fired on first call.
    Lazy = 0,
    /// Bound eagerly at load time (`BIND_NOW`).
    Eager = 1,
    /// Installed from a prelink resolution snapshot, skipping the
    /// resolver.
    CacheHit = 2,
    /// A snapshot entry was present but *skipped* by restore validation
    /// (tombstoned, or its provider currently closed) — the slot falls
    /// back to lazy.
    CacheMiss = 3,
}

impl ResolutionKind {
    fn from_u8(v: u8) -> Option<ResolutionKind> {
        match v {
            0 => Some(ResolutionKind::Lazy),
            1 => Some(ResolutionKind::Eager),
            2 => Some(ResolutionKind::CacheHit),
            3 => Some(ResolutionKind::CacheMiss),
            _ => None,
        }
    }
}

/// Typed decode failure for a telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TelemetryError {
    /// The stream length is not a whole number of records.
    Truncated {
        /// Bytes required to complete the trailing record.
        needed: usize,
        /// Bytes actually present in the partial record.
        have: usize,
    },
    /// An unknown [`ResolutionKind`] discriminant.
    BadKind(u8),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Truncated { needed, have } => {
                write!(f, "telemetry truncated: need {needed} byte(s), have {have}")
            }
            TelemetryError::BadKind(k) => write!(f, "unknown resolution kind {k}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// One resolution telemetry record: who resolved what, when, and how.
///
/// Fixed-width little-endian encoding ([`Self::ENCODED_LEN`] bytes), so
/// a stream is seekable and its length is a record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolutionRecord {
    /// Global submission-order sequence number (assigned at merge).
    pub seq: u64,
    /// Importing module index.
    pub module: u32,
    /// Import index within the module.
    pub import: u32,
    /// How the binding happened.
    pub kind: ResolutionKind,
    /// The GOT slot written.
    pub got_slot: VirtAddr,
    /// The bound target (for [`ResolutionKind::CacheMiss`], the stale
    /// target that was *refused*).
    pub target: VirtAddr,
    /// The snapshot-builder epoch at bind time.
    pub epoch: u64,
}

impl ResolutionRecord {
    /// Encoded size in bytes.
    pub const ENCODED_LEN: usize = 8 + 4 + 4 + 1 + 8 + 8 + 8;

    /// Appends the fixed-width little-endian encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.module.to_le_bytes());
        out.extend_from_slice(&self.import.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&self.got_slot.as_u64().to_le_bytes());
        out.extend_from_slice(&self.target.as_u64().to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
    }

    /// Decodes one record from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<ResolutionRecord, TelemetryError> {
        if bytes.len() < Self::ENCODED_LEN {
            return Err(TelemetryError::Truncated {
                needed: Self::ENCODED_LEN,
                have: bytes.len(),
            });
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        let kind = ResolutionKind::from_u8(bytes[16]).ok_or(TelemetryError::BadKind(bytes[16]))?;
        Ok(ResolutionRecord {
            seq: u64_at(0),
            module: u32_at(8),
            import: u32_at(12),
            kind,
            got_slot: VirtAddr::new(u64_at(17)),
            target: VirtAddr::new(u64_at(25)),
            epoch: u64_at(33),
        })
    }
}

/// A per-shard resolution telemetry writer.
///
/// Each worker (a difftest shard, a guided-fleet cell, one simulated
/// process) appends records locally with no cross-shard synchronization;
/// [`TelemetryWriter::merge_in_submission_order`] then concatenates the
/// shards **in submission order** and reassigns global sequence
/// numbers, so the merged stream is byte-identical at any `--jobs`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryWriter {
    records: Vec<ResolutionRecord>,
}

impl TelemetryWriter {
    /// Creates an empty writer.
    pub fn new() -> TelemetryWriter {
        TelemetryWriter::default()
    }

    /// Appends one resolution event. The record's `seq` is shard-local
    /// until a merge reassigns it.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        module: usize,
        import: usize,
        kind: ResolutionKind,
        got_slot: VirtAddr,
        target: VirtAddr,
        epoch: u64,
    ) {
        let seq = self.records.len() as u64;
        self.records.push(ResolutionRecord {
            seq,
            module: module as u32,
            import: import as u32,
            kind,
            got_slot,
            target,
            epoch,
        });
    }

    /// The records written so far, in shard-local order.
    pub fn records(&self) -> &[ResolutionRecord] {
        &self.records
    }

    /// Number of records written.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drains this writer's records, leaving it empty.
    pub fn take(&mut self) -> Vec<ResolutionRecord> {
        std::mem::take(&mut self.records)
    }

    /// Serializes the records as a flat fixed-width stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * ResolutionRecord::ENCODED_LEN);
        for r in &self.records {
            r.encode_into(&mut out);
        }
        out
    }

    /// Decodes a flat record stream produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<TelemetryWriter, TelemetryError> {
        let mut records = Vec::with_capacity(bytes.len() / ResolutionRecord::ENCODED_LEN);
        let mut rest = bytes;
        while !rest.is_empty() {
            records.push(ResolutionRecord::decode(rest)?);
            rest = &rest[ResolutionRecord::ENCODED_LEN..];
        }
        Ok(TelemetryWriter { records })
    }

    /// Merges per-shard writers into one stream, concatenating in the
    /// given (submission) order and reassigning global `seq` numbers —
    /// the deterministic barrier merge for parallel collection.
    pub fn merge_in_submission_order(
        shards: impl IntoIterator<Item = TelemetryWriter>,
    ) -> TelemetryWriter {
        let mut merged = TelemetryWriter::new();
        for shard in shards {
            for mut r in shard.records {
                r.seq = merged.records.len() as u64;
                merged.records.push(r);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_isa::Inst;

    fn fake_event(pc: u64, in_plt: bool) -> RetireEvent {
        RetireEvent {
            pc: VirtAddr::new(pc),
            inst: Inst::JmpIndirectMem {
                mem: dynlink_isa::MemRef::Abs(VirtAddr::new(0x60_0000)),
            },
            next_pc: VirtAddr::new(0x7f_0000),
            loaded_slot: Some(VirtAddr::new(0x60_0000)),
            skipped_trampoline: None,
            in_plt,
            retired: 1,
        }
    }

    #[test]
    fn tracer_counts_plt_indirect_jumps_only() {
        let mut t = TrampolineTracer::new();
        t.on_retire(&fake_event(0x1000, true));
        t.on_retire(&fake_event(0x1000, true));
        t.on_retire(&fake_event(0x2000, true));
        t.on_retire(&fake_event(0x3000, false)); // not in PLT
        let mut non_tramp = fake_event(0x4000, true);
        non_tramp.inst = Inst::Nop;
        t.on_retire(&non_tramp); // in PLT but not an indirect jump
        let stats = t.stats();
        assert_eq!(stats.distinct(), 2);
        assert_eq!(stats.total(), 3);
        assert_eq!(t.sequence().len(), 3);
        assert_eq!(t.retired(), 5);
        assert_eq!(
            t.details(VirtAddr::new(0x1000)),
            Some((VirtAddr::new(0x60_0000), VirtAddr::new(0x7f_0000)))
        );
    }

    #[test]
    fn stats_pki() {
        let mut t = TrampolineTracer::new();
        for _ in 0..10 {
            t.on_retire(&fake_event(0x1000, true));
        }
        // One event can carry many retired instructions: the
        // straight-line run its terminal ended.
        let mut e = fake_event(0x9000, false);
        e.inst = Inst::Halt;
        e.retired = 990;
        t.on_retire(&e);
        assert_eq!(t.retired(), 1000);
        assert!((t.stats().pki() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rank_frequency_sorted_descending() {
        let mut t = TrampolineTracer::new();
        for _ in 0..5 {
            t.on_retire(&fake_event(0xa, true));
        }
        for _ in 0..2 {
            t.on_retire(&fake_event(0xb, true));
        }
        t.on_retire(&fake_event(0xc, true));
        assert_eq!(t.stats().rank_frequency(), vec![5, 2, 1]);
    }

    #[test]
    fn coverage_count_finds_head() {
        let mut t = TrampolineTracer::new();
        for _ in 0..90 {
            t.on_retire(&fake_event(0xa, true));
        }
        for i in 0..10 {
            t.on_retire(&fake_event(0x100 + i, true));
        }
        let stats = t.stats();
        assert_eq!(stats.coverage_count(0.9), 1);
        assert_eq!(stats.coverage_count(1.0), 11);
        assert_eq!(TrampolineStats::default().coverage_count(0.5), 0);
    }

    #[test]
    fn btb_pressure_counts_both_populations() {
        let mut p = BtbPressure::new();
        // Two distinct call sites, one shared trampoline, one loop branch.
        let mut call = fake_event(0x100, false);
        call.inst = Inst::CallDirect {
            target: VirtAddr::new(0x1000),
        };
        p.on_retire(&call);
        call.pc = VirtAddr::new(0x200);
        p.on_retire(&call);
        p.on_retire(&fake_event(0x1000, true)); // trampoline jump
        let mut b = fake_event(0x300, false);
        b.inst = Inst::BranchCond {
            cond: dynlink_isa::Cond::Ne,
            lhs: dynlink_isa::Reg::R0,
            rhs: dynlink_isa::Operand::Imm(0),
            target: VirtAddr::new(0x100),
        };
        p.on_retire(&b);

        assert_eq!(p.call_sites(), 2);
        assert_eq!(p.trampoline_entries(), 1);
        assert_eq!(p.other_branches(), 1);
        assert_eq!(p.total_dynamic(), 4);
        assert_eq!(p.total_static(), 3);
        assert!((p.overhead_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn skip_fraction_single_trampoline() {
        // One trampoline hit N times: first touch misses, rest skip.
        let seq = vec![VirtAddr::new(0x1000); 100];
        let f = abtb_skip_fraction(&seq, 16);
        assert!((f - 0.99).abs() < 1e-9);
    }

    #[test]
    fn skip_fraction_respects_capacity() {
        // Round-robin over 8 trampolines with capacity 4: always evicted
        // before reuse, so nothing is ever skipped.
        let mut seq = Vec::new();
        for round in 0..50 {
            let _ = round;
            for i in 0..8u64 {
                seq.push(VirtAddr::new(0x1000 + i * 16));
            }
        }
        assert_eq!(abtb_skip_fraction(&seq, 4), 0.0);
        // With capacity 8 everything after the first round skips.
        let f = abtb_skip_fraction(&seq, 8);
        assert!(f > 0.97);
    }

    #[test]
    fn lock_recovering_survives_a_poisoned_tracer() {
        let tracer = TrampolineTracer::shared();
        let t2 = tracer.clone();
        // A panicking shard poisons the mutex mid-update.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut g = t2.lock().unwrap();
            g.on_retire(&fake_event(0x1000, true));
            panic!("shard dies holding the tracer");
        }));
        assert!(tracer.lock().is_err(), "mutex must actually be poisoned");
        // Sibling shards and the stats pass still observe the data.
        let stats = lock_recovering(&tracer).stats();
        assert_eq!(stats.distinct(), 1);
        lock_recovering(&tracer).on_retire(&fake_event(0x2000, true));
        assert_eq!(lock_recovering(&tracer).stats().distinct(), 2);
    }

    #[test]
    fn tracer_merge_sums_counts_and_appends_sequences() {
        let mut a = TrampolineTracer::new();
        a.on_retire(&fake_event(0x1000, true));
        a.on_retire(&fake_event(0x1000, true));
        let mut b = TrampolineTracer::new();
        b.on_retire(&fake_event(0x1000, true));
        b.on_retire(&fake_event(0x2000, true));
        a.merge(&b);
        let stats = a.stats();
        assert_eq!(stats.distinct(), 2);
        assert_eq!(stats.total(), 4);
        assert_eq!(a.retired(), 4);
        assert_eq!(a.sequence().len(), 4);
        assert_eq!(
            a.sequence(),
            &[
                VirtAddr::new(0x1000),
                VirtAddr::new(0x1000),
                VirtAddr::new(0x1000),
                VirtAddr::new(0x2000)
            ]
        );
    }

    #[test]
    fn telemetry_record_round_trips() {
        let mut w = TelemetryWriter::new();
        w.record(
            1,
            2,
            ResolutionKind::Lazy,
            VirtAddr::new(0x60_0000),
            VirtAddr::new(0x7f00_0000),
            3,
        );
        w.record(
            0,
            0,
            ResolutionKind::CacheMiss,
            VirtAddr::new(0x60_0008),
            VirtAddr::new(0x7f10_0000),
            4,
        );
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        let bytes = w.encode();
        assert_eq!(bytes.len(), 2 * ResolutionRecord::ENCODED_LEN);
        let back = TelemetryWriter::decode(&bytes).unwrap();
        assert_eq!(back.records(), w.records());
        assert_eq!(back.records()[1].kind, ResolutionKind::CacheMiss);
    }

    #[test]
    fn telemetry_decode_rejects_damage() {
        let mut w = TelemetryWriter::new();
        w.record(
            0,
            0,
            ResolutionKind::Eager,
            VirtAddr::new(8),
            VirtAddr::new(16),
            0,
        );
        let bytes = w.encode();
        assert!(matches!(
            TelemetryWriter::decode(&bytes[..bytes.len() - 1]),
            Err(TelemetryError::Truncated { .. })
        ));
        let mut bad = bytes;
        bad[16] = 99; // kind discriminant
        assert!(matches!(
            TelemetryWriter::decode(&bad),
            Err(TelemetryError::BadKind(99))
        ));
    }

    #[test]
    fn telemetry_merge_is_deterministic_in_submission_order() {
        let shard = |module: usize, n: usize| {
            let mut w = TelemetryWriter::new();
            for i in 0..n {
                w.record(
                    module,
                    i,
                    ResolutionKind::CacheHit,
                    VirtAddr::new(0x60_0000 + i as u64 * 8),
                    VirtAddr::new(0x7f00_0000),
                    i as u64,
                );
            }
            w
        };
        // Shards submitted in a fixed order merge identically no matter
        // how their work was scheduled.
        let merged = TelemetryWriter::merge_in_submission_order([shard(0, 2), shard(1, 3)]);
        let again = TelemetryWriter::merge_in_submission_order([shard(0, 2), shard(1, 3)]);
        assert_eq!(merged.records(), again.records());
        assert_eq!(merged.len(), 5);
        let seqs: Vec<u64> = merged.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(merged.records()[2].module, 1);
        assert_eq!(merged.encode(), again.encode());
        let mut drained = merged.clone();
        assert_eq!(drained.take().len(), 5);
        assert!(drained.is_empty());
    }

    #[test]
    fn skip_percentages_monotone_in_capacity() {
        let mut seq = Vec::new();
        for round in 0..20u64 {
            for i in 0..32u64 {
                if (round + i) % 3 != 0 {
                    seq.push(VirtAddr::new(0x1000 + i * 16));
                }
            }
        }
        let pcts = abtb_skip_percentages(&seq, &[1, 2, 4, 8, 16, 32, 64]);
        for w in pcts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "{pcts:?}");
        }
        assert_eq!(abtb_skip_fraction(&[], 4), 0.0);
    }
}
