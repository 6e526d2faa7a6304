//! Layer-level simulation memoization.
//!
//! The same `(layer, hardware)` pairs recur constantly across the
//! pipeline: every exhaustive stage-2 sweep re-simulates one network on
//! ~10^3 configurations, predictor sample collection re-simulates shared
//! skeleton layers (stems, pools, classifiers) across thousands of
//! random points, and the RL search revisits promising regions. A layer
//! simulation is a pure function of the inputs below, so its
//! [`LayerReport`] is cached process-wide and returned bit-identically
//! on every subsequent hit — skipping the exact-fidelity exhaustive
//! tiling search, by far the hottest loop in the evaluation path.
//!
//! The cache is sharded: each shard is an independent `RwLock`-guarded
//! open-addressed table, so concurrent pool workers rarely contend on
//! the same lock. A lookup hashes the borrowed inputs once: the hash
//! picks the shard and the first slot to probe, and a tag byte per slot
//! (seven hash bits) means a probe compares a stored key, in place, only
//! when its tag matches. A hit takes a read lock only and builds no key;
//! the owned key is built on insert. Per entry the table holds what a
//! `HashMap` of the entries holds — one control byte and one
//! `(key, report)` slot — and it grows by doubling at the same 7/8 load.
//!
//! # Key / invalidation
//!
//! A cache entry is keyed by the *complete* input of
//! [`crate::Simulator::simulate_layer`]: the [`LayerSpec`] (including
//! its name — the report echoes it), the [`HwConfig`], the
//! [`Fidelity`], both on-chip residency flags, and the full
//! [`CostModel`] quantized to its IEEE-754 bit patterns (f64 `Hash`/`Eq`
//! doesn't exist; bit equality is stricter than `==`, which only means a
//! cost model that differs in any bit — even `-0.0` vs `0.0` — misses
//! rather than aliasing). There is no other hidden input, so entries
//! never need invalidation; [`clear`] exists for tests and for bounding
//! memory, and a full shard past [`SHARD_CAPACITY`] entries is dropped
//! wholesale (crude epoch eviction) before inserting.

use crate::cost::CostModel;
use crate::report::LayerReport;
use crate::sim::Fidelity;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use yoso_arch::{HwConfig, LayerSpec};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

/// Number of independent lock-sharded maps (power of two).
const SHARDS: usize = 16;

/// Entries per shard before the shard is dropped wholesale.
pub const SHARD_CAPACITY: usize = 65_536;

/// The full input of a layer simulation, quantized for hashing: what an
/// entry stores.
#[derive(Clone)]
struct CacheKey {
    layer: LayerSpec,
    hw: HwConfig,
    fidelity: Fidelity,
    input_onchip: bool,
    output_onchip: bool,
    cost_bits: [u64; 11],
}

/// The same input borrowed from the caller: what a lookup hashes and
/// compares, so a hit builds no key.
#[derive(Clone, Copy, PartialEq, Hash)]
struct KeyRef<'a> {
    layer: &'a LayerSpec,
    hw: &'a HwConfig,
    fidelity: Fidelity,
    input_onchip: bool,
    output_onchip: bool,
    cost_bits: [u64; 11],
}

impl CacheKey {
    fn as_ref(&self) -> KeyRef<'_> {
        KeyRef {
            layer: &self.layer,
            hw: &self.hw,
            fidelity: self.fidelity,
            input_onchip: self.input_onchip,
            output_onchip: self.output_onchip,
            cost_bits: self.cost_bits,
        }
    }
}

impl KeyRef<'_> {
    fn to_key(self) -> CacheKey {
        CacheKey {
            layer: self.layer.clone(),
            hw: *self.hw,
            fidelity: self.fidelity,
            input_onchip: self.input_onchip,
            output_onchip: self.output_onchip,
            cost_bits: self.cost_bits,
        }
    }
}

fn cost_bits(c: &CostModel) -> [u64; 11] {
    [
        c.word_bytes.to_bits(),
        c.e_mac.to_bits(),
        c.e_rbuf.to_bits(),
        c.e_noc.to_bits(),
        c.e_gbuf.to_bits(),
        c.e_dram.to_bits(),
        c.e_vector.to_bits(),
        c.clock_ghz.to_bits(),
        c.dram_words_per_cycle.to_bits(),
        c.gbuf_words_per_cycle.to_bits(),
        c.vector_lanes.to_bits(),
    ]
}

impl Snapshot for CacheKey {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.layer.snapshot(w);
        self.hw.snapshot(w);
        self.fidelity.snapshot(w);
        w.put_bool(self.input_onchip);
        w.put_bool(self.output_onchip);
        w.put_u64s(&self.cost_bits);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let layer = LayerSpec::restore(r)?;
        let hw = HwConfig::restore(r)?;
        let fidelity = crate::sim::Fidelity::restore(r)?;
        let input_onchip = r.take_bool()?;
        let output_onchip = r.take_bool()?;
        let bits = r.take_u64s()?;
        let cost_bits: [u64; 11] = bits
            .try_into()
            .map_err(|v: Vec<u64>| PersistError::Malformed(format!("cost bits: {}", v.len())))?;
        Ok(CacheKey {
            layer,
            hw,
            fidelity,
            input_onchip,
            output_onchip,
            cost_bits,
        })
    }
}

/// Hit / miss / occupancy / contention counters of the global cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the simulation.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Read-lock acquisitions that found their shard lock held.
    pub contended_reads: u64,
    /// Write-lock acquisitions that found their shard lock held.
    pub contended_writes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sim cache: {} hits / {} misses ({:.1}% hit rate), {} entries, {} contended locks",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries,
            self.contended_reads + self.contended_writes
        )
    }
}

/// Tag of an empty slot; an occupied slot's tag has its high bit set.
const EMPTY: u8 = 0;

/// The seven top hash bits, which neither the slot index nor the shard
/// index uses.
fn tag_of(hash: u64) -> u8 {
    0x80 | (hash >> 57) as u8
}

/// One shard: an open-addressed table with linear probing. Nothing is
/// ever removed singly (only [`Shard::clear`]), so a probe ends at the
/// first empty slot, and the 7/8 load bound keeps one free.
#[derive(Default)]
struct Shard {
    tags: Vec<u8>,
    slots: Vec<Option<(CacheKey, LayerReport)>>,
    len: usize,
}

impl Shard {
    /// Entries the current slot count holds before it doubles.
    fn capacity(&self) -> usize {
        match self.slots.len() {
            n if n < 8 => n.saturating_sub(1),
            n => n / 8 * 7,
        }
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot where it
    /// goes. The table must have slots.
    fn probe(&self, hash: u64, key: KeyRef<'_>) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let tag = tag_of(hash);
        let mut i = hash as usize & mask;
        loop {
            match self.tags[i] {
                EMPTY => return Err(i),
                t if t == tag => {
                    if let Some((stored, _)) = &self.slots[i] {
                        if stored.as_ref() == key {
                            return Ok(i);
                        }
                    }
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, hash: u64, key: KeyRef<'_>) -> Option<&LayerReport> {
        if self.len == 0 {
            return None;
        }
        let slot = self.probe(hash, key).ok()?;
        self.slots[slot].as_ref().map(|(_, report)| report)
    }

    /// Inserts unless `key` is present (a racing worker computed the
    /// same pure function, so either value is identical), first dropping
    /// a full shard wholesale. `rehash` recomputes a stored key's hash
    /// when the table doubles.
    fn insert(
        &mut self,
        hash: u64,
        key: KeyRef<'_>,
        report: &LayerReport,
        rehash: impl Fn(KeyRef<'_>) -> u64,
    ) {
        if self.len >= SHARD_CAPACITY {
            self.clear();
        }
        if self.len == self.capacity() {
            self.grow(rehash);
        }
        if let Err(slot) = self.probe(hash, key) {
            self.tags[slot] = tag_of(hash);
            self.slots[slot] = Some((key.to_key(), report.clone()));
            self.len += 1;
        }
    }

    fn grow(&mut self, rehash: impl Fn(KeyRef<'_>) -> u64) {
        let n = (self.slots.len() * 2).max(4);
        let old = std::mem::take(&mut self.slots);
        self.tags = vec![EMPTY; n];
        self.slots = (0..n).map(|_| None).collect();
        for (key, report) in old.into_iter().flatten() {
            let hash = rehash(key.as_ref());
            let mut i = hash as usize & (n - 1);
            while self.tags[i] != EMPTY {
                i = (i + 1) & (n - 1);
            }
            self.tags[i] = tag_of(hash);
            self.slots[i] = Some((key, report));
        }
    }

    /// Empties the shard, keeping its slots allocated.
    fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.slots.iter_mut().for_each(|slot| *slot = None);
        self.len = 0;
    }
}

/// A sharded memoization map for layer simulations. One process-global
/// instance backs [`crate::Simulator`]; independent instances exist only
/// in tests.
struct SimCache<S = RandomState> {
    shards: Vec<RwLock<Shard>>,
    hasher: S,
    hits: AtomicU64,
    misses: AtomicU64,
    contended_reads: AtomicU64,
    contended_writes: AtomicU64,
}

impl SimCache {
    fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<S: BuildHasher> SimCache<S> {
    fn with_hasher(hasher: S) -> Self {
        SimCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            hasher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended_reads: AtomicU64::new(0),
            contended_writes: AtomicU64::new(0),
        }
    }

    fn hash(&self, key: KeyRef<'_>) -> u64 {
        self.hasher.hash_one(key)
    }

    /// The shard for a hash: bits the slot index and the tag leave alone.
    fn shard(&self, hash: u64) -> &RwLock<Shard> {
        &self.shards[(hash >> 32) as usize & (SHARDS - 1)]
    }

    fn lookup(&self, key: KeyRef<'_>, simulate: impl FnOnce() -> LayerReport) -> LayerReport {
        let hash = self.hash(key);
        let shard = self.shard(hash);
        // Fast path tries the lock first so shard contention is observable
        // (a failed try is counted, then we block as before).
        let guard = shard.try_read().unwrap_or_else(|| {
            self.contended_reads.fetch_add(1, Ordering::Relaxed);
            shard.read()
        });
        if let Some(report) = guard.get(hash, key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return report.clone();
        }
        drop(guard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let report = simulate();
        let mut table = shard.try_write().unwrap_or_else(|| {
            self.contended_writes.fetch_add(1, Ordering::Relaxed);
            shard.write()
        });
        table.insert(hash, key, &report, |k| self.hash(k));
        report
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.read().len).sum(),
            contended_reads: self.contended_reads.load(Ordering::Relaxed),
            contended_writes: self.contended_writes.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            *shard.write() = Shard::default();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.contended_reads.store(0, Ordering::Relaxed);
        self.contended_writes.store(0, Ordering::Relaxed);
    }

    fn export(&self, w: &mut ByteWriter) {
        let entries: Vec<(CacheKey, LayerReport)> = self
            .shards
            .iter()
            .flat_map(|s| s.read().slots.iter().flatten().cloned().collect::<Vec<_>>())
            .collect();
        w.put_usize(entries.len());
        for (key, report) in &entries {
            key.snapshot(w);
            report.snapshot(w);
        }
    }

    fn import(&self, r: &mut ByteReader<'_>) -> Result<usize, PersistError> {
        let n = r.take_usize()?;
        let mut inserted = 0;
        for _ in 0..n {
            let key = CacheKey::restore(r)?;
            let report = LayerReport::restore(r)?;
            let hash = self.hash(key.as_ref());
            self.shard(hash)
                .write()
                .insert(hash, key.as_ref(), &report, |k| self.hash(k));
            inserted += 1;
        }
        Ok(inserted)
    }
}

fn global() -> &'static SimCache {
    static CACHE: OnceLock<SimCache> = OnceLock::new();
    CACHE.get_or_init(SimCache::new)
}

// ---------------------------------------------------------------------------
// Per-tenant accounting
//
// The cache itself is process-wide and cross-tenant by construction (the
// key is the complete simulation input, so identical genotypes hit no
// matter which job produced them). What a multi-tenant server additionally
// needs is *attribution*: which tenant's lookups were served from shared
// warmth. A tenant is a named set of counters; a thread opts into one via
// [`set_thread_tenant`], and every global-cache lookup made on that thread
// is then billed to it. Threads with no tag (the default — all existing
// callers) are unattributed and only appear in the aggregate [`stats`].

struct TenantCounters {
    name: String,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cheap, cloneable handle to one tenant's hit/miss counters.
#[derive(Clone)]
pub struct TenantTag {
    counters: Arc<TenantCounters>,
}

impl TenantTag {
    /// The tenant name this tag bills lookups to.
    pub fn name(&self) -> &str {
        &self.counters.name
    }
}

impl std::fmt::Debug for TenantTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TenantTag({})", self.counters.name)
    }
}

/// One tenant's view of the shared cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant name passed to [`tenant_tag`].
    pub tenant: String,
    /// Lookups by this tenant's threads answered from the cache.
    pub hits: u64,
    /// Lookups by this tenant's threads that ran the simulation.
    pub misses: u64,
}

impl TenantStats {
    /// Fraction of this tenant's lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

fn tenant_registry() -> &'static Mutex<HashMap<String, Arc<TenantCounters>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<TenantCounters>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    static THREAD_TENANT: RefCell<Option<Arc<TenantCounters>>> = const { RefCell::new(None) };
}

/// Returns the tag for `name`, creating its counters on first use.
/// Tags for the same name share counters across all callers.
pub fn tenant_tag(name: &str) -> TenantTag {
    let mut reg = tenant_registry().lock().unwrap_or_else(|e| e.into_inner());
    let counters = reg
        .entry(name.to_string())
        .or_insert_with(|| {
            Arc::new(TenantCounters {
                name: name.to_string(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
        })
        .clone();
    TenantTag { counters }
}

/// Bills subsequent global-cache lookups on *this thread* to the given
/// tenant (or to nobody with `None`). Typically bracketed around a job:
/// set before running, cleared after.
pub fn set_thread_tenant(tag: Option<&TenantTag>) {
    THREAD_TENANT.with(|t| *t.borrow_mut() = tag.map(|t| Arc::clone(&t.counters)));
}

fn record_tenant_lookup(hit: bool) {
    THREAD_TENANT.with(|t| {
        if let Some(counters) = t.borrow().as_deref() {
            let counter = if hit {
                &counters.hits
            } else {
                &counters.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Per-tenant counters for every tenant registered so far, sorted by
/// name. Tenants that have not looked anything up yet report zeros.
pub fn tenant_stats() -> Vec<TenantStats> {
    let reg = tenant_registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<TenantStats> = reg
        .values()
        .map(|c| TenantStats {
            tenant: c.name.clone(),
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    out
}

/// Zeroes every tenant's counters (the registry itself is kept, so
/// outstanding [`TenantTag`]s remain valid).
pub fn reset_tenant_stats() {
    let reg = tenant_registry().lock().unwrap_or_else(|e| e.into_inner());
    for c in reg.values() {
        c.hits.store(0, Ordering::Relaxed);
        c.misses.store(0, Ordering::Relaxed);
    }
}

/// Returns the cached report for this exact simulation input, or runs
/// `simulate` and caches its result. Hits are bit-identical to what
/// `simulate` returned on the miss.
pub(crate) fn lookup_or_simulate(
    cost: &CostModel,
    fidelity: Fidelity,
    layer: &LayerSpec,
    hw: &HwConfig,
    input_onchip: bool,
    output_onchip: bool,
    simulate: impl FnOnce() -> LayerReport,
) -> LayerReport {
    let key = KeyRef {
        layer,
        hw,
        fidelity,
        input_onchip,
        output_onchip,
        cost_bits: cost_bits(cost),
    };
    // Tenant attribution piggybacks on the miss closure: if `simulate`
    // ran, this lookup was a miss; otherwise it was served from cache.
    let mut missed = false;
    let report = global().lookup(key, || {
        missed = true;
        simulate()
    });
    record_tenant_lookup(!missed);
    report
}

/// Snapshot of the global cache counters.
pub fn stats() -> CacheStats {
    global().stats()
}

/// Empties the global cache, releasing its tables, and zeroes its
/// counters, so the next lookups pay what a fresh process pays.
pub fn clear() {
    global().clear()
}

/// Serializes every entry of the global cache (a warm-cache export for
/// session checkpoints). Entries carry their full simulation key, so an
/// import into a process with a different cost model simply adds keys
/// that are never hit.
pub fn export(w: &mut ByteWriter) {
    global().export(w)
}

/// Merges previously exported entries into the global cache, returning
/// how many were inserted. Cached values are pure functions of their
/// keys, so importing never changes what a lookup observes — it only
/// turns cold misses into hits.
///
/// # Errors
///
/// Returns [`PersistError`] when the bytes are truncated or malformed;
/// entries read before the failure remain inserted.
pub fn import(r: &mut ByteReader<'_>) -> Result<usize, PersistError> {
    global().import(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use yoso_arch::{Dataflow, LayerKind, PeArray};

    fn test_layer(name: &str, cout: usize) -> LayerSpec {
        LayerSpec {
            name: name.into(),
            kind: LayerKind::Conv {
                k: 3,
                stride: 1,
                cin: 16,
                cout,
            },
            h_in: 8,
            w_in: 8,
            h_out: 8,
            w_out: 8,
        }
    }

    fn test_hw() -> HwConfig {
        HwConfig {
            pe: PeArray { rows: 8, cols: 8 },
            gbuf_kb: 64,
            rbuf_bytes: 256,
            dataflow: Dataflow::Ws,
        }
    }

    impl<S: BuildHasher> SimCache<S> {
        /// [`SimCache::lookup`] for a key the test owns.
        fn lookup_or_simulate(
            &self,
            key: CacheKey,
            simulate: impl FnOnce() -> LayerReport,
        ) -> LayerReport {
            self.lookup(key.as_ref(), simulate)
        }
    }

    fn key_for(sim: &Simulator, layer: &LayerSpec, hw: &HwConfig) -> CacheKey {
        CacheKey {
            layer: layer.clone(),
            hw: *hw,
            fidelity: sim.fidelity,
            input_onchip: false,
            output_onchip: false,
            cost_bits: cost_bits(&sim.cost),
        }
    }

    // Exact counter semantics are asserted on a private instance: the
    // global cache is shared with every other concurrently running test.
    #[test]
    fn instance_counts_hits_misses_entries() {
        let cache = SimCache::new();
        let sim = Simulator::exact();
        let layer = test_layer("l0", 32);
        let hw = test_hw();
        let compute = || sim.simulate_layer(&layer, &hw, false, false);
        let miss = cache.lookup_or_simulate(key_for(&sim, &layer, &hw), compute);
        let hit = cache.lookup_or_simulate(key_for(&sim, &layer, &hw), compute);
        assert_eq!(miss, hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn distinct_inputs_do_not_alias() {
        let cache = SimCache::new();
        let exact = Simulator::exact();
        let hw = test_hw();
        let la = test_layer("a", 32);
        let lb = test_layer("a", 48);
        let a = cache.lookup_or_simulate(key_for(&exact, &la, &hw), || {
            exact.simulate_layer(&la, &hw, false, false)
        });
        let b = cache.lookup_or_simulate(key_for(&exact, &lb, &hw), || {
            exact.simulate_layer(&lb, &hw, false, false)
        });
        assert_ne!(a, b);
        // Same layer under a different fidelity is a different key.
        let fast = Simulator::fast();
        cache.lookup_or_simulate(key_for(&fast, &la, &hw), || {
            fast.simulate_layer(&la, &hw, false, false)
        });
        assert_eq!(cache.stats().misses, 3);
        // The cost model participates in the key.
        let mut dear_dram = Simulator::exact();
        dear_dram.cost.e_dram *= 2.0;
        let c = cache.lookup_or_simulate(key_for(&dear_dram, &la, &hw), || {
            dear_dram.simulate_layer(&la, &hw, false, false)
        });
        assert!(c.energy.total_pj() > a.energy.total_pj());
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn instance_clear_resets_everything() {
        let cache = SimCache::new();
        let sim = Simulator::fast();
        let layer = test_layer("x", 8);
        let hw = test_hw();
        cache.lookup_or_simulate(key_for(&sim, &layer, &hw), || {
            sim.simulate_layer(&layer, &hw, false, false)
        });
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn capacity_overflow_drops_shard() {
        let cache = SimCache::new();
        let sim = Simulator::fast();
        let hw = test_hw();
        let layer = test_layer("cap", 8);
        let report = sim.simulate_layer(&layer, &hw, false, false);
        // Force one shard to the brink, then insert into it again.
        let key = key_for(&sim, &layer, &hw);
        let hash = cache.hash(key.as_ref());
        {
            let mut table = cache.shard(hash).write();
            let mut filler = key.clone();
            for i in 0..SHARD_CAPACITY {
                filler.layer.name = format!("filler-{i}");
                let k = filler.as_ref();
                table.insert(cache.hash(k), k, &report, |k| cache.hash(k));
            }
            assert_eq!(table.len, SHARD_CAPACITY);
        }
        cache.lookup_or_simulate(key, || report.clone());
        assert!(cache.stats().entries <= SHARD_CAPACITY);
    }

    /// Hashes every key to one value, so every key lands in one shard
    /// and starts its probe at one slot with one tag.
    #[derive(Default)]
    struct OneHash;

    impl std::hash::Hasher for OneHash {
        fn finish(&self) -> u64 {
            0x9e37_79b9_7f4a_7c15
        }

        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn colliding_keys_never_alias() {
        let cache = SimCache::with_hasher(std::hash::BuildHasherDefault::<OneHash>::default());
        let exact = Simulator::exact();
        let hw = test_hw();
        let a = test_layer("same-shape", 32);
        let mut b = a.clone();
        b.name = "other-name".into();
        // Keys differing from the first in one field (name, input
        // residency), plus enough others to double the table twice with
        // every key on one probe chain.
        let mut keys: Vec<CacheKey> = [&a, &b]
            .into_iter()
            .map(|l| key_for(&exact, l, &hw))
            .collect();
        let mut onchip = key_for(&exact, &a, &hw);
        onchip.input_onchip = true;
        keys.push(onchip);
        keys.extend((0..7).map(|i| key_for(&exact, &test_layer("c", 8 + i), &hw)));
        let hashes: Vec<u64> = keys.iter().map(|k| cache.hash(k.as_ref())).collect();
        assert!(hashes.iter().all(|&h| h == hashes[0]));

        let simulate =
            |k: &CacheKey| exact.simulate_layer(&k.layer, &k.hw, k.input_onchip, k.output_onchip);
        for (i, key) in keys.iter().enumerate() {
            let miss = cache.lookup_or_simulate(key.clone(), || simulate(key));
            assert_eq!(miss, simulate(key));
            let s = cache.stats();
            assert_eq!(
                (s.hits, s.misses, s.entries),
                (i as u64, i as u64 + 1, i + 1)
            );
            let hit = cache.lookup_or_simulate(key.clone(), || panic!("key {i} missed twice"));
            assert_eq!(hit, miss);
            assert_eq!(cache.stats().hits, i as u64 + 1);
        }
        // Each key still finds its own report after the table grew.
        for key in &keys {
            let hit = cache.lookup_or_simulate(key.clone(), || panic!("entry lost"));
            assert_eq!(hit, simulate(key));
        }
        assert_ne!(simulate(&keys[0]).name, simulate(&keys[1]).name);
        assert_ne!(simulate(&keys[0]), simulate(&keys[2]));
    }

    /// A slot costs what a `HashMap` bucket of the same entry costs.
    #[test]
    fn empty_slots_cost_no_extra_bytes() {
        assert_eq!(
            std::mem::size_of::<Option<(CacheKey, LayerReport)>>(),
            std::mem::size_of::<(CacheKey, LayerReport)>()
        );
    }

    // The global path: delta-based assertions only (other tests in this
    // binary hit the same process-wide cache concurrently, but only add).
    #[test]
    fn global_cache_serves_simulate_layers() {
        let sim = Simulator::exact();
        let layer = test_layer("global-cache-probe-layer", 24);
        let hw = test_hw();
        let before = stats();
        let miss = sim.simulate_layers(std::slice::from_ref(&layer), &hw);
        let hit = sim.simulate_layers(std::slice::from_ref(&layer), &hw);
        assert_eq!(miss, hit);
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
        assert!(after.entries >= 1);
    }

    #[test]
    fn export_import_roundtrips_entries() {
        let cache = SimCache::new();
        let sim = Simulator::exact();
        let hw = test_hw();
        for i in 0..4 {
            let layer = test_layer(&format!("exp-{i}"), 8 + i);
            cache.lookup_or_simulate(key_for(&sim, &layer, &hw), || {
                sim.simulate_layer(&layer, &hw, false, false)
            });
        }
        let mut w = ByteWriter::new();
        cache.export(&mut w);
        let bytes = w.into_bytes();

        let fresh = SimCache::new();
        let n = fresh.import(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(n, 4);
        assert_eq!(fresh.stats().entries, 4);
        // Every restored entry answers bit-identically to a simulation.
        let layer = test_layer("exp-2", 10);
        let hit = fresh.lookup_or_simulate(key_for(&sim, &layer, &hw), || {
            panic!("should be served from the imported cache")
        });
        assert_eq!(hit, sim.simulate_layer(&layer, &hw, false, false));
        // Truncated bytes are rejected with a typed error.
        assert!(matches!(
            SimCache::new().import(&mut ByteReader::new(&bytes[..bytes.len() / 2])),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn tenant_tags_attribute_thread_lookups() {
        let sim = Simulator::exact();
        let hw = test_hw();
        // Unique layer names so this test's keys are cold regardless of
        // what other tests put in the shared global cache.
        let la = test_layer("tenant-probe-a", 24);
        let lb = test_layer("tenant-probe-b", 40);

        let alice = tenant_tag("acct-alice");
        let bob = tenant_tag("acct-bob");
        assert_eq!(alice.name(), "acct-alice");
        // Same name → same counters.
        let alice2 = tenant_tag("acct-alice");

        set_thread_tenant(Some(&alice));
        sim.simulate_layers(std::slice::from_ref(&la), &hw); // miss
        sim.simulate_layers(std::slice::from_ref(&la), &hw); // hit
        set_thread_tenant(Some(&bob));
        sim.simulate_layers(std::slice::from_ref(&la), &hw); // hit (cross-tenant!)
        sim.simulate_layers(std::slice::from_ref(&lb), &hw); // miss
        set_thread_tenant(None);
        sim.simulate_layers(std::slice::from_ref(&lb), &hw); // unattributed hit

        let stats = tenant_stats();
        let get = |name: &str| stats.iter().find(|s| s.tenant == name).unwrap().clone();
        let a = get("acct-alice");
        let b = get("acct-bob");
        assert_eq!((a.hits, a.misses), (1, 1));
        assert_eq!(a.hit_rate(), 0.5);
        // Bob's first lookup of layer `la` hit Alice's cached entry:
        // cross-tenant sharing is visible in per-tenant accounting.
        assert_eq!((b.hits, b.misses), (1, 1));
        assert_eq!(tenant_tag("acct-fresh").name(), "acct-fresh");
        let fresh = tenant_stats()
            .into_iter()
            .find(|s| s.tenant == "acct-fresh")
            .unwrap();
        assert_eq!(fresh.hits + fresh.misses, 0);
        drop(alice2);

        reset_tenant_stats();
        let a = tenant_stats()
            .into_iter()
            .find(|s| s.tenant == "acct-alice")
            .unwrap();
        assert_eq!((a.hits, a.misses), (0, 0));
    }

    #[test]
    fn stats_display_is_readable() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            contended_reads: 2,
            contended_writes: 1,
        };
        assert_eq!(
            s.to_string(),
            "sim cache: 3 hits / 1 misses (75.0% hit rate), 1 entries, 3 contended locks"
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
