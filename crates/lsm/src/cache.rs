//! Memory governance: a globally budgeted, lock-striped block cache plus a
//! table-handle cache.
//!
//! The paper's Section 1 guideline — "wisely allocate the memory budget" —
//! is about the components that *compete* for one ceiling: cached data
//! blocks, open table handles, bloom filters, and the learned index models
//! themselves. This module gives the engine a single [`CacheBudget`] that
//! all of them charge:
//!
//! * **Blocks** live in a [`BlockCache`]: N independent lock-striped LRU
//!   segments keyed by `hash(table_id, block_no)`, so concurrent readers on
//!   different segments never contend on one global mutex. Insertion
//!   reserves bytes against the shared budget *before* taking any segment
//!   lock; when the reservation fails, victims are evicted — from the
//!   inserting key's own segment first, then sweeping the others — until it
//!   fits. Because every shard of a [`crate::sharding::ShardedDb`] shares
//!   the same budget, evicting a cold shard's blocks funds a hot shard's
//!   working set.
//! * **Table handles** (the resident `TableReader`s: index model + bloom
//!   filter + fixed overhead) charge the same budget as *pinned* bytes the
//!   moment they open and release on drop — index memory squeezes block
//!   space, exactly the trade the paper's figures sweep. A bounded
//!   [`TableCache`] additionally deduplicates opens of the same file and
//!   caps how many retired handles stay resident.
//!
//! The budget is a pair of atomics, so [`EngineCache`]'s `Debug` (and every
//! gauge accessor) reads without taking a lock — formatting one of these
//! from a panic hook mid-insert can never deadlock.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sstable::TableReader;

/// Cache key: table identity + block index within the table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    pub table_id: u64,
    pub block_no: u64,
}

/// Fixed per-handle overhead charged for an open table beyond its measured
/// index + bloom bytes (file handle, footer, metadata).
pub const TABLE_HANDLE_OVERHEAD: usize = 256;

/// One byte ceiling shared by every charging component (and, through
/// [`EngineCache`], by every shard of a `ShardedDb`).
///
/// Two charge classes:
/// * *block* bytes are *reserved* — `CacheBudget::try_reserve_block`
///   refuses to overshoot, and the block cache evicts until a reservation
///   succeeds, so `used <= capacity` holds at every instant;
/// * *pinned* bytes (table handles, filters, index models) are charged
///   unconditionally — a table the engine needs open cannot be refused —
///   and block evictions compensate on the next reservation.
pub struct CacheBudget {
    capacity: usize,
    used: AtomicUsize,
    block_bytes: AtomicUsize,
    table_bytes: AtomicUsize,
}

impl CacheBudget {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            used: AtomicUsize::new(0),
            block_bytes: AtomicUsize::new(0),
            table_bytes: AtomicUsize::new(0),
        }
    }

    /// Reserve `bytes` for a block if the budget can hold them; the caller
    /// evicts and retries on failure.
    fn try_reserve_block(&self, bytes: usize) -> bool {
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            if used + bytes > self.capacity {
                return false;
            }
            // Acquire pairs with `release_block`'s Release: a reservation
            // funded by a release sees that release's `block_bytes`
            // decrement, so `block_bytes` stays within the reserved part of
            // `used` (≤ capacity) in every observer's view.
            match self.used.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.block_bytes.fetch_add(bytes, Ordering::Relaxed);
                    return true;
                }
                Err(cur) => used = cur,
            }
        }
    }

    /// Mirror image of `try_reserve_block`: `block_bytes` drops before the
    /// space returns to `used`, so no reservation can reuse the bytes while
    /// `block_bytes` still counts them.
    fn release_block(&self, bytes: usize) {
        self.block_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.used.fetch_sub(bytes, Ordering::Release);
    }

    /// Pinned charge (open table handle): never refused — the block side
    /// yields the space instead.
    fn charge_table(&self, bytes: usize) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
        self.table_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn release_table(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
        self.table_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Configured ceiling.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Bytes charged right now, all components.
    pub fn used_bytes(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes held by cached blocks.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes.load(Ordering::Relaxed)
    }

    /// Bytes pinned by open table handles (index models + filters).
    pub fn table_bytes(&self) -> usize {
        self.table_bytes.load(Ordering::Relaxed)
    }
}

const NIL: usize = usize::MAX;

struct Slot {
    key: BlockKey,
    /// `None` only while the slot sits on the free list.
    data: Option<Arc<Vec<u8>>>,
    prev: usize,
    next: usize,
    /// Logical last-touch time from the cache-wide clock — cross-segment
    /// eviction compares tail ages so a burst into one stripe displaces
    /// the globally coldest block, not its own stripe's recent entries.
    tick: u64,
}

/// Hashes a [`BlockKey`] with the splitmix64 mixer instead of SipHash:
/// a missed block costs about four map operations, each hashing its key,
/// and the keys are the engine's own (table id, block number), so
/// SipHash's resistance to crafted collisions buys nothing here. The two
/// words are folded in the opposite arrangement from
/// [`BlockCache::segment_of`]'s, so the bits that pick a stripe do not
/// also pick the bucket inside it.
#[derive(Default)]
struct BlockKeyHasher(u64);

impl Hasher for BlockKeyHasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(32) ^ n;
    }
}

/// One lock stripe: a slab-backed intrusive LRU list (O(1) get/insert).
struct LruSegment {
    map: HashMap<BlockKey, usize, BuildHasherDefault<BlockKeyHasher>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruSegment {
    fn new() -> Self {
        Self {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Remove slot `i` from the list, map and slab; returns its byte size.
    fn remove(&mut self, i: usize) -> usize {
        self.detach(i);
        let k = self.slots[i].key;
        let bytes = self.slots[i].data.take().map_or(0, |d| d.len());
        self.map.remove(&k);
        self.free.push(i);
        bytes
    }

    /// Evict the least-recently-used entry; returns its byte size.
    fn pop_tail(&mut self) -> Option<usize> {
        let victim = self.tail;
        if victim == NIL {
            return None;
        }
        Some(self.remove(victim))
    }
}

/// Sharded, thread-safe block cache: lock-striped LRU segments over one
/// shared [`CacheBudget`].
pub struct BlockCache {
    segments: Box<[Mutex<LruSegment>]>,
    /// `segments.len() - 1`; the count is a power of two.
    mask: usize,
    budget: Arc<CacheBudget>,
    /// Logical clock stamped onto entries at each touch (see `Slot::tick`).
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    // Reads only atomics — safe to format from any context, including one
    // already inside a segment lock (the old single-mutex impl deadlocked
    // there).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("segments", &(self.mask + 1))
            .field("capacity_bytes", &self.budget.capacity_bytes())
            .field("used_bytes", &self.budget.block_bytes())
            .finish()
    }
}

/// splitmix64 — cheap, well-mixed segment selector.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Segment count when the caller does not choose: one stripe per core,
/// rounded to a power of two, clamped to `[4, 64]`.
pub fn auto_segments() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .next_power_of_two()
        .clamp(4, 64)
}

impl BlockCache {
    /// Standalone cache with its own budget and the automatic stripe count.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_budget(Arc::new(CacheBudget::new(capacity_bytes)), auto_segments())
    }

    /// Cache charging `budget`, striped over `segments` (rounded up to a
    /// power of two).
    pub fn with_budget(budget: Arc<CacheBudget>, segments: usize) -> Self {
        let n = segments.max(1).next_power_of_two();
        Self {
            segments: (0..n).map(|_| Mutex::new(LruSegment::new())).collect(),
            mask: n - 1,
            budget,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn segment_of(&self, key: BlockKey) -> usize {
        (mix64(key.table_id ^ key.block_no.rotate_left(32)) as usize) & self.mask
    }

    /// Fetch a block, marking it most-recently-used within its segment.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        let mut seg = self.segments[self.segment_of(key)].lock();
        match seg.map.get(&key).copied() {
            Some(i) => {
                seg.detach(i);
                seg.push_front(i);
                seg.slots[i].tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                seg.slots[i].data.clone()
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Evict one entry: scan every stripe's LRU tail and pop the globally
    /// oldest (by logical touch time), so a hot stripe's burst displaces
    /// the coldest block anywhere, not its own recent entries. Holds at
    /// most one segment lock at a time; the victim choice may race with a
    /// concurrent touch, which costs nothing but precision. Falls back to
    /// a sweep from `start` if the chosen stripe drained meanwhile.
    fn evict_one(&self, start: usize) -> bool {
        let mut victim: Option<(usize, u64)> = None;
        for idx in 0..=self.mask {
            let seg = self.segments[idx].lock();
            if seg.tail != NIL {
                let tick = seg.slots[seg.tail].tick;
                if victim.is_none_or(|(_, best)| tick < best) {
                    victim = Some((idx, tick));
                }
            }
        }
        if let Some((idx, _)) = victim {
            if let Some(bytes) = self.segments[idx].lock().pop_tail() {
                self.budget.release_block(bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        for off in 0..=self.mask {
            let idx = (start + off) & self.mask;
            if let Some(bytes) = self.segments[idx].lock().pop_tail() {
                self.budget.release_block(bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Insert (or refresh) a block. Bytes are reserved against the shared
    /// budget *first*; eviction makes room, so the budget is never
    /// overshot. When every block is gone and pinned charges still leave
    /// no room, the insert is dropped — pinned components win.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        let seg_idx = self.segment_of(key);
        // Retire any existing version of the key so the path below is a
        // plain insert (refresh keeps the newest payload and MRU position).
        {
            let mut seg = self.segments[seg_idx].lock();
            if let Some(&i) = seg.map.get(&key) {
                let bytes = seg.remove(i);
                self.budget.release_block(bytes);
            }
        }
        while !self.budget.try_reserve_block(data.len()) {
            if !self.evict_one(seg_idx) {
                return; // nothing left to evict; the block does not fit
            }
        }
        let mut seg = self.segments[seg_idx].lock();
        if let Some(&i) = seg.map.get(&key) {
            // A concurrent insert of the same key won the race: keep one
            // copy and hand back this call's reservation.
            let old = seg.slots[i].data.replace(data);
            self.budget.release_block(old.map_or(0, |d| d.len()));
            seg.detach(i);
            seg.push_front(i);
            seg.slots[i].tick = self.clock.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = Slot {
            key,
            data: Some(data),
            prev: NIL,
            next: NIL,
            tick: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        let i = match seg.free.pop() {
            Some(i) => {
                seg.slots[i] = slot;
                i
            }
            None => {
                seg.slots.push(slot);
                seg.slots.len() - 1
            }
        };
        seg.map.insert(key, i);
        seg.push_front(i);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached block belonging to `table_id` (table deleted).
    pub fn evict_table(&self, table_id: u64) {
        for m in self.segments.iter() {
            let mut seg = m.lock();
            let victims: Vec<usize> = seg
                .map
                .iter()
                .filter(|(k, _)| k.table_id == table_id)
                .map(|(_, &i)| i)
                .collect();
            for i in victims {
                let bytes = seg.remove(i);
                self.budget.release_block(bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Bytes currently held by cached blocks.
    pub fn used_bytes(&self) -> usize {
        self.budget.block_bytes()
    }

    /// Ceiling of the shared budget this cache charges.
    pub fn capacity_bytes(&self) -> usize {
        self.budget.capacity_bytes()
    }

    /// (hits, misses) so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A resident table handle: keyed by `(scope, file name)` — scopes make
/// shard-local file names (`000007.sst` exists in every shard directory)
/// globally unambiguous.
struct TableSlot {
    reader: Arc<TableReader>,
    tick: u64,
}

struct TableMap {
    map: HashMap<(u64, String), TableSlot>,
    tick: u64,
}

/// Bounded LRU of open [`TableReader`]s.
///
/// The handles themselves charge the shared budget as pinned bytes for as
/// long as *any* strong reference exists (see
/// `TableReader::open_shared`); this cache's job is (a) deduplicating
/// opens of the same file within one scope and (b) bounding how many
/// handles stay resident after the tree stopped referencing them — evicting
/// an entry drops the cache's reference, and the charge disappears with the
/// last one.
pub struct TableCache {
    inner: Mutex<TableMap>,
    capacity_handles: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TableCache {
    fn new(capacity_handles: usize) -> Self {
        Self {
            inner: Mutex::new(TableMap {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity_handles: capacity_handles.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up an open handle, refreshing its recency.
    pub fn get(&self, scope: u64, name: &str) -> Option<Arc<TableReader>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(scope, name.to_string())) {
            Some(slot) => {
                slot.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.reader))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Register an open handle, evicting least-recently-used entries past
    /// the handle cap.
    pub fn insert(&self, scope: u64, name: &str, reader: Arc<TableReader>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner
            .map
            .insert((scope, name.to_string()), TableSlot { reader, tick });
        while inner.map.len() > self.capacity_handles {
            // O(n) victim scan: the handle map is small (≤ a few thousand)
            // and eviction is rare next to block traffic.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => inner.map.remove(&k),
                None => break,
            };
        }
    }

    /// Drop the handle for `(scope, name)` (file retired).
    pub fn evict(&self, scope: u64, name: &str) {
        self.inner.lock().map.remove(&(scope, name.to_string()));
    }

    /// Drop every handle belonging to `scope` (its `Db` closed).
    pub fn evict_scope(&self, scope: u64) {
        self.inner.lock().map.retain(|(s, _), _| *s != scope);
    }

    /// Open handles currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether no handles are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Point-in-time cache counters, per component (the `cache_*` rows of the
/// `METRICS` scrape).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub block_hits: u64,
    pub block_misses: u64,
    pub block_insertions: u64,
    pub block_evictions: u64,
    pub table_hits: u64,
    pub table_misses: u64,
    /// Bytes held by cached blocks.
    pub block_used_bytes: u64,
    /// Bytes pinned by open table handles (index models + filters).
    pub table_used_bytes: u64,
    /// Total charged bytes, all components.
    pub used_bytes: u64,
    /// The shared ceiling.
    pub capacity_bytes: u64,
}

/// The engine-wide cache: one [`CacheBudget`] charged by the block cache,
/// the table-handle cache, and every open `TableReader`'s pinned bytes.
///
/// A standalone [`crate::Db`] builds one when `Options::block_cache_bytes`
/// is nonzero; a [`crate::sharding::ShardedDb`] builds exactly one and
/// threads it through every shard — including children created by live
/// splits — so the whole topology shares a single byte ceiling.
pub struct EngineCache {
    budget: Arc<CacheBudget>,
    blocks: BlockCache,
    tables: TableCache,
    /// Scope allocator: each `Db` opened against this cache gets a unique
    /// namespace for its (shard-local) file names.
    next_scope: AtomicU64,
}

impl std::fmt::Debug for EngineCache {
    // Atomics only — never blocks (see the module docs).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache")
            .field("capacity_bytes", &self.budget.capacity_bytes())
            .field("used_bytes", &self.budget.used_bytes())
            .field("block_bytes", &self.budget.block_bytes())
            .field("table_bytes", &self.budget.table_bytes())
            .finish()
    }
}

impl EngineCache {
    /// New cache with `capacity_bytes` shared across all components,
    /// `segments` block-cache stripes (0 = auto) and up to
    /// `table_handles` resident table handles.
    pub fn new(capacity_bytes: usize, segments: usize, table_handles: usize) -> Self {
        let budget = Arc::new(CacheBudget::new(capacity_bytes));
        let segments = if segments == 0 {
            auto_segments()
        } else {
            segments
        };
        Self {
            blocks: BlockCache::with_budget(Arc::clone(&budget), segments),
            tables: TableCache::new(table_handles),
            budget,
            next_scope: AtomicU64::new(1),
        }
    }

    /// Build from engine options; `None` when caching is disabled.
    pub fn from_options(opts: &crate::Options) -> Option<Arc<EngineCache>> {
        (opts.block_cache_bytes > 0).then(|| {
            Arc::new(EngineCache::new(
                opts.block_cache_bytes,
                opts.cache_segments,
                opts.table_cache_handles,
            ))
        })
    }

    /// Allocate a scope (one per `Db` sharing this cache).
    pub fn next_scope(&self) -> u64 {
        self.next_scope.fetch_add(1, Ordering::Relaxed)
    }

    /// The block half.
    pub fn blocks(&self) -> &BlockCache {
        &self.blocks
    }

    /// The table-handle half.
    pub fn tables(&self) -> &TableCache {
        &self.tables
    }

    /// Pinned charge for an open table handle (index + bloom + overhead).
    pub(crate) fn charge_table(&self, bytes: usize) {
        self.budget.charge_table(bytes);
    }

    /// Release a pinned table charge (handle dropped).
    pub(crate) fn release_table(&self, bytes: usize) {
        self.budget.release_table(bytes);
    }

    /// Total charged bytes, all components.
    pub fn used_bytes(&self) -> usize {
        self.budget.used_bytes()
    }

    /// The shared ceiling.
    pub fn capacity_bytes(&self) -> usize {
        self.budget.capacity_bytes()
    }

    /// Block-cache (hits, misses) — the headline hit rate.
    pub fn hit_miss(&self) -> (u64, u64) {
        self.blocks.hit_miss()
    }

    /// Snapshot every per-component counter.
    pub fn stats(&self) -> CacheStats {
        let (block_hits, block_misses) = self.blocks.hit_miss();
        let (table_hits, table_misses) = self.tables.hit_miss();
        CacheStats {
            block_hits,
            block_misses,
            block_insertions: self.blocks.insertions.load(Ordering::Relaxed),
            block_evictions: self.blocks.evictions.load(Ordering::Relaxed),
            table_hits,
            table_misses,
            block_used_bytes: self.budget.block_bytes() as u64,
            table_used_bytes: self.budget.table_bytes() as u64,
            used_bytes: self.budget.used_bytes() as u64,
            capacity_bytes: self.budget.capacity_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, b: u64) -> BlockKey {
        BlockKey {
            table_id: t,
            block_no: b,
        }
    }

    fn block(fill: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; len])
    }

    /// Single-stripe cache: global LRU order is exact.
    fn unsharded(capacity: usize) -> BlockCache {
        BlockCache::with_budget(Arc::new(CacheBudget::new(capacity)), 1)
    }

    #[test]
    fn get_after_insert() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get(key(1, 0)).is_none());
        c.insert(key(1, 0), block(7, 4096));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 7);
        assert_eq!(c.hit_miss(), (1, 1));
        assert_eq!(c.used_bytes(), 4096);
    }

    #[test]
    fn lru_eviction_order() {
        let c = unsharded(3 * 4096);
        for b in 0..3 {
            c.insert(key(1, b), block(b as u8, 4096));
        }
        // Touch block 0 so block 1 becomes LRU.
        c.get(key(1, 0)).unwrap();
        c.insert(key(1, 3), block(3, 4096));
        assert!(c.get(key(1, 1)).is_none(), "block 1 was LRU");
        assert!(c.get(key(1, 0)).is_some());
        assert!(c.get(key(1, 2)).is_some());
        assert!(c.get(key(1, 3)).is_some());
        assert!(c.used_bytes() <= 3 * 4096);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = BlockCache::new(1 << 16);
        c.insert(key(1, 0), block(1, 4096));
        c.insert(key(1, 0), block(2, 4096));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 2);
        assert_eq!(c.used_bytes(), 4096);
    }

    #[test]
    fn oversized_block_rejected() {
        let c = BlockCache::new(100);
        c.insert(key(1, 0), block(1, 4096));
        assert!(c.get(key(1, 0)).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn evict_table_clears_only_that_table() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1, 100));
        c.insert(key(1, 1), block(1, 100));
        c.insert(key(2, 0), block(2, 100));
        c.evict_table(1);
        assert!(c.get(key(1, 0)).is_none());
        assert!(c.get(key(1, 1)).is_none());
        assert!(c.get(key(2, 0)).is_some());
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn slots_recycled_after_eviction() {
        let c = unsharded(2 * 4096);
        for b in 0..100u64 {
            c.insert(key(1, b), block(b as u8, 4096));
        }
        let slots = c.segments[0].lock().slots.len();
        assert!(slots <= 4, "slab must recycle: {slots}");
    }

    #[test]
    fn budget_never_exceeded_across_segments() {
        let c = BlockCache::new(16 * 4096);
        for b in 0..500u64 {
            c.insert(key(b % 7, b), block(b as u8, 4096));
            assert!(
                c.used_bytes() <= c.capacity_bytes(),
                "overshoot at {b}: {} > {}",
                c.used_bytes(),
                c.capacity_bytes()
            );
        }
    }

    #[test]
    fn cross_segment_eviction_funds_hot_stripe() {
        // Fill the budget from many tables (spread over all stripes), then
        // hammer inserts that all land in one stripe: they must succeed by
        // stealing bytes from the other stripes.
        let c = BlockCache::new(8 * 4096);
        for b in 0..8u64 {
            c.insert(key(b, b), block(1, 4096));
        }
        assert_eq!(c.used_bytes(), 8 * 4096);
        for b in 0..8u64 {
            c.insert(key(99, b), block(2, 4096));
        }
        let resident = (0..8u64).filter(|&b| c.get(key(99, b)).is_some()).count();
        assert!(
            resident >= 7,
            "hot inserts must displace cold stripes: only {resident}/8 resident"
        );
        assert!(c.used_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn debug_takes_no_lock() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1, 4096));
        // Hold a segment lock and format anyway — the old implementation
        // locked its single mutex here and deadlocked.
        let _guard = c.segments[c.segment_of(key(1, 0))].lock();
        let s = format!("{c:?}");
        assert!(s.contains("used_bytes"), "{s}");
    }

    #[test]
    fn pinned_charges_squeeze_block_space() {
        let cache = EngineCache::new(4 * 4096, 1, 16);
        cache.charge_table(3 * 4096);
        // Only one block's worth of head-room remains.
        cache.blocks().insert(key(1, 0), block(1, 4096));
        cache.blocks().insert(key(1, 1), block(1, 4096));
        assert!(cache.used_bytes() <= cache.capacity_bytes());
        assert_eq!(cache.blocks().used_bytes(), 4096, "one block fits");
        cache.release_table(3 * 4096);
        cache.blocks().insert(key(1, 2), block(1, 4096));
        assert!(cache.blocks().used_bytes() >= 2 * 4096, "space came back");
    }

    #[test]
    fn engine_cache_stats_roundtrip() {
        let cache = EngineCache::new(1 << 20, 2, 4);
        cache.blocks().insert(key(1, 0), block(1, 512));
        cache.blocks().get(key(1, 0));
        cache.blocks().get(key(1, 9));
        cache.charge_table(1000);
        let s = cache.stats();
        assert_eq!(s.block_hits, 1);
        assert_eq!(s.block_misses, 1);
        assert_eq!(s.block_insertions, 1);
        assert_eq!(s.block_used_bytes, 512);
        assert_eq!(s.table_used_bytes, 1000);
        assert_eq!(s.used_bytes, 1512);
        assert_eq!(s.capacity_bytes, 1 << 20);
        let scope_a = cache.next_scope();
        assert_ne!(scope_a, cache.next_scope(), "scopes are unique");
    }
}
