//! SSTable reader — the paper's `InternalGet` and `NewIter` interfaces.
//!
//! A point lookup is exactly the paper's four-stage pipeline (Table 1):
//! table locate (done by the caller), *prediction* (inner index + model),
//! *disk I/O* (one `pread` of the position boundary), and *binary search*
//! within the fetched range. Each stage is timed into [`DbStats`].
//!
//! With a block cache attached the fetch goes through 4 KiB cache blocks,
//! but the I/O model is kept: the span's blocks are probed once each, and
//! every run of consecutive missed blocks is loaded with one device read —
//! a cold boundary straddling two blocks is still one `pread`.

use std::sync::Arc;
use std::time::Instant;

use learned_index::{IndexKind, SearchBound, SegmentIndex};

use crate::bloom::BloomFilter;
use crate::cache::{BlockKey, EngineCache, TABLE_HANDLE_OVERHEAD};
use crate::options::SearchStrategy;
use crate::sstable::format::{self, Footer};
use crate::stats::DbStats;
use crate::types::{Entry, SeqNo};
use crate::{Error, Result};
use lsm_io::{RandomAccessFile, Storage};

/// Cache block granularity (matches the device model's 4 KiB blocks).
const CACHE_BLOCK: u64 = 4096;

/// An open, immutable SSTable.
pub struct TableReader {
    file: Arc<dyn RandomAccessFile>,
    name: String,
    n: usize,
    value_width: usize,
    entry_width: usize,
    min_key: u64,
    max_key: u64,
    index: Box<dyn SegmentIndex>,
    bloom: BloomFilter,
    cache: Option<Arc<EngineCache>>,
    /// Bytes charged against the cache budget while this handle is open
    /// (index model + bloom + fixed overhead); released on drop.
    pinned_bytes: usize,
    table_id: u64,
    search: SearchStrategy,
}

/// Process-unique table ids for cache keys.
fn next_table_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl std::fmt::Debug for TableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableReader")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("min_key", &self.min_key)
            .field("max_key", &self.max_key)
            .field("index_kind", &self.index.kind())
            .finish()
    }
}

impl TableReader {
    /// Open `name` from `storage`, loading index + bloom into memory.
    pub fn open(storage: &dyn Storage, name: &str) -> Result<Self> {
        Self::open_with(storage, name, None)
    }

    /// Open with an optional shared engine cache. Block reads go through
    /// the cache's block half; the handle's resident bytes (index model +
    /// bloom filter + fixed overhead) are charged against the shared
    /// budget as *pinned* for as long as the reader lives.
    pub fn open_with(
        storage: &dyn Storage,
        name: &str,
        cache: Option<Arc<EngineCache>>,
    ) -> Result<Self> {
        let file = storage.open_read(name)?;
        let len = file.len();
        if len < format::FOOTER_LEN as u64 {
            return Err(Error::Corruption(format!("{name}: too short ({len} B)")));
        }
        let mut fbuf = vec![0u8; format::FOOTER_LEN];
        file.read_exact_at(len - format::FOOTER_LEN as u64, &mut fbuf)?;
        let footer = Footer::decode(&fbuf)?;

        let mut ibuf = vec![0u8; footer.index_len as usize];
        file.read_exact_at(footer.index_off, &mut ibuf)?;
        let index = IndexKind::decode(&ibuf)?;
        if index.key_count() != footer.n as usize {
            return Err(Error::Corruption(format!(
                "{name}: index covers {} keys, footer says {}",
                index.key_count(),
                footer.n
            )));
        }

        let mut bbuf = vec![0u8; footer.bloom_len as usize];
        file.read_exact_at(footer.bloom_off, &mut bbuf)?;
        let bloom = BloomFilter::decode(&bbuf)
            .ok_or_else(|| Error::Corruption(format!("{name}: bad bloom payload")))?;

        let pinned_bytes = match &cache {
            Some(c) => {
                let bytes = index.size_bytes() + bloom.size_bytes() + TABLE_HANDLE_OVERHEAD;
                c.charge_table(bytes);
                bytes
            }
            None => 0,
        };
        Ok(Self {
            file,
            name: name.to_string(),
            n: footer.n as usize,
            value_width: footer.value_width as usize,
            entry_width: format::entry_width(footer.value_width as usize),
            min_key: footer.min_key,
            max_key: footer.max_key,
            index,
            bloom,
            cache,
            pinned_bytes,
            table_id: next_table_id(),
            search: SearchStrategy::Binary,
        })
    }

    /// Select the in-segment search strategy (builder style).
    pub fn with_search_strategy(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Process-unique id of this table (cache key component).
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// Table file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Smallest user key.
    pub fn min_key(&self) -> u64 {
        self.min_key
    }

    /// Largest user key.
    pub fn max_key(&self) -> u64 {
        self.max_key
    }

    /// In-memory index size (the memory axis of the figures).
    pub fn index_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// Bloom filter size in memory.
    pub fn bloom_bytes(&self) -> usize {
        self.bloom.size_bytes()
    }

    /// Index kind in use.
    pub fn index_kind(&self) -> IndexKind {
        self.index.kind()
    }

    /// The index itself (ablation benches swap predictions).
    pub fn index(&self) -> &dyn SegmentIndex {
        self.index.as_ref()
    }

    /// Width of one on-disk entry.
    pub fn entry_width(&self) -> usize {
        self.entry_width
    }

    /// Point lookup.
    ///
    /// * `Ok(None)` — key not in this table (search deeper).
    /// * `Ok(Some(None))` — tombstone visible at `snapshot` (stop searching).
    /// * `Ok(Some(Some(value)))` — live value.
    pub fn get(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
    ) -> Result<Option<Option<Vec<u8>>>> {
        self.get_opts(key, snapshot, stats, true)
    }

    /// [`TableReader::get`] with an explicit block-cache fill policy: when
    /// `fill_cache` is false, blocks fetched for this lookup are served from
    /// the cache if present but never inserted into it
    /// (`ReadOptions::fill_cache`).
    pub fn get_opts(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
        fill_cache: bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        if self.n == 0 || key < self.min_key || key > self.max_key {
            return Ok(None);
        }
        stats
            .bloom_checks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if !self.bloom.may_contain(key) {
            stats
                .bloom_negatives
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(None);
        }

        // Stage: prediction (inner index + model).
        let t = Instant::now();
        let bound = self.index.predict(key);
        stats.add_predict_ns(t.elapsed().as_nanos() as u64);
        if bound.is_empty() {
            return Ok(None);
        }

        // Stage: disk I/O — one pread of the position boundary.
        let t = Instant::now();
        let buf = self.read_positions_opts(bound, fill_cache)?;
        stats.add_io_cpu_ns(t.elapsed().as_nanos() as u64);

        // Stage: binary search within the fetched range.
        let t = Instant::now();
        let result = self.search_buffer(&buf, bound, key, snapshot)?;
        stats.add_search_ns(t.elapsed().as_nanos() as u64);
        Ok(result)
    }

    /// Point lookup constrained to positions `[lo, hi)` — used by
    /// level-grained models that predict a range themselves and bypass the
    /// table's own index (Bourbon's `LevelModel`, paper Section 5.2). Stage
    /// timings for I/O and search are still recorded.
    pub fn get_in_positions(
        &self,
        key: u64,
        lo: usize,
        hi: usize,
        snapshot: SeqNo,
        stats: &DbStats,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let bound = SearchBound {
            lo: lo.min(self.n),
            hi: hi.min(self.n),
        };
        if bound.is_empty() {
            return Ok(None);
        }
        let t = Instant::now();
        let buf = self.read_positions_opts(bound, true)?;
        stats.add_io_cpu_ns(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let result = self.search_buffer(&buf, bound, key, snapshot)?;
        stats.add_search_ns(t.elapsed().as_nanos() as u64);
        Ok(result)
    }

    /// Read entries `[bound.lo, bound.hi)` in one positional read, through
    /// the block cache when one is attached, honouring `fill_cache`: a
    /// no-fill read is served from the cache when the blocks are resident
    /// but never inserts, so scans and compactions cannot evict the
    /// point-lookup working set.
    fn read_positions_opts(&self, bound: SearchBound, fill_cache: bool) -> Result<Vec<u8>> {
        let lo_byte = (bound.lo * self.entry_width) as u64;
        let len = (bound.hi - bound.lo) * self.entry_width;
        match &self.cache {
            None => {
                let mut buf = vec![0u8; len];
                self.file.read_exact_at(lo_byte, &mut buf)?;
                Ok(buf)
            }
            Some(cache) => self.read_span_cached(cache, lo_byte, len, fill_cache),
        }
    }

    /// Assemble `[off, off+len)` from cached 4 KiB blocks in one pass.
    ///
    /// Each block of the span is probed in the cache exactly once, and each
    /// maximal run of consecutive missed blocks costs exactly one device
    /// read, so a point lookup still pays the paper's single I/O for its
    /// position boundary however many blocks that boundary straddles. With
    /// `fill_cache`, a run is read block-aligned (clamped to the file
    /// length) and every 4 KiB slice is inserted as its own cache block;
    /// without it, only the requested bytes of the run are read, straight
    /// into the output — a fully cold no-fill read is the same single call
    /// the uncached path makes.
    fn read_span_cached(
        &self,
        cache: &EngineCache,
        off: u64,
        len: usize,
        fill_cache: bool,
    ) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let first = off / CACHE_BLOCK;
        let last = (off + len as u64 - 1) / CACHE_BLOCK;
        let mut out = vec![0u8; len];
        // First block of the run of misses not yet fetched, if any.
        let mut run: Option<u64> = None;
        for b in first..=last {
            match cache.blocks().get(self.block_key(b)) {
                Some(block) => {
                    if let Some(start) = run.take() {
                        self.fetch_run(cache, start..b, off, &mut out, fill_cache)?;
                    }
                    copy_overlap(&mut out, off, &block, b * CACHE_BLOCK);
                }
                None => {
                    run.get_or_insert(b);
                }
            }
        }
        if let Some(start) = run {
            self.fetch_run(cache, start..last + 1, off, &mut out, fill_cache)?;
        }
        Ok(out)
    }

    /// Load the missed blocks `blocks` with one device read and copy their
    /// overlap with the span into `out` (which holds `[off, off+out.len())`).
    fn fetch_run(
        &self,
        cache: &EngineCache,
        blocks: std::ops::Range<u64>,
        off: u64,
        out: &mut [u8],
        fill_cache: bool,
    ) -> Result<()> {
        let run_start = blocks.start * CACHE_BLOCK;
        let run_end = blocks.end * CACHE_BLOCK;
        if !fill_cache {
            let from = off.max(run_start);
            let to = (off + out.len() as u64).min(run_end);
            let dst = (from - off) as usize..(to - off) as usize;
            self.file.read_exact_at(from, &mut out[dst])?;
            return Ok(());
        }
        let mut buf = vec![0u8; run_end.min(self.file.len()).saturating_sub(run_start) as usize];
        self.file.read_exact_at(run_start, &mut buf)?;
        copy_overlap(out, off, &buf, run_start);
        if blocks.end - blocks.start == 1 {
            // A one-block run is already the block: cache it without a copy.
            cache
                .blocks()
                .insert(self.block_key(blocks.start), Arc::new(buf));
            return Ok(());
        }
        // Each block of a longer run is its own cache entry, so its bytes
        // are copied out of the shared read buffer once.
        for (b, slice) in blocks.zip(buf.chunks(CACHE_BLOCK as usize)) {
            cache
                .blocks()
                .insert(self.block_key(b), Arc::new(slice.to_vec()));
        }
        Ok(())
    }

    fn block_key(&self, block_no: u64) -> BlockKey {
        BlockKey {
            table_id: self.table_id,
            block_no,
        }
    }

    /// Lower-bound position of `key` within the fetched buffer of `count`
    /// fixed-width entries, using the configured strategy.
    fn lower_bound_in(&self, buf: &[u8], count: usize, key: u64) -> usize {
        let key_at = |i: usize| format::decode_entry_key(&buf[i * self.entry_width..]);
        match self.search {
            SearchStrategy::Binary => {
                let mut lo = 0usize;
                let mut hi = count;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key_at(mid) < key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            SearchStrategy::Exponential => {
                // Gallop outward from the centre (the model's prediction sits
                // at the centre of the fetched boundary by construction).
                if count == 0 {
                    return 0;
                }
                let start = count / 2;
                let (mut lo, mut hi);
                if key_at(start) < key {
                    // Bracket to the right: [start+step/2, start+step].
                    let mut step = 1usize;
                    while start + step < count && key_at(start + step) < key {
                        step *= 2;
                    }
                    lo = start + step / 2;
                    hi = (start + step + 1).min(count);
                } else {
                    // Bracket to the left.
                    let mut step = 1usize;
                    while step <= start && key_at(start - step) >= key {
                        step *= 2;
                    }
                    lo = start.saturating_sub(step);
                    hi = start + 1;
                }
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key_at(mid) < key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    /// Search the fetched fixed-width entries for `key`.
    fn search_buffer(
        &self,
        buf: &[u8],
        bound: SearchBound,
        key: u64,
        snapshot: SeqNo,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let count = bound.hi - bound.lo;
        let lo = self.lower_bound_in(buf, count, key);
        if lo >= count {
            return Ok(None);
        }
        let off = lo * self.entry_width;
        let k = format::decode_entry_key(&buf[off..]);
        if k != key {
            return Ok(None);
        }
        let entry = format::decode_entry(&buf[off..], self.value_width)?;
        if entry.key.seq > snapshot {
            // The only version in this table is newer than the snapshot.
            return Ok(None);
        }
        Ok(Some(match entry.key.kind {
            crate::types::EntryKind::Put => Some(entry.value),
            crate::types::EntryKind::Delete => None,
        }))
    }

    /// Position of the first entry with user key ≥ `key` (= `n` if none),
    /// resolved with one index prediction + one bounded read.
    pub fn seek_position(&self, key: u64) -> Result<usize> {
        self.seek_position_opts(key, true)
    }

    /// [`TableReader::seek_position`] with an explicit cache fill policy.
    pub fn seek_position_opts(&self, key: u64, fill_cache: bool) -> Result<usize> {
        if self.n == 0 || key <= self.min_key {
            return Ok(0);
        }
        if key > self.max_key {
            return Ok(self.n);
        }
        let bound = self.index.predict(key);
        let buf = self.read_positions_opts(bound, fill_cache)?;
        let count = bound.hi - bound.lo;
        let lo = self.lower_bound_in(buf.as_slice(), count, key);
        let mut pos = bound.lo + lo;
        // The learned bound contains the insertion point for absent keys at
        // its edge in rare rounding cases; walk forward defensively.
        if lo == count {
            while pos < self.n && self.key_at(pos)? < key {
                pos += 1;
            }
        }
        Ok(pos)
    }

    /// Read the user key of the entry at `pos` (one small read).
    pub fn key_at(&self, pos: usize) -> Result<u64> {
        debug_assert!(pos < self.n);
        let mut kb = [0u8; lsm_workloads::KEY_LEN];
        self.file
            .read_exact_at((pos * self.entry_width) as u64, &mut kb)?;
        Ok(format::decode_entry_key(&kb))
    }

    /// Read the full entry at `pos`.
    pub fn entry_at(&self, pos: usize) -> Result<Entry> {
        let mut buf = vec![0u8; self.entry_width];
        self.file
            .read_exact_at((pos * self.entry_width) as u64, &mut buf)?;
        format::decode_entry(&buf, self.value_width)
    }

    /// Read entries `[lo, hi)` with one pread (compaction / range scans).
    pub fn entries_in(&self, lo: usize, hi: usize) -> Result<Vec<Entry>> {
        self.entries_in_opts(lo, hi, true)
    }

    /// [`TableReader::entries_in`] with an explicit cache fill policy —
    /// compaction inputs and opt-out scans read with `fill_cache = false`.
    pub fn entries_in_opts(&self, lo: usize, hi: usize, fill_cache: bool) -> Result<Vec<Entry>> {
        let hi = hi.min(self.n);
        if lo >= hi {
            return Ok(Vec::new());
        }
        let buf = self.read_positions_opts(SearchBound { lo, hi }, fill_cache)?;
        let mut out = Vec::with_capacity(hi - lo);
        for i in 0..hi - lo {
            out.push(format::decode_entry(
                &buf[i * self.entry_width..],
                self.value_width,
            )?);
        }
        Ok(out)
    }

    /// All user keys, read sequentially (used to train level-grained
    /// models). A one-shot full-table sweep: it never fills the block
    /// cache — training a model must not evict the read working set.
    pub fn read_all_keys(&self) -> Result<Vec<u64>> {
        let mut keys = Vec::with_capacity(self.n);
        const CHUNK_ENTRIES: usize = 4096;
        let mut pos = 0usize;
        while pos < self.n {
            let hi = (pos + CHUNK_ENTRIES).min(self.n);
            let buf = self.read_positions_opts(SearchBound { lo: pos, hi }, false)?;
            for i in 0..hi - pos {
                keys.push(format::decode_entry_key(&buf[i * self.entry_width..]));
            }
            pos = hi;
        }
        Ok(keys)
    }
}

impl Drop for TableReader {
    fn drop(&mut self) {
        if let Some(cache) = &self.cache {
            cache.release_table(self.pinned_bytes);
        }
    }
}

/// Copy the overlap of `src` (the file bytes from `src_start`) into `out`
/// (the file bytes from `off`).
fn copy_overlap(out: &mut [u8], off: u64, src: &[u8], src_start: u64) {
    let from = off.max(src_start);
    let to = (off + out.len() as u64).min(src_start + src.len() as u64);
    if from < to {
        let src = &src[(from - src_start) as usize..(to - src_start) as usize];
        out[(from - off) as usize..(to - off) as usize].copy_from_slice(src);
    }
}

/// Sequential cursor over one table, fetching one I/O block's worth of
/// entries at a time (the paper's range-lookup implementation reads one
/// 4096-byte block per step).
pub struct TableIter {
    reader: Arc<TableReader>,
    pos: usize,
    chunk: Vec<Entry>,
    chunk_start: usize,
    /// Entries fetched per refill.
    chunk_entries: usize,
    /// Whether this cursor's reads may populate the block cache
    /// (`ReadOptions::fill_cache`; compaction inputs always read no-fill).
    fill_cache: bool,
}

impl TableIter {
    /// New iterator positioned before the first entry (cache-filling).
    pub fn new(reader: Arc<TableReader>) -> Self {
        Self::with_fill(reader, true)
    }

    /// New iterator with an explicit cache fill policy.
    pub fn with_fill(reader: Arc<TableReader>, fill_cache: bool) -> Self {
        let chunk_entries = (4096 / reader.entry_width).max(1);
        Self {
            reader,
            pos: 0,
            chunk: Vec::new(),
            chunk_start: 0,
            chunk_entries,
            fill_cache,
        }
    }

    /// Position at the first entry with user key ≥ `key`.
    pub fn seek(&mut self, key: u64) -> Result<()> {
        self.pos = self.reader.seek_position_opts(key, self.fill_cache)?;
        self.chunk.clear();
        Ok(())
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.pos = 0;
        self.chunk.clear();
    }

    /// Current entry, refilling the block buffer as needed; `None` at EOF.
    pub fn current(&mut self) -> Result<Option<&Entry>> {
        if self.pos >= self.reader.len() {
            return Ok(None);
        }
        let in_chunk = self.pos.wrapping_sub(self.chunk_start);
        if self.chunk.is_empty() || in_chunk >= self.chunk.len() {
            let hi = (self.pos + self.chunk_entries).min(self.reader.len());
            self.chunk = self.reader.entries_in_opts(self.pos, hi, self.fill_cache)?;
            self.chunk_start = self.pos;
        }
        Ok(self.chunk.get(self.pos - self.chunk_start))
    }

    /// Advance one entry.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Entries remaining from the current position.
    pub fn remaining(&self) -> usize {
        self.reader.len().saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexChoice;
    use crate::sstable::builder::TableBuilder;
    use lsm_io::{CostModel, IoStatsSnapshot, MemStorage, SimStorage};

    fn make_table(keys: &[u64], kind: IndexKind) -> (MemStorage, Arc<TableReader>) {
        let storage = MemStorage::new();
        let file = storage.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, "t.sst".into(), IndexChoice::new(kind, 8), 24, 10);
        for (i, &k) in keys.iter().enumerate() {
            let v = format!("val-{k}");
            b.add(&Entry::put(k, i as u64 + 1, v.into_bytes())).unwrap();
        }
        b.finish().unwrap();
        let reader = Arc::new(TableReader::open(&storage, "t.sst").unwrap());
        (storage, reader)
    }

    #[test]
    fn get_finds_every_key_for_every_index_kind() {
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 7 + 1).collect();
        for kind in IndexKind::ALL {
            let (_s, r) = make_table(&keys, kind);
            let stats = DbStats::new();
            for &k in keys.iter().step_by(13) {
                let got = r.get(k, u64::MAX >> 8, &stats).unwrap();
                assert_eq!(
                    got,
                    Some(Some(format!("val-{k}").into_bytes())),
                    "{kind} key={k}"
                );
            }
            // Absent keys.
            assert_eq!(r.get(3, u64::MAX >> 8, &stats).unwrap(), None, "{kind}");
            assert_eq!(
                r.get(1_000_000, u64::MAX >> 8, &stats).unwrap(),
                None,
                "{kind}"
            );
        }
    }

    #[test]
    fn snapshot_hides_newer_version() {
        let keys = [10u64, 20, 30];
        let (_s, r) = make_table(&keys, IndexKind::Plr);
        let stats = DbStats::new();
        // Entries were written with seq = pos + 1.
        assert_eq!(r.get(20, 1, &stats).unwrap(), None, "seq 2 > snapshot 1");
        assert!(r.get(20, 2, &stats).unwrap().is_some());
    }

    #[test]
    fn tombstones_visible() {
        let storage = MemStorage::new();
        let file = storage.create("t").unwrap();
        let mut b = TableBuilder::new(file, "t".into(), IndexChoice::default(), 16, 10);
        b.add(&Entry::put(1, 5, b"a".to_vec())).unwrap();
        b.add(&Entry::tombstone(2, 6)).unwrap();
        b.finish().unwrap();
        let r = TableReader::open(&storage, "t").unwrap();
        let stats = DbStats::new();
        assert_eq!(r.get(2, u64::MAX >> 8, &stats).unwrap(), Some(None));
        assert_eq!(
            r.get(1, u64::MAX >> 8, &stats).unwrap(),
            Some(Some(b"a".to_vec()))
        );
    }

    #[test]
    fn seek_position_matches_partition_point() {
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * 10).collect();
        for kind in [IndexKind::Pgm, IndexKind::FencePointers, IndexKind::Rmi] {
            let (_s, r) = make_table(&keys, kind);
            for probe in [0u64, 5, 10, 29_990, 29_995, 30_000, 123_456] {
                let want = keys.partition_point(|&k| k < probe);
                assert_eq!(
                    r.seek_position(probe).unwrap(),
                    want,
                    "{kind} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn iterator_scans_in_order() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let (_s, r) = make_table(&keys, IndexKind::RadixSpline);
        let mut it = TableIter::new(r);
        it.seek_to_first();
        let mut seen = Vec::new();
        while let Some(e) = it.current().unwrap() {
            seen.push(e.key.user_key);
            it.advance();
        }
        assert_eq!(seen, keys);
    }

    #[test]
    fn iterator_seek_mid_stream() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let (_s, r) = make_table(&keys, IndexKind::Plex);
        let mut it = TableIter::new(r);
        it.seek(100).unwrap(); // between 99 and 102
        let first = it.current().unwrap().unwrap().key.user_key;
        assert_eq!(first, 102);
        assert_eq!(it.remaining(), 500 - 34);
    }

    #[test]
    fn read_all_keys_roundtrip() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 13 + 5).collect();
        let (_s, r) = make_table(&keys, IndexKind::Pgm);
        assert_eq!(r.read_all_keys().unwrap(), keys);
    }

    #[test]
    fn corrupt_file_rejected() {
        let storage = MemStorage::new();
        let mut f = storage.create("bad").unwrap();
        f.append(&[0u8; 50]).unwrap();
        drop(f);
        assert!(TableReader::open(&storage, "bad").is_err());
    }

    /// A table on a cost-charging device, optionally read through `cache`.
    fn sim_table(kind: IndexKind, cache: Option<Arc<EngineCache>>) -> (SimStorage, TableReader) {
        let storage = SimStorage::new(CostModel::default());
        let file = storage.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, "t.sst".into(), IndexChoice::new(kind, 8), 24, 10);
        for k in 0..2_000u64 {
            b.add(&Entry::put(k * 3, k + 1, format!("v{k}").into_bytes()))
                .unwrap();
        }
        b.finish().unwrap();
        let reader = TableReader::open_with(&storage, "t.sst", cache).unwrap();
        (storage, reader)
    }

    fn cached_sim_table(capacity: usize) -> (SimStorage, TableReader, Arc<EngineCache>) {
        let cache = Arc::new(EngineCache::new(capacity, 1, 16));
        let (storage, reader) = sim_table(IndexKind::Pgm, Some(Arc::clone(&cache)));
        (storage, reader, cache)
    }

    /// Run `f`, returning its result and the device traffic it caused.
    fn io_delta<T>(storage: &SimStorage, f: impl FnOnce() -> T) -> (T, IoStatsSnapshot) {
        let before = storage.stats().snapshot();
        let out = f();
        (out, storage.stats().snapshot().since(&before))
    }

    fn direct_read(r: &TableReader, off: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        r.file.read_exact_at(off, &mut buf).unwrap();
        buf
    }

    #[test]
    fn cold_span_with_fill_is_one_device_read() {
        let (storage, r, cache) = cached_sim_table(1 << 20);
        // Blocks 1, 2 and 3, unaligned at both ends.
        let (off, len) = (CACHE_BLOCK + 100, 2 * CACHE_BLOCK as usize);
        let (got, io) = io_delta(&storage, || {
            r.read_span_cached(&cache, off, len, true).unwrap()
        });
        assert_eq!((io.read_calls, io.read_blocks), (1, 3));
        let s = cache.stats();
        assert_eq!(
            (s.block_hits, s.block_misses, s.block_insertions),
            (0, 3, 3)
        );
        assert_eq!(s.block_used_bytes, 3 * CACHE_BLOCK);
        assert_eq!(got, direct_read(&r, off, len));
    }

    #[test]
    fn cached_middle_block_splits_the_span_into_two_reads() {
        let (storage, r, cache) = cached_sim_table(1 << 20);
        r.read_span_cached(&cache, 2 * CACHE_BLOCK + 10, 20, true)
            .unwrap();
        let before = cache.stats();
        let (off, len) = (CACHE_BLOCK + 100, 2 * CACHE_BLOCK as usize);
        let (got, io) = io_delta(&storage, || {
            r.read_span_cached(&cache, off, len, true).unwrap()
        });
        assert_eq!((io.read_calls, io.read_blocks), (2, 2));
        let s = cache.stats();
        assert_eq!(s.block_hits - before.block_hits, 1);
        assert_eq!(s.block_misses - before.block_misses, 2);
        assert_eq!(s.block_insertions - before.block_insertions, 2);
        assert_eq!(got, direct_read(&r, off, len));
    }

    #[test]
    fn cold_no_fill_read_costs_what_the_uncached_read_costs() {
        let (storage, r, cache) = cached_sim_table(1 << 20);
        let (plain_storage, plain) = sim_table(IndexKind::Pgm, None);
        let bound = SearchBound { lo: 80, hi: 300 };
        let (got, io) = io_delta(&storage, || r.read_positions_opts(bound, false).unwrap());
        let (want, plain_io) = io_delta(&plain_storage, || {
            plain.read_positions_opts(bound, false).unwrap()
        });
        assert_eq!(got, want);
        assert_eq!(io, plain_io);
        assert_eq!(io.read_calls, 1);
        let s = cache.stats();
        assert_eq!((s.block_insertions, s.block_used_bytes), (0, 0));
    }

    #[test]
    fn random_spans_match_direct_reads_for_every_index_kind() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (seed, kind) in IndexKind::ALL.into_iter().enumerate() {
            // Room for a handful of blocks beside the pinned index + bloom,
            // so spans mix hits, misses and evictions.
            let cache = Arc::new(EngineCache::new(64 << 10, 2, 16));
            let (_storage, r) = sim_table(kind, Some(Arc::clone(&cache)));
            let file_len = r.file.len();
            assert_ne!(file_len % CACHE_BLOCK, 0, "want a short last block");
            let mut rng = StdRng::seed_from_u64(seed as u64);
            for i in 0..300 {
                let off = if i % 10 == 0 {
                    // Reach into the file's short last block.
                    file_len - rng.gen_range(1..=CACHE_BLOCK + 50)
                } else {
                    rng.gen_range(0..file_len)
                };
                let len = rng.gen_range(1..=(file_len - off).min(3 * CACHE_BLOCK)) as usize;
                let fill = rng.gen_bool(0.5);
                let got = r.read_span_cached(&cache, off, len, fill).unwrap();
                assert_eq!(got, direct_read(&r, off, len), "{kind} off={off} len={len}");
            }
            let s = cache.stats();
            assert!(s.block_hits > 0 && s.block_evictions > 0, "{kind}: {s:?}");
        }
    }
}
