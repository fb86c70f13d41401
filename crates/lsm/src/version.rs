//! Level metadata: which tables live at which level.
//!
//! L0 holds whole flushed buffers (tables may overlap; searched newest
//! first). L1+ are sorted runs partitioned into non-overlapping tables,
//! located by binary search over key ranges. Versions are copy-on-write:
//! compactions build a new [`Version`] and swap it in, so readers never see
//! a half-applied edit.

use std::sync::Arc;

use crate::sstable::{TableMeta, TableReader};
use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::Result;

/// An open table plus its build metadata.
#[derive(Debug)]
pub struct TableHandle {
    pub meta: TableMeta,
    pub reader: Arc<TableReader>,
}

/// Immutable snapshot of the level structure.
#[derive(Debug, Clone)]
pub struct Version {
    /// `levels[0]` newest-first. Under leveling, `levels[1..]` are sorted by
    /// `min_key` and non-overlapping; under tiering every level is a stack
    /// of overlapping runs searched newest-first.
    pub levels: Vec<Vec<Arc<TableHandle>>>,
    /// Whether `levels[1..]` maintain the sorted non-overlapping invariant
    /// (false for tiering).
    pub sorted_levels: bool,
}

impl Version {
    /// Empty version with `max_levels` levels (leveling layout).
    pub fn new(max_levels: usize) -> Self {
        Self::with_layout(max_levels, true)
    }

    /// Empty version; `sorted_levels = false` for a tiering tree.
    pub fn with_layout(max_levels: usize, sorted_levels: bool) -> Self {
        Self {
            levels: vec![Vec::new(); max_levels.max(2)],
            sorted_levels,
        }
    }

    /// Point lookup through the levels (paper Figure 1): L0 newest→oldest,
    /// then one candidate table per deeper level.
    pub fn get(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
    ) -> Result<Option<Option<Vec<u8>>>> {
        self.get_opts(key, snapshot, stats, true)
    }

    /// [`Version::get`] with an explicit block-cache fill policy
    /// (`ReadOptions::fill_cache`).
    pub fn get_opts(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
        fill_cache: bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        // L0: tables may overlap; newest first.
        for t in &self.levels[0] {
            let started = stats.stage_start();
            if let Some(hit) = t.reader.get_opts(key, snapshot, stats, fill_cache)? {
                stats.record_level_read(0, DbStats::stage_ns(started));
                return Ok(Some(hit));
            }
        }
        if self.sorted_levels {
            // L1+: binary search for the single candidate table.
            for (level, tables) in self.levels.iter().enumerate().skip(1) {
                let t0 = stats.stage_start();
                let candidate = Self::locate(tables, key);
                DbStats::stage_end(&stats.table_locate_ns, t0);
                if let Some(t) = candidate {
                    let started = stats.stage_start();
                    if let Some(hit) = t.reader.get_opts(key, snapshot, stats, fill_cache)? {
                        stats.record_level_read(level, DbStats::stage_ns(started));
                        return Ok(Some(hit));
                    }
                }
            }
        } else {
            // Tiering: every run of every level may hold the key; newest
            // runs first.
            for (level, tables) in self.levels.iter().enumerate().skip(1) {
                for t in tables {
                    if key < t.meta.min_key || key > t.meta.max_key {
                        continue;
                    }
                    let started = stats.stage_start();
                    if let Some(hit) = t.reader.get_opts(key, snapshot, stats, fill_cache)? {
                        stats.record_level_read(level, DbStats::stage_ns(started));
                        return Ok(Some(hit));
                    }
                }
            }
        }
        Ok(None)
    }

    /// The table at a sorted level whose key range may contain `key`.
    pub fn locate(tables: &[Arc<TableHandle>], key: u64) -> Option<&Arc<TableHandle>> {
        if tables.is_empty() {
            return None;
        }
        let i = tables.partition_point(|t| t.meta.max_key < key);
        let t = tables.get(i)?;
        (t.meta.min_key <= key).then_some(t)
    }

    /// Tables at `level` overlapping `[min_key, max_key]`.
    pub fn overlapping(&self, level: usize, min_key: u64, max_key: u64) -> Vec<Arc<TableHandle>> {
        self.levels
            .get(level)
            .map(|tables| {
                tables
                    .iter()
                    .filter(|t| t.meta.min_key <= max_key && t.meta.max_key >= min_key)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// New version with `table` pushed onto the front of L0.
    pub fn with_l0_table(&self, table: Arc<TableHandle>) -> Version {
        let mut v = self.clone();
        v.levels[0].insert(0, table);
        v
    }

    /// New version where `removed` (by file name) disappear from `level` and
    /// `level + 1`, and `added` join `level + 1`. Under leveling the target
    /// level is re-sorted by min key; under tiering the new run stacks on
    /// top (newest first).
    pub fn with_compaction_applied(
        &self,
        level: usize,
        removed: &[String],
        added: Vec<Arc<TableHandle>>,
    ) -> Version {
        let mut v = self.clone();
        let is_removed = |t: &Arc<TableHandle>| removed.iter().any(|r| r == &t.meta.name);
        v.levels[level].retain(|t| !is_removed(t));
        v.levels[level + 1].retain(|t| !is_removed(t));
        if v.sorted_levels {
            v.levels[level + 1].extend(added);
            v.levels[level + 1].sort_by_key(|t| t.meta.min_key);
        } else {
            // The merged run is newer than everything already at the level.
            for (i, t) in added.into_iter().enumerate() {
                v.levels[level + 1].insert(i, t);
            }
        }
        v
    }

    /// Total bytes of tables at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|ts| ts.iter().map(|t| t.meta.file_bytes).sum())
            .unwrap_or(0)
    }

    /// Entries at `level`.
    pub fn level_entries(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|ts| ts.iter().map(|t| t.meta.n).sum())
            .unwrap_or(0)
    }

    /// Total in-memory index bytes across all tables (the memory axis).
    pub fn index_memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|t| t.reader.index_bytes())
            .sum()
    }

    /// Per-level in-memory index bytes.
    pub fn index_memory_by_level(&self) -> Vec<usize> {
        self.levels
            .iter()
            .map(|ts| ts.iter().map(|t| t.reader.index_bytes()).sum())
            .collect()
    }

    /// Total bloom filter bytes.
    pub fn bloom_memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|t| t.reader.bloom_bytes())
            .sum()
    }

    /// Number of tables across all levels.
    pub fn table_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Deepest non-empty level.
    pub fn deepest_level(&self) -> usize {
        self.levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, ts)| !ts.is_empty())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexChoice;
    use crate::sstable::TableBuilder;
    use crate::types::Entry;
    use learned_index::IndexKind;
    use lsm_io::{MemStorage, Storage};

    fn make_handle(
        storage: &MemStorage,
        name: &str,
        keys: std::ops::Range<u64>,
    ) -> Arc<TableHandle> {
        let file = storage.create(name).unwrap();
        let mut b = TableBuilder::new(
            file,
            name.into(),
            IndexChoice::new(IndexKind::Plr, 4),
            16,
            10,
        );
        for (i, k) in keys.enumerate() {
            b.add(&Entry::put(k, i as u64 + 1, b"v".to_vec())).unwrap();
        }
        let meta = b.finish().unwrap();
        let reader = Arc::new(TableReader::open(storage, name).unwrap());
        Arc::new(TableHandle { meta, reader })
    }

    #[test]
    fn locate_finds_covering_table() {
        let storage = MemStorage::new();
        let tables = vec![
            make_handle(&storage, "a", 0..100),
            make_handle(&storage, "b", 200..300),
            make_handle(&storage, "c", 400..500),
        ];
        assert_eq!(Version::locate(&tables, 50).unwrap().meta.name, "a");
        assert_eq!(Version::locate(&tables, 250).unwrap().meta.name, "b");
        assert_eq!(Version::locate(&tables, 499).unwrap().meta.name, "c");
        assert!(
            Version::locate(&tables, 150).is_none(),
            "gap between tables"
        );
        assert!(Version::locate(&tables, 600).is_none(), "past the end");
    }

    #[test]
    fn get_prefers_l0_over_deeper_levels() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        // Same key range at L0 (newer) and L1 (older values).
        v.levels[1].push(make_handle(&storage, "old", 0..50));
        let l0 = {
            let file = storage.create("new").unwrap();
            let mut b = TableBuilder::new(
                file,
                "new".into(),
                IndexChoice::new(IndexKind::Plr, 4),
                16,
                10,
            );
            b.add(&Entry::put(10, 1000, b"newest".to_vec())).unwrap();
            let meta = b.finish().unwrap();
            Arc::new(TableHandle {
                meta,
                reader: Arc::new(TableReader::open(&storage, "new").unwrap()),
            })
        };
        v.levels[0].push(l0);
        let stats = DbStats::new();
        let got = v.get(10, u64::MAX >> 8, &stats).unwrap();
        assert_eq!(got, Some(Some(b"newest".to_vec())));
        assert_eq!(stats.snapshot().level_reads[0], 1);
    }

    #[test]
    fn overlapping_selects_by_range() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        v.levels[1] = vec![
            make_handle(&storage, "a", 0..100),
            make_handle(&storage, "b", 200..300),
            make_handle(&storage, "c", 400..500),
        ];
        let hits = v.overlapping(1, 90, 250);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].meta.name, "a");
        assert_eq!(hits[1].meta.name, "b");
        assert!(v.overlapping(1, 150, 160).is_empty());
    }

    #[test]
    fn compaction_edit_replaces_tables() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        v.levels[1] = vec![make_handle(&storage, "in1", 0..100)];
        v.levels[2] = vec![make_handle(&storage, "in2", 0..150)];
        let out = make_handle(&storage, "out", 0..150);
        let v2 = v.with_compaction_applied(1, &["in1".into(), "in2".into()], vec![out]);
        assert!(v2.levels[1].is_empty());
        assert_eq!(v2.levels[2].len(), 1);
        assert_eq!(v2.levels[2][0].meta.name, "out");
        // Original untouched (copy-on-write).
        assert_eq!(v.levels[1].len(), 1);
        assert_eq!(v2.deepest_level(), 2);
    }

    #[test]
    fn memory_accounting_sums_tables() {
        let storage = MemStorage::new();
        let mut v = Version::new(3);
        v.levels[1] = vec![
            make_handle(&storage, "a", 0..1000),
            make_handle(&storage, "b", 2000..3000),
        ];
        assert!(v.index_memory_bytes() > 0);
        assert!(v.bloom_memory_bytes() >= 2 * 1000 * 10 / 8);
        assert_eq!(v.table_count(), 2);
        assert_eq!(v.level_entries(1), 2000);
        let by_level = v.index_memory_by_level();
        assert_eq!(by_level[0], 0);
        assert_eq!(by_level[1], v.index_memory_bytes());
    }
}
