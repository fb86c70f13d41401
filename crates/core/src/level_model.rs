//! Level-grained learned indexes (paper Section 5.2, Figure 8's "L" point;
//! Bourbon's `LevelModel`).
//!
//! Instead of one model per SSTable, one model covers a whole sorted level:
//! the index is trained over the concatenation of all the level's keys and
//! predicts a *global* position, which a cumulative-count table maps back to
//! `(table, local position range)`. Fewer, larger models mean far less
//! memory (the paper reports >10× savings from 8 MiB SSTables to the level
//! model) at identical lookup latency.

use std::sync::Arc;

use learned_index::{IndexConfig, IndexKind, SegmentIndex};
use lsm_tree::sstable::TableReader;
use lsm_tree::stats::DbStats;
use lsm_tree::types::SeqNo;
use lsm_tree::Result;

/// One learned index spanning a whole sorted level.
pub struct LevelModel {
    index: Box<dyn SegmentIndex>,
    /// `cum[i]` = number of entries in tables `0..i`; `cum.len() = tables+1`.
    cum: Vec<usize>,
    tables: Vec<Arc<TableReader>>,
}

impl LevelModel {
    /// Train a level model over `tables` (sorted, non-overlapping). Reads
    /// every key of the level once — this is the training cost the level
    /// granularity trades for its memory savings.
    pub fn build(
        tables: Vec<Arc<TableReader>>,
        kind: IndexKind,
        config: &IndexConfig,
    ) -> Result<LevelModel> {
        debug_assert!(tables.windows(2).all(|w| w[0].max_key() < w[1].min_key()));
        let total: usize = tables.iter().map(|t| t.len()).sum();
        let mut keys = Vec::with_capacity(total);
        let mut cum = Vec::with_capacity(tables.len() + 1);
        cum.push(0);
        for t in &tables {
            keys.extend(t.read_all_keys()?);
            cum.push(keys.len());
        }
        let index = kind.build(&keys, config);
        Ok(LevelModel { index, cum, tables })
    }

    /// Point lookup through the level model: predict a global range, split
    /// it across the (at most two) tables it touches, and search each.
    pub fn get(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
    ) -> Result<Option<Option<Vec<u8>>>> {
        if self.tables.is_empty() {
            return Ok(None);
        }
        let t0 = stats.stage_start();
        let bound = self.index.predict(key);
        DbStats::stage_end(&stats.predict_ns, t0);
        if bound.is_empty() {
            return Ok(None);
        }
        // Tables overlapped by [bound.lo, bound.hi).
        let first = self.cum.partition_point(|&c| c <= bound.lo) - 1;
        for (i, t) in self.tables.iter().enumerate().skip(first) {
            let table_start = self.cum[i];
            let table_end = self.cum[i + 1];
            if table_start >= bound.hi {
                break;
            }
            let lo = bound.lo.max(table_start) - table_start;
            let hi = bound.hi.min(table_end) - table_start;
            if lo >= hi {
                continue;
            }
            if let Some(hit) = t.get_in_positions(key, lo, hi, snapshot, stats)? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// In-memory footprint: the model plus the cumulative table.
    pub fn size_bytes(&self) -> usize {
        self.index.size_bytes() + self.cum.len() * 8
    }

    /// Number of keys covered.
    pub fn key_count(&self) -> usize {
        *self.cum.last().unwrap_or(&0)
    }

    /// Number of tables covered.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Index kind in use.
    pub fn kind(&self) -> IndexKind {
        self.index.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_io::{MemStorage, Storage};
    use lsm_tree::sstable::TableBuilder;
    use lsm_tree::types::Entry;
    use lsm_tree::IndexChoice;

    fn table(storage: &MemStorage, name: &str, keys: &[u64]) -> Arc<TableReader> {
        let file = storage.create(name).unwrap();
        let mut b = TableBuilder::new(
            file,
            name.into(),
            IndexChoice::new(IndexKind::Plr, 8),
            16,
            10,
        );
        for (i, &k) in keys.iter().enumerate() {
            b.add(&Entry::put(k, i as u64 + 1, format!("v{k}").into_bytes()))
                .unwrap();
        }
        b.finish().unwrap();
        Arc::new(TableReader::open(storage, name).unwrap())
    }

    fn three_table_level(storage: &MemStorage) -> (Vec<Arc<TableReader>>, Vec<u64>) {
        let a: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let b: Vec<u64> = (1000..2000u64).map(|i| i * 3).collect();
        let c: Vec<u64> = (2000..3000u64).map(|i| i * 3).collect();
        let tables = vec![
            table(storage, "a", &a),
            table(storage, "b", &b),
            table(storage, "c", &c),
        ];
        let all: Vec<u64> = a.into_iter().chain(b).chain(c).collect();
        (tables, all)
    }

    #[test]
    fn finds_keys_across_table_boundaries() {
        let storage = MemStorage::new();
        let (tables, all) = three_table_level(&storage);
        for kind in [IndexKind::Pgm, IndexKind::Rmi, IndexKind::FencePointers] {
            let m = LevelModel::build(tables.clone(), kind, &IndexConfig::default()).unwrap();
            let stats = DbStats::new();
            for &k in all.iter().step_by(53) {
                let got = m.get(k, u64::MAX >> 8, &stats).unwrap();
                assert_eq!(
                    got,
                    Some(Some(format!("v{k}").into_bytes())),
                    "{kind} key {k}"
                );
            }
            assert_eq!(m.get(1, u64::MAX >> 8, &stats).unwrap(), None, "{kind}");
            assert_eq!(m.key_count(), 3000);
            assert_eq!(m.table_count(), 3);
        }
    }

    #[test]
    fn level_model_uses_less_memory_than_per_table() {
        let storage = MemStorage::new();
        let (tables, _) = three_table_level(&storage);
        let per_table: usize = tables.iter().map(|t| t.index_bytes()).sum();
        let m = LevelModel::build(tables, IndexKind::Plr, &IndexConfig::default()).unwrap();
        assert!(
            m.size_bytes() < per_table,
            "level model {} must beat per-table {}",
            m.size_bytes(),
            per_table
        );
    }

    #[test]
    fn empty_level() {
        let m = LevelModel::build(vec![], IndexKind::Pgm, &IndexConfig::default()).unwrap();
        let stats = DbStats::new();
        assert_eq!(m.get(5, u64::MAX >> 8, &stats).unwrap(), None);
        assert_eq!(m.key_count(), 0);
    }

    #[test]
    fn bound_straddling_two_tables_is_searched_in_both() {
        let storage = MemStorage::new();
        // Tiny tables so a 2ε window spans a boundary.
        let a: Vec<u64> = (0..20u64).collect();
        let b: Vec<u64> = (20..40u64).collect();
        let tables = vec![table(&storage, "a", &a), table(&storage, "b", &b)];
        let config = IndexConfig {
            epsilon: 16,
            ..IndexConfig::default()
        };
        let m = LevelModel::build(tables, IndexKind::FencePointers, &config).unwrap();
        let stats = DbStats::new();
        for k in 0..40u64 {
            assert!(
                m.get(k, u64::MAX >> 8, &stats).unwrap().is_some(),
                "key {k}"
            );
        }
    }
}
