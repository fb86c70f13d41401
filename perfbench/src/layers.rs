//! The traced run's per-layer ledger.
//!
//! Per-layer numbers come from two sources, both outside the engine:
//! diffs of the engine's public counters (`StatsSnapshot` with the cache
//! absorbed, and the storage's `IoStats`) over a window, and timed calls
//! into a module's public functions made by the benchmark itself
//! (`SegmentIndex::predict`, `IndexKind::build`, `Db::version`,
//! `WalWriter::append_batch`, `MemTable::put`). Every traced run prints
//! every name in [`LAYER_METRICS`]; a layer the workload does not
//! exercise reads 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use learned_index::SearchBound;
use lsm_io::{IoStatsSnapshot, Storage};
use lsm_tree::memtable::MemTable;
use lsm_tree::sstable::TableReader;
use lsm_tree::stats::MAX_LEVELS;
use lsm_tree::types::MAX_SEQ;
use lsm_tree::version::Version;
use lsm_tree::wal::WalWriter;
use lsm_tree::{BatchOp, Db, DbStats, EntryKind, Options, StatsSnapshot};

use crate::util::{mean_ns_per_call, metric, ratio, sim_storage, Metric};

/// Every per-layer metric, with its unit, in print order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("learned.predict_ns", "ns"),
    ("learned.bound_entries", "entries"),
    ("learned.build_ns_per_key", "ns"),
    ("version.locate_ns", "ns"),
    ("version.levels_probed_per_get", "count"),
    ("bloom.useful_ratio", "ratio"),
    ("sstable.probes_per_get", "count"),
    ("sstable.probe_hit_ratio", "ratio"),
    ("sstable.fetch_ns", "ns"),
    ("sstable.search_ns", "ns"),
    ("cache.block_hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("io.read_calls_per_op", "count"),
    ("io.read_blocks_per_op", "count"),
    ("io.write_bytes_per_user_byte", "ratio"),
    ("db.view_ns", "ns"),
    ("db.memtable_hit_ratio", "ratio"),
    ("db.stall_ms", "ms"),
    ("db.stalls", "count"),
    ("db.imm_queue_peak", "count"),
    ("db.flush_busy_ms", "ms"),
    ("db.get_p50_us", "us"),
    ("db.write_p50_us", "us"),
    ("db.unattributed_ns", "ns"),
    ("wal.bytes_per_put", "B"),
    ("wal.append_ns", "ns"),
    ("wal.group_fusion", "ratio"),
    ("memtable.insert_ns", "ns"),
    ("compaction.count", "count"),
    ("compaction.busy_ms", "ms"),
    ("compaction.train_ms", "ms"),
    ("compaction.train_share", "ratio"),
    ("compaction.kv_io_ms", "ms"),
    ("compaction.bytes_written_per_user_byte", "ratio"),
    ("server.serve_p99_us", "us"),
    ("server.gen_late_p50_us", "us"),
    ("server.gen_late_p99_us", "us"),
    ("server.sojourn_p50_us", "us"),
    ("server.sojourn_p99_us", "us"),
    ("server.rtt_idle_p50_us", "us"),
    ("server.queue_p50_us", "us"),
    ("server.shed_ratio", "ratio"),
    ("protocol.codec_ns", "ns"),
    ("sharding.route_ns", "ns"),
    ("sharding.imbalance", "ratio"),
];

/// Per-layer values of one traced pass, keyed by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every layer metric in [`LAYER_METRICS`] order; unmeasured ones are 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| metric(name, self.get(name), unit))
            .collect()
    }
}

/// Engine and device counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub stats: StatsSnapshot,
    pub io: IoStatsSnapshot,
}

impl Counters {
    /// A standalone `Db`: its stats with its own cache folded in.
    pub fn of_db(db: &Db, storage: &dyn Storage) -> Counters {
        let mut stats = db.stats().snapshot();
        if let Some(cache) = db.block_cache() {
            stats.absorb_cache(&cache.stats());
        }
        Counters {
            stats,
            io: storage.stats().snapshot(),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            stats: self.stats.since(&earlier.stats),
            io: self.io.since(&earlier.io),
        }
    }
}

/// Read-path layers over a window in which `ops` workload operations ran.
pub fn read_path(layers: &mut Layers, w: &Counters, ops: u64) {
    let s = &w.stats;
    let lookups = s.lookups as f64;
    let probes = s.bloom_checks.saturating_sub(s.bloom_negatives) as f64;
    let table_hits: u64 = s.level_reads.iter().sum();
    let level_depth: u64 = (0..MAX_LEVELS)
        .map(|l| (l as u64 + 1) * s.level_reads[l])
        .sum();
    let ops = ops as f64;
    layers.set(
        "version.locate_ns",
        ratio(s.table_locate_ns as f64, lookups),
    );
    layers.set(
        "version.levels_probed_per_get",
        ratio(level_depth as f64, table_hits as f64),
    );
    layers.set(
        "bloom.useful_ratio",
        ratio(s.bloom_negatives as f64, s.bloom_checks as f64),
    );
    layers.set("sstable.probes_per_get", ratio(probes, lookups));
    layers.set("sstable.probe_hit_ratio", ratio(table_hits as f64, probes));
    layers.set("sstable.fetch_ns", ratio(s.io_cpu_ns as f64, probes));
    layers.set("sstable.search_ns", ratio(s.search_ns as f64, probes));
    layers.set(
        "cache.block_hit_ratio",
        ratio(
            s.cache_block_hits as f64,
            (s.cache_block_hits + s.cache_block_misses) as f64,
        ),
    );
    layers.set(
        "cache.evictions_per_op",
        ratio(s.cache_block_evictions as f64, ops),
    );
    layers.set("io.read_calls_per_op", ratio(w.io.read_calls as f64, ops));
    layers.set("io.read_blocks_per_op", ratio(w.io.read_blocks as f64, ops));
    layers.set(
        "db.memtable_hit_ratio",
        ratio(s.memtable_hits as f64, lookups),
    );
}

/// Write-path and maintenance layers over a window in which
/// `user_bytes` of user data were put.
pub fn write_path(layers: &mut Layers, w: &Counters, user_bytes: u64) {
    let s = &w.stats;
    let user = user_bytes as f64;
    layers.set(
        "io.write_bytes_per_user_byte",
        ratio(w.io.write_bytes as f64, user),
    );
    layers.set("db.stall_ms", s.stall_ns as f64 / 1e6);
    layers.set("db.stalls", (s.stall_slowdowns + s.stall_stops) as f64);
    layers.set("db.imm_queue_peak", s.imm_queue_peak as f64);
    layers.set("db.flush_busy_ms", s.bg_flush_ns as f64 / 1e6);
    layers.set(
        "wal.bytes_per_put",
        ratio(s.wal_bytes as f64, s.write_entries as f64),
    );
    layers.set(
        "wal.group_fusion",
        ratio(s.write_batches as f64, s.write_groups as f64),
    );
    layers.set("compaction.count", s.compactions as f64);
    layers.set("compaction.busy_ms", s.compact_total_ns as f64 / 1e6);
    layers.set("compaction.train_ms", s.compact_train_ns as f64 / 1e6);
    layers.set(
        "compaction.train_share",
        ratio(s.compact_train_ns as f64, s.compact_total_ns as f64),
    );
    layers.set("compaction.kv_io_ms", s.compact_kv_io_ns as f64 / 1e6);
    layers.set(
        "compaction.bytes_written_per_user_byte",
        ratio(s.compact_bytes_written as f64, user),
    );
}

/// The table that serves `key` in `version` (the one `Version::get`
/// would stop at), found with the same walk: L0 newest first, then the
/// one candidate per sorted level.
fn home_table(version: &Version, key: u64) -> Option<Arc<TableReader>> {
    let unused_stats = DbStats::new();
    let holds = |t: &Arc<TableReader>| matches!(t.get(key, MAX_SEQ, &unused_stats), Ok(Some(_)));
    for t in &version.levels[0] {
        if holds(&t.reader) {
            return Some(Arc::clone(&t.reader));
        }
    }
    for tables in version.levels.iter().skip(1) {
        if let Some(t) = Version::locate(tables, key) {
            if holds(&t.reader) {
                return Some(Arc::clone(&t.reader));
            }
        }
    }
    None
}

/// `learned.predict_ns` and `learned.bound_entries`: `SegmentIndex::predict`
/// on each key's home table, and the mean width of the bound it returns.
pub fn learned_predict(layers: &mut Layers, version: &Version, keys: &[u64]) {
    let homes: Vec<(Arc<TableReader>, u64)> = keys
        .iter()
        .filter_map(|&k| home_table(version, k).map(|t| (t, k)))
        .collect();
    let mut entries = 0u64;
    let ns = mean_ns_per_call(&homes, |(t, k)| {
        let bound: SearchBound = t.index().predict(black_box(*k));
        entries += black_box(bound).len() as u64;
    });
    layers.set("learned.predict_ns", ns);
    layers.set(
        "learned.bound_entries",
        ratio(entries as f64, homes.len() as f64),
    );
}

/// `learned.build_ns_per_key`: `IndexKind::build` over table-sized runs
/// of `sorted_keys` with the workload's index settings.
pub fn learned_build(layers: &mut Layers, opts: &Options, sorted_keys: &[u64]) {
    let runs: Vec<&[u64]> = sorted_keys
        .chunks(opts.entries_per_table())
        .take(32)
        .collect();
    let keys: usize = runs.iter().map(|r| r.len()).sum();
    let ns = mean_ns_per_call(&runs, |run| {
        black_box(opts.index.kind.build(black_box(run), &opts.index.config));
    });
    layers.set(
        "learned.build_ns_per_key",
        ratio(ns * runs.len() as f64, keys as f64),
    );
}

/// `db.view_ns`: one `Db::version()` call (the read view a get pins).
pub fn db_view(layers: &mut Layers, db: &Db) {
    let calls = vec![(); 20_000];
    let ns = mean_ns_per_call(&calls, |_| {
        black_box(db.version());
    });
    layers.set("db.view_ns", ns);
}

/// `wal.append_ns` and `memtable.insert_ns`: the put stream replayed one
/// op at a time into a fresh `WalWriter` (on a simulated device) and into
/// `MemTable`s of `write_buffer_bytes`.
pub fn write_stages(
    layers: &mut Layers,
    puts: &[(u64, Vec<u8>)],
    write_buffer_bytes: usize,
) -> Result<(), String> {
    let storage = sim_storage();
    let mut wal = WalWriter::create(storage.as_ref(), "replay.wal").map_err(|e| e.to_string())?;
    let ops: Vec<[BatchOp; 1]> = puts
        .iter()
        .map(|(key, value)| {
            [BatchOp {
                kind: EntryKind::Put,
                key: *key,
                value: value.clone(),
            }]
        })
        .collect();
    let mut seq = 0u64;
    let mut failed = None;
    let ns = mean_ns_per_call(&ops, |op| {
        seq += 1;
        if let Err(e) = wal.append_batch(seq, op) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("wal replay: {e}"));
    }
    layers.set("wal.append_ns", ns);

    // Rotate at the write-buffer size, as the engine does, so inserts see
    // memtables of the engine's size; full ones are dropped after timing.
    let mut full = Vec::new();
    let mut mem = MemTable::new();
    let mut seq = 0u64;
    let ns = mean_ns_per_call(puts, |(key, value)| {
        if mem.approximate_bytes() >= write_buffer_bytes {
            full.push(std::mem::replace(&mut mem, MemTable::new()));
        }
        seq += 1;
        mem.put(*key, seq, value);
    });
    drop(full);
    layers.set("memtable.insert_ns", ns);
    Ok(())
}
