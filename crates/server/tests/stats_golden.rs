//! Golden test of the two counter surfaces on a fixed, deterministic
//! workload: the METRICS counters (`StatsSnapshot::counter_pairs`, in
//! order) of a Synchronous `Db` and of a 2-shard `ShardedDb`, and the
//! STATS JSON of that `ShardedDb` (key set and values; key order is free).
//!
//! Timing counters (names ending in `_ns`) vary run to run, so only their
//! names and positions are pinned; every other value is exact.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_server::{Client, MemTransport, Server, ServerOptions};
use lsm_tree::sharding::ShardedDb;
use lsm_tree::{Db, Options, ShardedOptions};
use serde_json::Value;

/// The engine calls the workload needs, shared by `Db` and `ShardedDb`.
trait Engine {
    fn put(&self, key: u64, value: &[u8]);
    fn put_batch(&self, pairs: &[(u64, Vec<u8>)]);
    fn delete(&self, key: u64);
    fn get(&self, key: u64) -> bool;
    fn scan(&self, start: u64, limit: usize) -> usize;
    fn flush(&self);
}

macro_rules! engine {
    ($t:ty) => {
        impl Engine for $t {
            fn put(&self, key: u64, value: &[u8]) {
                <$t>::put(self, key, value).unwrap()
            }
            fn put_batch(&self, pairs: &[(u64, Vec<u8>)]) {
                <$t>::put_batch(self, pairs).unwrap()
            }
            fn delete(&self, key: u64) {
                <$t>::delete(self, key).unwrap()
            }
            fn get(&self, key: u64) -> bool {
                <$t>::get(self, key).unwrap().is_some()
            }
            fn scan(&self, start: u64, limit: usize) -> usize {
                <$t>::scan(self, start, limit).unwrap().len()
            }
            fn flush(&self) {
                <$t>::flush(self).unwrap()
            }
        }
    };
}
engine!(Db);
engine!(ShardedDb);

fn key(i: u64) -> u64 {
    i.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF
}

fn options() -> Options {
    let mut o = Options::small_for_tests();
    o.block_cache_bytes = 64 << 10;
    o
}

/// Batched and single puts, deletes, a flush, hits and misses, scans.
fn drive(db: &impl Engine) {
    let value = |i: u64| vec![i as u8; 24];
    for chunk in 0..200u64 {
        let pairs: Vec<(u64, Vec<u8>)> = (chunk * 10..chunk * 10 + 10)
            .map(|i| (key(i), value(i)))
            .collect();
        db.put_batch(&pairs);
    }
    for i in 2000..3000u64 {
        db.put(key(i), &value(i));
    }
    for i in (0..3000u64).step_by(7) {
        db.delete(key(i));
    }
    db.flush();
    let mut hits = 0;
    for i in 0..3000u64 {
        hits += db.get(key(i)) as usize;
        hits += db.get(key(i) + 1) as usize;
    }
    assert_eq!(hits, 3000 - 3000usize.div_ceil(7));
    for s in 0..20u64 {
        assert!(db.scan(s << 27, 50) > 0);
    }
}

/// `(name, value)` with `None` for timing counters.
fn pinned(pairs: &[(String, u64)]) -> Vec<(String, Option<u64>)> {
    pairs
        .iter()
        .map(|(n, v)| (n.clone(), (!n.ends_with("_ns")).then_some(*v)))
        .collect()
}

fn assert_pairs(actual: &[(String, u64)], expected: &[(&str, Option<u64>)]) {
    let expected: Vec<(String, Option<u64>)> =
        expected.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    assert_eq!(pinned(actual), expected, "counter pairs drifted");
}

#[test]
fn db_counter_pairs_are_pinned() {
    let db = Db::open_memory(options()).unwrap();
    drive(&db);
    let pairs = db.metrics().counters;
    assert_pairs(&pairs, DB_PAIRS);
}

#[test]
fn sharded_counter_pairs_and_stats_json_are_pinned() {
    let db = ShardedDb::open_memory(ShardedOptions::hash(2, options())).unwrap();
    drive(&db);
    assert_eq!(db.shard_count(), 2, "the golden run must not split");
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(db, Arc::new(listener), ServerOptions::default());
    let client = Client::new(connector.connect().unwrap());
    let pairs = client.metrics().unwrap().counters;
    let json = client.stats_json().unwrap();
    drop(client);
    server.close().unwrap();
    assert_pairs(&pairs, SHARDED_PAIRS);

    assert_eq!(object(&json), object(STATS_JSON), "STATS JSON drifted");
}

/// A JSON object as a key-ordered map, so key order does not matter.
fn object(json: &str) -> BTreeMap<String, Value> {
    match serde_json::from_str::<Value>(json).unwrap() {
        Value::Object(fields) => fields.into_iter().collect(),
        other => panic!("not a JSON object: {other:?}"),
    }
}

const DB_PAIRS: &[(&str, Option<u64>)] = &[
    ("lookups", Some(6000)),
    ("table_locate_ns", None),
    ("predict_ns", None),
    ("io_cpu_ns", None),
    ("search_ns", None),
    ("bloom_checks", Some(8974)),
    ("bloom_negatives", Some(6080)),
    ("memtable_hits", Some(0)),
    ("write_batches", Some(1629)),
    ("write_entries", Some(3429)),
    ("write_groups", Some(1629)),
    ("wal_appends", Some(1629)),
    ("wal_bytes", Some(150786)),
    ("wal_syncs", Some(0)),
    ("flushes", Some(12)),
    ("flush_bytes_written", Some(239080)),
    ("compactions", Some(27)),
    ("subcompactions", Some(27)),
    ("compact_total_ns", None),
    ("compact_kv_io_ns", None),
    ("compact_train_ns", None),
    ("compact_model_write_ns", None),
    ("compact_bytes_read", Some(801473)),
    ("compact_bytes_written", Some(775756)),
    ("scans", Some(20)),
    ("scan_entries", Some(1000)),
    ("stall_slowdowns", Some(0)),
    ("stall_stops", Some(0)),
    ("stall_ns", None),
    ("imm_rotations", Some(0)),
    ("imm_queue_peak", Some(0)),
    ("bg_flush_ns", None),
    ("bg_compact_ns", None),
    ("bg_errors", Some(0)),
    ("writes_during_maintenance", Some(0)),
    ("shard_splits", Some(0)),
    ("commit_checkpoints", Some(0)),
    ("cache_block_hits", Some(182)),
    ("cache_block_misses", Some(3931)),
    ("cache_block_evictions", Some(3476)),
    ("cache_table_hits", Some(0)),
    ("cache_table_misses", Some(0)),
    ("cache_used_bytes", Some(64186)),
    ("cache_capacity_bytes", Some(65536)),
    ("level1_reads", Some(847)),
    ("level1_read_ns", None),
    ("level2_reads", Some(2000)),
    ("level2_read_ns", None),
    ("level0_compact_bytes_read", Some(239080)),
    ("level0_compact_bytes_written", Some(0)),
    ("level1_compact_bytes_read", Some(454076)),
    ("level1_compact_bytes_written", Some(513727)),
    ("level2_compact_bytes_read", Some(108317)),
    ("level2_compact_bytes_written", Some(262029)),
];

const SHARDED_PAIRS: &[(&str, Option<u64>)] = &[
    ("lookups", Some(6000)),
    ("table_locate_ns", None),
    ("predict_ns", None),
    ("io_cpu_ns", None),
    ("search_ns", None),
    ("bloom_checks", Some(9334)),
    ("bloom_negatives", Some(6384)),
    ("memtable_hits", Some(0)),
    ("write_batches", Some(1829)),
    ("write_entries", Some(3429)),
    ("write_groups", Some(1829)),
    ("wal_appends", Some(1829)),
    ("wal_bytes", Some(163786)),
    ("wal_syncs", Some(0)),
    ("flushes", Some(13)),
    ("flush_bytes_written", Some(237549)),
    ("compactions", Some(17)),
    ("subcompactions", Some(17)),
    ("compact_total_ns", None),
    ("compact_kv_io_ns", None),
    ("compact_train_ns", None),
    ("compact_model_write_ns", None),
    ("compact_bytes_read", Some(555860)),
    ("compact_bytes_written", Some(522222)),
    ("scans", Some(20)),
    ("scan_entries", Some(1000)),
    ("stall_slowdowns", Some(0)),
    ("stall_stops", Some(0)),
    ("stall_ns", None),
    ("imm_rotations", Some(0)),
    ("imm_queue_peak", Some(0)),
    ("bg_flush_ns", None),
    ("bg_compact_ns", None),
    ("bg_errors", Some(0)),
    ("writes_during_maintenance", Some(0)),
    ("shard_splits", Some(0)),
    ("commit_checkpoints", Some(0)),
    ("cache_block_hits", Some(359)),
    ("cache_block_misses", Some(3688)),
    ("cache_block_evictions", Some(3372)),
    ("cache_table_hits", Some(0)),
    ("cache_table_misses", Some(0)),
    ("cache_used_bytes", Some(65296)),
    ("cache_capacity_bytes", Some(65536)),
    ("level0_reads", Some(6)),
    ("level0_read_ns", None),
    ("level1_reads", Some(1731)),
    ("level1_read_ns", None),
    ("level2_reads", Some(1114)),
    ("level2_read_ns", None),
    ("level0_compact_bytes_read", Some(237000)),
    ("level0_compact_bytes_written", Some(0)),
    ("level1_compact_bytes_read", Some(293321)),
    ("level1_compact_bytes_written", Some(415556)),
    ("level2_compact_bytes_read", Some(25539)),
    ("level2_compact_bytes_written", Some(106666)),
];

const STATS_JSON: &str = r#"{
    "topology_epoch": 1,
    "shard_ids": [0,1],
    "resident_bytes": [98765,105146],
    "resident_entries": [1401,1491],
    "resident_imbalance": 0.031293,
    "observed_imbalance": 0.046729,
    "observed_keys": 428,
    "live_commit_markers": 200,
    "lookups": 6000,
    "write_batches": 1829,
    "write_entries": 3429,
    "wal_syncs": 0,
    "flushes": 13,
    "compactions": 17,
    "subcompactions": 17,
    "flush_bytes_written": 237549,
    "compact_bytes_read": 555860,
    "compact_bytes_written": 522222,
    "write_amplification": 3.198,
    "scans": 20,
    "stall_slowdowns": 0,
    "stall_stops": 0,
    "shard_splits": 0
}"#;
