//! `lookup`: the paper's point lookup with data far larger than the cache.
//!
//! Set-up loads `KEYS` Books keys (shuffled) through `Db::write` batches
//! under Synchronous maintenance, flushes, and warms: one get per table,
//! then `WARM_GETS` uniform gets so the 4 MiB cache reaches its steady
//! state. The timed phase is uniform closed-loop `Db::get` from one
//! client; every value is checked against `value_for_key`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_io::SimStorage;
use lsm_tree::{Db, Maintenance, WriteBatch, WriteOptions};
use lsm_workloads::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Counters, Layers};
use crate::util::{
    engine_options, mean, median, metric, nanos, quantile_us, ratio, resident_bytes, sim_storage,
    value_at, windowed_quantile_us, Pass, TAIL_WINDOW, USER_BYTES_PER_PUT,
};

/// Keys loaded (≈38 MB of tables, ~9x the cache budget).
pub const KEYS: usize = 500_000;
/// Cache budget: far below the data, so most block reads miss.
pub const CACHE_BYTES: usize = 4 << 20;
/// Keys per `Db::write` batch during the load.
const LOAD_BATCH: usize = 256;
/// Uniform gets run in set-up, before timing, to fill the cache.
const WARM_GETS: usize = 50_000;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 5;

struct Loaded {
    db: Db,
    storage: Arc<SimStorage>,
    /// Sorted key set.
    keys: Vec<u64>,
    setup_ns: u64,
    /// Wall time of each load `Db::write` call.
    write_ns: Vec<u64>,
    /// Counters at the end of set-up (the load's maintenance work).
    after_setup: Counters,
}

fn setup(seed: u64, traced: bool, pass: &mut Pass) -> Result<Loaded, String> {
    let started = Instant::now();
    let keys = Dataset::Books.generate(KEYS, seed);
    let mut order = keys.clone();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x1d));
    let storage = sim_storage();
    let opts = engine_options(CACHE_BYTES, Maintenance::Synchronous, traced);
    let db = Db::open(storage.clone(), opts).map_err(|e| e.to_string())?;
    let mut write_ns = Vec::with_capacity(order.len() / LOAD_BATCH + 1);
    for chunk in order.chunks(LOAD_BATCH) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &k in chunk {
            batch.put(k, &value_at(k, 0));
        }
        let t = Instant::now();
        db.write(batch, &WriteOptions::default())
            .map_err(|e| e.to_string())?;
        write_ns.push(nanos(t.elapsed()));
    }
    db.flush().map_err(|e| e.to_string())?;

    // Warm-up: touch every table once, then fill the cache.
    let version = db.version();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a);
    let warm = version
        .levels
        .iter()
        .flatten()
        .map(|t| t.meta.min_key)
        .chain((0..WARM_GETS).map(|_| keys[rng.gen_range(0..keys.len())]));
    for k in warm.collect::<Vec<_>>() {
        check_get(&db, k, pass);
    }
    drop(version);
    let after_setup = Counters::of_db(&db, storage.as_ref());
    Ok(Loaded {
        db,
        storage,
        keys,
        setup_ns: nanos(started.elapsed()),
        write_ns,
        after_setup,
    })
}

/// One checked `Db::get`; returns its wall time.
fn check_get(db: &Db, key: u64, pass: &mut Pass) -> u64 {
    let t = Instant::now();
    let got = db.get(key);
    let ns = nanos(t.elapsed());
    pass.attempted += 1;
    match got {
        Ok(Some(v)) if v == value_at(key, 0) => {}
        Ok(Some(_)) => pass.wrong += 1,
        Ok(None) | Err(_) => pass.failed += 1,
    }
    ns
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut setup_s = Vec::new();
    let mut write_ns = Vec::new();
    let mut loaded: Option<Loaded> = None;
    for _ in 0..SETUPS {
        // Drop the previous database before building the next one.
        drop(loaded.take());
        let l = setup(seed, traced, &mut pass)?;
        setup_s.push(l.setup_ns as f64 / 1e9);
        write_ns.extend_from_slice(&l.write_ns);
        loaded = Some(l);
    }
    let Loaded {
        db,
        storage,
        keys,
        after_setup,
        ..
    } = loaded.expect("at least one set-up");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x10);
    let mut lat = Vec::with_capacity(4_000_000);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while started.elapsed() < budget {
        for _ in 0..256 {
            let k = keys[rng.gen_range(0..keys.len())];
            lat.push(check_get(&db, k, &mut pass));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let end = Counters::of_db(&db, storage.as_ref());
    let timed = end.since(&after_setup);
    let gets = lat.len() as u64;
    let mean_get_ns = mean(&lat);

    let resident = resident_bytes(storage.as_ref())?;
    let user_put = KEYS as u64 * USER_BYTES_PER_PUT;
    let get_p95 = windowed_quantile_us(&lat, TAIL_WINDOW, 0.95);
    let get_p50 = quantile_us(&mut lat, 0.50);
    let get_p99 = quantile_us(&mut lat, 0.99);
    let put_p50 = quantile_us(&mut write_ns, 0.50);
    let put_p99 = quantile_us(&mut write_ns, 0.99);
    let loads = write_ns.len();
    println!(
        "lookup: seed={seed} keys={KEYS} cache_bytes={CACHE_BYTES} setups={SETUPS} timed_gets={gets} load_write_calls={loads} (batches of {LOAD_BATCH})"
    );
    let n = lat.len();
    pass.e2e = vec![
        metric("setup_s", median(&setup_s), "s").of_samples(SETUPS),
        metric("ops_per_s", gets as f64 / wall, "1/s"),
        metric("get_p50_us", get_p50, "us").of_samples(n),
        metric("get_p99_us", get_p99, "us").of_samples(n),
        metric("put_p50_us", put_p50, "us").of_samples(loads),
        metric("put_p99_us", put_p99, "us").of_samples(loads),
        metric("serve_p50_us", get_p50, "us").of_samples(n),
        metric("serve_p95_us", get_p95, "us").of_samples(n),
        metric(
            "device_us_per_op",
            ratio(timed.io.sim_total_ns() as f64, gets as f64) / 1e3,
            "us",
        ),
        metric(
            "write_amp",
            ratio(after_setup.io.write_bytes as f64, user_put as f64),
            "ratio",
        ),
        metric(
            "space_amp",
            ratio(resident as f64, user_put as f64),
            "ratio",
        ),
        metric("index_bytes", db.index_memory_bytes() as f64, "B"),
    ];

    if traced {
        let mut l = Layers::default();
        layers::read_path(&mut l, &timed, gets);
        // The load is this workload's write path.
        layers::write_path(&mut l, &after_setup, user_put);
        let sample: Vec<u64> = (0..20_000)
            .map(|_| keys[rng.gen_range(0..keys.len())])
            .collect();
        layers::learned_predict(&mut l, &db.version(), &sample);
        layers::learned_build(&mut l, db.options(), &keys);
        layers::db_view(&mut l, &db);
        let m = db.metrics();
        l.set("db.get_p50_us", m.total.get.p50_ns as f64 / 1e3);
        l.set("db.write_p50_us", m.total.write.p50_ns as f64 / 1e3);
        // The residual: mean traced get minus the engine's own stage
        // timers (locate + predict + fetch + search) per get.
        let s = &timed.stats;
        let staged = ratio(
            (s.table_locate_ns + s.predict_ns + s.io_cpu_ns + s.search_ns) as f64,
            s.lookups as f64,
        );
        l.set("db.unattributed_ns", mean_get_ns - staged);
        println!(
            "lookup trace: mean get {mean_get_ns:.0} ns = staged {staged:.0} ns (locate+predict+fetch+search) + unattributed {:.0} ns",
            mean_get_ns - staged
        );
        pass.layers = l.into_metrics();
    }
    db.close().map_err(|e| e.to_string())?;
    Ok(pass)
}
