//! `ingest`: the write path with flush, compaction and index retraining.
//!
//! One round: set-up generates `ROUND_KEYS` fresh Books keys in shuffled
//! order and a put stream in which every fourth put overwrites a key
//! already written, then opens a database with background maintenance
//! (one flush and one compaction worker). The timed region is one client
//! `Db::put`ting the stream and ends when `wait_for_maintenance` returns.
//! Outside it, every key is read back and compared with its last value.
//! Rounds repeat on fresh databases until `--seconds` have passed;
//! per-round figures are reported as medians, latencies pooled.

use std::time::Instant;

use lsm_tree::{Db, Maintenance};
use lsm_workloads::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Counters, Layers};
use crate::util::{
    engine_options, median, metric, nanos, quantile_us, ratio, resident_bytes, sim_storage,
    value_at, windowed_quantile_us, Pass, TAIL_WINDOW, USER_BYTES_PER_PUT,
};

/// Fresh keys per round (≈25 MB of tables: flushes and several levels of
/// compaction per round).
pub const ROUND_KEYS: usize = 300_000;
/// Same cache budget as `lookup`; the timed region never reads.
const CACHE_BYTES: usize = 4 << 20;

struct Round {
    setup_s: f64,
    ops_per_s: f64,
    device_us_per_op: f64,
    write_amp: f64,
    space_amp: f64,
    index_bytes: f64,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut put_ns = Vec::new();
    let mut get_ns = Vec::new();
    let mut layers_out = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let round_seed = seed ^ ((rounds.len() as u64 + 1) << 40);
        // A traced pass keeps the ledger of its last round.
        let mut l = traced.then(Layers::default);
        rounds.push(round(
            round_seed,
            traced,
            &mut pass,
            &mut put_ns,
            &mut get_ns,
            l.as_mut(),
        )?);
        layers_out = l;
    }
    let per = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (rounds_n, puts_n, gets_n) = (rounds.len(), put_ns.len(), get_ns.len());
    println!(
        "ingest: seed={seed} keys_per_round={ROUND_KEYS} rounds={rounds_n} puts={puts_n} readback_gets={gets_n}"
    );
    let put_p95 = windowed_quantile_us(&put_ns, TAIL_WINDOW, 0.95);
    let put_p50 = quantile_us(&mut put_ns, 0.50);
    let put_p99 = quantile_us(&mut put_ns, 0.99);
    pass.e2e = vec![
        metric("setup_s", per(|r| r.setup_s), "s").of_samples(rounds_n),
        metric("ops_per_s", per(|r| r.ops_per_s), "1/s").of_samples(rounds_n),
        metric("get_p50_us", quantile_us(&mut get_ns, 0.50), "us").of_samples(gets_n),
        metric("get_p99_us", quantile_us(&mut get_ns, 0.99), "us").of_samples(gets_n),
        metric("put_p50_us", put_p50, "us").of_samples(puts_n),
        metric("put_p99_us", put_p99, "us").of_samples(puts_n),
        metric("serve_p50_us", put_p50, "us").of_samples(puts_n),
        metric("serve_p95_us", put_p95, "us").of_samples(puts_n),
        metric("device_us_per_op", per(|r| r.device_us_per_op), "us"),
        metric("write_amp", per(|r| r.write_amp), "ratio"),
        metric("space_amp", per(|r| r.space_amp), "ratio"),
        metric("index_bytes", per(|r| r.index_bytes), "B"),
    ];
    if traced {
        pass.layers = layers_out
            .ok_or("traced ingest ran no traced round")?
            .into_metrics();
    }
    Ok(pass)
}

fn round(
    seed: u64,
    traced: bool,
    pass: &mut Pass,
    put_ns: &mut Vec<u64>,
    get_ns: &mut Vec<u64>,
    trace: Option<&mut Layers>,
) -> Result<Round, String> {
    let setup_started = Instant::now();
    let keys = Dataset::Books.generate(ROUND_KEYS, seed);
    let mut order = keys.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2b);
    order.shuffle(&mut rng);
    // versions[j] is the overwrite count of order[j]; every fourth put
    // overwrites a uniformly chosen key already written.
    let mut versions = vec![0u32; order.len()];
    let mut puts: Vec<(u64, Vec<u8>)> = Vec::with_capacity(order.len() * 4 / 3 + 1);
    let mut written = 0usize;
    while written < order.len() {
        let j = if puts.len() % 4 == 3 {
            let j = rng.gen_range(0..written);
            versions[j] += 1;
            j
        } else {
            written += 1;
            written - 1
        };
        puts.push((order[j], value_at(order[j], versions[j])));
    }
    let storage = sim_storage();
    let opts = engine_options(
        CACHE_BYTES,
        Maintenance::Background {
            flush_threads: 1,
            compaction_threads: 1,
        },
        traced,
    );
    let db = Db::open(storage.clone(), opts).map_err(|e| e.to_string())?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let before = Counters::of_db(&db, storage.as_ref());
    let timed_started = Instant::now();
    for (k, v) in &puts {
        let t = Instant::now();
        let r = db.put(*k, v);
        put_ns.push(nanos(t.elapsed()));
        pass.attempted += 1;
        if r.is_err() {
            pass.failed += 1;
        }
    }
    db.wait_for_maintenance();
    let wall = timed_started.elapsed().as_secs_f64();
    if let Some(e) = db.background_error() {
        return Err(format!("ingest: background maintenance failed: {e}"));
    }
    let after = Counters::of_db(&db, storage.as_ref());

    // Read back every key's last value, outside the timed region.
    for (j, &k) in order.iter().enumerate() {
        let t = Instant::now();
        let got = db.get(k);
        get_ns.push(nanos(t.elapsed()));
        pass.attempted += 1;
        match got {
            Ok(Some(v)) if v == value_at(k, versions[j]) => {}
            Ok(Some(_)) => pass.wrong += 1,
            Ok(None) | Err(_) => pass.failed += 1,
        }
    }
    let user_put = puts.len() as u64 * USER_BYTES_PER_PUT;
    let live = order.len() as u64 * USER_BYTES_PER_PUT;
    let timed = after.since(&before);
    let out = Round {
        setup_s,
        ops_per_s: puts.len() as f64 / wall,
        device_us_per_op: ratio(timed.io.sim_total_ns() as f64, puts.len() as f64) / 1e3,
        write_amp: ratio(after.io.write_bytes as f64, user_put as f64),
        space_amp: ratio(resident_bytes(storage.as_ref())? as f64, live as f64),
        index_bytes: db.index_memory_bytes() as f64,
    };

    if let Some(l) = trace {
        let end = Counters::of_db(&db, storage.as_ref());
        layers::read_path(l, &end.since(&after), order.len() as u64);
        layers::write_path(l, &timed, user_put);
        layers::learned_predict(l, &db.version(), &order[..order.len().min(20_000)]);
        layers::learned_build(l, db.options(), &keys);
        layers::db_view(l, &db);
        layers::write_stages(
            l,
            &puts[..puts.len().min(100_000)],
            db.options().write_buffer_bytes,
        )?;
        let m = db.metrics();
        l.set("db.get_p50_us", m.total.get.p50_ns as f64 / 1e3);
        l.set("db.write_p50_us", m.total.write.p50_ns as f64 / 1e3);
    }
    db.close().map_err(|e| e.to_string())?;
    Ok(out)
}
