//! `serve`: the end-to-end path through the network front end.
//!
//! Set-up loads `KEYS` Books keys into a `SHARDS`-shard `ShardedDb`
//! (learned range routing, background maintenance) with a cache that
//! holds all of the data, warms that cache with one get per key, and
//! starts `lsm_server::Server` with `WORKERS` workers over `MemTransport`.
//! The timed phase drives YCSB-B (95 % get / 5 % put, zipfian 0.99)
//! through `lsm_server::run_open_loop` on one connection at the fixed
//! rate `RATE`, never calibrated. Latency runs from each request's
//! scheduled arrival to its response, read off the client's stream.
//! After the timed phase the same client reads back the keys the stream
//! touched and checks every payload, and the stream is replayed on the
//! `ShardedDb` below the server to time the engine's gets and puts.

use std::collections::HashSet;
use std::io::{self, Read};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lsm_io::{SimStorage, Storage};
use lsm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, DEFAULT_MAX_FRAME,
};
use lsm_server::{
    run_open_loop, Client, MemConnector, MemTransport, OpenLoopSummary, Request, Response, Server,
    ServerOptions,
};
use lsm_tree::sharding::{imbalance, ShardedDb};
use lsm_tree::{Maintenance, ShardedOptions, WriteBatch, WriteOptions};
use lsm_workloads::ycsb::{Op, YcsbSpec, YcsbWorkload};
use lsm_workloads::Dataset;

use crate::layers::{self, Counters, Layers};
use crate::util::{
    engine_options, mean_ns_per_call, median, metric, nanos, quantile_us, ratio, resident_bytes,
    sim_storage, value_at, windowed_quantile_us, Pass, TAIL_WINDOW, USER_BYTES_PER_PUT,
};

/// Keys loaded (≈18 MB of tables).
pub const KEYS: usize = 200_000;
/// Cache budget: holds every block of the data.
pub const CACHE_BYTES: usize = 64 << 20;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Fixed arrival rate, about a quarter of the knee measured on a 2-core
/// host (~40 k req/s); nearer the knee the tail measures the scheduler.
pub const RATE: f64 = 10_000.0;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct keys of the stream read back after the timed phase.
const VERIFY_KEYS: usize = 20_000;
/// Generator lateness p99 above which the open-loop phase is repeated
/// once (about 20x its undisturbed value on a 2-core host).
const MAX_GEN_LATE_P99_US: f64 = 500.0;
/// Length of the engine-side replay that times gets and puts; long
/// enough that host noise of about a second averages out.
const REPLAY_SECONDS: f64 = 6.0;

struct Served {
    server: Server,
    connector: MemConnector,
    storage: Arc<SimStorage>,
    /// Loaded key set, sorted.
    keys: Vec<u64>,
    reqs: Vec<Request>,
    setup_s: f64,
}

fn setup(seed: u64, seconds: f64, traced: bool, pass: &mut Pass) -> Result<Served, String> {
    let started = Instant::now();
    let keys = Dataset::Books.generate(KEYS, seed);
    let mut workload = YcsbWorkload::new(YcsbSpec::B, keys, seed ^ 0x5e);
    let ops = (RATE * seconds).round().max(1.0) as usize;
    let reqs: Vec<Request> = workload
        .take(ops)
        .into_iter()
        .map(|op| match op {
            Op::Read(key) => Request::Get { key },
            Op::Update(key) => Request::Put {
                key,
                // Updates rewrite the loaded value, so a read returns it
                // whichever of two in-flight requests a worker runs first.
                value: value_at(key, 0),
                durable: false,
            },
            other => unreachable!("YCSB-B yields reads and updates only, got {other:?}"),
        })
        .collect();
    let base = engine_options(
        CACHE_BYTES,
        Maintenance::Background {
            flush_threads: 1,
            compaction_threads: 1,
        },
        traced,
    );
    let opts = ShardedOptions::learned(SHARDS, workload.router_sample(16), base);
    let storage = sim_storage();
    let db = ShardedDb::open(storage.clone(), opts).map_err(|e| e.to_string())?;
    for chunk in workload.keys().chunks(512) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &k in chunk {
            batch.put(k, &value_at(k, 0));
        }
        db.write(batch, &WriteOptions::default())
            .map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())?;
    db.wait_for_maintenance();
    // Warm-up: one pass over the keys fills the cache.
    for &k in workload.keys() {
        pass.attempted += 1;
        match db.get(k) {
            Ok(Some(v)) if v == value_at(k, 0) => {}
            Ok(Some(_)) => pass.wrong += 1,
            Ok(None) | Err(_) => pass.failed += 1,
        }
    }
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(
        db,
        Arc::new(listener),
        ServerOptions {
            workers: WORKERS,
            // One connection carries the whole arrival stream, so its
            // in-flight cap is sized to absorb a host stall of up to
            // ~0.4 s at RATE instead of shedding (the default is 128).
            queue_cap: 4096,
            ..ServerOptions::default()
        },
    );
    Ok(Served {
        server,
        connector,
        storage,
        keys: workload.keys().to_vec(),
        reqs,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Wraps the client's inbound stream and stamps the arrival of each
/// response frame (`u32` length, then `u64` id) with the time the client
/// read it, keyed by request id.
struct TimedReader {
    inner: Box<dyn Read + Send>,
    header: [u8; 12],
    have: usize,
    skip: usize,
    arrivals: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl Read for TimedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let now = Instant::now();
        let mut i = 0;
        while i < n {
            if self.skip > 0 {
                let s = self.skip.min(n - i);
                self.skip -= s;
                i += s;
                continue;
            }
            self.header[self.have] = buf[i];
            self.have += 1;
            i += 1;
            if self.have == self.header.len() {
                let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes"));
                let id = u64::from_le_bytes(self.header[4..].try_into().expect("8 bytes"));
                self.arrivals
                    .lock()
                    .expect("arrival log poisoned")
                    .push((id, now));
                // The length counts the id, the tag and the payload.
                self.skip = (len as usize).saturating_sub(8);
                self.have = 0;
            }
        }
        Ok(n)
    }
}

/// Lower the calling thread's timer slack to 1 ns. Threads it spawns
/// afterwards inherit the value, so the open-loop pacer (this thread)
/// and its collector wake on time instead of up to the default 50 µs
/// late. Returns whether the call succeeded.
#[cfg(target_os = "linux")]
fn lower_timer_slack() -> bool {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and
    // changes only the calling thread's timer slack; no memory is shared.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lower_timer_slack() -> bool {
    false
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(prev) = served.take() {
            close(prev)?;
        }
        let s = setup(seed, seconds, traced, &mut pass)?;
        setup_s.push(s.setup_s);
        served = Some(s);
    }
    let s = served.expect("at least one set-up");
    let result = measure(&s, seed, traced, median(&setup_s), &mut pass);
    close(s)?;
    result?;
    Ok(pass)
}

fn key_of(r: &Request) -> u64 {
    match r {
        Request::Get { key } | Request::Put { key, .. } => *key,
        _ => unreachable!("the stream holds gets and puts only"),
    }
}

fn close(s: Served) -> Result<(), String> {
    drop(s.connector);
    s.server.close().map_err(|e| e.to_string())
}

/// One open-loop timed phase: per-request latency from scheduled arrival,
/// generator lateness and sojourn (submit to response), in request order.
struct OpenLoop {
    summary: OpenLoopSummary,
    slack_ok: bool,
    all: Vec<u64>,
    late: Vec<u64>,
    sojourn: Vec<u64>,
    /// Engine and device counters over the phase.
    timed: Counters,
}

fn open_loop(
    s: &Served,
    client: &Client,
    arrivals: &Mutex<Vec<(u64, Instant)>>,
) -> Result<OpenLoop, String> {
    let db = s.server.db();
    let ops = s.reqs.len();
    arrivals.lock().expect("arrival log poisoned").clear();
    let before = Counters {
        stats: db.stats(),
        io: s.storage.stats().snapshot(),
    };
    let base_id = client.next_request_id();
    let mut submits: Vec<Instant> = Vec::with_capacity(ops);
    let (t0, summary, slack_ok) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let slack_ok = lower_timer_slack();
                let t0 = Instant::now();
                let summary = run_open_loop(client, RATE, ops, |i| {
                    submits.push(Instant::now());
                    s.reqs[i].clone()
                });
                (t0, summary, slack_ok)
            })
            .join()
            .expect("pacer thread panicked")
    });
    let summary = summary.map_err(|e| format!("open loop: {e}"))?;
    let after = Counters {
        stats: db.stats(),
        io: s.storage.stats().snapshot(),
    };

    // Per-request latency from scheduled arrival (run_open_loop's
    // schedule: request i is due at t0 + i * period).
    let period = Duration::from_secs_f64(1.0 / RATE);
    let mut arrival: Vec<Option<Instant>> = vec![None; ops];
    for &(id, at) in arrivals.lock().expect("arrival log poisoned").iter() {
        if let Some(slot) = id.checked_sub(base_id).map(|i| i as usize) {
            if slot < ops {
                arrival[slot] = Some(at);
            }
        }
    }
    let mut run = OpenLoop {
        summary,
        slack_ok,
        all: Vec::with_capacity(ops),
        late: Vec::with_capacity(ops),
        sojourn: Vec::with_capacity(ops),
        timed: after.since(&before),
    };
    for (i, at) in arrival.iter().enumerate() {
        let due = t0 + period.mul_f64(i as f64);
        let at = at.ok_or_else(|| format!("no response stamped for request {i}"))?;
        run.all.push(nanos(at.saturating_duration_since(due)));
        run.late
            .push(nanos(submits[i].saturating_duration_since(due)));
        run.sojourn
            .push(nanos(at.saturating_duration_since(submits[i])));
    }
    Ok(run)
}

fn measure(
    s: &Served,
    seed: u64,
    traced: bool,
    setup_s: f64,
    pass: &mut Pass,
) -> Result<(), String> {
    let arrivals = Arc::new(Mutex::new(Vec::with_capacity(s.reqs.len() + VERIFY_KEYS)));
    let conn = s.connector.connect().map_err(|e| e.to_string())?;
    let client = Client::from_halves(
        Box::new(TimedReader {
            inner: conn.reader,
            header: [0; 12],
            have: 0,
            skip: 0,
            arrivals: Arc::clone(&arrivals),
        }),
        conn.writer,
    );
    let db = s.server.db();
    let ops = s.reqs.len();
    let mut run = open_loop(s, &client, &arrivals)?;
    pass.attempted += ops as u64;
    pass.failed += (run.summary.shed + run.summary.errors) as u64;
    // Space and write figures describe the state after one timed phase,
    // whether or not the phase is repeated below.
    let io_end = s.storage.stats().snapshot();
    let puts_timed = s.reqs.iter().filter(|r| r.is_write()).count();
    let user_put = (KEYS + puts_timed) as u64 * USER_BYTES_PER_PUT;
    let live = KEYS as u64 * USER_BYTES_PER_PUT;
    let resident = resident_bytes(s.storage.as_ref())?;
    let index_bytes: usize = (0..db.shard_count())
        .map(|i| db.shard(i).index_memory_bytes())
        .sum();
    let first_late_p99 = quantile_us(&mut run.late.clone(), 0.99);
    if first_late_p99 > MAX_GEN_LATE_P99_US {
        // The generator itself missed its schedule, so this was not the
        // specified open-loop load: repeat the phase once and keep the
        // attempt whose generator kept the schedule better.
        let again = open_loop(s, &client, &arrivals)?;
        pass.attempted += ops as u64;
        pass.failed += (again.summary.shed + again.summary.errors) as u64;
        let again_late_p99 = quantile_us(&mut again.late.clone(), 0.99);
        println!(
            "serve: generator lateness p99 {first_late_p99:.3} us exceeded {MAX_GEN_LATE_P99_US} us; repeated the timed phase (lateness p99 {again_late_p99:.3} us), reporting the attempt with the lower one"
        );
        if again_late_p99 < first_late_p99 {
            run = again;
        }
    }
    let OpenLoop {
        summary,
        slack_ok,
        mut all,
        mut late,
        mut sojourn,
        timed,
    } = run;
    let n_all = all.len();
    let serve_p95 = windowed_quantile_us(&all, TAIL_WINDOW, 0.95);
    let serve_p50 = quantile_us(&mut all, 0.50);
    let serve_p99 = quantile_us(&mut all, 0.99);
    let late_p50 = quantile_us(&mut late, 0.50);
    let late_p99 = quantile_us(&mut late, 0.99);
    println!(
        "serve: seed={seed} keys={KEYS} shards={SHARDS} workers={WORKERS} cache_bytes={CACHE_BYTES} rate={RATE} req/s (fixed) requests={n_all} timer_slack_lowered={slack_ok}"
    );
    println!(
        "serve: from scheduled arrival p50 {serve_p50:.3} us, p99 {serve_p99:.3} us (n={n_all}); p95 {serve_p95:.3} us (median of {} windows of {TAIL_WINDOW}); run_open_loop histogram p50 {:.3} us, p99 {:.3} us (1.6 % buckets)",
        n_all / TAIL_WINDOW,
        summary.latency_at(0.50) as f64 / 1e3,
        summary.latency_at(0.99) as f64 / 1e3,
    );
    println!("serve: generator lateness p50 {late_p50:.3} us, p99 {late_p99:.3} us (n={n_all})");
    if late_p50 >= serve_p50 / 4.0 {
        println!(
            "serve: WARNING generator lateness p50 {late_p50:.3} us is not under a quarter of serve_p50_us {serve_p50:.3} us"
        );
    }

    // Read back on the same client, one request at a time, every distinct
    // key the stream touched (up to VERIFY_KEYS) and check each payload;
    // this also gives the idle round trip.
    let mut seen = HashSet::new();
    let verify: Vec<u64> = s
        .reqs
        .iter()
        .map(key_of)
        .filter(|k| seen.insert(*k))
        .take(VERIFY_KEYS)
        .collect();
    let mut rtt = Vec::with_capacity(verify.len());
    for &k in &verify {
        let t = Instant::now();
        let got = client.get(k);
        rtt.push(nanos(t.elapsed()));
        pass.attempted += 1;
        match got {
            Ok(Some(v)) if v == value_at(k, 0) => {}
            Ok(Some(_)) => pass.wrong += 1,
            Ok(None) | Err(_) => pass.failed += 1,
        }
    }

    // Engine-side get and put latency: the stream replayed, in order and
    // cyclically for REPLAY_SECONDS, on the ShardedDb below the server
    // (puts rewrite the value a key holds).
    let mut get_ns = Vec::new();
    let mut put_ns = Vec::new();
    let replay_started = Instant::now();
    'replay: loop {
        for chunk in s.reqs.chunks(1024) {
            if replay_started.elapsed().as_secs_f64() >= REPLAY_SECONDS {
                break 'replay;
            }
            for r in chunk {
                let t = Instant::now();
                let ok = match r {
                    Request::Get { key } => db.get(*key).is_ok(),
                    Request::Put { key, value, .. } => db.put(*key, value).is_ok(),
                    _ => unreachable!("the stream holds gets and puts only"),
                };
                let ns = nanos(t.elapsed());
                if r.is_write() {
                    put_ns.push(ns);
                } else {
                    get_ns.push(ns);
                }
                pass.attempted += 1;
                if !ok {
                    pass.failed += 1;
                }
            }
        }
    }
    let (gets_n, puts_n) = (get_ns.len(), put_ns.len());
    println!(
        "serve: read-back gets n={} engine replay gets n={gets_n} puts n={puts_n}",
        rtt.len()
    );
    // The replay's p99s are windowed like serve_p95_us: a short run samples
    // few host states, and one stall would otherwise decide the tail.
    let get_p99 = windowed_quantile_us(&get_ns, TAIL_WINDOW, 0.99);
    let put_p99 = windowed_quantile_us(&put_ns, TAIL_WINDOW, 0.99);
    let get_p50 = quantile_us(&mut get_ns, 0.50);
    let put_p50 = quantile_us(&mut put_ns, 0.50);
    pass.e2e = vec![
        metric("setup_s", setup_s, "s").of_samples(SETUPS),
        metric("ops_per_s", summary.achieved_rate(), "1/s"),
        metric("get_p50_us", get_p50, "us").of_samples(gets_n),
        metric("get_p99_us", get_p99, "us").of_samples(gets_n),
        metric("put_p50_us", put_p50, "us").of_samples(puts_n),
        metric("put_p99_us", put_p99, "us").of_samples(puts_n),
        metric("serve_p50_us", serve_p50, "us").of_samples(n_all),
        metric("serve_p95_us", serve_p95, "us").of_samples(n_all),
        metric(
            "device_us_per_op",
            ratio(timed.io.sim_total_ns() as f64, ops as f64) / 1e3,
            "us",
        ),
        metric(
            "write_amp",
            ratio(io_end.write_bytes as f64, user_put as f64),
            "ratio",
        ),
        metric("space_amp", ratio(resident as f64, live as f64), "ratio"),
        metric("index_bytes", index_bytes as f64, "B"),
    ];

    if traced {
        let mut l = Layers::default();
        layers::read_path(&mut l, &timed, ops as u64);
        layers::write_path(&mut l, &timed, puts_timed as u64 * USER_BYTES_PER_PUT);
        let sojourn_p50 = quantile_us(&mut sojourn, 0.50);
        let rtt_p50 = quantile_us(&mut rtt, 0.50);
        l.set("db.get_p50_us", get_p50);
        l.set("db.write_p50_us", put_p50);
        l.set("server.serve_p99_us", serve_p99);
        l.set("server.gen_late_p50_us", late_p50);
        l.set("server.gen_late_p99_us", late_p99);
        l.set("server.sojourn_p50_us", sojourn_p50);
        l.set("server.sojourn_p99_us", quantile_us(&mut sojourn, 0.99));
        l.set("server.rtt_idle_p50_us", rtt_p50);
        l.set("server.queue_p50_us", sojourn_p50 - rtt_p50);
        l.set(
            "server.shed_ratio",
            ratio(summary.shed as f64, summary.ops as f64),
        );
        let residual = ratio(late_p50 + sojourn_p50 - serve_p50, serve_p50);
        println!(
            "serve trace: gen_late_p50 {late_p50:.3} + sojourn_p50 {sojourn_p50:.3} = {:.3} us vs serve_p50 {serve_p50:.3} us ({:+.1} %, {}) ; rtt_idle n={}",
            late_p50 + sojourn_p50,
            residual * 100.0,
            if residual.abs() <= 0.10 { "within 10 %" } else { "OUTSIDE 10 %" },
            rtt.len()
        );
        trace_layers(&mut l, s, &verify)?;
        pass.layers = l.into_metrics();
    }
    Ok(())
}

/// The serve ledger's direct calls: codec, routing, the read view and the
/// learned stage on shard 0.
fn trace_layers(l: &mut Layers, s: &Served, verify: &[u64]) -> Result<(), String> {
    let db = s.server.db();
    // Each request with the response the server would send for it.
    let exchanges: Vec<(&Request, Response)> = s.reqs[..s.reqs.len().min(20_000)]
        .iter()
        .map(|r| match r {
            Request::Get { key } => (r, Response::Value(Some(value_at(*key, 0)))),
            _ => (r, Response::Committed { seq: 7 }),
        })
        .collect();
    let mut bad = None;
    let codec = mean_ns_per_call(&exchanges, |(req, resp)| {
        let mut frame = Vec::new();
        encode_request(&mut frame, 7, req);
        let decoded_req = read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME)
            .map_err(|e| e.to_string())
            .and_then(|(_, tag, payload)| decode_request(tag, &payload));
        let mut frame = Vec::new();
        encode_response(&mut frame, 7, resp);
        let decoded_resp = read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME)
            .map_err(|e| e.to_string())
            .and_then(|(_, tag, payload)| decode_response(tag, &payload));
        if let Err(e) = decoded_req.and(decoded_resp) {
            bad = Some(e);
        }
    });
    if let Some(e) = bad {
        return Err(format!("codec replay: {e}"));
    }
    l.set("protocol.codec_ns", codec);

    let routing = db.routing();
    let router = routing.router();
    let keys: Vec<u64> = s.reqs.iter().map(key_of).collect();
    l.set(
        "sharding.route_ns",
        mean_ns_per_call(&keys, |&k| {
            std::hint::black_box(router.shard_of(std::hint::black_box(k)));
        }),
    );
    l.set(
        "sharding.imbalance",
        imbalance(&router.partition_counts(&keys)),
    );

    let shard0 = db.shard(0);
    layers::db_view(l, &shard0);
    let on_shard0: Vec<u64> = verify
        .iter()
        .copied()
        .filter(|&k| router.shard_of(k) == 0)
        .collect();
    layers::learned_predict(l, &shard0.version(), &on_shard0);
    layers::learned_build(l, shard0.options(), &s.keys);
    Ok(())
}
