//! Pins the exact device and cache traffic of the cached table reader.
//!
//! One table per index kind, on a cost-charging `SimStorage`, read through
//! a small `EngineCache` (room for a few 4 KiB blocks beside the pinned
//! index and filter, so spans mix hits, misses and evictions). A fixed,
//! seeded mix of `get` (fill and no-fill), `seek_position` and
//! `entries_in` runs against it; every result must equal the uncached
//! reader's, and the per-op `IoStats` and `CacheStats` deltas must equal
//! the recorded ones exactly. The entry width (36 B header + 40 B value
//! slot = 76 B) does not divide 4096, so entries straddle block edges.
//!
//! A change to the reader that alters which device calls, blocks, cache
//! probes, insertions or evictions a lookup makes fails here.

use std::sync::Arc;

use learned_index::IndexKind;
use lsm_io::{CostModel, SimStorage, Storage};
use lsm_tree::options::IndexChoice;
use lsm_tree::sstable::{TableBuilder, TableReader};
use lsm_tree::{CacheStats, DbStats, EngineCache, Entry};
use rand::{rngs::StdRng, Rng, SeedableRng};

const KEYS: u64 = 3_000;
const VALUE_WIDTH: usize = 40;
const SNAPSHOT: u64 = u64::MAX >> 8;
/// Cache blocks that fit beside the table's pinned bytes.
const BLOCK_ROOM: usize = 6;
const OPS: usize = 600;

fn key_of(i: u64) -> u64 {
    i * 5 + 1
}

fn build(storage: &SimStorage, kind: IndexKind) {
    let file = storage.create("t.sst").unwrap();
    let mut b = TableBuilder::new(
        file,
        "t.sst".into(),
        IndexChoice::new(kind, 16),
        VALUE_WIDTH,
        10,
    );
    for i in 0..KEYS {
        let v = format!("value-{i}-{}", "x".repeat((i % 17) as usize));
        b.add(&Entry::put(key_of(i), i + 1, v.into_bytes()))
            .unwrap();
    }
    b.finish().unwrap();
}

/// Totals of one kind's run, plus an FNV-1a digest of every op's deltas
/// in order (so a reordering with equal totals still fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Traffic {
    read_calls: u64,
    read_blocks: u64,
    read_bytes: u64,
    sim_read_ns: u64,
    block_hits: u64,
    block_misses: u64,
    block_insertions: u64,
    block_evictions: u64,
    block_used_bytes: u64,
    digest: u64,
}

/// One op's result, compared between the cached and uncached readers.
#[derive(Debug, PartialEq)]
enum Answer {
    Get(Option<Option<Vec<u8>>>),
    Seek(usize),
    Entries(Vec<Entry>),
}

fn fnv(digest: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

fn run(kind: IndexKind, seed: u64) -> Traffic {
    let storage = SimStorage::new(CostModel::default());
    build(&storage, kind);
    let plain = TableReader::open(&storage, "t.sst").unwrap();
    // Size the cache from the table's own pinned bytes.
    let pinned = {
        let probe = Arc::new(EngineCache::new(64 << 20, 4, 16));
        let r = TableReader::open_with(&storage, "t.sst", Some(Arc::clone(&probe))).unwrap();
        let bytes = probe.stats().table_used_bytes as usize;
        drop(r);
        bytes
    };
    let cache = Arc::new(EngineCache::new(pinned + BLOCK_ROOM * 4096, 4, 16));
    let cached = &TableReader::open_with(&storage, "t.sst", Some(Arc::clone(&cache))).unwrap();
    let n = plain.len();
    let stats = &DbStats::new();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Traffic {
        read_calls: 0,
        read_blocks: 0,
        read_bytes: 0,
        sim_read_ns: 0,
        block_hits: 0,
        block_misses: 0,
        block_insertions: 0,
        block_evictions: 0,
        block_used_bytes: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for op in 0..OPS {
        // Draw the op, take the uncached answer, then time only the
        // cached call: the windows below see its traffic alone.
        let (what, want, cached_op): (String, Answer, Box<dyn Fn() -> Answer>) = match rng
            .gen_range(0..4u32)
        {
            0 | 1 => {
                // Mostly present keys; some absent ones in between.
                let i = rng.gen_range(0..KEYS);
                let key = if rng.gen_bool(0.8) {
                    key_of(i)
                } else {
                    key_of(i) + 2
                };
                let fill = rng.gen_bool(0.7);
                (
                    format!("get({key}, fill={fill})"),
                    Answer::Get(plain.get(key, SNAPSHOT, stats).unwrap()),
                    Box::new(move || {
                        Answer::Get(cached.get_opts(key, SNAPSHOT, stats, fill).unwrap())
                    }),
                )
            }
            2 => {
                let key = rng.gen_range(0..key_of(KEYS) + 10);
                let fill = rng.gen_bool(0.5);
                (
                    format!("seek_position({key}, fill={fill})"),
                    Answer::Seek(plain.seek_position(key).unwrap()),
                    Box::new(move || Answer::Seek(cached.seek_position_opts(key, fill).unwrap())),
                )
            }
            _ => {
                let lo = rng.gen_range(0..n);
                let hi = lo + rng.gen_range(1..=160usize);
                let fill = rng.gen_bool(0.5);
                (
                    format!("entries_in({lo}, {hi}, fill={fill})"),
                    Answer::Entries(plain.entries_in(lo, hi).unwrap()),
                    Box::new(move || {
                        Answer::Entries(cached.entries_in_opts(lo, hi, fill).unwrap())
                    }),
                )
            }
        };
        let io0 = storage.stats().snapshot();
        let c0: CacheStats = cache.stats();
        let got = cached_op();
        let io = storage.stats().snapshot().since(&io0);
        let c = cache.stats();
        assert_eq!(got, want, "{kind} op {op}: {what}");
        let deltas = [
            io.read_calls,
            io.read_blocks,
            io.read_bytes,
            io.sim_read_ns,
            c.block_hits - c0.block_hits,
            c.block_misses - c0.block_misses,
            c.block_insertions - c0.block_insertions,
            c.block_evictions - c0.block_evictions,
            c.block_used_bytes.wrapping_sub(c0.block_used_bytes),
        ];
        for d in deltas {
            fnv(&mut t.digest, d);
        }
        t.read_calls += deltas[0];
        t.read_blocks += deltas[1];
        t.read_bytes += deltas[2];
        t.sim_read_ns += deltas[3];
        t.block_hits += deltas[4];
        t.block_misses += deltas[5];
        t.block_insertions += deltas[6];
        t.block_evictions += deltas[7];
        t.block_used_bytes = c.block_used_bytes;
    }
    t
}

/// The recorded traffic of each kind's run (seed = 11 + its `IndexKind::ALL`
/// position).
const PINNED: [(IndexKind, Traffic); 7] = [
    (
        IndexKind::FencePointers,
        Traffic {
            read_calls: 522,
            read_blocks: 868,
            read_bytes: 2_754_304,
            sim_read_ns: 1_303_800,
            block_hits: 106,
            block_misses: 865,
            block_insertions: 495,
            block_evictions: 489,
            block_used_bytes: 24_576,
            digest: 0xeec1_db41_93b6_938f,
        },
    ),
    (
        IndexKind::FitingTree,
        Traffic {
            read_calls: 506,
            read_blocks: 888,
            read_bytes: 2_879_044,
            sim_read_ns: 1_291_800,
            block_hits: 91,
            block_misses: 888,
            block_insertions: 534,
            block_evictions: 528,
            block_used_bytes: 24_576,
            digest: 0x6186_ccc7_84ba_23b2,
        },
    ),
    (
        IndexKind::Plr,
        Traffic {
            read_calls: 508,
            read_blocks: 887,
            read_bytes: 2_743_508,
            sim_read_ns: 1_294_200,
            block_hits: 102,
            block_misses: 887,
            block_insertions: 489,
            block_evictions: 483,
            block_used_bytes: 24_576,
            digest: 0x2d25_9b8c_c7c6_dae1,
        },
    ),
    (
        IndexKind::Plex,
        Traffic {
            read_calls: 497,
            read_blocks: 858,
            read_bytes: 2_687_116,
            sim_read_ns: 1_260_300,
            block_hits: 115,
            block_misses: 858,
            block_insertions: 472,
            block_evictions: 466,
            block_used_bytes: 24_576,
            digest: 0x4bea_a9db_c2e3_bb66,
        },
    ),
    (
        IndexKind::RadixSpline,
        Traffic {
            read_calls: 515,
            read_blocks: 921,
            read_bytes: 3_021_568,
            sim_read_ns: 1_325_100,
            block_hits: 109,
            block_misses: 921,
            block_insertions: 554,
            block_evictions: 548,
            block_used_bytes: 24_576,
            digest: 0x9b7a_8907_2e9e_0a9c,
        },
    ),
    (
        IndexKind::Rmi,
        Traffic {
            read_calls: 506,
            read_blocks: 668,
            read_bytes: 1_979_496,
            sim_read_ns: 1_159_800,
            block_hits: 88,
            block_misses: 668,
            block_insertions: 399,
            block_evictions: 393,
            block_used_bytes: 24_576,
            digest: 0x7338_d671_7711_ab18,
        },
    ),
    (
        IndexKind::Pgm,
        Traffic {
            read_calls: 492,
            read_blocks: 882,
            read_bytes: 2_835_484,
            sim_read_ns: 1_267_200,
            block_hits: 114,
            block_misses: 882,
            block_insertions: 510,
            block_evictions: 504,
            block_used_bytes: 24_576,
            digest: 0xd3d6_0235_e604_7896,
        },
    ),
];

#[test]
fn cached_reader_traffic_is_pinned_for_every_index_kind() {
    for (seed, kind) in IndexKind::ALL.into_iter().enumerate() {
        let t = run(kind, seed as u64 + 11);
        assert!(
            t.block_hits > 0 && t.block_misses > 0 && t.block_evictions > 0,
            "{kind}: the mix must hit, miss and evict: {t:?}"
        );
        let pinned = PINNED.iter().find(|(k, _)| *k == kind).expect("pinned").1;
        assert_eq!(t, pinned, "{kind}: the reader's I/O pattern changed");
    }
}
