//! Engine instrumentation.
//!
//! Every figure in the paper's evaluation needs a different slice of the
//! engine's behaviour: per-stage lookup times (Fig. 7, Table 1), per-level
//! read counts (Fig. 10), compaction stage breakdown (Fig. 9), and index
//! memory (Figs. 6, 8, 11, 12). [`DbStats`] collects all of them with
//! relaxed atomics so the hot path stays cheap.
//!
//! Every counter is declared once, in the `counters!` table below. Its
//! kind decides how it folds (`+`, [`DbStats::merged`]) and diffs
//! ([`StatsSnapshot::since`]):
//!
//! | kind    | in `DbStats` | in the snapshot | fold | diff |
//! |---------|--------------|-----------------|------|------|
//! | `sum`   | yes | yes | add | subtract |
//! | `peak`  | yes | yes | max | later value |
//! | `level` | yes (per-level array) | yes | add | subtract |
//! | `cache` | no  | yes (via [`StatsSnapshot::absorb_cache`]) | add | subtract |
//! | `gauge` | no  | yes (via [`StatsSnapshot::absorb_cache`]) | add | later value |
//! | `live`  | yes | no  | — | — |
//!
//! Table order is [`StatsSnapshot::counter_pairs`] order; rows tagged `STATS`
//! also go into the server's STATS reply ([`StatsSnapshot::stats_pairs`]).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Maximum LSM levels tracked by the per-level counters.
pub const MAX_LEVELS: usize = 12;

/// One operation on one table row (normalized by `counters!`). A row the
/// operation does not apply to expands to nothing; a row of unknown kind
/// or flag matches no arm, so a typo in the table fails the build.
macro_rules! row {
    (load $s:ident $o:ident (level $a:ident $b:ident $($x:tt)*)) => {
        $o.$a = std::array::from_fn(|i| $s.$a[i].load(Relaxed));
        $o.$b = std::array::from_fn(|i| $s.$b[i].load(Relaxed));
    };
    (load $s:ident $o:ident ($k:ident $f:ident $(STATS)?)) => {
        $o.$f = $s.$f.load(Relaxed);
    };
    (absorb $s:ident $from:ident (level $a:ident $b:ident $($x:tt)*)) => {
        for i in 0..MAX_LEVELS {
            $s.$a[i].fetch_add($from.$a[i], Relaxed);
            $s.$b[i].fetch_add($from.$b[i], Relaxed);
        }
    };
    (absorb $s:ident $from:ident (peak $f:ident)) => {
        $s.$f.fetch_max($from.$f, Relaxed);
    };
    (absorb $s:ident $from:ident (sum $f:ident $(STATS)?)) => {
        $s.$f.fetch_add($from.$f, Relaxed);
    };
    (diff $o:ident $e:ident (level $a:ident $b:ident $($x:tt)*)) => {
        for i in 0..MAX_LEVELS {
            $o.$a[i] -= $e.$a[i];
            $o.$b[i] -= $e.$b[i];
        }
    };
    (diff $o:ident $e:ident (sum $f:ident $($x:tt)*)) => {
        $o.$f -= $e.$f;
    };
    (diff $o:ident $e:ident (cache $f:ident $($x:tt)*)) => {
        $o.$f -= $e.$f;
    };
    (add $o:ident $r:ident (level $a:ident $b:ident $($x:tt)*)) => {
        for i in 0..MAX_LEVELS {
            $o.$a[i] += $r.$a[i];
            $o.$b[i] += $r.$b[i];
        }
    };
    (add $o:ident $r:ident (peak $f:ident)) => {
        $o.$f = $o.$f.max($r.$f);
    };
    (add $o:ident $r:ident ($k:ident $f:ident $($x:tt)*)) => {
        $o.$f += $r.$f;
    };
    (cache $o:ident $c:ident ($k:ident $f:ident = $src:ident)) => {
        $o.$f += $c.$src;
    };
    (scalar $s:ident (level $($x:tt)*)) => {
        None
    };
    (scalar $s:ident ($k:ident $f:ident STATS)) => {
        Some((stringify!($f), $s.$f, true))
    };
    (scalar $s:ident ($k:ident $f:ident $($x:tt)*)) => {
        Some((stringify!($f), $s.$f, false))
    };
    (level $o:ident $s:ident (level $a:ident $b:ident $ra:ident $rb:ident)) => {
        for (i, (&a, &b)) in $s.$a.iter().zip(&$s.$b).enumerate() {
            if a > 0 || b > 0 {
                $o.push((format!(concat!("level{}_", stringify!($ra)), i), a));
                $o.push((format!(concat!("level{}_", stringify!($rb)), i), b));
            }
        }
    };
    ($op:ident $($v:ident)* (sum $f:ident $(STATS)?)) => {};
    ($op:ident $($v:ident)* (peak $f:ident)) => {};
    ($op:ident $($v:ident)* (cache $f:ident = $src:ident)) => {};
    ($op:ident $($v:ident)* (gauge $f:ident = $src:ident)) => {};
    ($op:ident $($v:ident)* (level $a:ident $b:ident $ra:ident $rb:ident)) => {};
}

/// Sorts the table rows into the two structs that carry them, normalizing
/// each row for `row!`, then generates the per-counter code.
macro_rules! counters {
    (@munch [$($db:tt)*] [$($snap:tt)*] [$($row:tt)*]) => {
        /// Shared engine counters. Cloneable snapshots via [`DbStats::snapshot`].
        #[derive(Debug, Default)]
        pub struct DbStats { $($db)* }

        /// Point-in-time copy of [`DbStats`], plus the engine cache's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot { $($snap)* }

        impl DbStats {
            /// Copy the current counter values. The cache rows stay zero:
            /// the cache keeps its own atomics ([`StatsSnapshot::absorb_cache`]).
            pub fn snapshot(&self) -> StatsSnapshot {
                let mut out = StatsSnapshot::default();
                $( row!(load self out $row); )*
                out
            }

            /// Fold a snapshot in (sums add, peaks take the max), so a retired
            /// engine's counts live on in the block that absorbs its last snapshot.
            pub(crate) fn absorb(&self, from: &StatsSnapshot) {
                $( row!(absorb self from $row); )*
            }
        }

        impl StatsSnapshot {
            /// Deltas since `earlier`. Peaks and gauges report the later value.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                let mut out = *self;
                $( row!(diff out earlier $row); )*
                out
            }

            /// Fold the engine cache's counters in. Callable once per cache (a
            /// split-budget fleet has one per shard): all rows accumulate.
            pub fn absorb_cache(&mut self, cache: &crate::cache::CacheStats) {
                $( row!(cache self cache $row); )*
            }

            /// `(name, value, tagged STATS)` of every scalar row, in table order.
            fn scalars(&self) -> impl Iterator<Item = (&'static str, u64, bool)> {
                [$( row!(scalar self $row) ),*].into_iter().flatten()
            }

            /// `(name, value)` pairs for `MetricsSnapshot::counters`, in table
            /// order. Per-level arrays flatten to `level{N}_…`, only for levels
            /// that saw traffic.
            pub fn counter_pairs(&self) -> Vec<(String, u64)> {
                let mut out: Vec<_> = self.scalars().map(|(n, v, _)| (n.to_string(), v)).collect();
                $( row!(level out self $row); )*
                out
            }

            /// The counters tagged `STATS`: those the server's STATS reply
            /// carries, in table order.
            pub fn stats_pairs(&self) -> Vec<(&'static str, u64)> {
                self.scalars().filter(|r| r.2).map(|(n, v, _)| (n, v)).collect()
            }
        }

        /// Counter-wise sum: sums and gauges add, peaks take the max (a fleet's
        /// peak is its worst shard's). Per-shard stats compose into one report.
        impl std::ops::AddAssign for StatsSnapshot {
            fn add_assign(&mut self, rhs: StatsSnapshot) {
                $( row!(add self rhs $row); )*
            }
        }
    };
    (@munch [$($db:tt)*] [$($snap:tt)*] [$($row:tt)*]
        $(#[$m:meta])* live $f:ident; $($rest:tt)*) => {
        counters!(@munch [$($db)* $(#[$m])* pub $f: AtomicU64,] [$($snap)*] [$($row)*] $($rest)*);
    };
    (@munch [$($db:tt)*] [$($snap:tt)*] [$($row:tt)*]
        $(#[$m:meta])* level $a:ident, $b:ident => $ra:ident, $rb:ident; $($rest:tt)*) => {
        counters!(@munch
            [$($db)* $(#[$m])* pub $a: [AtomicU64; MAX_LEVELS],
                $(#[$m])* pub $b: [AtomicU64; MAX_LEVELS],]
            [$($snap)* $(#[$m])* pub $a: [u64; MAX_LEVELS], $(#[$m])* pub $b: [u64; MAX_LEVELS],]
            [$($row)* (level $a $b $ra $rb)] $($rest)*);
    };
    (@munch [$($db:tt)*] [$($snap:tt)*] [$($row:tt)*]
        $(#[$m:meta])* $k:ident $f:ident = $src:ident; $($rest:tt)*) => {
        counters!(@munch
            [$($db)*] [$($snap)* $(#[$m])* pub $f: u64,] [$($row)* ($k $f = $src)] $($rest)*);
    };
    (@munch [$($db:tt)*] [$($snap:tt)*] [$($row:tt)*]
        $(#[$m:meta])* $k:ident $f:ident $($st:ident)?; $($rest:tt)*) => {
        counters!(@munch
            [$($db)* $(#[$m])* pub $f: AtomicU64,] [$($snap)* $(#[$m])* pub $f: u64,]
            [$($row)* ($k $f $($st)?)] $($rest)*);
    };
    ($($rows:tt)*) => { counters!(@munch [] [] [] $($rows)*); };
}

// One row per counter: `kind name [STATS];`, `cache|gauge name = CacheStats
// field;`, or `level a, b => a_suffix, b_suffix;` for a pair of per-level
// arrays flattened together.
counters! {
    // Point lookup stage timers (Table 1 / Figure 7).
    sum lookups STATS;
    sum table_locate_ns;
    sum predict_ns;
    sum io_cpu_ns;
    sum search_ns;
    // Bloom behaviour.
    sum bloom_checks;
    sum bloom_negatives;
    sum memtable_hits;
    // Write path. One `Db::write` is one batch; concurrent batches fuse into
    // commit groups of one WAL record each (`wal_appends` == `write_groups`).
    sum write_batches STATS;
    sum write_entries STATS;
    sum write_groups;
    sum wal_appends;
    sum wal_bytes;
    sum wal_syncs STATS;
    // Compaction breakdown (Figure 9) and write-amplification accounting.
    sum flushes STATS;
    /// Bytes flushes wrote into L0: the write-amplification denominator.
    sum flush_bytes_written STATS;
    sum compactions STATS;
    /// Sub-range merge units executed (a single-threaded compaction counts one).
    sum subcompactions STATS;
    sum compact_total_ns;
    sum compact_kv_io_ns;
    sum compact_train_ns;
    sum compact_model_write_ns;
    sum compact_bytes_read STATS;
    sum compact_bytes_written STATS;
    // Range scans (Figure 11).
    sum scans STATS;
    sum scan_entries;
    // Background maintenance: write backpressure and worker activity.
    /// Writes delayed ~1 ms because L0 reached `l0_slowdown_trigger`.
    sum stall_slowdowns STATS;
    /// Writes blocked until maintenance caught up (L0 at `l0_stop_trigger`, or imm queue full).
    sum stall_stops STATS;
    /// Total wall time writers spent stalled (both kinds), in ns.
    sum stall_ns;
    /// Memtable rotations onto the immutable queue.
    sum imm_rotations;
    /// High-water mark of the immutable-memtable queue depth.
    peak imm_queue_peak;
    /// Busy time of background flush workers, in ns.
    sum bg_flush_ns;
    /// Busy time of background compaction workers, in ns.
    sum bg_compact_ns;
    /// Errors surfaced by background workers (the Db keeps the last one).
    sum bg_errors;
    /// Writes completed while a background worker was busy: proves the overlap.
    sum writes_during_maintenance;
    /// Live shard splits completed by the sharding layer.
    sum shard_splits STATS;
    /// Commit-marker log checkpoints taken at runtime, without a reopen.
    sum commit_checkpoints;
    // Engine-cache counters, absorbed from the cache's own atomics.
    cache cache_block_hits = block_hits;
    cache cache_block_misses = block_misses;
    cache cache_block_evictions = block_evictions;
    cache cache_table_hits = table_hits;
    cache cache_table_misses = table_misses;
    /// Bytes currently charged to the cache.
    gauge cache_used_bytes = used_bytes;
    /// The cache's byte ceiling.
    gauge cache_capacity_bytes = capacity_bytes;
    /// Reads served by each level, and their time in ns (Figure 10).
    level level_reads, level_read_ns => reads, read_ns;
    /// Compaction bytes by the level they were read from / written to.
    level compact_level_bytes_read, compact_level_bytes_written
        => compact_bytes_read, compact_bytes_written;
    /// Background workers busy now; see [`DbStats::active_background_workers`].
    live bg_active;
    /// Writers blocked in a hard stop now; see [`DbStats::stalled_writers`].
    live stalled_now;
}

impl DbStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn add_predict_ns(&self, ns: u64) {
        self.predict_ns.fetch_add(ns, Relaxed);
    }

    #[inline]
    pub(crate) fn add_io_cpu_ns(&self, ns: u64) {
        self.io_cpu_ns.fetch_add(ns, Relaxed);
    }

    #[inline]
    pub(crate) fn add_search_ns(&self, ns: u64) {
        self.search_ns.fetch_add(ns, Relaxed);
    }

    /// Record one read that was served by level `level`.
    pub(crate) fn record_level_read(&self, level: usize, ns: u64) {
        if level < MAX_LEVELS {
            self.level_reads[level].fetch_add(1, Relaxed);
            self.level_read_ns[level].fetch_add(ns, Relaxed);
        }
    }

    /// Attribute compaction input bytes to the level they were read from.
    pub(crate) fn record_compact_read(&self, level: usize, bytes: u64) {
        if level < MAX_LEVELS {
            self.compact_level_bytes_read[level].fetch_add(bytes, Relaxed);
        }
    }

    /// Attribute compaction output bytes to the level they were written to.
    pub(crate) fn record_compact_write(&self, level: usize, bytes: u64) {
        if level < MAX_LEVELS {
            self.compact_level_bytes_written[level].fetch_add(bytes, Relaxed);
        }
    }

    /// Record a memtable rotation that left the immutable queue `depth` deep.
    pub(crate) fn record_rotation(&self, depth: usize) {
        self.imm_rotations.fetch_add(1, Relaxed);
        self.imm_queue_peak.fetch_max(depth as u64, Relaxed);
    }

    /// Record one writer stall of `ns` wall time. `stopped` distinguishes a
    /// hard stop (blocked on maintenance) from a slowdown delay.
    pub(crate) fn record_stall(&self, stopped: bool, ns: u64) {
        if stopped {
            self.stall_stops.fetch_add(1, Relaxed);
        } else {
            self.stall_slowdowns.fetch_add(1, Relaxed);
        }
        self.stall_ns.fetch_add(ns, Relaxed);
    }

    /// Background workers currently executing a flush or compaction.
    pub fn active_background_workers(&self) -> u64 {
        self.bg_active.load(Relaxed)
    }

    /// Writers currently blocked in a hard stop (stop trigger / queue
    /// full), waiting for maintenance to catch up.
    pub fn stalled_writers(&self) -> u64 {
        self.stalled_now.load(Relaxed)
    }

    /// Sum the current counters of several stats blocks into one snapshot —
    /// the per-shard → whole-engine aggregation behind
    /// `ShardedDb::stats()`, usable standalone for any fleet of engines.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a DbStats>) -> StatsSnapshot {
        stats
            .into_iter()
            .fold(StatsSnapshot::default(), |acc, s| acc + s.snapshot())
    }
}

impl StatsSnapshot {
    /// Sum a set of snapshots (e.g. one per shard) into one report.
    /// Equivalent to folding with `+`.
    pub fn merged(parts: &[StatsSnapshot]) -> StatsSnapshot {
        parts.iter().fold(Self::default(), |acc, s| acc + *s)
    }

    /// Device write amplification of the maintenance pipeline: every byte
    /// written by flushes and compactions, per byte of user data flushed.
    /// `1.0` means no compaction traffic yet; `0.0` means nothing flushed.
    pub fn write_amplification(&self) -> f64 {
        let (flushed, compacted) = (self.flush_bytes_written, self.compact_bytes_written);
        if flushed == 0 {
            return 0.0;
        }
        (flushed + compacted) as f64 / flushed as f64
    }

    /// The lookup breakdown of Table 1, averaged per lookup (ns).
    pub fn lookup_breakdown(&self) -> LookupBreakdown {
        let n = self.lookups.max(1);
        LookupBreakdown {
            table_locate_ns: self.table_locate_ns / n,
            predict_ns: self.predict_ns / n,
            io_cpu_ns: self.io_cpu_ns / n,
            search_ns: self.search_ns / n,
        }
    }

    /// The compaction breakdown of Figure 9.
    pub fn compaction_breakdown(&self) -> CompactionBreakdown {
        CompactionBreakdown {
            total_ns: self.compact_total_ns,
            kv_io_ns: self.compact_kv_io_ns,
            train_ns: self.compact_train_ns,
            model_write_ns: self.compact_model_write_ns,
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;
    fn add(mut self, rhs: StatsSnapshot) -> StatsSnapshot {
        self += rhs;
        self
    }
}

/// Per-lookup average stage times (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupBreakdown {
    pub table_locate_ns: u64,
    pub predict_ns: u64,
    pub io_cpu_ns: u64,
    pub search_ns: u64,
}

/// Aggregate compaction stage times (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionBreakdown {
    pub total_ns: u64,
    pub kv_io_ns: u64,
    pub train_ns: u64,
    pub model_write_ns: u64,
}

impl CompactionBreakdown {
    /// Fraction of compaction time spent training (paper: <5% for most
    /// indexes, 10–15% for PLEX).
    pub fn train_fraction(&self) -> f64 {
        self.train_ns as f64 / self.total_ns.max(1) as f64
    }

    /// Fraction spent serializing models.
    pub fn model_write_fraction(&self) -> f64 {
        self.model_write_ns as f64 / self.total_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn snapshot_diffs() {
        let s = DbStats::new();
        s.lookups.fetch_add(5, Ordering::Relaxed);
        s.add_predict_ns(100);
        let a = s.snapshot();
        s.lookups.fetch_add(3, Ordering::Relaxed);
        s.add_predict_ns(50);
        s.record_level_read(2, 42);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.lookups, 3);
        assert_eq!(d.predict_ns, 50);
        assert_eq!(d.level_reads[2], 1);
        assert_eq!(d.level_read_ns[2], 42);
    }

    #[test]
    fn breakdown_averages_per_lookup() {
        let s = DbStats::new();
        s.lookups.fetch_add(10, Ordering::Relaxed);
        s.add_predict_ns(1000);
        s.add_io_cpu_ns(20_000);
        s.add_search_ns(500);
        let b = s.snapshot().lookup_breakdown();
        assert_eq!(b.predict_ns, 100);
        assert_eq!(b.io_cpu_ns, 2_000);
        assert_eq!(b.search_ns, 50);
    }

    #[test]
    fn compaction_fractions() {
        let c = CompactionBreakdown {
            total_ns: 1_000,
            kv_io_ns: 900,
            train_ns: 40,
            model_write_ns: 20,
        };
        assert!((c.train_fraction() - 0.04).abs() < 1e-9);
        assert!((c.model_write_fraction() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn stall_and_rotation_counters() {
        let s = DbStats::new();
        s.record_stall(false, 100);
        s.record_stall(true, 400);
        s.record_rotation(1);
        s.record_rotation(3);
        s.record_rotation(2);
        let snap = s.snapshot();
        assert_eq!(snap.stall_slowdowns, 1);
        assert_eq!(snap.stall_stops, 1);
        assert_eq!(snap.stall_ns, 500);
        assert_eq!(snap.imm_rotations, 3);
        assert_eq!(snap.imm_queue_peak, 3, "peak is a high-water mark");
        let later = s.snapshot();
        assert_eq!(later.since(&snap).imm_queue_peak, 3, "peak survives diffs");
    }

    #[test]
    fn add_sums_counters_and_maxes_peak() {
        let a = DbStats::new();
        a.lookups.fetch_add(3, Ordering::Relaxed);
        a.record_level_read(1, 10);
        a.record_rotation(2);
        let b = DbStats::new();
        b.lookups.fetch_add(4, Ordering::Relaxed);
        b.record_level_read(1, 5);
        b.record_rotation(5);
        b.record_stall(true, 70);

        let sum = a.snapshot() + b.snapshot();
        assert_eq!(sum.lookups, 7);
        assert_eq!(sum.level_reads[1], 2);
        assert_eq!(sum.level_read_ns[1], 15);
        assert_eq!(sum.imm_rotations, 2);
        assert_eq!(sum.imm_queue_peak, 5, "peak is a max, not a sum");
        assert_eq!(sum.stall_stops, 1);
        assert_eq!(sum.stall_ns, 70);

        // The helper folds the live blocks the same way.
        assert_eq!(DbStats::merged([&a, &b]), sum);
        assert_eq!(StatsSnapshot::merged(&[a.snapshot(), b.snapshot()]), sum);
        assert_eq!(
            StatsSnapshot::merged(&[]),
            StatsSnapshot::default(),
            "empty merge is the zero snapshot"
        );
    }

    #[test]
    fn gauges_sum_on_add_and_keep_later_value_on_since() {
        let a = StatsSnapshot {
            cache_used_bytes: 300,
            cache_capacity_bytes: 1000,
            ..Default::default()
        };
        let b = StatsSnapshot {
            cache_used_bytes: 200,
            cache_capacity_bytes: 1000,
            ..Default::default()
        };
        let sum = a + b;
        assert_eq!(sum.cache_used_bytes, 500, "private caches add up");
        assert_eq!(sum.cache_capacity_bytes, 2000);
        // A gauge may fall between readings: the diff is the later value,
        // never an underflowing subtraction.
        let d = b.since(&a);
        assert_eq!(d.cache_used_bytes, 200);
        assert_eq!(d.cache_capacity_bytes, 1000);
    }

    #[test]
    fn counter_pairs_flatten_scalars_and_busy_levels() {
        let s = DbStats::new();
        s.lookups.fetch_add(9, Ordering::Relaxed);
        s.record_level_read(2, 42);
        let pairs = s.snapshot().counter_pairs();
        let get = |name: &str| pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("lookups"), Some(9));
        assert_eq!(get("level2_reads"), Some(1));
        assert_eq!(get("level2_read_ns"), Some(42));
        assert_eq!(get("level0_reads"), None, "idle levels stay off the wire");
    }

    #[test]
    fn level_reads_out_of_range_ignored() {
        let s = DbStats::new();
        s.record_level_read(MAX_LEVELS + 3, 1); // must not panic
        assert_eq!(s.snapshot().level_reads.iter().sum::<u64>(), 0);
    }
}
