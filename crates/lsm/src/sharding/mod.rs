//! Sharded engine: many [`Db`] shards behind one `Db`-shaped facade, with
//! a routing topology that changes **online**.
//!
//! [`ShardedDb`] range- or hash-partitions the key space across `N`
//! independent LSM-trees and exposes the same `write`/`get`/`iter`/
//! `snapshot` surface as a single [`Db`]:
//!
//! * **Learned range routing** ([`router`]) — shard boundaries are chosen
//!   from a sampled key distribution via a cheap CDF model (PLR over the
//!   sample: `position/n` *is* the empirical CDF), so each shard holds an
//!   ≈equal share of the data even on heavily skewed key spaces, with
//!   hash sharding as the fallback for unknown distributions.
//! * **Epoch'd routing topology** ([`topology`]) — the shard set itself is
//!   a versioned, crash-atomically persisted artifact (`SHARDING-<epoch>`,
//!   CRC-sealed like the per-shard manifests). A reopen adopts whatever
//!   the last sealed topology says — the shard count is a property of the
//!   *data*, not of the open call — and a live **split** (below) replaces
//!   one hot shard with two children in a single epoch publish. Every
//!   shard has a *stable id* (its `shard-<id>/` directory) that never
//!   changes as routing positions shift.
//! * **Live shard splitting** — a [`router::TrafficSampler`] keeps a
//!   decaying sample of routed keys (observability + model retraining);
//!   when one shard's resident bytes outgrow the fair target share past
//!   [`crate::ShardedOptions::split_imbalance`], the hot shard is drained
//!   through its pinned iterator into two child shards at an **exact
//!   peel-or-halve quantile** of its own data, **without blocking
//!   readers**, and the CDF model is retrained from the observed
//!   traffic. See *The split protocol* below.
//! * **Cross-shard atomic batches** ([`split`]) — a [`WriteBatch`] is
//!   split per shard and committed under one *shared sequence fence*: the
//!   whole batch gets one contiguous global sequence range (each shard a
//!   sub-range, one group-commit WAL record per touched shard), and the
//!   fence's published ceiling advances only after every shard has
//!   applied. Snapshots and merged scans read at the published fence
//!   (pinned under the commit lock), so a multi-shard batch is
//!   **all-or-nothing visible** to every multi-key view.
//! * **Coherent snapshots** ([`ShardedSnapshot`]) — one RAII handle
//!   capturing every shard at the same published fence **and at the
//!   topology epoch of acquisition**: reads and merged scans through it
//!   resolve through the pinned epoch's shard set, so a split published
//!   after the snapshot cannot reroute (or lose) anything it sees.
//! * **Merged scans** ([`merge`]) — per-shard snapshot-consistent
//!   iterators k-way-merged by a binary heap into one globally ordered
//!   scan, sourced from the pinned epoch.
//! * **One shared worker pool** — under [`Maintenance::Background`] the
//!   thread counts are a *global* budget: a single `scheduler` pool
//!   round-robins flush/compaction steps across all shards (the step
//!   closures re-read the shard list each pass, so split children join
//!   and retired parents leave the rotation live), and split evaluation
//!   itself runs as a background maintenance step on the same pool.
//! * **Coordinated crash recovery** — each shard keeps its own manifest +
//!   WALs in its own `shard-<id>/` directory (`lsm_io::PrefixedStorage`),
//!   and a recovery coordinator in [`ShardedDb::open`] resolves
//!   cross-shard batches to committed/aborted before the fence resumes
//!   (see below).
//!
//! ## The split protocol (dual-write window + one-epoch cutover)
//!
//! A split of the shard at routing position `p` with cut key `m`:
//!
//! 1. **Begin** (under the commit lock, brief): two child shards with
//!    fresh stable ids are created, registered with the worker pool, and
//!    a drain snapshot of the parent is pinned at the current fence `F₀`.
//!    From this moment the **dual-write window** is open: every committed
//!    write routed to the parent is *also* applied to the matching child
//!    (same global sequence sub-range, plain WAL records), while reads
//!    keep resolving through the parent.
//! 2. **Drain** (no lock): the parent's pinned image is iterated and
//!    copied into the children — keys `< m` left, `≥ m` right — with
//!    sequence numbers `1..=n ≤ F₀`, i.e. strictly below every
//!    dual-written version, so "newest version wins" merges the drain and
//!    the window correctly no matter how they interleave.
//! 3. **Cutover** (under the commit lock): the children are flushed
//!    durable, the topology is sealed at `epoch+1` (the **single**
//!    storage-visible commit point of the split), the in-memory routing
//!    state is swapped, and the parent leaves the worker rotation. The
//!    parent directory is retired best-effort; recovery sweeps leftovers.
//!
//! **The dual-write-window invariant**: between begin and cutover, every
//! write acknowledged to a client exists in *both* the parent and the
//! children, so the last sealed topology is always self-sufficient — a
//! crash at any storage-operation boundary resolves via that topology
//! alone: before the seal the parent replays and the children are
//! discarded as orphans; after it the children replay and the parent is
//! the orphan. Neither path consults the other side. Snapshots pinned
//! before the cutover keep reading the parent through their pinned epoch.
//! A child-side write error during the window cancels the split (children
//! are incomplete, so they are abandoned); it never fails the client's
//! commit, because the parent — still the routed truth — applied it.
//!
//! ## Crash atomicity: the prepare/commit protocol
//!
//! Per-shard WALs are independent, so without coordination a crash
//! between two shards' appends would resurrect a torn batch after
//! recovery. Cross-shard batches therefore commit in two steps:
//!
//! 1. **Prepare** — each touched shard's group-commit WAL record is
//!    written as a *prepare* record (format 2), tagged with the batch's
//!    global sequence range and participant set of **stable shard ids**
//!    (ids survive topology changes, so a prepare written at epoch `e`
//!    still resolves after any number of splits).
//! 2. **Commit** — after every prepare is appended, one marker record in
//!    the per-database [`commit`] log (`COMMIT-<n>`, at the root next to
//!    the topology files) seals the batch, stamped with the topology
//!    epoch it was routed at. That single CRC-framed append is the
//!    batch's commit point. Only then does the fence publish the batch.
//!
//! On [`ShardedDb::open`], the recovery coordinator reads the marker log
//! once (the union of all generations), then recovers every shard with a
//! resolver: a replayed prepare whose marker is present is applied (and
//! re-logged as a plain record); one whose marker is absent — the crash
//! landed anywhere before the seal, including mid-marker (a torn marker
//! is no marker) — is suppressed on every shard, so the batch aborts
//! everywhere. Single crash, crash during recovery, crash during the
//! recovery of *that* recovery: the resolution is idempotent, because
//! markers are truncated only after every shard has re-opened and
//! re-logged its surviving fragments as self-certifying plain records.
//! [`RecoveryReport`] says what the coordinator decided — including
//! whether the router's CDF model file was lost (routing then falls back
//! *explicitly* to boundary binary search: same answers, reported, never
//! silent) and how many orphaned split directories were swept.
//!
//! The marker log is additionally **checkpointed at runtime**: once it
//! grows past [`crate::ShardedOptions::commit_log_checkpoint_bytes`],
//! every shard is flushed and markers below the flush watermark are
//! dropped into a fresh generation (`CommitLog::checkpoint`),
//! so long-lived heavy cross-shard traffic no longer grows it without
//! bound.
//!
//! Three scope notes. Batches that touch a single shard skip the marker
//! (their one WAL record is already all-or-nothing on replay). Unlogged
//! batches (`WriteOptions::disable_wal`) make no durability promise at
//! all, so they get no protocol — a crash can keep whichever fragments a
//! flush happened to persist. And with `sync = false`, "crash" means the
//! storage-operation prefix model the harness tests (an OS that reorders
//! unsynced appends across files can still tear a batch — same caveat as
//! LevelDB); `WriteOptions::durable` closes that too, syncing every
//! prepare before the marker is sealed.
//!
//! ## Visibility (in-process)
//!
//! The fence makes cross-shard batches atomically visible **to multi-key
//! views** — snapshots and merged scans. Bare point [`ShardedDb::get`]s
//! read the owning shard's latest applied state and make no cross-key
//! promise (two separate `get`s are not a cut, with or without sharding;
//! use a [`ShardedSnapshot`] for one); a `get` that races a topology
//! cutover re-checks the epoch and retries, so it never returns a value
//! staler than the shard that owned the key when the read began. A
//! storage error mid-commit poisons the write path (reads stay
//! available), so no *later* commit can ever publish a fence past the
//! orphaned sub-batches — and since the batch was never sealed, a reopen
//! aborts it everywhere.

pub mod commit;
pub mod merge;
pub mod router;
pub mod split;
pub mod topology;

pub use merge::ShardedDbIterator;
pub use router::{imbalance, ShardRouter, TrafficSampler};
pub use split::{split_batch, split_by_cut};
pub use topology::Topology;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::batch::WriteBatch;
use crate::cache::{CacheStats, EngineCache};
use crate::db::{CommitCoordination, Db, DbCore, ExternalPool};
use crate::options::{Maintenance, ReadOptions, ShardedOptions, WriteOptions};
use crate::scheduler::{MaintSignal, Scheduler, Step};
use crate::snapshot::Snapshot;
use crate::stats::{DbStats, StatsSnapshot};
use crate::types::SeqNo;
use crate::wal::CrossBatchTag;
use crate::{Error, Result};
use lsm_io::{CostModel, MemStorage, PrefixedStorage, SimStorage, Storage};
use lsm_obs::{
    EngineObs, EventKind, MetricsSnapshot, Observer, DEFAULT_RING_CAPACITY, GLOBAL_SHARD,
};

/// Epoch-change retries a bare [`ShardedDb::get`] absorbs before giving
/// up with [`Error::Unavailable`]. A retry only happens when a split's
/// cutover published a new topology *between* the read resolving and its
/// epoch re-check, so consecutive retries require consecutive cutovers —
/// more than a handful in one read means the topology is churning faster
/// than reads can land, and spinning further just adds load.
pub const MAX_GET_RETRIES: usize = 8;

/// The shared sequence fence: one global allocator + one published
/// visibility ceiling for all shards.
///
/// `next` is the last sequence number handed out; `visible` is the last
/// sequence number whose batch has been fully applied on every shard it
/// touches. `visible` trails `next` only while a commit is in flight, and
/// every read path uses `visible` as its ceiling — which is exactly what
/// makes a cross-shard batch all-or-nothing visible.
#[derive(Debug)]
struct SeqFence {
    next: AtomicU64,
    visible: AtomicU64,
}

/// One topology epoch materialized in memory: the router over its
/// boundary set and the open shard handles in routing order. Immutable —
/// a topology change (a split's cutover) swaps in a whole new state, so
/// everything that captured an `Arc<RoutingState>` (snapshots, iterators,
/// in-flight reads) keeps resolving through the epoch it started at.
pub struct RoutingState {
    epoch: u64,
    /// Stable shard ids in routing order (`ids[pos]` owns range slot
    /// `pos`; its directory is `shard-<id>/`).
    ids: Vec<u16>,
    router: ShardRouter,
    shards: Vec<Arc<Db>>,
}

impl RoutingState {
    /// The topology epoch this state materializes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The router in effect at this epoch.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Stable shard ids in routing order.
    pub fn shard_ids(&self) -> &[u16] {
        &self.ids
    }

    /// Number of shards at this epoch.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, pos: usize) -> &Arc<Db> {
        &self.shards[pos]
    }
}

impl std::fmt::Debug for RoutingState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingState")
            .field("epoch", &self.epoch)
            .field("ids", &self.ids)
            .field("router", &self.router)
            .finish()
    }
}

/// A coherent point-in-time view across every shard: all per-shard
/// [`Snapshot`]s are pinned at the **same** published fence sequence and
/// the **same** topology epoch, so a cross-shard batch is either entirely
/// inside or entirely outside the view and a later split cannot reroute
/// what it reads. Obtained from [`ShardedDb::snapshot`]; dropping
/// releases every per-shard pin.
#[derive(Debug)]
pub struct ShardedSnapshot {
    seq: SeqNo,
    state: Arc<RoutingState>,
    pins: Vec<Snapshot>,
}

impl ShardedSnapshot {
    /// The fence sequence every shard of this snapshot reads at.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// The topology epoch this snapshot resolves through.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    pub(crate) fn shard(&self, i: usize) -> &Snapshot {
        &self.pins[i]
    }
}

/// What the recovery coordinator resolved during [`ShardedDb::open`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Prepare fragments whose batch was sealed: replayed.
    pub committed_fragments: u64,
    /// Fragments of unsealed batches: suppressed everywhere.
    pub aborted_fragments: u64,
    /// The topology epoch the database resumed at.
    pub topology_epoch: u64,
    /// The router's persisted CDF model was missing or corrupt: routing
    /// fell back — explicitly, not silently — to binary search over the
    /// sealed boundaries (identical answers, just not learned).
    pub router_model_degraded: bool,
    /// Orphaned shard directories swept: children of a split whose
    /// cutover never sealed, or the parent of one that did.
    pub orphan_shards_swept: u64,
}

/// A split in flight: children exist and receive dual writes, but the
/// topology still names the parent. Shared between the committer (which
/// mirrors writes under the commit lock) and the drain.
struct PendingSplit {
    parent_pos: usize,
    parent_id: u16,
    cut: u64,
    left_id: u16,
    right_id: u16,
    left: Arc<Db>,
    right: Arc<Db>,
    /// Set once the drain has fully copied the parent's pinned image —
    /// the precondition for any cutover. A `finish_split` racing a drain
    /// still in flight (another worker resuming the pending split) must
    /// refuse until this is set, or it would publish half-drained
    /// children.
    drained: AtomicBool,
    /// Set when the split is abandoned (a child write failed, or an
    /// explicit abort): the drain stops, the cutover refuses, and the
    /// children are discarded.
    cancelled: AtomicBool,
    /// Observability span id tying this split's begin / dual-write /
    /// cutover events together (0 when observability is off).
    span: u64,
}

/// Residency + balance report of one [`ShardedDb`] — the observability
/// the split trigger acts on, exposed so an operator can watch a split
/// coming before it fires. Obtained from [`ShardedDb::sharded_stats`].
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Engine counters summed across every shard (plus the sharding
    /// layer's own split/checkpoint counters).
    pub merged: StatsSnapshot,
    /// The current topology epoch.
    pub topology_epoch: u64,
    /// Stable shard ids in routing order.
    pub shard_ids: Vec<u16>,
    /// Resident bytes per shard (tables + memtables) in routing order —
    /// what the split trigger compares.
    pub resident_bytes: Vec<u64>,
    /// Resident entries per shard (tables + active memtable).
    pub resident_entries: Vec<u64>,
    /// `max/mean - 1` over `resident_bytes`.
    pub resident_imbalance: f64,
    /// [`imbalance`] of the router's decaying observed-traffic sample —
    /// how skewed *current* writes are under the current boundaries.
    pub observed_imbalance: f64,
    /// Keys in the observation window behind `observed_imbalance`.
    pub observed_keys: usize,
    /// Markers live in the active commit-log generation.
    pub live_commit_markers: usize,
}

/// Shared engine state behind [`ShardedDb`]: everything the foreground
/// API and the background split/maintenance steps both touch (the
/// sharding-layer analogue of [`DbCore`]).
struct ShardedCore {
    storage: Arc<dyn Storage>,
    opts: ShardedOptions,
    /// The current topology epoch's routing state. Swapped whole at a
    /// split's cutover; readers clone the `Arc` and keep their epoch.
    state: RwLock<Arc<RoutingState>>,
    /// The persisted form of the current topology (authoritative id
    /// allocator + boundary set).
    topology: Mutex<Topology>,
    fence: SeqFence,
    /// The commit lock (serializes cross-shard commits — the fence
    /// publishes in allocation order because of it) and the poison flag
    /// (set when a commit failed after touching some shards: writes and
    /// flushes are refused so the partial batch can neither become
    /// visible nor durable in this process). Shared with every shard so
    /// even a flush through [`ShardedDb::shard`] honours both.
    coordination: Arc<CommitCoordination>,
    /// Commit-marker log sealing cross-shard batches (`None` when the WAL
    /// is disabled — nothing to seal). Appends happen under the commit
    /// lock; the inner mutex only satisfies `&self` mutability.
    commit_log: Option<Mutex<commit::CommitLog>>,
    /// What recovery resolved when this handle was opened.
    recovery: RecoveryReport,
    /// Shared wakeup channel: every shard's rotations/installs bump it,
    /// the global workers and stalled writers wait on it.
    signal: Arc<MaintSignal>,
    shutdown: Arc<AtomicBool>,
    /// The split in flight, if any (at most one at a time).
    pending: Mutex<Option<Arc<PendingSplit>>>,
    /// Decaying sample of routed keys (fed under the commit lock).
    sampler: Mutex<TrafficSampler>,
    /// The sharding layer's own counters (splits, checkpoints), merged
    /// into [`ShardedDb::stats`] alongside the per-shard blocks. Every
    /// split parent's final counts are folded in at its cutover.
    own_stats: DbStats,
    /// Cache counters of split parents' private caches (split-budget
    /// baseline only), folded in at cutover; the gauges stay zero.
    retired_caches: Mutex<StatsSnapshot>,
    /// The shared event sink when `opts.base.observability` is on. Every
    /// shard's [`EngineObs`] emits into this one ring; the sharding
    /// layer's own lifecycle events (splits, checkpoints) are tagged
    /// [`GLOBAL_SHARD`].
    observer: Option<Arc<Observer>>,
    /// Stable-id allocator (persisted via the topology at each cutover;
    /// ids burned by an aborted split are not reused in-process).
    next_shard_id: AtomicU32,
    /// Shard cores the shared worker pool steps over. Re-read every
    /// worker pass, so split children join the rotation at begin and the
    /// retired parent leaves it at cutover.
    worker_cores: RwLock<Arc<Vec<Arc<DbCore>>>>,
    /// The engine cache shared by every shard — one byte budget for the
    /// whole topology; split children open against it too. `None` when
    /// caching is off *or* when `opts.split_cache_budget` gave each shard
    /// a private cache (the experiment baseline).
    cache: Option<Arc<EngineCache>>,
    /// Write-batch counter driving the synchronous-mode split check.
    write_ticks: AtomicU64,
    /// Most recent sharding-layer background error (failed split or
    /// checkpoint) — never a commit error, those surface directly.
    last_bg_error: Mutex<Option<String>>,
}

/// An open sharded database. See the [module docs](self) for the design.
pub struct ShardedDb {
    core: Arc<ShardedCore>,
    /// The single shared worker pool (background maintenance only).
    scheduler: Option<Scheduler>,
}

impl ShardedDb {
    /// Open (or create) a sharded database on `storage`.
    ///
    /// A fresh directory trains the router from `opts.policy`, seals the
    /// epoch-1 topology and persists it. An existing one adopts the
    /// **last sealed topology** — whatever shard count and boundaries
    /// live splitting left behind; `opts.shards` is only the creation
    /// default — sweeps any orphaned split directories, and recovers
    /// every shard from its own `shard-<id>/` manifest + WALs through
    /// the cross-shard recovery coordinator.
    pub fn open(storage: Arc<dyn Storage>, opts: ShardedOptions) -> Result<ShardedDb> {
        let requested = opts.shards.max(1);
        let mut model_degraded = false;
        let (topo, router) = match Topology::load(storage.as_ref())? {
            Some(mut topo) => {
                if topo.epoch == 0 {
                    // Legacy PR 3 layout: re-seal as epoch 1 (the sealed
                    // file lands before the legacy file is retired, so a
                    // crash between the two keeps one readable copy).
                    topo.epoch = 1;
                    topo.save(storage.as_ref())?;
                }
                let router = if topo.range {
                    let model = topology::load_model(storage.as_ref());
                    model_degraded = model.is_none() && topo.sample_len > 0;
                    ShardRouter::with_boundaries(topo.boundaries.clone(), model, topo.sample_len)
                } else {
                    ShardRouter::Hash {
                        shards: topo.shards(),
                    }
                };
                (topo, router)
            }
            None => {
                let router = ShardRouter::train(requested, &opts.policy);
                let topo = match &router {
                    ShardRouter::Range {
                        boundaries,
                        model,
                        sample_len,
                    } => {
                        if let Some(m) = model {
                            topology::save_model(storage.as_ref(), m.as_ref())?;
                        }
                        Topology::fresh(requested, true, boundaries.clone(), *sample_len)
                    }
                    ShardRouter::Hash { shards } => Topology::fresh(*shards, false, Vec::new(), 0),
                };
                topo.save(storage.as_ref())?;
                (topo, router)
            }
        };
        // Sweep the debris of crashed topology changes — stale epochs,
        // orphaned split children (cutover never sealed) or a retired
        // split parent (it did) — before any shard opens.
        let orphans = topo.sweep_stale(storage.as_ref())?;

        let background = opts.base.maintenance.is_background();
        let signal = Arc::new(MaintSignal::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let coordination = Arc::new(CommitCoordination::default());
        // One shared observer for the whole engine: every shard emits into
        // the same ring, so the drained timeline interleaves shards in
        // true order and span ids are unique engine-wide.
        let observer = opts
            .base
            .observability
            .then(|| Arc::new(Observer::new(DEFAULT_RING_CAPACITY)));

        // Recovery coordination: read the commit-marker log once (union
        // of all generations), then recover every shard with a resolver
        // that applies a replayed cross-shard prepare fragment only if
        // its batch was sealed. A crash anywhere before the seal aborts
        // the batch on every shard.
        let markers = commit::read_markers(storage.as_ref())?;
        if markers.max_epoch > topo.epoch {
            return Err(Error::Corruption(format!(
                "commit marker names topology epoch {} but the last sealed topology is epoch {}",
                markers.max_epoch, topo.epoch
            )));
        }
        let committed_fragments = AtomicU64::new(0);
        let aborted_fragments = AtomicU64::new(0);

        // One cache, one budget, every shard — unless the caller asked for
        // the split-budget baseline, in which case each shard gets a
        // private cache of `block_cache_bytes / shards` via its own
        // options and no cache is shared.
        let shared_cache = if opts.split_cache_budget {
            None
        } else {
            EngineCache::from_options(&opts.base)
        };
        let mut shard_base = opts.base.clone();
        if opts.split_cache_budget {
            shard_base.block_cache_bytes = opts.base.block_cache_bytes / topo.shards().max(1);
        }

        let mut shards = Vec::with_capacity(topo.shards());
        for &id in &topo.ids {
            let dir: Arc<dyn Storage> = Arc::new(PrefixedStorage::new(
                Arc::clone(&storage),
                Topology::shard_dir(id),
            ));
            let pool = background.then(|| ExternalPool {
                signal: Arc::clone(&signal),
                shutdown: Arc::clone(&shutdown),
            });
            let resolver = |tag: &CrossBatchTag| -> Result<bool> {
                // A prepare can only legitimately sit on a shard its
                // participant set names — anything else means a log file
                // landed in the wrong shard directory (or was tampered
                // with), and silently resolving it would apply sequence
                // numbers the fence never routed here. Participant sets
                // name stable ids, so this check survives any number of
                // topology epochs.
                if !tag.participants.contains(&id) {
                    return Err(Error::Corruption(format!(
                        "shard {id} replayed a prepare for batch \
                         {}..={} whose participant set {:?} excludes it",
                        tag.global_first, tag.global_last, tag.participants
                    )));
                }
                let sealed = markers
                    .ranges
                    .contains(&(tag.global_first, tag.global_last));
                let counter = if sealed {
                    &committed_fragments
                } else {
                    &aborted_fragments
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(sealed)
            };
            let obs = observer
                .as_ref()
                .map(|o| Arc::new(EngineObs::new(Arc::clone(o), id)));
            shards.push(Arc::new(Db::open_internal(
                dir,
                shard_base.clone(),
                pool,
                Some(&resolver),
                Some(Arc::clone(&coordination)),
                obs,
                shared_cache.clone(),
            )?));
        }

        // Every shard has re-opened: surviving fragments were re-logged as
        // plain (self-certifying) records, so no marker is load-bearing
        // any more. Start a fresh marker-log generation and retire the
        // old ones — this is also what keeps recovery idempotent if
        // *this* open crashes: until every shard above has reopened, the
        // markers stay on disk for the next attempt to resolve the
        // remaining prepares identically.
        let commit_log = if opts.base.wal {
            let log = commit::CommitLog::create(storage.as_ref(), markers.next_generation)?;
            for old in &markers.files {
                let _ = storage.remove(old);
            }
            Some(Mutex::new(log))
        } else {
            None
        };
        let recovery = RecoveryReport {
            committed_fragments: committed_fragments.load(Ordering::Relaxed),
            aborted_fragments: aborted_fragments.load(Ordering::Relaxed),
            topology_epoch: topo.epoch,
            router_model_degraded: model_degraded,
            orphan_shards_swept: orphans.len() as u64,
        };

        // The fence resumes from the highest sequence any shard recovered.
        let max_seq = shards.iter().map(|d| d.latest_seq()).max().unwrap_or(0);
        let fence = SeqFence {
            next: AtomicU64::new(max_seq),
            visible: AtomicU64::new(max_seq),
        };

        let worker_cores: Vec<Arc<DbCore>> = shards.iter().map(|d| Arc::clone(d.core())).collect();
        let state = Arc::new(RoutingState {
            epoch: topo.epoch,
            ids: topo.ids.clone(),
            router,
            shards,
        });
        let next_shard_id = AtomicU32::new(topo.next_id as u32);
        let core = Arc::new(ShardedCore {
            storage,
            opts,
            state: RwLock::new(state),
            topology: Mutex::new(topo),
            fence,
            coordination,
            commit_log,
            recovery,
            signal: Arc::clone(&signal),
            shutdown: Arc::clone(&shutdown),
            pending: Mutex::new(None),
            sampler: Mutex::new(TrafficSampler::default()),
            own_stats: DbStats::new(),
            retired_caches: Mutex::new(StatsSnapshot::default()),
            observer,
            next_shard_id,
            worker_cores: RwLock::new(Arc::new(worker_cores)),
            cache: shared_cache,
            write_ticks: AtomicU64::new(0),
            last_bg_error: Mutex::new(None),
        });

        let scheduler = match core.opts.base.maintenance {
            Maintenance::Synchronous => None,
            Maintenance::Background {
                flush_threads,
                compaction_threads,
            } => {
                let flush_core = Arc::clone(&core);
                let compact_core = Arc::clone(&core);
                let flush_rr = AtomicUsize::new(0);
                let compact_rr = AtomicUsize::new(0);
                Some(Scheduler::start(
                    signal,
                    shutdown,
                    flush_threads,
                    compaction_threads,
                    move |draining| {
                        let cores = flush_core.worker_cores();
                        round_robin(&cores, &flush_rr, |c| c.flush_step(draining))
                    },
                    move |draining| {
                        // Compaction workers double as the split step:
                        // when no merge is due anywhere, evaluate the
                        // rebalance trigger (live splitting is tree
                        // maintenance like any other).
                        let cores = compact_core.worker_cores();
                        if matches!(
                            round_robin(&cores, &compact_rr, |c| c.compact_step(draining)),
                            Step::Worked
                        ) {
                            return Step::Worked;
                        }
                        if !draining && compact_core.auto_split_enabled() {
                            match compact_core.split_step() {
                                Ok(true) => return Step::Worked,
                                Ok(false) => {}
                                Err(e) => compact_core.note_bg_error(&e),
                            }
                        }
                        Step::Idle
                    },
                ))
            }
        };

        Ok(ShardedDb { core, scheduler })
    }

    /// Open on a fresh in-memory storage (tests, examples).
    pub fn open_memory(opts: ShardedOptions) -> Result<ShardedDb> {
        Self::open(Arc::new(MemStorage::new()), opts)
    }

    /// Open on a fresh simulated-NVMe storage (benchmarks).
    pub fn open_sim(opts: ShardedOptions, model: CostModel) -> Result<ShardedDb> {
        Self::open(Arc::new(SimStorage::new(model)), opts)
    }

    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically across every shard it touches.
    ///
    /// The batch is split per shard ([`split_batch`]) and committed under
    /// the shared fence: one contiguous global sequence range, one
    /// group-commit WAL record per touched shard, and the published
    /// ceiling advances only after the last shard applied — readers never
    /// observe a partially applied cross-shard batch. A batch touching
    /// two or more shards additionally runs the prepare/commit protocol
    /// (see the [module docs](self)): each shard's record is a tagged
    /// prepare, and one marker append to the [`commit`] log seals the
    /// batch before the fence publishes it, making the batch
    /// all-or-nothing across crashes too. During a split's dual-write
    /// window, the fragment aimed at the splitting shard is mirrored into
    /// the children at the same sequence sub-range. Returns the last
    /// sequence number of the batch.
    ///
    /// An error *before* the seal aborts the batch and poisons the write
    /// path (the allocated sequence range must never be reissued in this
    /// process; a reopen rolls the fragments back). An error *after* the
    /// seal — a deferred flush failing — leaves the batch committed and
    /// published; it is an ordinary retryable maintenance error, fixed by
    /// calling [`ShardedDb::flush`] once the storage heals.
    pub fn write(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        let last = self.core.commit(batch, wopts)?;
        self.core.after_commit();
        Ok(last)
    }

    /// Insert or overwrite `key` (thin wrapper over [`ShardedDb::write`]).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, value);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Delete `key` (thin wrapper over [`ShardedDb::write`]).
    pub fn delete(&self, key: u64) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(key);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Write `pairs` as one atomic (possibly cross-shard) batch.
    pub fn put_batch(&self, pairs: &[(u64, Vec<u8>)]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(pairs.len());
        for (k, v) in pairs {
            batch.put(*k, v);
        }
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    // -------------------------------------------------------------- reads

    /// Point lookup at the owning shard's latest applied state.
    ///
    /// A single-key read touches exactly one shard, so cross-shard
    /// atomicity cannot be observed through it; *multi*-key consistency
    /// (the all-or-nothing view of a cross-shard batch) is what
    /// [`ShardedDb::snapshot`] / [`ShardedDb::iter`] provide. The read
    /// re-checks the topology epoch after resolving: if a split cut over
    /// mid-read, it retries against the new shard set, so it never
    /// returns a retired shard's stale state. Retries are capped at
    /// [`MAX_GET_RETRIES`]; past that the read fails with
    /// [`Error::Unavailable`] instead of spinning against a topology that
    /// keeps churning (retry, or pin a [`ShardedDb::snapshot`], which
    /// never retries).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get_with_retries(key, MAX_GET_RETRIES)
    }

    /// [`ShardedDb::get`] with an explicit epoch-change retry budget:
    /// `retries == 0` means "one attempt, fail on any concurrent
    /// cutover". Exposed so callers with their own retry discipline (a
    /// network front end that would rather shed than spin) can tighten
    /// the cap.
    pub fn get_with_retries(&self, key: u64, retries: usize) -> Result<Option<Vec<u8>>> {
        self.core.get_with_retries(key, retries)
    }

    /// Point lookup through a pinned [`ShardedSnapshot`] — routed through
    /// the snapshot's own topology epoch.
    pub fn get_at(&self, key: u64, snapshot: &ShardedSnapshot) -> Result<Option<Vec<u8>>> {
        let pos = snapshot.state.router.shard_of(key);
        snapshot
            .state
            .shard(pos)
            .get_with(key, &ReadOptions::at(snapshot.shard(pos)))
    }

    /// Acquire a coherent snapshot: every shard pinned at the same
    /// published fence and the current topology epoch.
    ///
    /// The pins are taken under the commit lock, so no cross-shard batch
    /// is mid-flight while any shard is captured: each pinned state
    /// contains exactly the batches at or below the fence. (Pinning
    /// *after* a bare fence read would race background flushes, whose
    /// newest-version-per-key retention can drop a sub-fence version in
    /// the window — the lock closes it.) Snapshot acquisition therefore
    /// serializes briefly with writes; reads through the handle never do
    /// — and a split publishing a new epoch later leaves the handle
    /// reading the shard set it pinned.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let _commit = self.core.coordination.lock.lock();
        let state = self.core.current_state();
        let seq = self.core.fence.visible.load(Ordering::Acquire);
        ShardedSnapshot {
            seq,
            pins: state.shards.iter().map(|d| d.snapshot_at(seq)).collect(),
            state,
        }
    }

    /// Number of live per-shard snapshot handles on the current topology
    /// (each [`ShardedSnapshot`] holds one per shard of its epoch).
    pub fn live_snapshots(&self) -> usize {
        let state = self.core.current_state();
        state.shards.iter().map(|d| d.live_snapshots()).sum()
    }

    /// Globally ordered scan over the latest published state (internally
    /// pins a coherent [`ShardedSnapshot`] for the iterator's lifetime —
    /// the per-shard iterators hold the pinned structures, so the scan is
    /// stable and cut-consistent).
    pub fn iter(&self) -> Result<ShardedDbIterator> {
        self.iter_at(&self.snapshot())
    }

    /// Globally ordered scan through a pinned [`ShardedSnapshot`],
    /// sourced from the snapshot's own topology epoch.
    pub fn iter_at(&self, snapshot: &ShardedSnapshot) -> Result<ShardedDbIterator> {
        let iters = snapshot
            .state
            .shards
            .iter()
            .enumerate()
            .map(|(i, d)| d.iter_with(&ReadOptions::at(snapshot.shard(i))))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedDbIterator::new(iters))
    }

    /// Range lookup: up to `limit` live pairs with key ≥ `start`, merged
    /// across shards in global key order.
    pub fn scan(&self, start: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let started = self.core.observer.as_ref().map(|_| Instant::now());
        let snapshot = self.snapshot();
        let mut it = self.iter_at(&snapshot)?;
        it.seek(start)?;
        let out = it.collect_up_to(limit)?;
        // Attribute the scan to the shard owning its start key, so the
        // merged stats still count it exactly once.
        let owner = snapshot.state.shard(snapshot.state.router.shard_of(start));
        let stats = owner.stats();
        stats.scans.fetch_add(1, Ordering::Relaxed);
        stats
            .scan_entries
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        if let (Some(obs), Some(started)) = (owner.observability(), started) {
            obs.ops.scan.record(started.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    // ------------------------------------------------- flush / maintenance

    /// Flush every shard's memtable (and, under background maintenance,
    /// wait for the queues to drain).
    pub fn flush(&self) -> Result<()> {
        let state = {
            // Under the commit lock: a flush racing a cross-shard commit
            // could push a not-yet-sealed prepare fragment into an
            // SSTable, which replays unconditionally — tearing the batch
            // across a crash. Same reason the poison check matters: after
            // a failed commit the memtables hold orphaned unsealed
            // fragments that must never become durable. Only the (fast)
            // rotate/flush half holds the lock; the drain wait below runs
            // outside it.
            let _commit = self.core.coordination.enter()?;
            let state = self.core.current_state();
            for db in &state.shards {
                db.begin_flush()?;
            }
            state
        };
        for db in &state.shards {
            db.finish_flush()?;
        }
        Ok(())
    }

    /// Block until every shard's eligible background maintenance is done.
    pub fn wait_for_maintenance(&self) {
        for db in &self.core.current_state().shards {
            db.wait_for_maintenance();
        }
    }

    /// Pause background flushes on every shard (testing/ops hook).
    pub fn pause_flushes(&self) {
        self.core
            .current_state()
            .shards
            .iter()
            .for_each(|d| d.pause_flushes());
    }

    /// Resume background flushes on every shard.
    pub fn resume_flushes(&self) {
        self.core
            .current_state()
            .shards
            .iter()
            .for_each(|d| d.resume_flushes());
    }

    /// Pause background compactions on every shard.
    pub fn pause_compactions(&self) {
        self.core
            .current_state()
            .shards
            .iter()
            .for_each(|d| d.pause_compactions());
    }

    /// Resume background compactions on every shard.
    pub fn resume_compactions(&self) {
        self.core
            .current_state()
            .shards
            .iter()
            .for_each(|d| d.resume_compactions());
    }

    /// The most recent background error: a shard worker's, or the
    /// sharding layer's own (a failed background split or marker-log
    /// checkpoint).
    pub fn background_error(&self) -> Option<String> {
        if let Some(e) = self.core.last_bg_error.lock().clone() {
            return Some(e);
        }
        self.core
            .current_state()
            .shards
            .iter()
            .find_map(|d| d.background_error())
    }

    /// Drain the shared pool and close every shard, surfacing any
    /// background error.
    pub fn close(mut self) -> Result<()> {
        self.shutdown_pool();
        match self.background_error() {
            None => Ok(()),
            Some(msg) => Err(Error::Corruption(format!("background worker: {msg}"))),
        }
    }

    fn shutdown_pool(&mut self) {
        if let Some(scheduler) = self.scheduler.take() {
            scheduler.shutdown(&self.core.signal, &self.core.shutdown);
        }
    }

    // --------------------------------------------------------- rebalancing

    /// Evaluate the split trigger once and, if a shard qualifies, run one
    /// full live split (begin → drain → cutover). Returns whether a split
    /// was published. This is the ops hook behind both the synchronous
    /// write-path check and the background maintenance step; splitting
    /// requires [`crate::ShardedOptions::max_shards`] headroom.
    pub fn rebalance(&self) -> Result<bool> {
        self.core.try_split()
    }

    /// Staged ops/testing hook: open the dual-write window (create
    /// children, pin and drain the parent) **without** cutting over.
    /// Returns whether a split was begun. Writes, reads, snapshots and
    /// crashes between this and [`ShardedDb::complete_rebalance`]
    /// exercise the window deterministically.
    pub fn begin_rebalance(&self) -> Result<bool> {
        self.core.begin_split(true)
    }

    /// Staged ops/testing hook: publish the cutover of a split begun by
    /// [`ShardedDb::begin_rebalance`]. Returns whether a topology epoch
    /// was published.
    pub fn complete_rebalance(&self) -> Result<bool> {
        self.core.finish_split(true)
    }

    /// Checkpoint the commit-marker log now: flush every shard, then drop
    /// markers below the flush watermark into a fresh log generation.
    /// Returns whether a checkpoint ran (it is skipped when flushes are
    /// paused — a queue that cannot drain keeps its markers load-bearing).
    pub fn checkpoint_commit_markers(&self) -> Result<bool> {
        self.core.checkpoint_commit_log()
    }

    // ------------------------------------------------------- introspection

    /// Number of shards in the current topology.
    pub fn shard_count(&self) -> usize {
        self.core.current_state().shards()
    }

    /// The current topology epoch.
    pub fn topology_epoch(&self) -> u64 {
        self.core.state_epoch()
    }

    /// The current routing state (epoch, router, stable ids). The handle
    /// is a pinned `Arc`: it stays valid — and keeps answering for its
    /// epoch — even if a split publishes a newer topology afterwards.
    pub fn routing(&self) -> Arc<RoutingState> {
        self.core.current_state()
    }

    /// One shard's engine by routing position (read-only introspection;
    /// writing through a shard directly bypasses the fence's sequence
    /// allocation and is not supported). Shard-level [`Db::flush`] and
    /// [`Db::write`] do serialize against cross-shard commits and refuse
    /// while the write path is poisoned, so even a misuse can never
    /// persist an unsealed prepare fragment into an SSTable.
    pub fn shard(&self, pos: usize) -> Arc<Db> {
        Arc::clone(self.core.current_state().shard(pos))
    }

    /// Entries resident per shard (tables + active memtable, including
    /// versions) — the balance the router is graded on.
    pub fn shard_entry_counts(&self) -> Vec<u64> {
        Self::entry_counts(&self.core.current_state())
    }

    fn entry_counts(state: &RoutingState) -> Vec<u64> {
        state
            .shards
            .iter()
            .map(|d| {
                let v = d.version();
                let tables: u64 = (0..v.levels.len()).map(|l| v.level_entries(l)).sum();
                tables + d.memtable_len() as u64
            })
            .collect()
    }

    /// Last sequence number published by the fence.
    pub fn latest_visible_seq(&self) -> SeqNo {
        self.core.fence.visible.load(Ordering::Acquire)
    }

    /// What the recovery coordinator resolved when this handle was opened
    /// (all zeros after a clean shutdown or a fresh create).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.core.recovery
    }

    /// Engine counters summed across every shard plus the sharding
    /// layer's own (peaks take the max) — [`DbStats::merged`] over the
    /// per-shard blocks. Every split parent's final counts are kept, so
    /// merged counters never fall across a split.
    pub fn stats(&self) -> StatsSnapshot {
        // All under the routing lock, which a cutover holds while it folds
        // the retired parent into `own_stats` and `retired_caches`.
        let state = self.core.state.read();
        let shards = state.shards.iter().map(|d| d.stats());
        let mut snap = DbStats::merged(shards.chain(std::iter::once(&self.core.own_stats)));
        // Cache counters live in the cache itself, not in any `DbStats`
        // block: absorb the shared cache once, or each shard's private
        // cache under the split-budget baseline.
        if let Some(cache) = &self.core.cache {
            snap.absorb_cache(&cache.stats());
        } else {
            for db in state.shards.iter() {
                if let Some(cache) = db.block_cache() {
                    snap.absorb_cache(&cache.stats());
                }
            }
            snap += *self.core.retired_caches.lock();
        }
        snap
    }

    /// Residency and balance report: per-shard resident bytes/entries,
    /// resident imbalance, and the router's observed-traffic imbalance —
    /// the observability behind the split trigger.
    pub fn sharded_stats(&self) -> ShardedStats {
        let state = self.core.current_state();
        let resident_bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
        let resident_entries = Self::entry_counts(&state);
        let (observed_imbalance, observed_keys) = {
            let sampler = self.core.sampler.lock();
            let window = sampler.observed();
            if window.is_empty() {
                (0.0, 0)
            } else {
                (
                    imbalance(&state.router.partition_counts(window)),
                    window.len(),
                )
            }
        };
        ShardedStats {
            merged: self.stats(),
            topology_epoch: state.epoch,
            shard_ids: state.ids.clone(),
            resident_imbalance: imbalance(&resident_bytes),
            resident_bytes,
            resident_entries,
            observed_imbalance,
            observed_keys,
            live_commit_markers: self
                .core
                .commit_log
                .as_ref()
                .map_or(0, |l| l.lock().live_markers()),
        }
    }

    /// The engine cache shared by every shard, when caching is on and the
    /// budget is not split (`ShardedOptions::split_cache_budget`).
    pub fn cache(&self) -> Option<&Arc<EngineCache>> {
        self.core.cache.as_ref()
    }

    /// The shared event observer when `opts.base.observability` is on —
    /// front ends emit their own events (admission sheds) into it so the
    /// drained timeline covers the whole stack.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.core.observer.as_ref()
    }

    /// Assemble the scrapeable [`MetricsSnapshot`]: merged `DbStats`
    /// counters always; with observability on, per-shard latency
    /// summaries plus the cross-shard **histogram fold** (bucket-wise
    /// merge — quantiles of the union, never averages of per-shard
    /// quantiles) and the drained event timeline. Draining consumes the
    /// ring: each event appears in exactly one scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::disabled();
        snap.counters = self.stats().counter_pairs();
        let Some(observer) = self.core.observer.as_deref() else {
            return snap;
        };
        snap.enabled = true;
        let state = self.core.current_state();
        let mut fold = lsm_obs::OpHistSet::default();
        for (pos, db) in state.shards.iter().enumerate() {
            let Some(obs) = db.observability() else {
                continue;
            };
            let set = obs.ops.snapshot();
            fold.merge(&set);
            snap.shards.push(set.summarize(state.ids[pos]));
        }
        snap.total = fold.summarize(GLOBAL_SHARD);
        snap.events = observer.drain();
        snap.dropped_events = observer.dropped();
        snap
    }

    /// The worst [`WritePressure`](crate::WritePressure) across the
    /// current topology's shards — a cross-shard batch stalls on its most
    /// pressured participant, so this is what a front end's admission
    /// control should consult before accepting a write.
    pub fn write_pressure(&self) -> crate::WritePressure {
        let state = self.core.current_state();
        state
            .shards
            .iter()
            .map(|d| d.write_pressure())
            .max()
            .unwrap_or(crate::WritePressure::Clear)
    }

    /// Whether a cross-shard commit failed mid-way in this process:
    /// writes and flushes are refused (with a typed error) until the
    /// database is reopened, which resolves the partial batch through
    /// recovery. Reads keep working.
    pub fn poisoned(&self) -> bool {
        self.core.coordination.poisoned.load(Ordering::Acquire)
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        self.shutdown_pool();
    }
}

impl ShardedCore {
    fn current_state(&self) -> Arc<RoutingState> {
        Arc::clone(&self.state.read())
    }

    fn state_epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// Unpinned point lookup with a bounded epoch-change retry budget
    /// (see [`ShardedDb::get`] for the consistency argument).
    fn get_with_retries(&self, key: u64, retries: usize) -> Result<Option<Vec<u8>>> {
        let mut attempts = 0usize;
        loop {
            let state = self.current_state();
            let v = state
                .shard(state.router.shard_of(key))
                .get_with(key, &ReadOptions::new())?;
            if self.state_epoch() == state.epoch {
                return Ok(v);
            }
            attempts += 1;
            if attempts > retries {
                return Err(Error::Unavailable(format!(
                    "get({key}) lost an epoch race {attempts} times (topology \
                     churning); retry or read through a pinned snapshot"
                )));
            }
        }
    }

    fn worker_cores(&self) -> Arc<Vec<Arc<DbCore>>> {
        Arc::clone(&self.worker_cores.read())
    }

    fn auto_split_enabled(&self) -> bool {
        self.opts.auto_split && self.opts.max_shards > 0
    }

    fn note_bg_error(&self, e: &Error) {
        self.own_stats.bg_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_bg_error.lock() = Some(e.to_string());
    }

    // ------------------------------------------------------------- commit

    fn commit(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        if batch.is_empty() {
            return Ok(self.fence.visible.load(Ordering::Acquire));
        }
        let len = batch.len() as SeqNo;
        // Poison is checked under the lock: a writer that was blocked
        // here while another commit failed must not proceed — it would
        // re-allocate the failed batch's sequence range and could publish
        // a fence past the orphaned sub-batches.
        let _commit = self.coordination.enter()?;
        let state = self.current_state();
        let pending = self
            .pending
            .lock()
            .clone()
            .filter(|p| !p.cancelled.load(Ordering::Acquire));
        {
            // Feed the decaying traffic sample that boundary re-learning
            // and split-cut selection read.
            let mut sampler = self.sampler.lock();
            for op in batch.ops() {
                sampler.observe(op.key);
            }
        }
        let mut parts = split_batch(batch, &state.router);
        let touched: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(pos, _)| pos)
            .collect();

        let first = self.fence.next.load(Ordering::Relaxed) + 1;
        let last = first + len - 1;
        // Single-shard batches are already crash-atomic through their one
        // WAL record; unlogged batches have nothing to seal. Participant
        // sets carry stable shard ids, which survive topology changes.
        let tag =
            (touched.len() > 1 && self.commit_log.is_some() && !wopts.disable_wal).then(|| {
                CrossBatchTag {
                    global_first: first,
                    global_last: last,
                    participants: touched.iter().map(|&pos| state.ids[pos]).collect(),
                }
            });
        let mut next = first;
        for &pos in &touched {
            let part = std::mem::take(&mut parts[pos]);
            let part_len = part.len() as SeqNo;
            // Dual-write window: the fragment aimed at the splitting
            // shard is mirrored into the children at the same sequence
            // sub-range (plain records — pre-cutover children are
            // discarded wholesale on crash, so they need no protocol).
            let mirror = pending
                .as_ref()
                .filter(|p| p.parent_pos == pos)
                .map(|p| (Arc::clone(p), split_by_cut(&part, p.cut)));
            if let Err(e) = state
                .shard(pos)
                .write_assigned(part, wopts, next, tag.as_ref())
            {
                // Poison unconditionally — even a first-shard failure can
                // leave state behind (e.g. the WAL frame was appended and
                // only the sync failed), so the allocated range must never
                // be handed out again in this process.
                self.coordination.poisoned.store(true, Ordering::Release);
                return Err(e);
            }
            if let Some((p, (left_part, right_part))) = mirror {
                if self
                    .mirror_to_children(&p, left_part, right_part, next, wopts)
                    .is_err()
                {
                    // The children are now incomplete: abandon the split.
                    // The commit itself goes on — the parent, still the
                    // routed truth, applied the fragment.
                    self.cleanup_cancelled(&p);
                }
            }
            next += part_len;
        }
        if let Some(tag) = &tag {
            // The commit point: sealing the marker is what makes the
            // prepared fragments replayable. Under `sync` the seal is
            // flushed too, so an acknowledged durable batch stays
            // committed through power loss.
            let sealed = {
                let mut log = self
                    .commit_log
                    .as_ref()
                    .expect("tag implies commit log")
                    .lock();
                log.seal(tag.global_first, tag.global_last, state.epoch)
                    .and_then(|()| if wopts.sync { log.sync() } else { Ok(()) })
            };
            if let Err(e) = sealed {
                self.coordination.poisoned.store(true, Ordering::Release);
                return Err(e);
            }
        }
        self.fence.next.store(last, Ordering::Relaxed);
        self.fence.visible.store(last, Ordering::Release);
        if tag.is_some() {
            // Deferred maintenance: inline flushes were withheld while the
            // fragments were unsealed prepares (an SSTable replays
            // unconditionally — flushing first would leak a torn batch
            // past a crash). Sealed now, the shards may flush. We are
            // past the commit point: a flush error here leaves the batch
            // committed, durable and published, so it surfaces as a
            // *retryable* maintenance error ([`ShardedDb::flush`] again
            // once the storage heals) — never as commit poison, exactly
            // like the single-`Db` inline-flush error path.
            for &pos in &touched {
                state.shard(pos).flush_deferred()?;
            }
        }
        Ok(last)
    }

    /// Mirror one dual-write fragment into the split children at the same
    /// sequence sub-range. Child records are plain (never prepares) and
    /// never synced — pre-cutover durability is the parent's job, and the
    /// cutover flushes the children before publishing them.
    fn mirror_to_children(
        &self,
        p: &PendingSplit,
        left_part: WriteBatch,
        right_part: WriteBatch,
        first_seq: SeqNo,
        wopts: &WriteOptions,
    ) -> Result<()> {
        let child_opts = WriteOptions {
            sync: false,
            disable_wal: wopts.disable_wal,
        };
        if !left_part.is_empty() {
            p.left
                .write_assigned(left_part, &child_opts, first_seq, None)?;
        }
        if !right_part.is_empty() {
            p.right
                .write_assigned(right_part, &child_opts, first_seq, None)?;
        }
        Ok(())
    }

    /// Post-commit housekeeping outside the commit lock: runtime
    /// marker-log checkpointing and (synchronous mode only — background
    /// mode checks in the worker pool) the split trigger. Failures here
    /// never fail the already-committed write; they surface as
    /// background errors.
    fn after_commit(&self) {
        if self.checkpoint_due() {
            if let Err(e) = self.checkpoint_commit_log() {
                self.note_bg_error(&e);
            }
        }
        if self.auto_split_enabled() && !self.opts.base.maintenance.is_background() {
            // Amortize the trigger evaluation (it walks every shard's
            // resident bytes) over a stride of batches.
            let tick = self.write_ticks.fetch_add(1, Ordering::Relaxed);
            // (`u64::is_multiple_of` would read better, but it landed in
            // 1.87 and the workspace MSRV is 1.82.)
            #[allow(clippy::manual_is_multiple_of)]
            if tick % 16 == 0 {
                if let Err(e) = self.try_split() {
                    self.note_bg_error(&e);
                }
            }
        }
    }

    // ------------------------------------------------------------ splits

    /// The split target: the fair resident share at the topology ceiling
    /// (`total / max_shards`), floored by `min_split_bytes`. A shard
    /// qualifies for a split when it outgrows this target past
    /// `split_imbalance` — an *absolute* trigger, which is what makes the
    /// split process terminate: every split produces children at or
    /// below the target, so once every shard fits, nothing fires again
    /// (a relative max-vs-mean trigger never terminates under splitting,
    /// because each split lowers the mean it is compared against).
    fn split_target(&self, bytes: &[u64]) -> u64 {
        let total: u64 = bytes.iter().sum();
        // Aim at ~80% of the ceiling so the process terminates *before*
        // the cap: at the cap the trigger can no longer fire, so a
        // target of exactly `total/max_shards` would strand one
        // over-target shard with no headroom to cut it.
        let granularity = (self.opts.max_shards.max(2) as u64 * 4 / 5).max(1);
        (total / granularity).max(self.opts.min_split_bytes.max(1))
    }

    /// Evaluate the trigger: the hottest shard qualifies when its
    /// resident bytes outgrow the fair target share past the threshold
    /// and headroom exists. (The cut key itself is chosen later,
    /// off-lock, by [`ShardedCore::exact_cut`].)
    fn split_candidate(&self, state: &RoutingState) -> Option<usize> {
        if !state.router.is_range() || state.shards() >= self.opts.max_shards.max(1) {
            return None;
        }
        let bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
        let (pos, &hot) = bytes.iter().enumerate().max_by_key(|(_, b)| **b)?;
        let threshold =
            (self.split_target(&bytes) as f64 * (1.0 + self.opts.split_imbalance.max(0.0))) as u64;
        (hot > threshold).then_some(pos)
    }

    /// The exact cut key of the parent at a pinned snapshot: **peel or
    /// halve**. A parent far above the fair target share peels one
    /// target-sized child off its left edge (so repeated splits of a
    /// giant shard produce a run of fair-sized shards, not a cascade of
    /// halves); a parent below twice the target halves exactly. Two
    /// passes over the snapshot (count, then walk to the cut index) keep
    /// it O(1) memory; it runs **off** the commit lock, so writers never
    /// stall on it. Exactness matters: cut error compounds across
    /// generations of splits, so approximate (sampled) cuts never settle
    /// into balance.
    fn exact_cut(&self, parent: &Db, snap: &Snapshot, target_fraction: f64) -> Result<Option<u64>> {
        let mut it = parent.iter_with(&ReadOptions::at(snap))?;
        it.seek_to_first();
        let mut n = 0u64;
        while it.next()?.is_some() {
            n += 1;
        }
        if n < 2 {
            return Ok(None);
        }
        let q = target_fraction.clamp(0.1, 0.5);
        let cut_index = ((n as f64 * q) as u64).clamp(1, n - 1);
        let mut it = parent.iter_with(&ReadOptions::at(snap))?;
        it.seek_to_first();
        for _ in 0..cut_index {
            it.next()?;
        }
        Ok(it.next()?.map(|(k, _)| k))
    }

    /// Acquire the commit lock for a split phase. User threads block;
    /// background workers must not (`block = false`): a worker blocking
    /// here can deadlock against a writer that holds the commit lock
    /// while stalled on child backpressure only this worker pool can
    /// relieve. A contended non-blocking acquire just defers the phase
    /// to the next worker pass.
    fn lock_commit(&self, block: bool) -> Result<Option<parking_lot::MutexGuard<'_, ()>>> {
        if block {
            self.coordination.enter().map(Some)
        } else {
            self.coordination.try_enter()
        }
    }

    /// One full split: begin (dual-write window opens) → drain → cutover.
    /// Blocking — for user threads (the synchronous-mode write path and
    /// the explicit [`ShardedDb::rebalance`] hook).
    fn try_split(&self) -> Result<bool> {
        if !self.begin_split(true)? {
            return Ok(false);
        }
        self.finish_split(true)
    }

    /// One worker-pool maintenance step: resume a pending split's cutover
    /// (or sweep a cancelled one), otherwise evaluate the trigger and run
    /// a fresh split. Never blocks on the commit lock.
    fn split_step(&self) -> Result<bool> {
        let pending = self.pending.lock().clone();
        if let Some(p) = pending {
            if p.cancelled.load(Ordering::Acquire) {
                if let Some(_commit) = self.coordination.lock.try_lock() {
                    self.cleanup_cancelled(&p);
                }
                return Ok(false);
            }
            return self.finish_split(false);
        }
        if !self.begin_split(false)? {
            return Ok(false);
        }
        // The window is open and drained — try to cut over right away; a
        // contended lock defers the cutover to the next pass. Either way
        // the step made progress.
        self.finish_split(false)?;
        Ok(true)
    }

    /// Phase 1+2: pick the candidate and its exact cut, open the
    /// dual-write window, then (lock released — readers and writers
    /// proceed) copy the pinned parent image into the children.
    fn begin_split(&self, block: bool) -> Result<bool> {
        // Pass A (brief lock): pick the candidate and pin a scan image.
        let (pos, target_fraction, median_snap) = {
            let Some(_commit) = self.lock_commit(block)? else {
                return Ok(false);
            };
            if !self.no_pending_split_locked() {
                return Ok(false);
            }
            let state = self.current_state();
            let Some(pos) = self.split_candidate(&state) else {
                return Ok(false);
            };
            let bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
            let fraction = self.split_target(&bytes) as f64 / bytes[pos].max(1) as f64;
            let seq = self.fence.visible.load(Ordering::Acquire);
            (pos, fraction, state.shard(pos).snapshot_at(seq))
        };
        // Pass B (no lock): the exact cut — peel a fair-share child or
        // halve, from the parent's pinned image. Writers landing
        // meanwhile are not mirrored (the window is not open yet); that
        // is fine, the drain snapshot below is pinned *after* the window
        // opens and covers them.
        let (state, p, snap, snap_seq) = {
            let parent = {
                let state = self.current_state();
                Arc::clone(state.shard(pos))
            };
            let cut = self.exact_cut(&parent, &median_snap, target_fraction)?;
            drop(median_snap);
            let Some(_commit) = self.lock_commit(block)? else {
                return Ok(false);
            };
            // Re-check under the re-acquired lock: another thread (a
            // worker and an explicit `rebalance`, say) may have begun its
            // own split while this one was measuring the cut off-lock —
            // proceeding would overwrite its pending window.
            if !self.no_pending_split_locked() {
                return Ok(false);
            }
            let state = self.current_state();
            // Re-validate the headroom and the cut under the lock too.
            if state.shards() >= self.opts.max_shards.max(1) {
                return Ok(false);
            }
            let (lo, hi) = state.router.shard_range(pos);
            let Some(cut) =
                cut.filter(|&m| m != 0 && lo.is_none_or(|l| m > l) && hi.is_none_or(|h| m < h))
            else {
                return Ok(false); // the shard's data cannot be halved
            };
            let left_id = self.alloc_shard_id()?;
            let right_id = self.alloc_shard_id()?;
            let left = self.open_child(left_id)?;
            let right = self.open_child(right_id)?;
            let span = self.observer.as_deref().map_or(0, |o| o.next_span());
            let p = Arc::new(PendingSplit {
                parent_pos: pos,
                parent_id: state.ids[pos],
                cut,
                left_id,
                right_id,
                left,
                right,
                drained: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
                span,
            });
            self.add_worker_cores(&[p.left.core(), p.right.core()]);
            *self.pending.lock() = Some(Arc::clone(&p));
            if let Some(o) = self.observer.as_deref() {
                o.emit(
                    EventKind::SplitBegin,
                    GLOBAL_SHARD,
                    span,
                    p.parent_id as u64,
                    cut,
                );
            }
            // Pin the drain image at the published fence — everything at
            // or below it comes from the drain, everything above arrives
            // through the dual-write window.
            let snap_seq = self.fence.visible.load(Ordering::Acquire);
            let snap = state.shard(pos).snapshot_at(snap_seq);
            (state, p, snap, snap_seq)
        };
        match self.drain_parent(&state, &p, &snap, snap_seq) {
            Ok(()) => {
                // Only now may a cutover run: until this flag is set, a
                // concurrent `finish_split` (another worker resuming the
                // pending split) must refuse — publishing half-drained
                // children would lose every key not yet copied.
                p.drained.store(true, Ordering::Release);
                if let Some(o) = self.observer.as_deref() {
                    o.emit(
                        EventKind::SplitDualWrite,
                        GLOBAL_SHARD,
                        p.span,
                        p.parent_id as u64,
                        0,
                    );
                }
                Ok(true)
            }
            Err(e) => {
                self.abandon_split(&p);
                Err(e)
            }
        }
    }

    /// Under the commit lock: report whether no split is pending, sweeping
    /// a cancelled leftover on the way (a cancellation that could not take
    /// the lock defers its cleanup to the next split phase — this one).
    fn no_pending_split_locked(&self) -> bool {
        let pending = self.pending.lock().clone();
        match pending {
            None => true,
            Some(p) if p.cancelled.load(Ordering::Acquire) => {
                self.cleanup_cancelled(&p);
                true
            }
            Some(_) => false,
        }
    }

    /// Copy the pinned parent image into the children. Drained entries
    /// get sequence numbers `1..=n`; `n` can never exceed the pin fence
    /// (every resident entry consumed at least one sequence number), so
    /// every drained version sorts strictly below every dual-written one.
    fn drain_parent(
        &self,
        state: &RoutingState,
        p: &PendingSplit,
        snap: &Snapshot,
        snap_seq: SeqNo,
    ) -> Result<()> {
        const DRAIN_CHUNK: usize = 512;
        let parent = state.shard(p.parent_pos);
        let mut it = parent.iter_with(&ReadOptions::at(snap))?;
        it.seek_to_first();
        let mut drain_seq: SeqNo = 0;
        let mut left = WriteBatch::with_capacity(DRAIN_CHUNK);
        let mut right = WriteBatch::with_capacity(DRAIN_CHUNK);
        let child_opts = WriteOptions::default();
        let mut flush_chunk = |child: &Arc<Db>, chunk: &mut WriteBatch| -> Result<()> {
            if chunk.is_empty() {
                return Ok(());
            }
            let first = drain_seq + 1;
            drain_seq += chunk.len() as SeqNo;
            debug_assert!(
                drain_seq <= snap_seq,
                "drain seqs must stay below the pin fence"
            );
            child.write_assigned(std::mem::take(chunk), &child_opts, first, None)?;
            Ok(())
        };
        while let Some((k, v)) = it.next()? {
            if p.cancelled.load(Ordering::Acquire) {
                return Ok(()); // abandoned mid-drain; cutover will refuse
            }
            if self.shutdown.load(Ordering::Acquire) {
                // The pool is draining for close: the flush workers that
                // relieve the children's backpressure are exiting, so
                // writing on would wedge this thread (and the close that
                // joins it). Abandon the split — the sealed topology
                // still names the parent, nothing is lost.
                p.cancelled.store(true, Ordering::Release);
                return Ok(());
            }
            let (batch, child) = if k < p.cut {
                (&mut left, &p.left)
            } else {
                (&mut right, &p.right)
            };
            batch.put(k, &v);
            if batch.len() >= DRAIN_CHUNK {
                let child = Arc::clone(child);
                flush_chunk(&child, batch)?;
            }
        }
        flush_chunk(&Arc::clone(&p.left), &mut left)?;
        flush_chunk(&Arc::clone(&p.right), &mut right)?;
        Ok(())
    }

    /// Phase 3, the cutover: flush the children durable, seal the next
    /// topology epoch (the split's single commit point), swap the
    /// routing state, retire the parent.
    fn finish_split(&self, block: bool) -> Result<bool> {
        let Some(_commit) = self.lock_commit(block)? else {
            return Ok(false);
        };
        let Some(p) = self.pending.lock().clone() else {
            return Ok(false);
        };
        if p.cancelled.load(Ordering::Acquire) {
            self.cleanup_cancelled(&p);
            return Ok(false);
        }
        if !p.drained.load(Ordering::Acquire) {
            // The drain is still copying the parent's image (this call
            // raced it from another thread): cutting over now would
            // publish children missing everything not yet drained.
            return Ok(false);
        }
        // The children must be durable before any topology names them: a
        // crash right after the seal recovers *only* through them.
        let made_durable = (|| -> Result<()> {
            p.left.begin_flush()?;
            p.right.begin_flush()?;
            p.left.finish_flush()?;
            p.right.finish_flush()?;
            Ok(())
        })();
        if let Err(e) = made_durable {
            self.cleanup_cancelled(&p);
            return Err(e);
        }
        let state = self.current_state();
        let mut topo_guard = self.topology.lock();
        let mut new_topo = topo_guard.with_split(p.parent_pos, p.cut, p.left_id, p.right_id);
        new_topo.next_id = self.allocated_ids_watermark(new_topo.next_id);
        // Boundary re-learning: refit the CDF accelerator over the
        // decaying observed-traffic sample so routing predictions track
        // the distribution the new boundaries were cut from.
        let epsilon = match &self.opts.policy {
            crate::options::ShardingPolicy::LearnedRange { epsilon, .. } => *epsilon,
            crate::options::ShardingPolicy::Hash => 32,
        };
        let mut sample = self.sampler.lock().observed().to_vec();
        let retrained = router::train_cdf_model(&mut sample, epsilon);
        new_topo.sample_len = retrained.as_ref().map_or(0, |(_, n)| *n);
        if let Err(e) = new_topo.save(self.storage.as_ref()) {
            // The seal may or may not have reached the store. Both sides
            // hold every acknowledged write, but this process is about to
            // keep writing to the *parent* — a durable topology naming
            // soon-to-be-stale children would lose those writes across a
            // crash. Unseal it; if the store cannot even do that while
            // the file exists, poison the write path.
            let name = topology::topology_name(new_topo.epoch);
            if self.storage.remove(&name).is_err() && self.storage.exists(&name) {
                self.coordination.poisoned.store(true, Ordering::Release);
            }
            self.cleanup_cancelled(&p);
            return Err(e);
        }
        let (model, sample_len) = match retrained {
            Some((m, n)) => {
                // Best-effort acceleration: a failed model write degrades
                // routing to boundary binary search, never correctness.
                let _ = topology::save_model(self.storage.as_ref(), m.as_ref());
                (Some(m), n)
            }
            None => (None, 0),
        };
        // Publish: children replace the parent at its routing position.
        let mut shards = state.shards.clone();
        shards.splice(
            p.parent_pos..=p.parent_pos,
            [Arc::clone(&p.left), Arc::clone(&p.right)],
        );
        let new_state = Arc::new(RoutingState {
            epoch: new_topo.epoch,
            ids: new_topo.ids.clone(),
            router: ShardRouter::with_boundaries(new_topo.boundaries.clone(), model, sample_len),
            shards,
        });
        *topo_guard = new_topo;
        drop(topo_guard);
        let parent = Arc::clone(state.shard(p.parent_pos));
        {
            // The parent's counts live on in `own_stats` (and its private
            // cache's in `retired_caches`), folded under the lock `stats()`
            // sums under, so no scrape sees them twice or not at all. A get
            // that routed to the parent before this point and finishes
            // after it still counts on the parent, and that count is lost.
            let mut current = self.state.write();
            *current = new_state;
            self.own_stats.absorb(&parent.stats().snapshot());
            if let Some(cache) = parent.block_cache().filter(|_| self.cache.is_none()) {
                // Counters only: the dropped cache holds and bounds nothing.
                let counts = CacheStats {
                    used_bytes: 0,
                    capacity_bytes: 0,
                    ..cache.stats()
                };
                self.retired_caches.lock().absorb_cache(&counts);
            }
        }
        *self.pending.lock() = None;
        self.remove_worker_core(parent.core());
        self.own_stats.shard_splits.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.observer.as_deref() {
            o.emit(
                EventKind::SplitCutover,
                GLOBAL_SHARD,
                p.span,
                p.parent_id as u64,
                self.current_state().epoch,
            );
        }
        self.signal.bump();
        // Retire the parent directory (best-effort — the sealed topology
        // no longer names it, and the next open sweeps leftovers).
        self.remove_shard_dir(p.parent_id);
        Ok(true)
    }

    /// The id allocator may have burned ids on aborted splits; the
    /// persisted watermark must cover them so a reopen never re-issues a
    /// directory this process already touched.
    fn allocated_ids_watermark(&self, at_least: u16) -> u16 {
        (self
            .next_shard_id
            .load(Ordering::Relaxed)
            .min(u16::MAX as u32) as u16)
            .max(at_least)
    }

    fn alloc_shard_id(&self) -> Result<u16> {
        let id = self.next_shard_id.fetch_add(1, Ordering::Relaxed);
        // Reserve u16::MAX so the persisted `next_id` watermark always
        // fits the topology format.
        if id >= u16::MAX as u32 {
            return Err(Error::Corruption("shard id space exhausted".into()));
        }
        Ok(id as u16)
    }

    fn open_child(&self, id: u16) -> Result<Arc<Db>> {
        // A crashed-then-reopened process may have swept this directory
        // already; an *aborted* split in this process cannot have (ids
        // are never reused in-process) — but wipe defensively so a child
        // always starts from genuinely empty state.
        self.remove_shard_dir(id);
        let dir: Arc<dyn Storage> = Arc::new(PrefixedStorage::new(
            Arc::clone(&self.storage),
            Topology::shard_dir(id),
        ));
        let pool = self
            .opts
            .base
            .maintenance
            .is_background()
            .then(|| ExternalPool {
                signal: Arc::clone(&self.signal),
                shutdown: Arc::clone(&self.shutdown),
            });
        let obs = self
            .observer
            .as_ref()
            .map(|o| Arc::new(EngineObs::new(Arc::clone(o), id)));
        // Children join the shared budget; under the split-budget
        // baseline they get a private cache sized like their siblings'.
        let mut base = self.opts.base.clone();
        if self.cache.is_none() && self.opts.split_cache_budget {
            let n = self.state.read().shards.len().max(1);
            base.block_cache_bytes = self.opts.base.block_cache_bytes / n;
        }
        Ok(Arc::new(Db::open_internal(
            dir,
            base,
            pool,
            None,
            Some(Arc::clone(&self.coordination)),
            obs,
            self.cache.clone(),
        )?))
    }

    fn remove_shard_dir(&self, id: u16) {
        let prefix = Topology::shard_dir(id);
        if let Ok(names) = self.storage.list() {
            for name in names {
                if name.starts_with(&prefix) {
                    let _ = self.storage.remove(&name);
                }
            }
        }
    }

    /// Abandon a pending split from a context that may not be able to
    /// take the commit lock (the drain, running on a worker): mark it
    /// cancelled — committers stop mirroring immediately, the filter is
    /// lock-free — and clean up opportunistically; a later split phase
    /// finishes the sweep under its own lock if this one could not.
    fn abandon_split(&self, p: &Arc<PendingSplit>) {
        p.cancelled.store(true, Ordering::Release);
        if let Some(_commit) = self.coordination.lock.try_lock() {
            self.cleanup_cancelled(p);
        }
    }

    /// Sweep a cancelled (or failed) split (caller holds the commit
    /// lock): the children leave the worker rotation and are discarded.
    /// Their directories are retired best-effort; recovery would sweep
    /// them anyway (they are not in any sealed topology).
    fn cleanup_cancelled(&self, p: &Arc<PendingSplit>) {
        p.cancelled.store(true, Ordering::Release);
        let mut pending = self.pending.lock();
        if pending.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, p)) {
            *pending = None;
        }
        drop(pending);
        self.remove_worker_core(p.left.core());
        self.remove_worker_core(p.right.core());
        self.remove_shard_dir(p.left_id);
        self.remove_shard_dir(p.right_id);
    }

    fn add_worker_cores(&self, cores: &[&Arc<DbCore>]) {
        let mut guard = self.worker_cores.write();
        let mut list = (**guard).clone();
        list.extend(cores.iter().map(|c| Arc::clone(c)));
        *guard = Arc::new(list);
    }

    fn remove_worker_core(&self, core: &Arc<DbCore>) {
        let mut guard = self.worker_cores.write();
        let list = (**guard)
            .iter()
            .filter(|c| !Arc::ptr_eq(c, core))
            .cloned()
            .collect();
        *guard = Arc::new(list);
    }

    // ------------------------------------------------------- checkpointing

    fn checkpoint_due(&self) -> bool {
        let threshold = self.opts.commit_log_checkpoint_bytes;
        threshold > 0
            && self
                .commit_log
                .as_ref()
                .is_some_and(|l| l.lock().bytes() > threshold)
    }

    /// Runtime marker-log checkpoint: flush every shard (so no prepare at
    /// or below the watermark still lives in a WAL), then rewrite the
    /// surviving markers into a fresh generation.
    fn checkpoint_commit_log(&self) -> Result<bool> {
        if self.commit_log.is_none() {
            return Ok(false);
        }
        // Phase 1 (commit lock): fix the watermark and rotate every
        // memtable — every prepare ≤ watermark is now bound for an
        // SSTable, after which its WAL (and so the prepare record) is
        // retired.
        let (state, watermark) = {
            let _commit = self.coordination.enter()?;
            let state = self.current_state();
            let watermark = self.fence.visible.load(Ordering::Acquire);
            for db in &state.shards {
                db.begin_flush()?;
            }
            (state, watermark)
        };
        // Phase 2 (no lock): wait for background queues to drain.
        for db in &state.shards {
            db.finish_flush()?;
        }
        if state.shards.iter().any(|d| d.immutable_memtables() > 0) {
            // Paused flushes never drain — their queued prepares keep
            // their markers load-bearing, so the checkpoint must wait.
            return Ok(false);
        }
        // Phase 3 (commit lock): rewrite survivors. Markers sealed since
        // the watermark was read are above it (the fence only grows) and
        // are carried over.
        let _commit = self.coordination.enter()?;
        let log = self.commit_log.as_ref().expect("checked above");
        let mut log = log.lock();
        log.checkpoint(self.storage.as_ref(), watermark)?;
        self.own_stats
            .commit_checkpoints
            .fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.observer.as_deref() {
            o.emit(
                EventKind::CommitCheckpoint,
                GLOBAL_SHARD,
                0,
                log.live_markers() as u64,
                0,
            );
        }
        Ok(true)
    }
}

/// One worker step over a fleet of shard cores: try each shard once,
/// starting at a rotating offset so no shard starves, and report
/// [`Step::Worked`] as soon as any shard makes progress. The pool goes
/// idle only when a full pass found nothing to do on any shard — which is
/// also the shutdown-drain exit condition. The core list is re-read every
/// pass (see [`ShardedCore::worker_cores`]), so a live split's children
/// join the rotation the moment the dual-write window opens and a retired
/// parent leaves it at cutover.
fn round_robin(cores: &[Arc<DbCore>], rr: &AtomicUsize, step: impl Fn(&DbCore) -> Step) -> Step {
    let n = cores.len();
    if n == 0 {
        return Step::Idle;
    }
    let start = rr.fetch_add(1, Ordering::Relaxed) % n;
    for i in 0..n {
        if matches!(step(&cores[(start + i) % n]), Step::Worked) {
            return Step::Worked;
        }
    }
    Step::Idle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;

    /// The bare-`get` retry budget is a hard cap: under a topology that
    /// changes epoch faster than a read can land, the read fails with
    /// `Error::Unavailable` instead of spinning forever; once the churn
    /// stops, reads succeed again.
    #[test]
    fn capped_get_retries_surface_unavailable_under_epoch_churn() {
        let db = ShardedDb::open_memory(ShardedOptions::hash(2, Options::small_for_tests()))
            .expect("open");
        db.put(7, b"seven").expect("put");

        // Simulated cutover churn: keep republishing the same shard set at
        // a bumped epoch, which is exactly what `get`'s re-check observes
        // when a real split cuts over mid-read.
        let core = Arc::clone(&db.core);
        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let bumped = {
                        let cur = core.state.read();
                        Arc::new(RoutingState {
                            epoch: cur.epoch + 1,
                            ids: cur.ids.clone(),
                            router: ShardRouter::Hash {
                                shards: cur.shards.len(),
                            },
                            shards: cur.shards.clone(),
                        })
                    };
                    *core.state.write() = bumped;
                }
            })
        };

        // With a zero retry budget and the epoch advancing continuously,
        // some read must lose the race and surface the typed error (one
        // attempt is overwhelmingly likely to; we allow many).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut saw_unavailable = false;
        while std::time::Instant::now() < deadline {
            match db.get_with_retries(7, 0) {
                Err(Error::Unavailable(msg)) => {
                    assert!(msg.contains("epoch race"), "unexpected message: {msg}");
                    saw_unavailable = true;
                    break;
                }
                Ok(v) => assert_eq!(v.as_deref(), Some(&b"seven"[..])),
                Err(e) => panic!("unexpected error under churn: {e}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();
        assert!(
            saw_unavailable,
            "zero-budget get never lost an epoch race against continuous churn"
        );

        // Churn stopped: the same bare read succeeds with the default cap.
        assert_eq!(db.get(7).expect("get").as_deref(), Some(&b"seven"[..]));
        db.close().expect("close");
    }
}
