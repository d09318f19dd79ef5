//! The partitioned synopsis store: concurrent sharded routing, sealing
//! (inline or on background workers), compaction, queries and whole-store
//! persistence.
//!
//! ## Concurrency model
//!
//! Every partition lives behind its own [`RwLock`] (a *shard*): ingest
//! write-locks exactly the shard owning a record, queries read-lock only the
//! shards overlapping their range, and independent partitions never contend.
//! All mutating operations take `&self`, so one store can be shared across
//! ingest threads (`Arc<SynopsisStore>` or scoped borrows) without external
//! locking.  Batch ingest ([`SynopsisStore::ingest_batch`]) routes records
//! to shards **lock-free** — one pass over the batch groups records
//! per-partition in arrival order — then inserts each partition's sub-batch
//! on the scoped thread pool (`pds_core::pool`), taking each shard lock once
//! per batch.
//!
//! Sealing freezes the memtable under the shard lock (an `O(1)` swap and,
//! with a WAL, one file rename) and builds the segment *outside* the ingest
//! path: inline on the calling thread by default, or on the store's
//! background workers when [`SynopsisStore::with_background_sealing`] is
//! enabled, so ingest, sealing and serving overlap.  Per-partition seal
//! **sequence numbers** keep segment order deterministic regardless of which
//! worker finishes first — the same record stream produces byte-identical
//! sealed segments at every thread count, a property the
//! `store_concurrency` suite pins.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use pds_core::binio::{ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};
use pds_core::metrics::ErrorMetric;
use pds_core::model::ValuePdfModel;
use pds_core::pool;
use pds_core::stream::StreamRecord;
use pds_core::telemetry::Stopwatch;
use pds_core::vfs;
use pds_histogram::merge::{optimal_piecewise_histogram, sum_pieces, Piece};
use pds_histogram::Histogram;
use pds_wavelet::build_sse_wavelet;
use serde::{Deserialize, Serialize};

use crate::blob::{self, BlobFooter, BlobMeta, FOOTER_LEN, HEADER_LEN};
use crate::compaction::CompactionPolicy;
use crate::crashpoint;
use crate::manifest::{segment_blob_name, Manifest};
use crate::memtable::{Memtable, MemtableCapture};
use crate::segment::{Segment, SegmentSynopsis, SynopsisKind};
use crate::telemetry::{IoPolicy, QueryOp, StoreTelemetry};
use crate::wal::{PartitionWal, WalSync};

/// A partition of the item domain `[0, n)` into contiguous ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Ascending boundary positions: partition `i` covers
    /// `[bounds[i], bounds[i+1])`.
    bounds: Vec<usize>,
}

impl PartitionSpec {
    /// Builds a spec from explicit boundaries (`bounds[0] == 0`, strictly
    /// ascending, last entry is the domain size).
    pub fn from_bounds(bounds: Vec<usize>) -> Result<Self> {
        if bounds.len() < 2 || bounds[0] != 0 {
            return Err(PdsError::InvalidParameter {
                message: "partition bounds must start at 0 and name at least one range".into(),
            });
        }
        if bounds.windows(2).any(|w| w[1] <= w[0]) {
            return Err(PdsError::InvalidParameter {
                message: "partition bounds must be strictly ascending".into(),
            });
        }
        Ok(PartitionSpec { bounds })
    }

    /// Splits `[0, n)` into `parts` near-equal contiguous ranges.
    pub fn uniform(n: usize, parts: usize) -> Result<Self> {
        if parts == 0 || n < parts {
            return Err(PdsError::InvalidParameter {
                message: format!("cannot split a domain of {n} items into {parts} partitions"),
            });
        }
        let mut bounds = Vec::with_capacity(parts + 1);
        for i in 0..=parts {
            bounds.push(i * n / parts);
        }
        PartitionSpec::from_bounds(bounds)
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        // `from_bounds` guarantees at least two bounds, but the query path
        // must stay panic-free even on a degenerate spec: an empty or
        // single-`0` bounds vector is simply an empty domain.
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Always false: a spec names at least one partition.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The global item range `(start, width)` of partition `p`.
    pub fn range(&self, p: usize) -> (usize, usize) {
        (self.bounds[p], self.bounds[p + 1] - self.bounds[p])
    }

    /// The partition owning `item`, or an error outside the domain.
    pub fn partition_of(&self, item: usize) -> Result<usize> {
        if item >= self.n() {
            return Err(PdsError::ItemOutOfDomain {
                item,
                domain: self.n(),
            });
        }
        Ok(self.bounds.partition_point(|&b| b <= item) - 1)
    }
}

/// Configuration of a [`SynopsisStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// How the item domain is partitioned.
    pub partitions: PartitionSpec,
    /// Records a partition's memtable buffers before it is auto-sealed.
    pub seal_threshold: usize,
    /// Synopsis budget (buckets or coefficients) per sealed segment.
    pub segment_budget: usize,
    /// Which synopsis sealed segments get.
    pub synopsis: SynopsisKind,
    /// Automatic size-tiered compaction: when set, every segment install
    /// evaluates the policy (once the partition has no seals in flight) and
    /// full tiers are merged in the background (on the seal workers when
    /// [`SynopsisStore::with_background_sealing`] is enabled, inline
    /// otherwise).  `None` (the default) keeps compaction manual
    /// ([`SynopsisStore::compact_partition`] / `compact_all`).  A runtime
    /// knob: not persisted by [`SynopsisStore::to_binary`].
    pub compaction: Option<CompactionPolicy>,
    /// Durability tier of WAL/manifest commits: [`WalSync::Flush`] (the
    /// default, survives process crashes) or the opt-in [`WalSync::Fsync`]
    /// (survives power loss, paid once per group commit).  A runtime knob:
    /// not persisted by [`SynopsisStore::to_binary`].
    pub wal_sync: WalSync,
    /// Whether the store records telemetry (counters, latency histograms
    /// and the event ring behind [`SynopsisStore::render_metrics`]).
    /// Recording is lock-free and allocation-free, and **never** affects
    /// results — estimates, snapshots and segment bytes are bit-identical
    /// on or off — so the default is on; turn it off to shave the last
    /// clock reads from the hot path.  A runtime knob: not persisted by
    /// [`SynopsisStore::to_binary`].
    pub telemetry: bool,
    /// Bounded retries for **idempotent** durable-path operations (WAL
    /// group commits and rotations, manifest installs and publishes, blob
    /// staging and renames) after a transient I/O failure; `0` disables
    /// retry.  An operation that still fails after the budget flips the
    /// store into its sticky degraded read-only mode (see
    /// [`SynopsisStore::degraded`]).  A runtime knob: not persisted by
    /// [`SynopsisStore::to_binary`].
    pub io_retries: u32,
    /// Base backoff before durable-path retry `k` sleeps
    /// `io_backoff_ms << k` milliseconds; `0` retries immediately.  A
    /// runtime knob: not persisted by [`SynopsisStore::to_binary`].
    pub io_backoff_ms: u64,
    /// Segment pruning on the query path (default on): every sealed
    /// segment carries an item-range *fence* (and, for sparse segments, a
    /// presence filter) over its synopsis support, and range/point
    /// estimates skip segments whose fence proves a zero contribution to
    /// the query window.  Pruning is **bitwise invisible** — a skipped
    /// segment would have contributed an exact `±0.0`, and the query
    /// accumulators never hold `-0.0`, so the estimate is bit-identical
    /// with the knob on or off (pinned by the `store_read_path` suite).
    /// A runtime knob: not persisted by [`SynopsisStore::to_binary`].
    pub prune: bool,
    /// Lazy synopsis-block loading at [`SynopsisStore::open_with_wal`]
    /// (default on): reopen maps only each blob's footer and meta block
    /// (fence, filter, record count) and defers the synopsis block to the
    /// first query that actually needs it — reopen time and resident
    /// memory stop scaling with total synopsis bytes.  `false` restores
    /// eager decoding of every blob at open.  Answers are bit-identical
    /// either way; a block whose deferred read fails contributes zero and
    /// flips the store into degraded read-only mode (see
    /// [`SynopsisStore::degraded`]).  A runtime knob: not persisted by
    /// [`SynopsisStore::to_binary`].
    pub lazy_blocks: bool,
}

impl StoreConfig {
    /// A configuration with the default runtime knobs: manual compaction,
    /// flush-tier WAL durability and telemetry recording on.
    pub fn new(
        partitions: PartitionSpec,
        seal_threshold: usize,
        segment_budget: usize,
        synopsis: SynopsisKind,
    ) -> Self {
        StoreConfig {
            partitions,
            seal_threshold,
            segment_budget,
            synopsis,
            compaction: None,
            wal_sync: WalSync::Flush,
            telemetry: true,
            io_retries: 2,
            io_backoff_ms: 1,
            prune: true,
            lazy_blocks: true,
        }
    }
}

/// Point-in-time counters describing a store.
///
/// Serializes to stable, versioned JSON via [`StoreStats::to_json`] /
/// [`StoreStats::from_json`] — the machine-parseable form behind the
/// server's `STATS JSON` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Stream records accepted by [`SynopsisStore::ingest`].
    pub ingested_records: u64,
    /// Records not yet sealed into a segment: live memtables plus memtables
    /// frozen for an in-flight background seal (queries see both).
    pub live_records: u64,
    /// Seal operations performed (counted when the memtable freezes).
    pub seals: u64,
    /// Segments currently stored (compaction shrinks this; an in-flight
    /// background seal's segment appears — moving its records out of
    /// `live_records` — once the build installs, so
    /// [`SynopsisStore::flush`] first for a settled view).
    pub segments: usize,
    /// X-tuples whose alternatives were split across partitions.
    pub split_tuples: u64,
}

/// Versioned wire envelope for [`StoreStats::to_json`] /
/// [`StoreStats::from_json`].
#[derive(Serialize, Deserialize)]
struct StatsEnvelope {
    version: u32,
    stats: StoreStats,
}

impl StoreStats {
    /// The stats JSON envelope version written by [`StoreStats::to_json`].
    pub const FORMAT_VERSION: u32 = 1;

    /// Serialises the counters into a single-line, versioned JSON envelope
    /// (`{"version":1,"stats":{...}}`) so `STATS JSON` consumers can detect
    /// skew instead of mis-reading renamed fields.
    pub fn to_json(&self) -> Result<String> {
        let envelope = StatsEnvelope {
            version: Self::FORMAT_VERSION,
            stats: *self,
        };
        serde_json::to_string(&envelope).map_err(|e| PdsError::InvalidParameter {
            message: format!("store stats serialization failed: {e}"),
        })
    }

    /// Reconstructs counters from [`StoreStats::to_json`] output, rejecting
    /// malformed JSON and version skew with a [`PdsError`].
    pub fn from_json(text: &str) -> Result<Self> {
        let envelope: StatsEnvelope =
            serde_json::from_str(text).map_err(|e| PdsError::InvalidParameter {
                message: format!("store stats deserialization failed: {e}"),
            })?;
        if envelope.version != Self::FORMAT_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store stats envelope version {} is not supported (expected {})",
                    envelope.version,
                    Self::FORMAT_VERSION
                ),
            });
        }
        Ok(envelope.stats)
    }
}

/// One sealed segment as held by its shard: the seal sequence, the shared
/// (possibly lazily-backed) segment handle and, when known, the segment's
/// cached `PDSG` encoding — computed once at install (or decode) so
/// [`SynopsisStore::to_binary`] never re-serialises an installed segment.
#[derive(Debug, Clone)]
struct SealedSegment {
    seq: u64,
    handle: Arc<SegmentHandle>,
    binary: Option<Arc<Vec<u8>>>,
}

/// A shared handle to one sealed segment's synopsis, decoded **at most
/// once**: segments installed by a seal, a compaction or an eager open
/// carry their [`Segment`] from construction; segments installed by a
/// lazy [`SynopsisStore::open_with_wal`] carry only their decoded meta
/// block (header fields + prune metadata) plus a [`BlobSource`], and the
/// synopsis block is read and decoded on the first query that actually
/// needs it.  The meta block alone answers `records()` and every pruning
/// decision, so a fully pruned (or never-queried) segment never touches
/// its blob again after reopen.
///
/// Handles are shared by `Arc` between shards, snapshot views and
/// compaction tasks, so one load serves every reader.  Loading never runs
/// under a shard lock — query paths clone the handle `Arc`s out of the
/// guard window first.
#[derive(Debug)]
struct SegmentHandle {
    meta: BlobMeta,
    synopsis: OnceLock<Arc<Segment>>,
    source: Option<BlobSource>,
}

impl SegmentHandle {
    /// A handle around an already-decoded segment, computing its prune
    /// metadata (a pure function of the synopsis — see
    /// [`blob::PruneMeta::of`]).
    fn eager(segment: Arc<Segment>) -> SegmentHandle {
        Self::preloaded(BlobMeta::of(&segment), segment)
    }

    /// A handle around an already-decoded segment whose meta block is
    /// also already known (the eager-open path decodes both).
    fn preloaded(meta: BlobMeta, segment: Arc<Segment>) -> SegmentHandle {
        let synopsis = OnceLock::new();
        let _ = synopsis.set(segment);
        SegmentHandle {
            meta,
            synopsis,
            source: None,
        }
    }

    /// A handle that defers its synopsis block to the first use.
    fn lazy(meta: BlobMeta, source: BlobSource) -> SegmentHandle {
        SegmentHandle {
            meta,
            synopsis: OnceLock::new(),
            source: Some(source),
        }
    }

    /// Records sealed into the segment — answered from the meta block,
    /// never loading the synopsis.
    fn records(&self) -> u64 {
        self.meta.records
    }

    /// Whether the segment may contribute a nonzero amount to the clamped
    /// global query window `[lo, hi]` — the prune gate, answered from the
    /// meta block alone (`false` proves a bitwise-exact zero
    /// contribution, see [`blob::PruneMeta::may_overlap`]).
    fn may_overlap(&self, lo: usize, hi: usize) -> bool {
        self.meta.prune.may_overlap(self.meta.start, lo, hi)
    }

    /// The decoded synopsis: the cached `Arc` when present, otherwise one
    /// bounded-retry read + decode of the blob's synopsis block, cached on
    /// success so every later call (from any sharer of the handle) is an
    /// `Arc` clone.  Failures are **not** cached — a transient fault that
    /// outlives the retry budget degrades the owning store, but a reopen
    /// (or a later call under a healed disk) can still succeed.
    fn load(&self) -> Result<Arc<Segment>> {
        if let Some(segment) = self.synopsis.get() {
            return Ok(Arc::clone(segment));
        }
        let Some(source) = &self.source else {
            // Unreachable by construction — eager handles pre-set the
            // cell — but the query path degrades rather than panics.
            return Err(PdsError::InvalidParameter {
                message: "store: segment handle has neither a synopsis nor a blob source".into(),
            });
        };
        let segment = source.fetch(&self.meta)?;
        Ok(Arc::clone(self.synopsis.get_or_init(|| Arc::new(segment))))
    }

    /// The segment's estimated mass over the inclusive global range
    /// `[lo, hi]`.  A synopsis block that cannot be loaded contributes
    /// `0.0` — the degraded latch (set by the failed load) records the
    /// cause, and queries keep serving everything still readable.
    fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        match self.load() {
            Ok(segment) => segment.range_sum(lo, hi),
            Err(_) => 0.0,
        }
    }
}

/// Where (and how) a lazy [`SegmentHandle`] finds its synopsis block: the
/// blob path, the block's offset/length/CRC from the footer, and the I/O
/// policy ingredients — shared telemetry plus the owning store's degraded
/// latch, so a view or compaction task loading through the handle reports
/// exactly like the store itself would.
#[derive(Debug)]
struct BlobSource {
    path: PathBuf,
    syn_off: u64,
    syn_len: usize,
    syn_crc: u32,
    telemetry: Arc<StoreTelemetry>,
    degraded: Arc<OnceLock<String>>,
    io_retries: u32,
    io_backoff_ms: u64,
}

impl BlobSource {
    /// Reads and decodes the synopsis block (bounded retry at the
    /// `block-read` fault site), verifying the block CRC and that the
    /// decoded synopsis reproduces the meta block it was installed under.
    fn fetch(&self, meta: &BlobMeta) -> Result<Segment> {
        let policy = IoPolicy::new(
            self.io_retries,
            self.io_backoff_ms,
            Some(Arc::clone(&self.telemetry)),
        );
        let bytes = policy
            .run("block-read", || {
                vfs::read_range("block-read", &self.path, self.syn_off, self.syn_len)
            })
            .map_err(|e| {
                self.degrade(format!(
                    "reading the synopsis block of {}: {e}",
                    self.path.display()
                ))
            })?;
        self.telemetry.record_block_load();
        blob::decode_synopsis_block(&bytes, self.syn_crc, meta).map_err(|e| {
            self.degrade(format!(
                "decoding the synopsis block of {}: {e}",
                self.path.display()
            ))
        })
    }

    /// Trips the owning store's sticky degraded latch (same contract as
    /// `StoreInner::degrade`, reachable without the store — snapshot
    /// views and compaction tasks load through shared handles).
    fn degrade(&self, cause: String) -> PdsError {
        let cause = format!("block-read: {cause}");
        if self.degraded.set(cause.clone()).is_ok() {
            self.telemetry.record_degraded("block-read");
        }
        PdsError::Degraded {
            cause: self.degraded.get().cloned().unwrap_or(cause),
        }
    }
}

/// One partition's mutable state: the live memtable, the sealed segments
/// (ascending by seal sequence) and the optional write-ahead log.
#[derive(Debug)]
struct Shard {
    memtable: Memtable,
    /// Memtables frozen for sealing whose segment build is still in flight,
    /// by seal sequence: kept readable (shared with the [`SealTask`]) so a
    /// query racing a background seal never transiently loses the frozen
    /// records' mass; the entry is dropped when its segment installs.
    frozen: Vec<(u64, Arc<Memtable>)>,
    /// Sealed segments, ascending by sequence; the sequence restores
    /// deterministic order when background workers finish out of order.
    segments: Vec<SealedSegment>,
    /// Next seal sequence number for this partition.
    next_seq: u64,
    /// A compaction round is in flight for this partition (selection made,
    /// swap pending) — serialises compaction per partition.
    compacting: bool,
    wal: Option<PartitionWal>,
}

impl Shard {
    /// The sealed-segment handles in install order, `Arc`-cloned so the
    /// caller can load and sum them after the shard guard drops.
    fn handles(&self) -> Vec<Arc<SegmentHandle>> {
        self.segments
            .iter()
            .map(|s| Arc::clone(&s.handle))
            .collect()
    }
}

/// The durable half of a store opened with
/// [`SynopsisStore::open_with_wal`]: the directory holding the WAL files,
/// the segment blobs and the [`Manifest`] that commits them.
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    manifest: Mutex<Manifest>,
}

/// The shared, lock-protected core of a store (shards + counters); the
/// background seal workers hold an `Arc` of this.
#[derive(Debug)]
struct StoreInner {
    config: StoreConfig,
    shards: Vec<RwLock<Shard>>,
    durable: Option<Durable>,
    ingested: AtomicU64,
    seals: AtomicU64,
    split_tuples: AtomicU64,
    /// Process-local instrumentation (never persisted, never cloned):
    /// recording is lock-free, so every path — including shard-guard
    /// windows — may record.  Shared (`Arc`) so the I/O policies inside
    /// the WAL and manifest handles can report into it.
    telemetry: Arc<StoreTelemetry>,
    /// The sticky degraded read-only latch: set (once, with the cause) by
    /// the first durable-path failure that survives the retry budget.
    /// Every mutating path checks it and returns [`PdsError::Degraded`];
    /// queries never look at it.  Only reopening the store clears it.
    /// Shared (`Arc`) with every lazy [`BlobSource`], so a deferred
    /// synopsis-block read that fails degrades the store exactly like an
    /// install-time failure would.
    degraded: Arc<OnceLock<String>>,
    /// Counts **structural commits** — seal installs and compaction swaps,
    /// bumped inside the owning shard's write lock.  Two uses: the
    /// optimistic snapshot-view capture loop (equal loads before/after the
    /// per-shard captures prove no structural commit interleaved, so the
    /// cross-shard view is consistent) and the merged-synopsis cache key
    /// (an entry stamped with an older version can never be served).
    /// Record-level ingest does not bump it: live memtable contents are
    /// outside both protocols (the merge covers sealed state only, and a
    /// shard's memtable is captured atomically under its own lock).
    version: AtomicU64,
    /// The memoised [`SynopsisStore::merge_global`] result: one entry,
    /// keyed on `(version, b)`.  Structural commits invalidate it purely
    /// by bumping `version` — nothing is recomputed until the next merge
    /// asks.  Stamped with the version read *before* the pieces were
    /// extracted, so a commit racing the computation can only make the
    /// stamp stale (a needless later recompute), never serve a wrong
    /// histogram.
    merge_cache: Mutex<Option<MergeCache>>,
}

/// One memoised global merge (see `StoreInner::merge_cache`).
#[derive(Debug)]
struct MergeCache {
    version: u64,
    b: usize,
    histogram: Histogram,
}

impl StoreInner {
    /// The store's durable-path failure policy (configured retry budget,
    /// reporting into the store's telemetry).
    fn io_policy(&self) -> IoPolicy {
        IoPolicy::new(
            self.config.io_retries,
            self.config.io_backoff_ms,
            Some(Arc::clone(&self.telemetry)),
        )
    }

    /// Refuses mutating work while the store is degraded.
    fn check_writable(&self) -> Result<()> {
        match self.degraded.get() {
            Some(cause) => Err(PdsError::Degraded {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Trips (or re-reports) the sticky degraded mode after a durable-path
    /// failure at `site`, converting the failure into the
    /// [`PdsError::Degraded`] the mutating operation returns.  The first
    /// caller wins the latch and emits the telemetry gauge/event; later
    /// failures keep the original cause.
    fn degrade(&self, site: &str, e: PdsError) -> PdsError {
        if let PdsError::Degraded { .. } = e {
            return e;
        }
        let cause = format!("{site}: {e}");
        if self.degraded.set(cause.clone()).is_ok() {
            self.telemetry.record_degraded(site);
        }
        PdsError::Degraded {
            cause: self.degraded.get().cloned().unwrap_or(cause),
        }
    }
}

/// A frozen memtable on its way to becoming a segment (shared with its
/// shard's `frozen` list so the records stay queryable until the segment
/// installs).
#[derive(Debug)]
struct SealTask {
    partition: usize,
    seq: u64,
    memtable: Arc<Memtable>,
    /// The frozen WAL file covering exactly this memtable's records; removed
    /// once the segment is installed.
    wal_frozen: Option<PathBuf>,
}

/// A compaction round selected by the policy (or requested manually): the
/// reserved output sequence and the cloned input segment handles, merged
/// off-lock and swapped in under a short write lock.  Lazily-backed input
/// handles load during the (already off-lock) merge.
#[derive(Debug)]
struct CompactTask {
    partition: usize,
    out_seq: u64,
    inputs: Vec<(u64, Arc<SegmentHandle>)>,
}

/// Work items of the background workers.
#[derive(Debug)]
enum Task {
    Seal(SealTask),
    Compact(CompactTask),
}

#[derive(Debug, Default)]
struct SealQueueState {
    tasks: VecDeque<Task>,
    /// Tasks submitted but not yet installed (queued + building).
    pending: usize,
    closed: bool,
    /// First background build error; surfaced by [`SynopsisStore::flush`].
    error: Option<PdsError>,
}

#[derive(Debug, Default)]
struct SealQueue {
    state: Mutex<SealQueueState>,
    /// Signals workers that a task arrived (or the queue closed).
    work: Condvar,
    /// Signals waiters that `pending` reached zero.
    idle: Condvar,
}

/// Handle to the background seal workers.
#[derive(Debug)]
struct Sealer {
    queue: Arc<SealQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Sealer {
    fn submit(&self, task: Task) {
        let mut state = self.queue.state.lock().expect("seal queue poisoned");
        state.pending += 1;
        state.tasks.push_back(task);
        drop(state);
        self.queue.work.notify_one();
    }
}

impl Drop for Sealer {
    fn drop(&mut self) {
        {
            let mut state = self.queue.state.lock().expect("seal queue poisoned");
            state.closed = true;
        }
        self.queue.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The partitioned streaming-ingest synopsis store (see the crate docs for
/// the lifecycle and the module docs for the concurrency model).
#[derive(Debug)]
pub struct SynopsisStore {
    inner: Arc<StoreInner>,
    sealer: Option<Sealer>,
}

/// A deep point-in-time copy: shard contents and counters are snapshotted;
/// the clone has **no** background workers, **no** write-ahead log and
/// **no** durable directory (file handles and manifests cannot be
/// duplicated meaningfully — two stores appending to one manifest would
/// corrupt it).  Memtables frozen for an in-flight background seal are
/// folded back into the clone's live memtable (no records are lost), and
/// the clone's `seals` counter is **decremented once per folded-back
/// freeze**: in a clone, `seals` counts exactly the freezes whose segment
/// the clone holds (so with no compaction, `stats().seals == segments as
/// u64` — pinned by `clone_seals_counter_excludes_in_flight_freezes`),
/// never a freeze whose outcome the clone cannot see.  An in-flight
/// compaction's inputs are still present, so the clone holds the
/// consistent pre-swap state; [`SynopsisStore::flush`] first for settled
/// counters.  Telemetry is process-local and starts fresh (all zeros) in
/// the clone.
impl Clone for SynopsisStore {
    fn clone(&self) -> Self {
        let mut folded_back = 0u64;
        let shards: Vec<Shard> = self
            .inner
            .shards
            .iter()
            .map(|s| {
                let shard = s.read().unwrap_or_else(|e| e.into_inner());
                // Fold any in-flight frozen memtables back into the cloned
                // live buffer (newest-first prepending restores arrival
                // order), so a clone racing a background seal still holds
                // every record.
                let mut memtable = shard.memtable.clone();
                for (_, frozen) in shard.frozen.iter().rev() {
                    memtable.absorb_front((**frozen).clone());
                    folded_back += 1;
                }
                Shard {
                    memtable,
                    frozen: Vec::new(),
                    segments: shard.segments.clone(),
                    next_seq: shard.next_seq,
                    compacting: false,
                    wal: None,
                }
            })
            .collect();
        // The clone shares the original's segment handles, and the
        // original's compaction may delete a lazily-backed handle's blob
        // file at any time — force every deferred synopsis into memory now
        // (off the shard guards), where it is safe from file deletion.  A
        // block that is already unreadable keeps answering 0.0 through the
        // shared handle; the original store's degraded latch records the
        // cause (a clone has no durable substrate of its own to degrade).
        for shard in &shards {
            for sealed in &shard.segments {
                let _ = sealed.handle.load();
            }
        }
        let shards: Vec<RwLock<Shard>> = shards.into_iter().map(RwLock::new).collect();
        // The folded-back freezes' records are live again in the clone, so
        // they are no longer seals *of the clone*: a seal is counted when a
        // memtable freezes, and these memtables just un-froze.  (The counter
        // is read after the shard locks: each freeze observed in a shard
        // above has already bumped it, so the subtraction never underflows;
        // saturate anyway — a degenerate counter must not panic `clone`.)
        let seals = self
            .inner
            .seals
            .load(Ordering::Relaxed)
            .saturating_sub(folded_back);
        SynopsisStore {
            inner: Arc::new(StoreInner {
                shards,
                durable: None,
                ingested: AtomicU64::new(self.inner.ingested.load(Ordering::Relaxed)),
                seals: AtomicU64::new(seals),
                split_tuples: AtomicU64::new(self.inner.split_tuples.load(Ordering::Relaxed)),
                telemetry: Arc::new(StoreTelemetry::new(
                    self.inner.config.partitions.len(),
                    self.inner.config.telemetry,
                )),
                // A clone has no durable substrate, so nothing can fail
                // durably: it starts healthy even off a degraded original.
                degraded: Arc::new(OnceLock::new()),
                version: AtomicU64::new(0),
                merge_cache: Mutex::new(None),
                config: self.inner.config.clone(),
            }),
            sealer: None,
        }
    }
}

impl SynopsisStore {
    /// Magic bytes of the whole-store binary encoding.
    pub const BINARY_MAGIC: [u8; 4] = *b"PDST";

    /// Version stamp of the whole-store binary encoding.
    pub const BINARY_VERSION: u16 = 1;

    /// Creates an empty store (no background workers, no write-ahead log,
    /// no durable directory).
    pub fn new(config: StoreConfig) -> Result<Self> {
        Self::with_durability(config, None)
    }

    fn with_durability(config: StoreConfig, durable: Option<Durable>) -> Result<Self> {
        let telemetry = Arc::new(StoreTelemetry::new(
            config.partitions.len(),
            config.telemetry,
        ));
        Self::with_parts(config, durable, telemetry)
    }

    /// [`SynopsisStore::with_durability`] with a pre-built telemetry layer
    /// — the durable open constructs telemetry *before* recovery so the
    /// recovery-path I/O policies can already report into it.
    fn with_parts(
        config: StoreConfig,
        durable: Option<Durable>,
        telemetry: Arc<StoreTelemetry>,
    ) -> Result<Self> {
        if config.seal_threshold == 0 || config.segment_budget == 0 {
            return Err(PdsError::InvalidParameter {
                message: "the seal threshold and the segment budget must be positive".into(),
            });
        }
        let shards = (0..config.partitions.len())
            .map(|p| {
                let (start, width) = config.partitions.range(p);
                RwLock::new(Shard {
                    memtable: Memtable::new(start, width),
                    frozen: Vec::new(),
                    segments: Vec::new(),
                    next_seq: 0,
                    compacting: false,
                    wal: None,
                })
            })
            .collect();
        Ok(SynopsisStore {
            inner: Arc::new(StoreInner {
                config,
                shards,
                durable,
                ingested: AtomicU64::new(0),
                seals: AtomicU64::new(0),
                split_tuples: AtomicU64::new(0),
                telemetry,
                degraded: Arc::new(OnceLock::new()),
                version: AtomicU64::new(0),
                merge_cache: Mutex::new(None),
            }),
            sealer: None,
        })
    }

    /// Opens a **crash-durable** store backed by `dir`: sealed segments are
    /// reloaded from their install-time blobs via the [`Manifest`], and any
    /// records logged by a previous process — live or frozen mid-seal — are
    /// replayed from the per-partition write-ahead logs, so nothing
    /// acknowledged is lost to a crash.
    ///
    /// Reopen order is **manifest → segment blobs → WAL tail**:
    ///
    /// 1. The manifest is loaded (torn-tail tolerant, atomically
    ///    republished) and every live `seg-<p>-<seq>.bin` blob is decoded —
    ///    CRC-32 trailer first, then the `PDSG` payload — and installed at
    ///    its seal sequence.  Orphaned blobs (their manifest record never
    ///    landed) are swept; their records replay from the WAL instead.
    /// 2. The WAL is scanned read-only ([`crate::wal`]'s three-phase
    ///    protocol — an error anywhere leaves all files intact), **skipping
    ///    frozen logs whose seal sequence the manifest covers** (the
    ///    manifest entry is a seal's commit point), then replayed into the
    ///    memtables with auto-sealing suppressed and committed atomically.
    ///
    /// Counters restart at the recovered state: `ingested_records` counts
    /// the blob-installed segments' records plus the replayed WAL records
    /// (per-partition *sub*-records, so an x-tuple split across partitions
    /// before logging counts once per partition, and `split_tuples`
    /// restarts at 0); `seals` counts the loaded segments.  Post-recovery
    /// counters describe the recovered process, not the pre-crash one.
    pub fn open_with_wal(config: StoreConfig, dir: impl AsRef<Path>) -> Result<Self> {
        let recovery_sw = Stopwatch::start();
        let dir = dir.as_ref();
        // The logs are only meaningful under the partition layout that
        // wrote them: a `wal.meta` stamp pins the bounds, so reopening with
        // a different layout errors instead of silently ignoring logs of
        // partitions that no longer exist (or mis-routing records).
        Self::check_wal_meta(&config, dir)?;
        // Telemetry first, so recovery's own I/O (and any cleanup errors
        // swept along the way) is already counted.
        let telemetry = Arc::new(StoreTelemetry::new(
            config.partitions.len(),
            config.telemetry,
        ));
        let policy = IoPolicy::new(
            config.io_retries,
            config.io_backoff_ms,
            Some(Arc::clone(&telemetry)),
        );
        let (manifest, live) = Manifest::open_with(dir, config.wal_sync, policy.clone())?;
        let store = Self::with_parts(
            config,
            Some(Durable {
                dir: dir.to_path_buf(),
                manifest: Mutex::new(manifest),
            }),
            telemetry,
        )?;
        // Phase 0: reload the manifest-committed segments from their blobs
        // (entries arrive ascending by (partition, seq), so each shard's
        // segment list stays sequence-ordered).
        let mut loaded_records = 0u64;
        let mut loaded_segments = 0u64;
        for (p, seq) in live {
            if p >= store.num_partitions() {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "manifest names partition {p} but the store has only {} partitions",
                        store.num_partitions()
                    ),
                });
            }
            let path = dir.join(segment_blob_name(p, seq));
            let (start, width) = store.inner.config.partitions.range(p);
            // Lazy open (the default) maps only the blob's footer and meta
            // block; eager open — configured, or the v1 fallback when the
            // blob has no footer — decodes the whole synopsis now.
            let lazy = match store.inner.config.lazy_blocks {
                true => Self::open_blob_lazy(&store, &path)?,
                false => None,
            };
            let (handle, binary, records) = match lazy {
                Some(handle) => {
                    let records = handle.records();
                    (handle, None, records)
                }
                None => {
                    let (handle, binary) = Self::open_blob_eager(&path)?;
                    let records = handle.records();
                    (handle, Some(Arc::new(binary)), records)
                }
            };
            if handle.meta.start != start || handle.meta.width != width {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "segment blob {} covers [{}, {}] but partition {p} is [{start}, {}]",
                        path.display(),
                        handle.meta.start,
                        handle.meta.start + handle.meta.width - 1,
                        start + width - 1
                    ),
                });
            }
            loaded_records += records;
            loaded_segments += 1;
            let mut shard = store.write_shard(p);
            shard.segments.push(SealedSegment {
                seq,
                handle: Arc::new(handle),
                binary,
            });
            shard.next_seq = shard.next_seq.max(seq + 1);
        }
        store
            .inner
            .ingested
            .fetch_add(loaded_records, Ordering::Relaxed);
        store
            .inner
            .seals
            .fetch_add(loaded_segments, Ordering::Relaxed);
        // Phase 1: read-only WAL scans, skipping manifest-covered frozen
        // logs.  Nothing is deleted or truncated, so a corrupt log in any
        // partition aborts with every file intact.
        let mut replays = Vec::with_capacity(store.num_partitions());
        for p in 0..store.num_partitions() {
            let covered = {
                let durable = store.inner.durable.as_ref().expect("durable store");
                let manifest = durable.manifest.lock().expect("manifest lock poisoned");
                manifest.covered_seqs(p)
            };
            replays.push(PartitionWal::scan_skipping_with(dir, p, &covered, &policy)?);
        }
        // Phase 2: replay into the memtables.  Records were already routed
        // (x-tuples split per partition) when first logged; sealing is
        // suppressed so the replayed set stays exactly the set the commit
        // re-logs.
        let mut replayed_records = 0u64;
        for (p, replay) in replays.iter().enumerate() {
            let mut shard = store.write_shard(p);
            for record in &replay.records {
                shard.memtable.insert(record.clone())?;
            }
            replayed_records += replay.records.len() as u64;
        }
        store
            .inner
            .ingested
            .fetch_add(replayed_records, Ordering::Relaxed);
        // Phase 3: publish each partition's recovered live log atomically
        // and attach the append handles.
        for (p, replay) in replays.iter().enumerate() {
            let wal = PartitionWal::commit_synced_with(
                dir,
                p,
                &replay.records,
                replay,
                store.inner.config.wal_sync,
                policy.clone(),
            )?;
            store.write_shard(p).wal = Some(wal);
        }
        store.inner.telemetry.record_recovery(
            recovery_sw.elapsed_secs(),
            loaded_segments,
            loaded_records + replayed_records,
        );
        Ok(store)
    }

    /// The lazy half of blob recovery: reads the fixed footer and the meta
    /// block (three small `recovery-read` accesses), validates the blob's
    /// geometry against the real file length, and returns a handle whose
    /// synopsis block loads on first use.  Returns `Ok(None)` when the
    /// file carries no valid v2 footer — a v1 blob (`PDSG` + CRC trailer)
    /// from an older store, which the caller decodes eagerly instead.
    fn open_blob_lazy(store: &SynopsisStore, path: &Path) -> Result<Option<SegmentHandle>> {
        let blob_io = |e: std::io::Error| PdsError::InvalidParameter {
            message: format!("store: reading segment blob {}: {e}", path.display()),
        };
        let file_len = vfs::path_len("recovery-read", path).map_err(blob_io)?;
        if file_len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Ok(None);
        }
        let tail = vfs::read_range(
            "recovery-read",
            path,
            file_len - FOOTER_LEN as u64,
            FOOTER_LEN,
        )
        .map_err(blob_io)?;
        // No footer CRC+magic at the tail: not a v2 blob.  (A *corrupt* v2
        // blob also lands here and falls back — the eager decode then
        // reports the corruption precisely.)
        let Ok(footer) = BlobFooter::decode(&tail) else {
            return Ok(None);
        };
        // The footer is authentic (CRC over its fields), so from here on a
        // mismatch is corruption, not version skew: fail loudly.
        let body = (HEADER_LEN as u64)
            .checked_add(u64::from(footer.meta_len))
            .and_then(|v| v.checked_add(footer.syn_len))
            .and_then(|v| v.checked_add(FOOTER_LEN as u64));
        if body != Some(footer.total_len) || footer.total_len != file_len {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store: segment blob {} is {file_len} bytes but its footer describes \
                     a {}-byte blob",
                    path.display(),
                    footer.total_len
                ),
            });
        }
        let prefix = vfs::read_range(
            "recovery-read",
            path,
            0,
            HEADER_LEN + footer.meta_len as usize,
        )
        .map_err(blob_io)?;
        let meta = blob::decode_meta_block(&prefix, footer.meta_crc)?;
        let inner = &store.inner;
        Ok(Some(SegmentHandle::lazy(
            meta,
            BlobSource {
                path: path.to_path_buf(),
                syn_off: footer.synopsis_offset(),
                syn_len: footer.syn_len as usize,
                syn_crc: footer.syn_crc,
                telemetry: Arc::clone(&inner.telemetry),
                degraded: Arc::clone(&inner.degraded),
                io_retries: inner.config.io_retries,
                io_backoff_ms: inner.config.io_backoff_ms,
            },
        )))
    }

    /// The eager half of blob recovery: reads and fully decodes the blob
    /// (v2 block-structured or the v1 `PDSG`+CRC layout) and returns the
    /// pre-loaded handle plus the exact `PDSG` bytes to cache for
    /// [`SynopsisStore::to_binary`].
    fn open_blob_eager(path: &Path) -> Result<(SegmentHandle, Vec<u8>)> {
        let mut bytes =
            vfs::read("recovery-read", path).map_err(|e| PdsError::InvalidParameter {
                message: format!("store: reading segment blob {}: {e}", path.display()),
            })?;
        if bytes.starts_with(&blob::BLOB_MAGIC) {
            let (segment, meta) = blob::decode_blob(&bytes)?;
            // decode_blob validated the footer geometry, so the synopsis
            // block slice — exactly the PDSG bytes — is in bounds.
            let footer = blob::decode_footer(&bytes)?;
            let off = footer.synopsis_offset() as usize;
            let pdsg = bytes
                .get(off..off + footer.syn_len as usize)
                .map(<[u8]>::to_vec)
                .unwrap_or_default();
            Ok((SegmentHandle::preloaded(meta, Arc::new(segment)), pdsg))
        } else {
            let segment = Segment::from_blob(&bytes)?;
            // The v1 blob minus its CRC trailer is exactly the PDSG bytes;
            // truncate in place rather than copying (startup path).
            bytes.truncate(bytes.len().saturating_sub(4));
            Ok((SegmentHandle::eager(Arc::new(segment)), bytes))
        }
    }

    /// Validates (or, on first use, writes) the WAL directory's partition
    /// stamp: a space-separated list of the partition bounds in `wal.meta`.
    fn check_wal_meta(config: &StoreConfig, dir: &Path) -> Result<()> {
        let meta_io = |context: &str, e: std::io::Error| PdsError::InvalidParameter {
            message: format!("wal: {context}: {e}"),
        };
        vfs::create_dir_all("recovery-read", dir)
            .map_err(|e| meta_io("creating the wal directory", e))?;
        let path = dir.join("wal.meta");
        let bounds = &config.partitions.bounds;
        let stamp = bounds
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        if path.exists() {
            let on_disk = vfs::read_to_string("recovery-read", &path)
                .map_err(|e| meta_io("reading the partition stamp", e))?;
            if on_disk.trim() != stamp {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "wal directory was written under partition bounds [{}] but the store \
                         is configured with [{stamp}]; reopen with the original layout",
                        on_disk.trim()
                    ),
                });
            }
        } else {
            vfs::write("recovery-commit", &path, format!("{stamp}\n").as_bytes())
                .map_err(|e| meta_io("writing the partition stamp", e))?;
        }
        Ok(())
    }

    /// Moves sealing onto `workers` background threads: reaching the seal
    /// threshold now freezes the memtable (an `O(1)` swap under the shard
    /// lock) and hands the segment build to a worker, so ingest never waits
    /// on synopsis construction.  [`SynopsisStore::flush`] waits for
    /// in-flight builds and surfaces their errors; dropping the store joins
    /// the workers after draining the queue.  Segment order (and therefore
    /// [`SynopsisStore::to_binary`] output) stays byte-identical to inline
    /// sealing.
    pub fn with_background_sealing(mut self, workers: usize) -> Self {
        let queue = Arc::new(SealQueue::default());
        let workers = (1..=workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&self.inner);
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || Self::seal_worker(&inner, &queue))
            })
            .collect();
        self.sealer = Some(Sealer { queue, workers });
        self
    }

    fn seal_worker(inner: &StoreInner, queue: &SealQueue) {
        let park = |e: PdsError| {
            let mut state = queue.state.lock().expect("seal queue poisoned");
            state.error.get_or_insert(e);
        };
        loop {
            let task = {
                let mut state = queue.state.lock().expect("seal queue poisoned");
                loop {
                    if let Some(task) = state.tasks.pop_front() {
                        break Some(task);
                    }
                    if state.closed {
                        break None;
                    }
                    state = queue.work.wait(state).expect("seal queue poisoned");
                }
            };
            let Some(task) = task else { return };
            // A seal install (or a compaction round) can trigger the next
            // compaction round; it goes back on the queue so flush() keeps
            // waiting for the whole chain.
            let follow_up = match task {
                Task::Seal(task) => {
                    // Build AND durably commit (blob + manifest) before
                    // touching the shard lock: the lock is held only for
                    // the in-memory swap, never for file I/O or fsyncs.
                    // A degraded store skips the build entirely: the
                    // frozen records go back to the live memtable (still
                    // queryable) and the parked error reaches flush().
                    let committed = inner
                        .check_writable()
                        .and_then(|()| Self::build_task(inner, &task))
                        .and_then(|(segment, binary)| {
                            let binary = Self::commit_durable(
                                inner,
                                task.partition,
                                task.seq,
                                &segment,
                                binary,
                            )?;
                            Ok((segment, binary))
                        });
                    match committed {
                        Ok((segment, binary)) => {
                            let mut shard = inner.shards[task.partition]
                                .write()
                                .expect("shard lock poisoned");
                            Self::install_in_memory(
                                inner,
                                &mut shard,
                                task.partition,
                                task.seq,
                                segment,
                                binary,
                                task.wal_frozen.as_deref(),
                            )
                        }
                        Err(e) => {
                            // Build failure or a failed durable commit
                            // (blob/manifest I/O): restore the frozen
                            // records to the live memtable (they rejoin
                            // ahead of any newer arrivals) and park the
                            // error for flush().
                            let mut shard = inner.shards[task.partition]
                                .write()
                                .expect("shard lock poisoned");
                            Self::unfreeze(inner, &mut shard, task);
                            drop(shard);
                            park(e);
                            None
                        }
                    }
                }
                Task::Compact(task) => match Self::run_compact_task(inner, task) {
                    Ok(next) => next,
                    Err(e) => {
                        park(e);
                        None
                    }
                },
            };
            let mut state = queue.state.lock().expect("seal queue poisoned");
            if let Some(next) = follow_up {
                state.pending += 1;
                state.tasks.push_back(Task::Compact(next));
                queue.work.notify_one();
            }
            state.pending -= 1;
            if state.pending == 0 {
                queue.idle.notify_all();
            }
        }
    }

    /// Waits until every background seal — and every compaction round it
    /// chained — is installed, and returns the first build error, if any
    /// (a failed build's records are restored to their live memtable, so
    /// the error is retryable: seal again or snapshot).  A no-op without
    /// background sealing.
    pub fn flush(&self) -> Result<()> {
        if let Some(sealer) = &self.sealer {
            let mut state = sealer.queue.state.lock().expect("seal queue poisoned");
            while state.pending > 0 {
                state = sealer.queue.idle.wait(state).expect("seal queue poisoned");
            }
            if let Some(e) = state.error.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.inner.config
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.inner.config.partitions.n()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.config.partitions.len()
    }

    fn write_shard(&self, p: usize) -> RwLockWriteGuard<'_, Shard> {
        self.inner.shards[p].write().expect("shard lock poisoned")
    }

    /// Shared read access to partition `p`'s shard, recovering from lock
    /// poisoning.  Poison recovery is sound for readers: a writer that
    /// panicked mid-mutation left the shard in whatever state its last
    /// completed assignment produced, and every shard field is a valid
    /// value at every assignment boundary (memtables and segment vectors
    /// are replaced wholesale, never patched in place) — so one crashed
    /// writer must not wedge every query forever.  Returns `None` when `p`
    /// is out of range, which readers treat as an empty partition.
    fn read_shard(&self, p: usize) -> Option<RwLockReadGuard<'_, Shard>> {
        self.inner
            .shards
            .get(p)
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// A point-in-time copy of partition `p`'s live memtable.
    ///
    /// # Panics
    ///
    /// Panics when `p >= num_partitions()` (like slice indexing).
    pub fn memtable_snapshot(&self, p: usize) -> Memtable {
        self.inner.shards[p]
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .memtable
            .clone()
    }

    /// A point-in-time copy of partition `p`'s sealed segments, oldest
    /// (lowest seal sequence) first.  Lazily-backed segments are decoded
    /// on the way out (off the shard lock); a segment whose synopsis
    /// block cannot be loaded is skipped — the failed load has already
    /// tripped the degraded latch with the cause
    /// ([`SynopsisStore::degraded`]).
    ///
    /// # Panics
    ///
    /// Panics when `p >= num_partitions()` (like slice indexing).
    pub fn segments(&self, p: usize) -> Vec<Segment> {
        let handles = self.inner.shards[p]
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .handles();
        handles
            .iter()
            .filter_map(|h| h.load().ok())
            .map(|segment| (*segment).clone())
            .collect()
    }

    /// Point-in-time counters.  Poison-recovering (see `read_shard`): a
    /// panicked writer cannot take the stats endpoint down with it.
    pub fn stats(&self) -> StoreStats {
        let mut live_records = 0u64;
        let mut segments = 0usize;
        for shard in &self.inner.shards {
            let shard = shard.read().unwrap_or_else(|e| e.into_inner());
            live_records += shard.memtable.len() as u64;
            // In-flight frozen memtables are still unsealed records.
            live_records += shard
                .frozen
                .iter()
                .map(|(_, m)| m.len() as u64)
                .sum::<u64>();
            segments += shard.segments.len();
        }
        StoreStats {
            ingested_records: self.inner.ingested.load(Ordering::Relaxed),
            live_records,
            seals: self.inner.seals.load(Ordering::Relaxed),
            segments,
            split_tuples: self.inner.split_tuples.load(Ordering::Relaxed),
        }
    }

    /// The store's Prometheus-style text exposition: every telemetry
    /// series (ingest/freeze/WAL/seal/compaction counters, latency
    /// histograms, the recovery gauge) plus the [`SynopsisStore::stats`]
    /// counters rendered as series.  Total on the panic-free serving
    /// contract — a scrape endpoint can expose this path directly; with
    /// [`StoreConfig::telemetry`] off the series exist but stay at zero
    /// (and `pds_store_telemetry_enabled` reads 0).
    pub fn render_metrics(&self) -> String {
        self.inner.telemetry.render(&self.stats())
    }

    /// The store's retained telemetry events (seal installs, compaction
    /// commits, WAL rotations, recovery), oldest first, one decoded line
    /// per event.  Panic-free; empty with telemetry off.
    pub fn render_events(&self) -> Vec<String> {
        self.inner.telemetry.render_events()
    }

    /// The cause that flipped this store into degraded read-only mode, or
    /// `None` while it is healthy.
    ///
    /// A store degrades when a durable-path write (WAL append/commit/rotate,
    /// blob publish, manifest install/replace) still fails after the
    /// configured retries ([`StoreConfig::io_retries`]).  Degradation is
    /// **sticky**: mutating calls return [`PdsError::Degraded`] from then
    /// on, queries keep serving everything acknowledged before the fault,
    /// and only reopening the directory (which replays the durable state)
    /// clears the condition.
    pub fn degraded(&self) -> Option<String> {
        self.inner.degraded.get().cloned()
    }

    /// Appends one stream record, routing it to the partition(s) owning its
    /// items; a partition whose memtable reaches the seal threshold is
    /// sealed automatically (inline, or on the background workers when
    /// enabled).  X-tuples spanning several partitions are split per
    /// partition (see the crate docs for the semantics).  Thread-safe
    /// through `&self`.  A one-record [`SynopsisStore::ingest_batch`]: the
    /// same routing, WAL group commit and counters.
    ///
    /// # Errors
    ///
    /// Returns [`PdsError::Degraded`] without touching any state once the
    /// store has entered degraded read-only mode (see the crate docs).
    pub fn ingest(&self, record: StreamRecord) -> Result<()> {
        self.ingest_batch(std::iter::once(record))
    }

    /// The group-commit boundary of one shard: flushes the WAL appends of
    /// the shard's sub-batch, adding `File::sync_data` on the
    /// [`WalSync::Fsync`] tier — one flush per batch per touched shard,
    /// never one per record.
    fn commit_wal_locked(&self, shard: &mut Shard) -> Result<()> {
        if let Some(wal) = shard.wal.as_mut() {
            let sw = self.inner.telemetry.maybe_start();
            wal.commit_group(self.inner.config.wal_sync)
                .map_err(|e| self.inner.degrade("wal-commit", e))?;
            self.inner.telemetry.record_wal_commit(sw);
            crashpoint::reached("post-wal-append");
        }
        Ok(())
    }

    /// Runs inline compaction chains (each round may select a follow-up).
    /// Only the inline paths produce tasks here — with background sealing
    /// the rounds run on the workers and [`SynopsisStore::flush`] awaits
    /// them.
    fn run_compactions(&self, tasks: Vec<CompactTask>) -> Result<()> {
        // Every reserved round must run (or fail through run_compact_task,
        // which clears its partition's flag): bailing out mid-list would
        // leave the remaining tasks' partitions flagged busy forever.
        let mut first_error = None;
        for task in tasks {
            let mut next = Some(task);
            while let Some(task) = next {
                match Self::run_compact_task(&self.inner, task) {
                    Ok(follow_up) => next = follow_up,
                    Err(e) => {
                        first_error.get_or_insert(e);
                        next = None;
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Records per [`SynopsisStore::ingest_all`] chunk: large enough to
    /// amortise shard locking and pool dispatch, small enough to bound the
    /// routing buffer.
    const INGEST_CHUNK: usize = 8192;

    /// Appends every record of an iterator by routing fixed-size chunks into
    /// reused per-partition buffers and inserting each partition's sub-batch
    /// with one shard-lock acquisition (in parallel on the thread pool), so
    /// shard locks are taken once per chunk, not once per record.  Chunking
    /// does not affect the result: each partition still sees exactly its
    /// sub-sequence of records in arrival order.
    pub fn ingest_all(&self, records: impl IntoIterator<Item = StreamRecord>) -> Result<()> {
        self.inner.check_writable()?;
        let mut routed: Vec<Vec<StreamRecord>> = vec![Vec::new(); self.num_partitions()];
        let mut pending = 0usize;
        let mut split = 0u64;
        let flush_counts = |pending: &mut usize, split: &mut u64| {
            self.inner
                .ingested
                .fetch_add(*pending as u64, Ordering::Relaxed);
            self.inner.split_tuples.fetch_add(*split, Ordering::Relaxed);
            (*pending, *split) = (0, 0);
        };
        for record in records {
            match self.route_one(record, &mut routed) {
                Ok(was_split) => {
                    split += was_split;
                    pending += 1;
                }
                Err(e) => {
                    // Same semantics as the old per-record loop: every valid
                    // record before the failing one is ingested (and only
                    // then counted), then the error surfaces.
                    self.insert_routed(&mut routed)?;
                    flush_counts(&mut pending, &mut split);
                    return Err(e);
                }
            }
            if pending == Self::INGEST_CHUNK {
                self.insert_routed(&mut routed)?;
                flush_counts(&mut pending, &mut split);
            }
        }
        self.insert_routed(&mut routed)?;
        flush_counts(&mut pending, &mut split);
        Ok(())
    }

    /// Appends a batch of records using the scoped thread pool: the batch is
    /// routed to per-partition sub-batches lock-free (one pass, arrival
    /// order preserved within each partition), then every partition's
    /// sub-batch is inserted on its own pool task, taking each shard lock
    /// once.  Because each partition sees exactly the sub-sequence of
    /// records it owns — in arrival order — the resulting state is
    /// **identical to serial ingest at every thread count**.
    ///
    /// Unlike [`SynopsisStore::ingest_all`] (which keeps the valid prefix
    /// when a record fails validation), a **validation** error here rejects
    /// the whole batch before anything is inserted — routing happens first,
    /// so the batch is the all-or-nothing unit for invalid input.  An
    /// **insert-time** error (a WAL write failure, an inline seal build
    /// error) can still leave the batch partially applied across
    /// partitions; such a failed batch is not added to the accepted-record
    /// counters.
    pub fn ingest_batch(&self, records: impl IntoIterator<Item = StreamRecord>) -> Result<()> {
        self.inner.check_writable()?;
        let mut routed: Vec<Vec<StreamRecord>> = vec![Vec::new(); self.num_partitions()];
        let mut ingested = 0u64;
        let mut split = 0u64;
        for record in records {
            split += self.route_one(record, &mut routed)?;
            ingested += 1;
        }
        // Count only after the inserts land, so a failed batch never
        // inflates the accepted-record counters.
        self.insert_routed(&mut routed)?;
        self.inner.ingested.fetch_add(ingested, Ordering::Relaxed);
        self.inner.split_tuples.fetch_add(split, Ordering::Relaxed);
        Ok(())
    }

    /// Validates one record and appends it (split per partition for
    /// x-tuples) to the routing buffers; returns 1 when an x-tuple was split
    /// across partitions.
    fn route_one(&self, record: StreamRecord, routed: &mut [Vec<StreamRecord>]) -> Result<u64> {
        record.validate()?;
        match record {
            StreamRecord::Basic { item, .. } | StreamRecord::ValueDistribution { item, .. } => {
                let p = self.inner.config.partitions.partition_of(item)?;
                routed[p].push(record);
                Ok(0)
            }
            StreamRecord::Alternatives(alts) => {
                // Every alternative is routed before any sub-tuple is
                // pushed, so an out-of-domain item leaves the buffers as
                // they were.
                let mut by_partition: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
                for (item, prob) in alts {
                    let p = self.inner.config.partitions.partition_of(item)?;
                    by_partition.entry(p).or_default().push((item, prob));
                }
                let split = u64::from(by_partition.len() > 1);
                for (p, sub) in by_partition {
                    routed[p].push(StreamRecord::Alternatives(sub));
                }
                Ok(split)
            }
        }
    }

    /// Routed batches smaller than this insert on the calling thread: a
    /// scoped pool spawn costs tens to hundreds of µs, while a record
    /// inserts in well under 2 µs, so a one-record `ingest` or a small wire
    /// `INGEST` cannot win from fanning out.
    const PARALLEL_MIN_RECORDS: usize = 64;

    /// Drains the routing buffers into their shards, one pool task per
    /// non-empty partition (on the calling thread for small batches);
    /// buffer capacity is retained for the next chunk.
    /// Inline compaction rounds triggered by auto-seals run after every
    /// shard lock is released — even when a shard errored, so a reserved
    /// round is never abandoned with its partition flagged busy.
    fn insert_routed(&self, routed: &mut [Vec<StreamRecord>]) -> Result<()> {
        let batches: Vec<(usize, &mut Vec<StreamRecord>)> = routed
            .iter_mut()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .collect();
        if batches.is_empty() {
            return Ok(());
        }
        let routed_records: usize = batches.iter().map(|(_, batch)| batch.len()).sum();
        let threads = if routed_records < Self::PARALLEL_MIN_RECORDS {
            1
        } else {
            pool::num_threads()
        };
        let results = pool::parallel_map_with(threads, batches, |(p, batch)| {
            self.ingest_partition_batch(p, batch)
        });
        let mut compactions = Vec::new();
        let mut first_error = None;
        for (mut tasks, error) in results {
            compactions.append(&mut tasks);
            if let Some(e) = error {
                first_error.get_or_insert(e);
            }
        }
        let compacted = self.run_compactions(compactions);
        match first_error {
            Some(e) => Err(e),
            None => compacted,
        }
    }

    /// Inserts one partition's sub-batch under one shard-lock acquisition,
    /// group-committing the WAL once at the end.  Compaction rounds
    /// reserved by inline auto-seals are returned **alongside** any error
    /// (not instead of it), so the caller can always run them.
    fn ingest_partition_batch(
        &self,
        p: usize,
        records: &mut Vec<StreamRecord>,
    ) -> (Vec<CompactTask>, Option<PdsError>) {
        let mut compactions = Vec::new();
        let sw = self.inner.telemetry.maybe_start();
        let mut shard = self.write_shard(p);
        for record in records.drain(..) {
            // analyze:allow(lock-discipline) batch ingest holds the shard lock across its own WAL appends on purpose: one group commit per batch is the whole point
            match self.insert_locked(p, &mut shard, record) {
                Ok(task) => compactions.extend(task),
                Err(e) => return (compactions, Some(e)),
            }
        }
        // analyze:allow(lock-discipline) the batch's single group commit to this shard's own WAL
        let error = self.commit_wal_locked(&mut shard).err();
        drop(shard);
        self.inner.telemetry.record_batch(sw);
        (compactions, error)
    }

    /// Inserts one routed record into a locked shard (WAL first), sealing
    /// when the threshold is reached.  Returns a compaction round when the
    /// (inline) seal install filled a size tier — the caller runs it after
    /// releasing the shard lock.
    fn insert_locked(
        &self,
        p: usize,
        shard: &mut Shard,
        record: StreamRecord,
    ) -> Result<Option<CompactTask>> {
        if let Some(wal) = shard.wal.as_mut() {
            // Appends are not retryable (a partially buffered frame cannot
            // be rewound), so a failed append degrades immediately.  The
            // record was never acknowledged and never reached the
            // memtable; if the torn buffer ever flushes, replay drops it
            // as the tolerated torn tail.
            wal.append(&record)
                .map_err(|e| self.inner.degrade("wal-append", e))?;
        }
        shard.memtable.insert(record)?;
        self.inner.telemetry.record_ingest(p);
        if shard.memtable.len() >= self.inner.config.seal_threshold {
            return self.seal_locked(p, shard).map(|(_, task)| task);
        }
        Ok(None)
    }

    /// Freezes a non-empty memtable for sealing: swaps in an empty memtable,
    /// assigns the seal sequence and rotates the WAL.  `O(1)` plus one file
    /// rename; runs under the shard write lock.
    fn freeze(&self, p: usize, shard: &mut Shard) -> Result<Option<SealTask>> {
        if shard.memtable.is_empty() {
            return Ok(None);
        }
        let (start, width) = self.inner.config.partitions.range(p);
        let memtable = std::mem::replace(&mut shard.memtable, Memtable::new(start, width));
        let seq = shard.next_seq;
        shard.next_seq += 1;
        let wal_frozen = match shard.wal.as_mut() {
            Some(wal) => match wal.rotate(seq) {
                Ok(frozen) => Some(frozen),
                Err(e) => {
                    // The lock is held and the fresh memtable is untouched:
                    // swap the records straight back so a failed rotation
                    // (disk full, rename error) loses nothing.  The retry
                    // budget is already spent inside rotate, so the store
                    // degrades.
                    shard.memtable = memtable;
                    shard.next_seq = seq;
                    return Err(self.inner.degrade("wal-rotate", e));
                }
            },
            None => None,
        };
        self.inner.seals.fetch_add(1, Ordering::Relaxed);
        self.inner
            .telemetry
            .record_frozen(p, seq, wal_frozen.is_some());
        let memtable = Arc::new(memtable);
        shard.frozen.push((seq, Arc::clone(&memtable)));
        Ok(Some(SealTask {
            partition: p,
            seq,
            memtable,
            wal_frozen,
        }))
    }

    /// Builds the configured synopsis segment from a frozen memtable —
    /// and, on a durable store, its `PDSG` encoding (computed here, off
    /// the shard lock, so the install only does file I/O).
    fn build_task(inner: &StoreInner, task: &SealTask) -> Result<(Segment, Option<Vec<u8>>)> {
        crashpoint::reached("frozen-pre-build");
        let sw = inner.telemetry.maybe_start();
        let relation = task.memtable.to_relation()?;
        let budget = inner.config.segment_budget.min(task.memtable.width());
        let segment = Segment::build(
            task.memtable.start(),
            task.memtable.len() as u64,
            &relation,
            inner.config.synopsis,
            budget,
        )?;
        let binary = match inner.durable {
            Some(_) => Some(segment.to_binary()?),
            None => None,
        };
        inner.telemetry.record_seal_build(sw);
        Ok((segment, binary))
    }

    /// Publishes a segment's durable blob — the block-structured `PDSB`
    /// encoding, self-framed by its footer and per-block CRCs — as
    /// `seg-<p>-<seq>.bin` via an atomic tmp-rename.  Both halves are
    /// idempotent (staging re-creates the tmp from scratch, rename/dir-sync
    /// re-issue cleanly), so each gets the policy's bounded retry.  On
    /// failure, the faulting site (`blob-write` or `blob-publish`) is
    /// returned alongside the error so the caller can degrade with an
    /// accurate label.
    fn write_segment_blob(
        durable: &Durable,
        policy: &IoPolicy,
        sync: WalSync,
        partition: usize,
        seq: u64,
        blob: &[u8],
    ) -> std::result::Result<(), (&'static str, PdsError)> {
        let blob_io = |context: &str, e: std::io::Error| PdsError::InvalidParameter {
            message: format!("store: {context}: {e}"),
        };
        let name = segment_blob_name(partition, seq);
        let tmp = durable.dir.join(format!("{name}.tmp"));
        policy
            .run("blob-write", || {
                // `create` truncates, so a retry restages from byte zero.
                let mut staged = vfs::create("blob-write", &tmp)?;
                vfs::write_all("blob-write", &tmp, &mut staged, blob)?;
                if sync == WalSync::Fsync {
                    vfs::sync_data("blob-write", &tmp, &staged)?;
                }
                Ok(())
            })
            .map_err(|e| ("blob-write", blob_io("staging a segment blob", e)))?;
        crashpoint::reached("mid-blob-publish");
        policy
            .run("blob-publish", || {
                vfs::rename("blob-publish", &tmp, &durable.dir.join(&name))
            })
            .map_err(|e| ("blob-publish", blob_io("publishing a segment blob", e)))?;
        if sync == WalSync::Fsync {
            // The manifest entry written next is the seal's commit point:
            // the blob's directory entry must hit the device first, or a
            // power loss could persist the entry but not the blob.
            policy
                .run("blob-publish", || {
                    vfs::sync_dir("blob-publish", &durable.dir)
                })
                .map_err(|e| ("blob-publish", blob_io("fsyncing the store directory", e)))?;
        }
        Ok(())
    }

    /// Installs a built segment at its sequence position: on a durable
    /// store its blob is published and the manifest records it (the seal's
    /// commit point) **before** the frozen WAL file retires; then the
    /// frozen memtable it was built from is dropped (the segment now
    /// carries the mass).  Returns the compaction round the install
    /// triggered, if the size-tiered policy found a full tier.
    /// The durable half of an install: publishes the blob and the manifest
    /// record (the seal's commit point).  Needs **no shard lock** — the
    /// background path runs it before acquiring one, so seal commits never
    /// stall ingest or queries on the shard; returns the bytes to cache.
    fn commit_durable(
        inner: &StoreInner,
        partition: usize,
        seq: u64,
        segment: &Segment,
        binary: Option<Vec<u8>>,
    ) -> Result<Option<Arc<Vec<u8>>>> {
        crashpoint::reached("built-pre-install");
        match (&inner.durable, binary) {
            (Some(durable), binary) => {
                // The None arm only happens for callers that skipped the
                // off-lock encode; keep them correct.
                let binary = match binary {
                    Some(b) => b,
                    None => segment.to_binary()?,
                };
                // The disk blob is the block-structured v2 encoding; the
                // in-memory cache stays the raw PDSG bytes (the store
                // binary format embeds those directly).
                let blob = segment.to_blob()?;
                let sw = inner.telemetry.maybe_start();
                let policy = inner.io_policy();
                Self::write_segment_blob(
                    durable,
                    &policy,
                    inner.config.wal_sync,
                    partition,
                    seq,
                    &blob,
                )
                .map_err(|(site, e)| inner.degrade(site, e))?;
                durable
                    .manifest
                    .lock()
                    .expect("manifest lock poisoned")
                    .install(partition, seq)
                    .map_err(|e| inner.degrade("manifest-install", e))?;
                inner.telemetry.record_seal_commit(sw, blob.len() as u64);
                crashpoint::reached("installed-pre-wal-retire");
                Ok(Some(Arc::new(binary)))
            }
            (None, binary) => Ok(binary.map(Arc::new)),
        }
    }

    /// The in-memory half of an install, run under the shard write lock
    /// after [`SynopsisStore::commit_durable`]: retires the frozen WAL
    /// file, swaps the segment in at its sequence position, drops the
    /// frozen memtable (the segment now carries the mass) and evaluates
    /// the compaction policy.  Infallible by design — the commit already
    /// happened, so nothing past this point may lose it.
    fn install_in_memory(
        inner: &StoreInner,
        shard: &mut Shard,
        partition: usize,
        seq: u64,
        segment: Segment,
        binary: Option<Arc<Vec<u8>>>,
        wal_frozen: Option<&Path>,
    ) -> Option<CompactTask> {
        if let Some(frozen) = wal_frozen {
            // The seal is already manifest-committed, so a failed retire
            // costs nothing but disk space (the covered log is skipped at
            // reopen); count it rather than drop it.
            inner
                .io_policy()
                .cleanup("wal-retire", PartitionWal::retire(frozen));
        }
        inner
            .telemetry
            .record_installed(partition, seq, segment.records());
        let pos = shard.segments.partition_point(|s| s.seq < seq);
        shard.segments.insert(
            pos,
            SealedSegment {
                seq,
                handle: Arc::new(SegmentHandle::eager(Arc::new(segment))),
                binary,
            },
        );
        shard.frozen.retain(|&(s, _)| s != seq);
        // A structural commit, made visible under this shard's write lock:
        // invalidates the merge cache and fences snapshot-view captures.
        inner.version.fetch_add(1, Ordering::SeqCst);
        Self::maybe_compaction(inner, shard, partition)
    }

    /// Both install halves back to back, for callers already holding the
    /// shard write lock (the inline seal paths).
    fn install_segment(
        inner: &StoreInner,
        shard: &mut Shard,
        partition: usize,
        seq: u64,
        segment: Segment,
        binary: Option<Vec<u8>>,
        wal_frozen: Option<&Path>,
    ) -> Result<Option<CompactTask>> {
        let binary = Self::commit_durable(inner, partition, seq, &segment, binary)?;
        Ok(Self::install_in_memory(
            inner, shard, partition, seq, segment, binary, wal_frozen,
        ))
    }

    /// Evaluates the size-tiered policy after an install (or a completed
    /// compaction round): once the partition has no seals in flight and no
    /// round running, a full tier reserves the next round — the output
    /// sequence is taken and the input handles cloned here, under the held
    /// write lock, so the merge itself runs lock-free.
    fn maybe_compaction(
        inner: &StoreInner,
        shard: &mut Shard,
        partition: usize,
    ) -> Option<CompactTask> {
        let policy = inner.config.compaction?;
        if shard.compacting || !shard.frozen.is_empty() {
            return None;
        }
        let sizes: Vec<(u64, u64)> = shard
            .segments
            .iter()
            .map(|s| (s.seq, s.handle.records()))
            .collect();
        let selected = policy.select(&sizes)?;
        let inputs = shard
            .segments
            .iter()
            .filter(|s| selected.contains(&s.seq))
            .map(|s| (s.seq, Arc::clone(&s.handle)))
            .collect();
        let out_seq = shard.next_seq;
        shard.next_seq += 1;
        shard.compacting = true;
        Some(CompactTask {
            partition,
            out_seq,
            inputs,
        })
    }

    /// Returns a frozen memtable's records to the live buffer (and its
    /// frozen WAL file to the live log) after a segment build failed, so a
    /// build error never loses records.
    fn unfreeze(inner: &StoreInner, shard: &mut Shard, task: SealTask) {
        shard.frozen.retain(|&(s, _)| s != task.seq);
        // The shard's shared reference was just dropped, so this is the
        // last one; clone only in the (unreachable) contended case.
        let memtable = Arc::try_unwrap(task.memtable).unwrap_or_else(|shared| (*shared).clone());
        shard.memtable.absorb_front(memtable);
        if let (Some(wal), Some(frozen)) = (shard.wal.as_mut(), task.wal_frozen.as_deref()) {
            // Best-effort: the records are back in memory either way, and
            // at reopen the un-reabsorbed frozen log replays them (its
            // seal never committed) — but a failure is counted, not
            // dropped.
            if wal.reabsorb(frozen).is_err() {
                inner.telemetry.record_cleanup_error("cleanup");
            }
        }
        inner.seals.fetch_sub(1, Ordering::Relaxed);
    }

    /// Seals (or schedules the seal of) the frozen task: background workers
    /// when enabled, otherwise built inline under the held shard lock.  An
    /// inline build failure restores the frozen records to the memtable
    /// before surfacing the error.  The second return is the compaction
    /// round an inline install triggered — run it after the lock drops.
    fn seal_locked(&self, p: usize, shard: &mut Shard) -> Result<(bool, Option<CompactTask>)> {
        let Some(task) = self.freeze(p, shard)? else {
            return Ok((false, None));
        };
        match &self.sealer {
            Some(sealer) => {
                sealer.submit(Task::Seal(task));
                Ok((true, None))
            }
            None => match Self::build_task(&self.inner, &task) {
                Ok((segment, binary)) => {
                    match Self::install_segment(
                        &self.inner,
                        shard,
                        p,
                        task.seq,
                        segment,
                        binary,
                        task.wal_frozen.as_deref(),
                    ) {
                        Ok(next) => Ok((true, next)),
                        Err(e) => {
                            Self::unfreeze(&self.inner, shard, task);
                            Err(e)
                        }
                    }
                }
                Err(e) => {
                    Self::unfreeze(&self.inner, shard, task);
                    Err(e)
                }
            },
        }
    }

    /// Seals partition `p`'s memtable into an immutable segment (a no-op on
    /// an empty memtable).  Returns whether a seal was performed — or, with
    /// background sealing, scheduled ([`SynopsisStore::flush`] waits for
    /// it).
    pub fn seal_partition(&self, p: usize) -> Result<bool> {
        self.inner.check_writable()?;
        let (sealed, compaction) = {
            let mut shard = self.write_shard(p);
            // analyze:allow(lock-discipline) freeze + WAL rotation must be atomic with the memtable swap; the expensive segment build runs after this guard drops
            self.seal_locked(p, &mut shard)?
        };
        self.run_compactions(compaction.into_iter().collect())?;
        Ok(sealed)
    }

    /// Seals every non-empty memtable and waits for the resulting segments:
    /// the freezes happen serially (cheap swaps), the segment builds run on
    /// the background workers when enabled or on the scoped thread pool
    /// otherwise, and installation order follows the seal sequence — the
    /// sealed state is identical to serial sealing at every thread count.
    pub fn seal_all(&self) -> Result<()> {
        self.inner.check_writable()?;
        let mut tasks = Vec::new();
        for p in 0..self.num_partitions() {
            let mut shard = self.write_shard(p);
            // analyze:allow(lock-discipline) freeze only swaps the memtable and rotates this shard's own WAL; segment builds run outside the guard
            if let Some(task) = self.freeze(p, &mut shard)? {
                tasks.push(task);
            }
        }
        match &self.sealer {
            Some(sealer) => {
                for task in tasks {
                    sealer.submit(Task::Seal(task));
                }
                self.flush()
            }
            None => {
                let built = pool::parallel_map(tasks, |task| {
                    let result = Self::build_task(&self.inner, &task);
                    (task, result)
                });
                let mut first_error = None;
                let mut compactions = Vec::new();
                for (task, result) in built {
                    let installed = result.and_then(|(segment, binary)| {
                        // Commit durably before the lock; hold it only for
                        // the in-memory swap.
                        let binary = Self::commit_durable(
                            &self.inner,
                            task.partition,
                            task.seq,
                            &segment,
                            binary,
                        )?;
                        let mut shard = self.write_shard(task.partition);
                        Ok(Self::install_in_memory(
                            &self.inner,
                            &mut shard,
                            task.partition,
                            task.seq,
                            segment,
                            binary,
                            task.wal_frozen.as_deref(),
                        ))
                    });
                    match installed {
                        Ok(next) => compactions.extend(next),
                        Err(e) => {
                            // A failed build (or a failed durable commit)
                            // never loses records: they rejoin the live
                            // memtable.
                            let mut shard = self.write_shard(task.partition);
                            Self::unfreeze(&self.inner, &mut shard, task);
                            first_error.get_or_insert(e);
                        }
                    }
                }
                let compacted = self.run_compactions(compactions);
                match first_error {
                    Some(e) => Err(e),
                    None => compacted,
                }
            }
        }
    }

    /// The summed piecewise-constant summary of partition `p`'s sealed
    /// segments (`None` when the partition has no segments or `p` is out of
    /// range).  Poison-recovering (see `read_shard`).  Handles are cloned
    /// out of the read guard first, so a lazily-backed segment's block
    /// read never runs under a shard lock; an unreadable block fails the
    /// merge (which must be complete or an error, never silently partial).
    fn partition_pieces(&self, p: usize) -> Result<Option<Vec<Piece>>> {
        let Some(handles) = self.read_shard(p).map(|shard| shard.handles()) else {
            return Ok(None);
        };
        let mut layers: Vec<Vec<Piece>> = Vec::with_capacity(handles.len());
        for handle in &handles {
            layers.push(handle.load()?.pieces());
        }
        match layers.len() {
            0 => Ok(None),
            1 => Ok(layers.pop()),
            _ => sum_pieces(&layers).map(Some),
        }
    }

    /// Builds a compaction round's merged segment from the cloned input
    /// handles — the expensive half (piece summing + the merge DP), run
    /// with **no lock held**.
    fn build_compacted(
        inner: &StoreInner,
        task: &CompactTask,
    ) -> Result<(Segment, Option<Vec<u8>>)> {
        // Lazily-backed inputs load here, with no lock held; a block that
        // cannot be read fails the round (the inputs stay authoritative)
        // rather than merging a silently incomplete set.
        let mut layers: Vec<Vec<Piece>> = Vec::with_capacity(task.inputs.len());
        for (_, handle) in &task.inputs {
            layers.push(handle.load()?.pieces());
        }
        let summed = sum_pieces(&layers)?;
        let (start, width) = inner.config.partitions.range(task.partition);
        let budget = inner.config.segment_budget.min(width);
        let synopsis = match inner.config.synopsis {
            SynopsisKind::Histogram(_) => {
                SegmentSynopsis::Histogram(optimal_piecewise_histogram(&summed, budget)?)
            }
            SynopsisKind::Wavelet => {
                // Re-threshold the summed estimate vector: wavelets have no
                // piece-level DP, so go through the dense reconstruction.
                let dense: Vec<f64> = summed
                    .iter()
                    .flat_map(|piece| std::iter::repeat_n(piece.value, piece.width))
                    .collect();
                let relation = ValuePdfModel::deterministic(&dense).into();
                SegmentSynopsis::Wavelet(build_sse_wavelet(&relation, budget)?)
            }
        };
        let records = task.inputs.iter().map(|(_, h)| h.records()).sum();
        let segment = Segment::new(start, records, synopsis)?;
        let binary = match inner.durable {
            Some(_) => Some(segment.to_binary()?),
            None => None,
        };
        Ok((segment, binary))
    }

    /// Runs one reserved compaction round end to end: merge off-lock, blob
    /// publish, then the **short write lock** — remove the inputs, insert
    /// the output at its reserved sequence, commit through the manifest
    /// (atomic publish retiring the superseded blobs) and re-evaluate the
    /// policy.  Returns the follow-up round, if the swap filled another
    /// tier.  Every exit clears the partition's `compacting` flag.
    fn run_compact_task(inner: &StoreInner, task: CompactTask) -> Result<Option<CompactTask>> {
        let sw = inner.telemetry.maybe_start();
        let clear_flag = || {
            inner.shards[task.partition]
                .write()
                .expect("shard lock poisoned")
                .compacting = false;
        };
        // A degraded store runs no rounds: the inputs stay authoritative
        // and queryable.  The reserved round still clears its flag.
        if let Err(e) = inner.check_writable() {
            clear_flag();
            return Err(e);
        }
        let (merged, binary) = match Self::build_compacted(inner, &task) {
            Ok(built) => built,
            Err(e) => {
                clear_flag();
                return Err(e);
            }
        };
        crashpoint::reached("mid-compaction-swap");
        let input_seqs: Vec<u64> = task.inputs.iter().map(|&(seq, _)| seq).collect();
        // The reservation serialises rounds per partition and seals only
        // add segments, so the inputs must still be present; anything else
        // is a logic error worth surfacing (checked before the durable
        // commit makes the round irreversible).
        {
            let shard = inner.shards[task.partition]
                .read()
                .expect("shard lock poisoned");
            if input_seqs
                .iter()
                .any(|seq| !shard.segments.iter().any(|s| s.seq == *seq))
            {
                drop(shard);
                clear_flag();
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "compaction inputs of partition {} changed under a reserved round",
                        task.partition
                    ),
                });
            }
        }
        // Durable: stage the output blob, then commit the replacement
        // through the manifest — all **before** the shard write lock, so
        // the lock is held only for the in-memory swap (same discipline as
        // seal installs).  A crash before the publish leaves the inputs
        // authoritative and the output blob an orphan (swept at open); a
        // crash after it reopens compacted.
        let mut blob_bytes = 0u64;
        if let Some(durable) = &inner.durable {
            let policy = inner.io_policy();
            let blob = match merged.to_blob() {
                Ok(blob) => blob,
                Err(e) => {
                    clear_flag();
                    return Err(e);
                }
            };
            blob_bytes = blob.len() as u64;
            if let Err((site, e)) = Self::write_segment_blob(
                durable,
                &policy,
                inner.config.wal_sync,
                task.partition,
                task.out_seq,
                &blob,
            ) {
                clear_flag();
                return Err(inner.degrade(site, e));
            }
            let committed = durable
                .manifest
                .lock()
                .expect("manifest lock poisoned")
                .replace(task.partition, &input_seqs, task.out_seq);
            if let Err(e) = committed {
                // The manifest still names the inputs; drop the orphan
                // output blob (counted on failure, and swept again at the
                // next open either way) and surface the error.
                policy.cleanup(
                    "cleanup",
                    vfs::remove_file(
                        "cleanup",
                        &durable
                            .dir
                            .join(segment_blob_name(task.partition, task.out_seq)),
                    ),
                );
                clear_flag();
                return Err(inner.degrade("manifest-replace", e));
            }
        }
        // Short write lock: swap the output in, release, then delete the
        // superseded blobs (the manifest no longer names them).
        let next = {
            let mut shard = inner.shards[task.partition]
                .write()
                .expect("shard lock poisoned");
            shard.segments.retain(|s| !input_seqs.contains(&s.seq));
            let pos = shard.segments.partition_point(|s| s.seq < task.out_seq);
            shard.segments.insert(
                pos,
                SealedSegment {
                    seq: task.out_seq,
                    handle: Arc::new(SegmentHandle::eager(Arc::new(merged))),
                    binary: binary.map(Arc::new),
                },
            );
            shard.compacting = false;
            // The swap is a structural commit (see `StoreInner::version`).
            inner.version.fetch_add(1, Ordering::SeqCst);
            Self::maybe_compaction(inner, &mut shard, task.partition)
        };
        inner.telemetry.record_compaction(
            sw,
            task.partition,
            task.out_seq,
            input_seqs.len() as u64,
            blob_bytes,
        );
        if let Some(durable) = &inner.durable {
            // Superseded input blobs are garbage once the replace record is
            // durable; a failed delete is counted, not fatal (the orphan
            // sweep at the next open removes the leftover).
            let policy = inner.io_policy();
            for seq in &input_seqs {
                policy.cleanup(
                    "cleanup",
                    vfs::remove_file(
                        "cleanup",
                        &durable.dir.join(segment_blob_name(task.partition, *seq)),
                    ),
                );
            }
        }
        Ok(next)
    }

    /// Compacts partition `p`: its sealed segments are summed on the union
    /// of their bucket boundaries and re-bucketed to the segment budget via
    /// the merge DP, leaving one segment.  A no-op with fewer than two
    /// segments, or while a background round is already running for the
    /// partition ([`SynopsisStore::flush`] settles it).
    ///
    /// The shard write lock is held only to reserve the round and to swap
    /// the merged segment in — the merge DP runs against cloned segment
    /// handles with no lock held, so ingest and queries proceed during
    /// compaction.
    pub fn compact_partition(&self, p: usize) -> Result<()> {
        self.inner.check_writable()?;
        let task = {
            let mut shard = self.write_shard(p);
            if shard.compacting || shard.segments.len() < 2 {
                return Ok(());
            }
            let inputs = shard
                .segments
                .iter()
                .map(|s| (s.seq, Arc::clone(&s.handle)))
                .collect();
            let out_seq = shard.next_seq;
            shard.next_seq += 1;
            shard.compacting = true;
            CompactTask {
                partition: p,
                out_seq,
                inputs,
            }
        };
        self.run_compactions(vec![task])
    }

    /// Compacts every partition, one pool task per partition (partitions
    /// are independent, so the result is identical to serial compaction).
    pub fn compact_all(&self) -> Result<()> {
        let results = pool::parallel_map((0..self.num_partitions()).collect(), |p| {
            self.compact_partition(p)
        });
        results.into_iter().collect()
    }

    /// Recombines the sealed per-partition synopses into one global
    /// `b`-bucket histogram via the partition-merge DP: the candidate cut
    /// points are exactly the partition/bucket boundaries, and partitions
    /// with no sealed data contribute a zero run.  Piece extraction runs one
    /// pool task per partition.  Live memtable records are **not** included
    /// — seal first for a full snapshot.
    pub fn merge_global(&self, b: usize) -> Result<Histogram> {
        let sw = self.inner.telemetry.maybe_start();
        let merged = self.merge_global_core(b);
        self.inner.telemetry.record_query(QueryOp::MergeGlobal, sw);
        merged
    }

    /// The untimed body of [`SynopsisStore::merge_global`] (the public
    /// wrapper only adds the query-latency observation).
    ///
    /// Memoised: the result is cached keyed on `(version, b)` (see
    /// `StoreInner::version`), so repeated merges over a quiet store are
    /// one mutex lock and a histogram clone — `O(b)`, not a re-run of the
    /// merge DP.  Any seal install or compaction swap bumps the version
    /// and the next merge recomputes; the cached value is always exactly
    /// what the recompute would produce (pinned by the
    /// `store_read_path` suite).
    fn merge_global_core(&self, b: usize) -> Result<Histogram> {
        if b == 0 {
            return Err(PdsError::InvalidParameter {
                message: "merge_global needs a bucket budget of at least 1".into(),
            });
        }
        // Read the version BEFORE extracting pieces: a structural commit
        // racing the computation can only make the stamp stale (a needless
        // later recompute), never a wrong cache hit.
        let v0 = self.inner.version.load(Ordering::SeqCst);
        {
            let cache = self
                .inner
                .merge_cache
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = cache.as_ref() {
                if entry.version == v0 && entry.b == b {
                    self.inner.telemetry.record_merge_cache(true);
                    return Ok(entry.histogram.clone());
                }
            }
        }
        self.inner.telemetry.record_merge_cache(false);
        let per_partition = pool::parallel_map((0..self.num_partitions()).collect(), |p| {
            self.partition_pieces(p)
        });
        let mut pieces: Vec<Piece> = Vec::new();
        for (p, extracted) in per_partition.into_iter().enumerate() {
            match extracted? {
                Some(mut summed) => pieces.append(&mut summed),
                None => {
                    let (_, width) = self.inner.config.partitions.range(p);
                    pieces.push(Piece { width, value: 0.0 });
                }
            }
        }
        // More buckets than candidate cut ranges would silently clamp in
        // the DP and hand back fewer buckets than asked for; surface the
        // bad budget instead of a degenerate histogram.
        if b > pieces.len() {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "merge budget {b} exceeds the {} available synopsis piece(s); \
                     seal more data or lower b",
                    pieces.len()
                ),
            });
        }
        let merged = optimal_piecewise_histogram(&pieces, b)?;
        *self
            .inner
            .merge_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(MergeCache {
            version: v0,
            b,
            histogram: merged.clone(),
        });
        Ok(merged)
    }

    /// Estimated expected total frequency over the **global** inclusive
    /// item range `[lo, hi]`: sealed segments answer from their synopses,
    /// live memtables from their exact running expectations.  Read-locks
    /// only the shards overlapping the range.
    ///
    /// Total on the panic-free serving contract: a range lying (partly or
    /// wholly) outside the domain is clamped to it, an empty-domain store
    /// answers 0.0, and shard-lock poisoning is recovered from (see
    /// `read_shard`) — a network front-end can expose this path directly.
    pub fn range_estimate(&self, lo: usize, hi: usize) -> f64 {
        let sw = self.inner.telemetry.maybe_start();
        let total = self.range_estimate_core(lo, hi);
        self.inner.telemetry.record_query(QueryOp::Range, sw);
        total
    }

    /// The untimed body of [`SynopsisStore::range_estimate`], shared with
    /// [`SynopsisStore::estimate`] so a point query records one
    /// `op="estimate"` sample, never an extra `op="range_estimate"` one.
    /// Same panic-free serving contract as the public wrapper.
    fn range_estimate_core(&self, lo: usize, hi: usize) -> f64 {
        let config = &self.inner.config;
        let sum = RangeSum::over(&config.partitions, config.prune, lo, hi, |p, sum| {
            // Read the handles and the memtable sums under a brief guard,
            // then sum off-guard: a lazily-backed handle's first touch
            // reads its synopsis block from disk, which must never run
            // under a shard lock.
            let Some(shard) = self.read_shard(p) else {
                return;
            };
            let handles = shard.handles();
            let live = shard.memtable.range_sum(sum.lo, sum.hi);
            // A memtable frozen for an in-flight background seal still
            // carries its mass until the segment installs.
            let frozen: Vec<f64> = shard
                .frozen
                .iter()
                .map(|(_, m)| m.range_sum(sum.lo, sum.hi))
                .collect();
            drop(shard);
            sum.add(&handles, std::iter::once(live).chain(frozen));
        });
        self.inner.telemetry.record_scan(sum.visited, sum.pruned);
        sum.total
    }

    /// The estimated expected frequency of one item.
    pub fn estimate(&self, item: usize) -> f64 {
        let sw = self.inner.telemetry.maybe_start();
        let value = self.range_estimate_core(item, item);
        self.inner.telemetry.record_query(QueryOp::Point, sw);
        value
    }

    /// An immutable point-in-time view of the whole store for serving
    /// queries: per partition, the `Arc`-cloned sealed-segment handles and
    /// `MemtableCapture`s of the live and frozen memtables (never their
    /// records), captured under one brief read lock per shard
    /// (poison-recovering, see `read_shard`) in `O(partitions + segments)`.
    /// The view answers [`SnapshotView::range_estimate`] with **bitwise**
    /// the store's answer at capture time, holds no locks, and is
    /// unaffected by later ingest — a network front-end can serve from it
    /// without ever holding a shard lock across I/O.
    pub fn snapshot_view(&self) -> SnapshotView {
        let sw = self.inner.telemetry.maybe_start();
        let view = self.snapshot_view_core();
        self.inner.telemetry.record_query(QueryOp::Snapshot, sw);
        view
    }

    /// The untimed body of [`SynopsisStore::snapshot_view`].
    ///
    /// Consistency: capturing shard by shard under per-shard read locks can
    /// interleave with a concurrent structural commit and observe partition
    /// `p` from *before* it and partition `q` from *after* it — a torn
    /// view (historically possible; now excluded).  The capture runs an
    /// optimistic loop against the store-wide structural version counter:
    /// read `v0`, capture every shard, re-read `v1` — equal versions prove
    /// no seal install or compaction swap landed inside the capture
    /// window, so the captured parts form one consistent cut.  Under
    /// sustained structural churn the loop falls back (after a bounded
    /// number of retries) to holding **all** shard read locks at once,
    /// acquired in ascending partition order: a capture that is consistent
    /// by construction and merely delays concurrent installs briefly.
    fn snapshot_view_core(&self) -> SnapshotView {
        const CAPTURE_RETRIES: usize = 8;
        for _ in 0..CAPTURE_RETRIES {
            let v0 = self.inner.version.load(Ordering::SeqCst);
            let parts = self.capture_parts();
            let v1 = self.inner.version.load(Ordering::SeqCst);
            if v0 == v1 {
                return self.view_from(parts);
            }
        }
        // Fallback: with every shard read-locked for the whole capture no
        // structural commit can interleave, so the cut is consistent.
        let guards: Vec<_> = self
            .inner
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()))
            .collect();
        let parts = guards.iter().map(|g| Self::capture_one(g)).collect();
        drop(guards);
        self.view_from(parts)
    }

    /// Captures one shard's contents as a [`ViewPartition`]: `Arc` clones
    /// of the segment handles and memtable frequencies.  No I/O; allocates
    /// per segment and frozen memtable, never per unsealed record.
    fn capture_one(shard: &Shard) -> ViewPartition {
        ViewPartition {
            segments: shard.handles(),
            live: shard.memtable.capture(),
            frozen: shard.frozen.iter().map(|(_, m)| m.capture()).collect(),
        }
    }

    /// Captures every shard one at a time under brief per-shard read
    /// locks.  The caller must validate cross-shard consistency (see
    /// `snapshot_view_core`) — a single pass on its own can tear.
    fn capture_parts(&self) -> Vec<ViewPartition> {
        self.inner
            .shards
            .iter()
            .map(|s| {
                let shard = s.read().unwrap_or_else(|e| e.into_inner());
                Self::capture_one(&shard)
            })
            .collect()
    }

    /// Wraps captured parts into a [`SnapshotView`], stamping the store's
    /// partition spec and prune knob so the view answers queries exactly
    /// as the store would have at capture time.
    fn view_from(&self, parts: Vec<ViewPartition>) -> SnapshotView {
        SnapshotView {
            partitions: self.inner.config.partitions.clone(),
            prune: self.inner.config.prune,
            parts,
        }
    }

    /// Serialises the sealed state into the compact binary format.  Live
    /// memtable records are intentionally **not** persisted — the store
    /// refuses to serialise while unsealed data exists (including seals
    /// still in flight on background workers), so a snapshot can never
    /// silently drop records; call [`SynopsisStore::snapshot`] to seal and
    /// serialise in one step, or [`SynopsisStore::seal_all`] first.
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        if let Some(sealer) = &self.sealer {
            let state = sealer.queue.state.lock().expect("seal queue poisoned");
            if state.pending > 0 || state.error.is_some() {
                // An unacknowledged background failure also blocks
                // persistence: the failed seal's records were restored to a
                // memtable, but the error must reach the caller via
                // flush(), not vanish behind a snapshot.
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "store has {} background seal(s) in flight{}; call flush() before persisting",
                        state.pending,
                        if state.error.is_some() {
                            " and an unreported seal error"
                        } else {
                            ""
                        }
                    ),
                });
            }
        }
        let live = self.stats().live_records;
        if live > 0 {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store has {live} unsealed records; call snapshot() or seal_all() before persisting"
                ),
            });
        }
        let mut w = ByteWriter::envelope(Self::BINARY_MAGIC, Self::BINARY_VERSION);
        let bounds = &self.inner.config.partitions.bounds;
        w.put_varint(bounds.len() as u64);
        let mut prev = 0u64;
        for &b in bounds {
            w.put_varint(b as u64 - prev);
            prev = b as u64;
        }
        w.put_varint(self.inner.config.seal_threshold as u64);
        w.put_varint(self.inner.config.segment_budget as u64);
        encode_synopsis_kind(&mut w, self.inner.config.synopsis);
        w.put_varint(self.inner.ingested.load(Ordering::Relaxed));
        w.put_varint(self.inner.seals.load(Ordering::Relaxed));
        w.put_varint(self.inner.split_tuples.load(Ordering::Relaxed));
        for shard in &self.inner.shards {
            // Capture the handles under a brief read guard, then encode
            // off-guard: the cold fallback below may lazily load a
            // synopsis block from disk, which must never run under a
            // shard lock.
            // A segment's handle plus its cached install-time blob bytes.
            type CapturedBlob = (Arc<SegmentHandle>, Option<Arc<Vec<u8>>>);
            let sealed: Vec<CapturedBlob> = {
                let shard = shard.read().unwrap_or_else(|e| e.into_inner());
                shard
                    .segments
                    .iter()
                    .map(|s| (Arc::clone(&s.handle), s.binary.clone()))
                    .collect()
            };
            w.put_varint(sealed.len() as u64);
            for (handle, binary) in sealed {
                // Installed segments carry their PDSG encoding from install
                // (or decode) time: the incremental-snapshot path — nothing
                // already serialised is serialised again.  The cold
                // fallback covers lazily reopened stores whose synopsis
                // block was never cached alongside the handle.
                let blob: Arc<Vec<u8>> = match binary {
                    Some(cached) => cached,
                    None => Arc::new(handle.load()?.to_binary()?),
                };
                w.put_varint(blob.len() as u64);
                w.put_bytes(&blob);
            }
        }
        Ok(w.into_bytes())
    }

    /// Seals every live memtable (waiting for background builds) and
    /// serialises the result: the "persist everything now" entry point.
    /// Sealing — rather than copying raw records into the snapshot — keeps
    /// the binary format segment-only and the write amplification bounded;
    /// records that must survive *without* being sealed into synopses
    /// belong to the write-ahead log ([`SynopsisStore::open_with_wal`]),
    /// which covers exactly the live/in-flight window this method closes.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        self.seal_all()?;
        self.to_binary()
    }

    /// Reconstructs a store from [`SynopsisStore::to_binary`] output,
    /// rejecting truncation, version skew and segments that do not tile
    /// their partition with a [`PdsError`] — never a panic.
    pub fn from_binary(bytes: &[u8]) -> Result<Self> {
        let (mut r, version) = ByteReader::envelope(bytes, "synopsis store", Self::BINARY_MAGIC)?;
        if version != Self::BINARY_VERSION {
            return Err(PdsError::InvalidParameter {
                message: format!(
                    "store binary version {version} is not supported (expected {})",
                    Self::BINARY_VERSION
                ),
            });
        }
        let bound_count = r.get_len(1 << 24)?;
        let mut bounds = Vec::with_capacity(bound_count);
        let mut acc = 0usize;
        for i in 0..bound_count {
            let delta = r.get_len(u32::MAX as usize)?;
            acc += delta;
            if i == 0 && delta != 0 {
                return Err(PdsError::InvalidParameter {
                    message: "store: partition bounds must start at 0".into(),
                });
            }
            bounds.push(acc);
        }
        let partitions = PartitionSpec::from_bounds(bounds)?;
        // Plain scalars, not allocation sizes: any value the writer accepted
        // must decode (the "never auto-seal" configs use huge thresholds).
        let seal_threshold = r.get_len(usize::MAX)?;
        let segment_budget = r.get_len(usize::MAX)?;
        let synopsis = decode_synopsis_kind(&mut r)?;
        let ingested = r.get_varint()?;
        let seals = r.get_varint()?;
        let split_tuples = r.get_varint()?;
        // The runtime knobs (compaction policy, durability tier) are not
        // part of the persistent format; a decoded store gets the defaults.
        let store = SynopsisStore::new(StoreConfig::new(
            partitions,
            seal_threshold,
            segment_budget,
            synopsis,
        ))?;
        for p in 0..store.num_partitions() {
            let count = r.get_len(1 << 24)?;
            let (start, width) = store.inner.config.partitions.range(p);
            let mut shard = store.write_shard(p);
            for seq in 0..count {
                let len = r.get_len(r.remaining())?;
                let blob = r.get_bytes(len)?;
                let segment = Segment::from_binary(blob)?;
                if segment.start() != start || segment.width() != width {
                    return Err(PdsError::InvalidParameter {
                        message: format!(
                            "segment [{}, {}] does not tile partition {p} ([{start}, {}])",
                            segment.start(),
                            segment.end(),
                            start + width - 1
                        ),
                    });
                }
                shard.segments.push(SealedSegment {
                    seq: seq as u64,
                    handle: Arc::new(SegmentHandle::eager(Arc::new(segment))),
                    binary: Some(Arc::new(blob.to_vec())),
                });
            }
            shard.next_seq = count as u64;
        }
        r.finish()?;
        store.inner.ingested.store(ingested, Ordering::Relaxed);
        store.inner.seals.store(seals, Ordering::Relaxed);
        store
            .inner
            .split_tuples
            .store(split_tuples, Ordering::Relaxed);
        Ok(store)
    }
}

fn encode_synopsis_kind(w: &mut ByteWriter, kind: SynopsisKind) {
    match kind {
        SynopsisKind::Histogram(metric) => {
            w.put_u8(0);
            match metric {
                ErrorMetric::Sse => w.put_u8(0),
                ErrorMetric::Ssre { c } => {
                    w.put_u8(1);
                    w.put_f64(c);
                }
                ErrorMetric::Sae => w.put_u8(2),
                ErrorMetric::Sare { c } => {
                    w.put_u8(3);
                    w.put_f64(c);
                }
                ErrorMetric::Mae => w.put_u8(4),
                ErrorMetric::Mare { c } => {
                    w.put_u8(5);
                    w.put_f64(c);
                }
            }
        }
        SynopsisKind::Wavelet => w.put_u8(1),
    }
}

fn decode_synopsis_kind(r: &mut ByteReader<'_>) -> Result<SynopsisKind> {
    match r.get_u8()? {
        0 => {
            let metric = match r.get_u8()? {
                0 => ErrorMetric::Sse,
                1 => ErrorMetric::Ssre { c: r.get_f64()? },
                2 => ErrorMetric::Sae,
                3 => ErrorMetric::Sare { c: r.get_f64()? },
                4 => ErrorMetric::Mae,
                5 => ErrorMetric::Mare { c: r.get_f64()? },
                other => {
                    return Err(PdsError::InvalidParameter {
                        message: format!("store: unknown error metric tag {other}"),
                    })
                }
            };
            Ok(SynopsisKind::Histogram(metric))
        }
        1 => Ok(SynopsisKind::Wavelet),
        other => Err(PdsError::InvalidParameter {
            message: format!("store: unknown synopsis kind tag {other}"),
        }),
    }
}

/// The one bound-handling contract shared by every read path: clamps the
/// inclusive query range `[lo, hi]` to the store domain `[0, n)`.
/// Returns `None` — the caller answers `0.0` — when the domain is empty,
/// `lo` lies at or past the domain end, or the range is inverted
/// (`hi < lo`); otherwise `Some((lo, min(hi, n - 1)))`.  Factoring this
/// into one helper keeps [`SynopsisStore::range_estimate`],
/// [`SynopsisStore::estimate`] and [`SnapshotView::range_estimate`] from
/// drifting apart on edge cases — historically each open-coded its own
/// clamp — and the server pins the resulting wire behaviour: an
/// out-of-domain `RANGE`/`EST` answers `OK 0`, never an error.
fn clamp_range(n: usize, lo: usize, hi: usize) -> Option<(usize, usize)> {
    if n == 0 || lo >= n || hi < lo {
        return None;
    }
    Some((lo, hi.min(n - 1)))
}

/// One partition of a [`SnapshotView`]: the `Arc`-shared sealed-segment
/// handles plus [`MemtableCapture`]s of the live and frozen memtables.
#[derive(Debug, Clone)]
struct ViewPartition {
    segments: Vec<Arc<SegmentHandle>>,
    live: MemtableCapture,
    frozen: Vec<MemtableCapture>,
}

/// A range sum over the clamped global window `[lo, hi]`: the one
/// summation routine behind every read path, counting the segments it
/// visited and pruned (the store records them; views record nothing).
#[derive(Default)]
struct RangeSum {
    lo: usize,
    hi: usize,
    prune: bool,
    total: f64,
    visited: u64,
    pruned: u64,
}

impl RangeSum {
    /// Clamps `[lo, hi]` (see [`clamp_range`]) and hands the sum to
    /// `partition` for each overlapping partition in ascending order.
    fn over(
        partitions: &PartitionSpec,
        prune: bool,
        lo: usize,
        hi: usize,
        mut partition: impl FnMut(usize, &mut RangeSum),
    ) -> RangeSum {
        let mut sum = RangeSum::default();
        let Some((lo, hi)) = clamp_range(partitions.n(), lo, hi) else {
            return sum;
        };
        // `lo <= hi < n`, so both lookups are in-domain; degrade to an
        // empty answer rather than panic if that invariant ever breaks.
        let (Ok(first), Ok(last)) = (partitions.partition_of(lo), partitions.partition_of(hi))
        else {
            return sum;
        };
        (sum.lo, sum.hi, sum.prune) = (lo, hi, prune);
        for p in first..=last {
            partition(p, &mut sum);
        }
        sum
    }

    /// Adds one partition's terms in their load-bearing order (f64
    /// addition is order- and grouping-sensitive): segments in install
    /// order, then the live memtable's sum, then each frozen one's — so
    /// pruned, lazy and eager paths and views all agree bitwise (see
    /// `StoreConfig::prune` for why skipping a fenced-out segment is exact).
    fn add(&mut self, handles: &[Arc<SegmentHandle>], memtables: impl Iterator<Item = f64>) {
        for handle in handles {
            if self.prune && !handle.may_overlap(self.lo, self.hi) {
                self.pruned += 1;
                continue;
            }
            self.visited += 1;
            self.total += handle.range_sum(self.lo, self.hi);
        }
        for sum in memtables {
            self.total += sum;
        }
    }
}

/// An immutable point-in-time view of a [`SynopsisStore`], captured by
/// [`SynopsisStore::snapshot_view`]: answers point/range estimates
/// **bitwise-identically** to the store at capture time, holds no locks,
/// shares the sealed segments and memtable frequencies by `Arc` (writers
/// copy-on-write), and is isolated from every later ingest, seal or
/// compaction.  The serving surface for read paths that must never block
/// writers or hold a shard lock across I/O.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    partitions: PartitionSpec,
    /// The store's [`StoreConfig::prune`] knob at capture time, so the
    /// view prunes (or not) exactly as its store would have.
    prune: bool,
    parts: Vec<ViewPartition>,
}

impl SnapshotView {
    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.partitions.n()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Sealed segments captured by the view, summed over all partitions.
    pub fn segment_count(&self) -> usize {
        self.parts.iter().map(|p| p.segments.len()).sum()
    }

    /// Records still unsealed at capture time (live + frozen memtables).
    pub fn live_records(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.live.len() as u64 + p.frozen.iter().map(|m| m.len() as u64).sum::<u64>())
            .sum()
    }

    /// Estimated expected total frequency over the inclusive item range
    /// `[lo, hi]` **at capture time**: the store's own summation routine
    /// over the captured partitions, so bitwise the store's answer then.
    /// Records no scan telemetry (a view may outlive its store).
    /// Panic-free on any input.
    pub fn range_estimate(&self, lo: usize, hi: usize) -> f64 {
        RangeSum::over(&self.partitions, self.prune, lo, hi, |p, sum| {
            if let Some(part) = self.parts.get(p) {
                let (lo, hi) = (sum.lo, sum.hi);
                let memtables = std::iter::once(&part.live).chain(&part.frozen);
                sum.add(&part.segments, memtables.map(|m| m.range_sum(lo, hi)));
            }
        })
        .total
    }

    /// The estimated expected frequency of one item at capture time.
    pub fn estimate(&self, item: usize) -> f64 {
        self.range_estimate(item, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::stream::{basic_stream, BasicStreamConfig};

    fn config(n: usize, parts: usize, threshold: usize) -> StoreConfig {
        StoreConfig::new(
            PartitionSpec::uniform(n, parts).unwrap(),
            threshold,
            8,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        )
    }

    #[test]
    fn partition_spec_routes_and_validates() {
        let spec = PartitionSpec::uniform(10, 3).unwrap();
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.n(), 10);
        assert_eq!(spec.range(0), (0, 3));
        assert_eq!(spec.range(2), (6, 4));
        assert_eq!(spec.partition_of(0).unwrap(), 0);
        assert_eq!(spec.partition_of(5).unwrap(), 1);
        assert_eq!(spec.partition_of(9).unwrap(), 2);
        assert!(spec.partition_of(10).is_err());
        assert!(PartitionSpec::uniform(2, 3).is_err());
        assert!(PartitionSpec::from_bounds(vec![1, 5]).is_err());
        assert!(PartitionSpec::from_bounds(vec![0, 5, 5]).is_err());
        assert!(PartitionSpec::from_bounds(vec![0]).is_err());
    }

    #[test]
    fn ingest_routes_seals_and_serves() {
        let store = SynopsisStore::new(config(12, 3, 4)).unwrap();
        // Exactly threshold records into partition 0 trigger an auto-seal.
        for i in 0..4 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 4,
                    prob: 0.5,
                })
                .unwrap();
        }
        assert_eq!(store.segments(0).len(), 1);
        assert!(store.memtable_snapshot(0).is_empty());
        // Live records in another partition are served exactly.
        store
            .ingest(StreamRecord::Basic { item: 8, prob: 0.9 })
            .unwrap();
        assert!((store.range_estimate(8, 8) - 0.9).abs() < 1e-12);
        // The sealed partition serves from its synopsis; with 8 buckets over
        // width 4 the histogram is exact.
        assert!((store.range_estimate(0, 3) - 2.0).abs() < 1e-9);
        let stats = store.stats();
        assert_eq!(stats.ingested_records, 5);
        assert_eq!(stats.live_records, 1);
        assert_eq!(stats.seals, 1);
        assert_eq!(stats.segments, 1);
    }

    #[test]
    fn batch_ingest_matches_serial_ingest_exactly() {
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 48,
            skew: 0.6,
            seed: 77,
        })
        .take(500)
        .chain([
            StreamRecord::Alternatives(vec![(3, 0.25), (40, 0.5)]),
            StreamRecord::ValueDistribution {
                item: 9,
                entries: vec![(2.0, 0.5)],
            },
        ])
        .collect();
        let serial = SynopsisStore::new(config(48, 4, 64)).unwrap();
        serial.ingest_all(records.iter().cloned()).unwrap();
        let batched = SynopsisStore::new(config(48, 4, 64)).unwrap();
        batched.ingest_batch(records).unwrap();
        assert_eq!(batched.stats(), serial.stats());
        serial.seal_all().unwrap();
        batched.seal_all().unwrap();
        assert_eq!(batched.to_binary().unwrap(), serial.to_binary().unwrap());
    }

    #[test]
    fn background_sealing_matches_inline_sealing_byte_for_byte() {
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 32,
            skew: 0.8,
            seed: 5,
        })
        .take(400)
        .collect();
        let inline = SynopsisStore::new(config(32, 4, 16)).unwrap();
        inline.ingest_all(records.iter().cloned()).unwrap();
        inline.seal_all().unwrap();

        let background = SynopsisStore::new(config(32, 4, 16))
            .unwrap()
            .with_background_sealing(3);
        background.ingest_all(records.iter().cloned()).unwrap();
        background.seal_all().unwrap();
        assert_eq!(background.stats(), inline.stats());
        assert_eq!(background.to_binary().unwrap(), inline.to_binary().unwrap());
    }

    #[test]
    fn cross_partition_x_tuples_are_split_preserving_marginals() {
        let store = SynopsisStore::new(config(12, 3, 100)).unwrap();
        store
            .ingest(StreamRecord::Alternatives(vec![
                (1, 0.25),
                (5, 0.25),
                (10, 0.5),
            ]))
            .unwrap();
        assert_eq!(store.stats().split_tuples, 1);
        assert!((store.range_estimate(1, 1) - 0.25).abs() < 1e-12);
        assert!((store.range_estimate(5, 5) - 0.25).abs() < 1e-12);
        assert!((store.range_estimate(10, 10) - 0.5).abs() < 1e-12);
        assert!((store.range_estimate(0, 11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compaction_preserves_the_summed_estimates_when_lossless() {
        let store = SynopsisStore::new(config(8, 2, 100)).unwrap();
        // Two seal rounds for partition 0 produce two segments whose
        // histograms are exact (budget 8 >= width 4).
        for round in 0..2 {
            for i in 0..4 {
                store
                    .ingest(StreamRecord::Basic {
                        item: i,
                        prob: 0.25 * (round + 1) as f64,
                    })
                    .unwrap();
            }
            store.seal_partition(0).unwrap();
        }
        assert_eq!(store.segments(0).len(), 2);
        let before: Vec<f64> = (0..4).map(|i| store.estimate(i)).collect();
        store.compact_partition(0).unwrap();
        assert_eq!(store.segments(0).len(), 1);
        let after: Vec<f64> = (0..4).map(|i| store.estimate(i)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9);
        }
        assert_eq!(store.segments(0)[0].records(), 8);
        // Compacting a single segment is a no-op.
        store.compact_partition(0).unwrap();
        assert_eq!(store.segments(0).len(), 1);
    }

    #[test]
    fn merge_global_covers_empty_partitions_with_zero_runs() {
        let store = SynopsisStore::new(config(12, 3, 100)).unwrap();
        for i in 0..4 {
            store
                .ingest(StreamRecord::Basic {
                    item: i,
                    prob: 0.75,
                })
                .unwrap();
        }
        store.seal_all().unwrap();
        let merged = store.merge_global(4).unwrap();
        assert_eq!(merged.n(), 12);
        assert!((merged.estimates().iter().sum::<f64>() - 3.0).abs() < 1e-9);
        // Items in the never-touched partitions estimate to ~zero.
        assert!(merged.estimate(11).abs() < 1e-9);
    }

    #[test]
    fn binary_round_trip_preserves_queries_and_stats() {
        let store = SynopsisStore::new(config(32, 4, 16)).unwrap();
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 32,
            skew: 0.7,
            seed: 5,
        })
        .take(200)
        .collect();
        store.ingest_all(records).unwrap();
        // Unsealed data blocks persistence.
        if store.stats().live_records > 0 {
            assert!(store.to_binary().is_err());
        }
        store.seal_all().unwrap();
        let bytes = store.to_binary().unwrap();
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert_eq!(back.stats(), store.stats());
        assert_eq!(back.config(), store.config());
        for (lo, hi) in [(0usize, 31usize), (3, 17), (20, 20), (9, 30)] {
            assert!((back.range_estimate(lo, hi) - store.range_estimate(lo, hi)).abs() < 1e-12);
        }
        // Corruption surfaces as errors, never panics.
        for cut in 0..bytes.len().min(64) {
            assert!(SynopsisStore::from_binary(&bytes[..cut]).is_err());
        }
        assert!(SynopsisStore::from_binary(&bytes[..bytes.len() - 1]).is_err());
        let mut skewed = bytes.clone();
        skewed[4] = 9;
        assert!(SynopsisStore::from_binary(&skewed).is_err());
    }

    #[test]
    fn snapshot_seals_live_records_first() {
        let store = SynopsisStore::new(config(16, 2, 1000)).unwrap();
        store
            .ingest(StreamRecord::Basic { item: 3, prob: 0.5 })
            .unwrap();
        // to_binary still refuses while records are live ...
        assert!(store.to_binary().is_err());
        // ... but snapshot seals and serialises in one step.
        let bytes = store.snapshot().unwrap();
        assert_eq!(store.stats().live_records, 0);
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert!((back.range_estimate(3, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wal_replay_recovers_live_and_in_flight_records() {
        let dir = std::env::temp_dir().join(format!("pds-store-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
            for i in 0..5 {
                store
                    .ingest(StreamRecord::Basic { item: i, prob: 0.5 })
                    .unwrap();
            }
            store
                .ingest(StreamRecord::Alternatives(vec![(1, 0.25), (12, 0.5)]))
                .unwrap();
            assert_eq!(store.stats().live_records, 7); // x-tuple split into 2
                                                       // Dropped without sealing: records survive only in the WAL.
        }
        // Simulate a crash mid-seal on top: a frozen log whose segment never
        // landed must replay as live records too.
        std::fs::write(
            dir.join("wal-1.7.sealing"),
            crate::wal::encode_log(&[StreamRecord::Basic {
                item: 14,
                prob: 0.25,
            }])
            .unwrap(),
        )
        .unwrap();
        let reopened = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
        assert_eq!(reopened.stats().live_records, 8);
        for (item, expected) in [(0usize, 0.5), (1, 0.75), (4, 0.5), (12, 0.5), (14, 0.25)] {
            assert!(
                (reopened.range_estimate(item, item) - expected).abs() < 1e-12,
                "item {item}"
            );
        }
        // Sealing retires the logs and installs durable segment blobs: a
        // third open replays no live records but reloads every sealed
        // segment through the manifest — sealed state now survives a crash
        // without any snapshot.
        reopened.seal_all().unwrap();
        drop(reopened);
        let after_seal = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
        assert_eq!(after_seal.stats().live_records, 0);
        assert_eq!(after_seal.stats().segments, 2);
        for (item, expected) in [(0usize, 0.5), (1, 0.75), (4, 0.5), (12, 0.5), (14, 0.25)] {
            assert!(
                (after_seal.range_estimate(item, item) - expected).abs() < 1e-9,
                "item {item} after reopen-from-blobs"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_wal_replay_destroys_nothing() {
        // A corrupt log in one partition must abort the open while leaving
        // every other partition's log intact for a later attempt.
        let dir =
            std::env::temp_dir().join(format!("pds-store-wal-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
            store
                .ingest(StreamRecord::Basic { item: 2, prob: 0.5 })
                .unwrap();
        }
        // Corrupt partition 1's live log by hand (a frame whose checksum
        // does not match its payload — mid-file, so the torn-tail lenience
        // does not apply).
        let good = crate::wal::frame_record(&StreamRecord::Basic {
            item: 10,
            prob: 0.5,
        })
        .unwrap();
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01; // a payload byte
        let mut log = crate::wal::encode_log(&[]).unwrap();
        log.extend_from_slice(&bad);
        log.extend_from_slice(&good);
        std::fs::write(dir.join("wal-1.log"), log).unwrap();
        assert!(SynopsisStore::open_with_wal(config(16, 2, 100), &dir).is_err());
        // Partition 0's records survived the failed recovery.
        std::fs::write(
            dir.join("wal-1.log"),
            crate::wal::encode_log(&[StreamRecord::Basic {
                item: 9,
                prob: 0.25,
            }])
            .unwrap(),
        )
        .unwrap();
        let recovered = SynopsisStore::open_with_wal(config(16, 2, 100), &dir).unwrap();
        assert!((recovered.range_estimate(2, 2) - 0.5).abs() < 1e-12);
        assert!((recovered.range_estimate(9, 9) - 0.25).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segments_survive_reopen_through_manifest_and_blobs() {
        let dir = std::env::temp_dir().join(format!("pds-store-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = config(16, 2, 4);
        {
            let store = SynopsisStore::open_with_wal(cfg.clone(), &dir).unwrap();
            // Two auto-seals in partition 0, one manual in partition 1,
            // plus two live records.
            for i in 0..8 {
                store
                    .ingest(StreamRecord::Basic {
                        item: i % 4,
                        prob: 0.5,
                    })
                    .unwrap();
            }
            store
                .ingest(StreamRecord::Basic {
                    item: 9,
                    prob: 0.25,
                })
                .unwrap();
            store.seal_partition(1).unwrap();
            store
                .ingest(StreamRecord::Basic {
                    item: 2,
                    prob: 0.125,
                })
                .unwrap();
            store
                .ingest(StreamRecord::Basic {
                    item: 14,
                    prob: 0.5,
                })
                .unwrap();
            assert_eq!(store.stats().segments, 3);
            assert_eq!(store.stats().live_records, 2);
            // Blobs and manifest exist without any snapshot() call.
            assert!(dir.join("MANIFEST").exists());
            assert!(dir.join("seg-0-0.bin").exists());
            assert!(dir.join("seg-0-1.bin").exists());
            assert!(dir.join("seg-1-0.bin").exists());
        }
        // Reopen: segments come back from blobs, live records from the WAL.
        let reopened = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.live_records, 2);
        assert_eq!(stats.seals, 3);
        assert_eq!(stats.ingested_records, 11);
        // Dyadic probabilities: the estimates are exact, so equality is
        // bitwise.
        assert_eq!(reopened.range_estimate(0, 0), 1.0);
        assert_eq!(reopened.range_estimate(2, 2), 1.0 + 0.125);
        assert_eq!(reopened.range_estimate(9, 9), 0.25);
        assert_eq!(reopened.range_estimate(14, 14), 0.5);
        // A fresh seal continues the sequence without colliding.
        reopened.seal_all().unwrap();
        assert_eq!(reopened.stats().live_records, 0);
        assert!(dir.join("seg-0-2.bin").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_merges_full_tiers_and_preserves_estimates() {
        let mut cfg = config(8, 2, 4);
        cfg.compaction = Some(crate::CompactionPolicy {
            min_merge: 2,
            tier_ratio: 2.0,
        });
        let store = SynopsisStore::new(cfg).unwrap();
        // Eight records into partition 0 = two threshold seals; the second
        // install fills the 2-segment tier and auto-compacts to one.
        for round in 0..2 {
            for i in 0..4 {
                store
                    .ingest(StreamRecord::Basic {
                        item: i,
                        prob: 0.25 * (round + 1) as f64,
                    })
                    .unwrap();
            }
        }
        assert_eq!(store.segments(0).len(), 1, "tier of two auto-compacted");
        assert_eq!(store.segments(0)[0].records(), 8);
        for i in 0..4 {
            assert!((store.estimate(i) - 0.75).abs() < 1e-9, "item {i}");
        }
        // The compacted output participates in the next tier: two more
        // seals (8 records, similar size) eventually merge with it.
        for _ in 0..2 {
            for i in 0..4 {
                store
                    .ingest(StreamRecord::Basic { item: i, prob: 0.5 })
                    .unwrap();
            }
        }
        let sizes: Vec<u64> = store.segments(0).iter().map(Segment::records).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 16, "no records lost: {sizes:?}");
        for i in 0..4 {
            assert!((store.estimate(i) - 1.75).abs() < 1e-9, "item {i}");
        }
    }

    #[test]
    fn durable_auto_compaction_retires_superseded_blobs() {
        let dir =
            std::env::temp_dir().join(format!("pds-store-compact-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config(8, 1, 4);
        cfg.compaction = Some(crate::CompactionPolicy {
            min_merge: 2,
            tier_ratio: 4.0,
        });
        {
            let store = SynopsisStore::open_with_wal(cfg.clone(), &dir).unwrap();
            for round in 0..2u32 {
                for i in 0..4 {
                    store
                        .ingest(StreamRecord::Basic {
                            item: i + 4 * ((round as usize) % 2),
                            prob: 0.5,
                        })
                        .unwrap();
                }
            }
            assert_eq!(store.segments(0).len(), 1);
            // Inputs 0 and 1 merged into seq 2: their blobs are gone, the
            // output's blob is live.
            assert!(!dir.join("seg-0-0.bin").exists());
            assert!(!dir.join("seg-0-1.bin").exists());
            assert!(dir.join("seg-0-2.bin").exists());
        }
        let reopened = SynopsisStore::open_with_wal(cfg, &dir).unwrap();
        assert_eq!(reopened.stats().segments, 1);
        assert_eq!(reopened.range_estimate(0, 7), 4.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wavelet_store_lifecycle() {
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(16, 2).unwrap(),
            8,
            4,
            SynopsisKind::Wavelet,
        ))
        .unwrap();
        let records: Vec<StreamRecord> = basic_stream(BasicStreamConfig {
            n: 16,
            skew: 0.5,
            seed: 9,
        })
        .take(40)
        .collect();
        store.ingest_all(records).unwrap();
        store.seal_all().unwrap();
        store.compact_all().unwrap();
        for p in 0..2 {
            assert_eq!(store.segments(p).len().min(1), store.segments(p).len());
        }
        let merged = store.merge_global(6).unwrap();
        assert_eq!(merged.n(), 16);
        let bytes = store.to_binary().unwrap();
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert!((back.range_estimate(0, 15) - store.range_estimate(0, 15)).abs() < 1e-12);
    }

    #[test]
    fn huge_seal_thresholds_survive_the_binary_round_trip() {
        // The "never auto-seal" configs (benches, manual-seal tests) use
        // near-usize::MAX thresholds; the snapshot must round-trip them.
        let store = SynopsisStore::new(StoreConfig::new(
            PartitionSpec::uniform(8, 2).unwrap(),
            usize::MAX >> 1,
            4,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        ))
        .unwrap();
        store
            .ingest(StreamRecord::Basic { item: 1, prob: 0.5 })
            .unwrap();
        store.seal_all().unwrap();
        let bytes = store.to_binary().unwrap();
        let back = SynopsisStore::from_binary(&bytes).unwrap();
        assert_eq!(back.config(), store.config());
        assert_eq!(back.range_estimate(0, 7), store.range_estimate(0, 7));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let spec = PartitionSpec::uniform(8, 2).unwrap();
        assert!(
            SynopsisStore::new(StoreConfig::new(spec.clone(), 0, 4, SynopsisKind::Wavelet))
                .is_err()
        );
        assert!(SynopsisStore::new(StoreConfig::new(spec, 4, 0, SynopsisKind::Wavelet)).is_err());
    }

    #[test]
    fn empty_domain_store_answers_zero_not_panic() {
        // Regression: `estimate(0)` used to clamp `hi` to 0 via
        // `n().saturating_sub(1)` and then die on
        // `partition_of(lo).expect("lo in domain")`.  A degenerate spec is
        // only constructible in-module (from_bounds demands two bounds),
        // which is exactly how a decoder bug or future refactor would
        // produce it — the query path must shrug, not crash.
        let spec = PartitionSpec { bounds: vec![0] };
        assert_eq!(spec.n(), 0);
        assert_eq!(spec.len(), 0);
        let store = SynopsisStore::new(StoreConfig::new(
            spec,
            4,
            4,
            SynopsisKind::Histogram(ErrorMetric::Sse),
        ))
        .unwrap();
        assert_eq!(store.n(), 0);
        assert_eq!(store.estimate(0), 0.0);
        assert_eq!(store.range_estimate(0, 0), 0.0);
        assert_eq!(store.range_estimate(0, usize::MAX), 0.0);
        assert_eq!(store.stats().live_records, 0);
        let view = store.snapshot_view();
        assert_eq!(view.estimate(0), 0.0);
        assert_eq!(view.range_estimate(3, 99), 0.0);
    }

    #[test]
    fn out_of_domain_ranges_clamp_to_zero() {
        let store = SynopsisStore::new(config(16, 4, 1 << 20)).unwrap();
        store
            .ingest(StreamRecord::Basic { item: 2, prob: 0.5 })
            .unwrap();
        // Both endpoints past the domain: nothing to sum.
        assert_eq!(store.range_estimate(16, 20), 0.0);
        assert_eq!(store.estimate(usize::MAX), 0.0);
        // `lo` in domain, `hi` clamped: the in-domain prefix still answers.
        assert!((store.range_estimate(0, usize::MAX) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn poisoned_shard_still_answers_queries() {
        let store = SynopsisStore::new(config(16, 2, 4)).unwrap();
        for i in 0..8 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 16,
                    prob: 0.5,
                })
                .unwrap();
        }
        let before = store.range_estimate(0, 15);
        let stats_before = store.stats();
        // Poison shard 0: a thread panics while holding the write lock.
        let lock = &store.inner.shards[0];
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock.write().unwrap();
                panic!("poison the shard on purpose");
            })
            .join()
            .is_err()
        });
        assert!(poisoned);
        assert!(lock.is_poisoned(), "the write lock must now be poisoned");
        // Read-only paths recover instead of propagating the panic.
        assert_eq!(store.range_estimate(0, 15), before);
        assert_eq!(store.estimate(2), store.estimate(2));
        let stats_after = store.stats();
        assert_eq!(stats_after.live_records, stats_before.live_records);
        assert!(store.partition_pieces(0).is_ok());
        let view = store.snapshot_view();
        assert_eq!(view.range_estimate(0, 15), before);
        let _ = store.memtable_snapshot(0);
        let _ = store.segments(0);
        let clone = store.clone();
        assert_eq!(clone.range_estimate(0, 15), before);
    }

    #[test]
    fn merge_global_rejects_zero_budget() {
        let store = SynopsisStore::new(config(16, 4, 2)).unwrap();
        store
            .ingest_all(
                basic_stream(BasicStreamConfig {
                    n: 16,
                    skew: 0.5,
                    seed: 9,
                })
                .take(24),
            )
            .unwrap();
        store.seal_all().unwrap();
        assert!(matches!(
            store.merge_global(0),
            Err(PdsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn merge_global_rejects_budget_over_available_pieces() {
        // No sealed data: every partition contributes exactly one zero-run
        // piece, so the available piece count is the partition count.
        let store = SynopsisStore::new(config(16, 4, 1 << 20)).unwrap();
        let merged = store.merge_global(4).unwrap();
        assert_eq!(merged.n(), 16);
        assert!(matches!(
            store.merge_global(5),
            Err(PdsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            store.merge_global(usize::MAX),
            Err(PdsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn snapshot_view_is_bitwise_equal_and_isolated() {
        let store = SynopsisStore::new(config(64, 4, 8)).unwrap();
        store
            .ingest_all(
                basic_stream(BasicStreamConfig {
                    n: 64,
                    skew: 0.5,
                    seed: 41,
                })
                .take(300),
            )
            .unwrap();
        let view = store.snapshot_view();
        assert_eq!(view.n(), 64);
        assert_eq!(view.num_partitions(), 4);
        // Bitwise equality against the live store on a sweep of ranges,
        // including clamped and inverted ones.
        for lo in (0..64).step_by(7) {
            for hi in [lo, lo + 3, 63, 200] {
                assert_eq!(
                    view.range_estimate(lo, hi).to_bits(),
                    store.range_estimate(lo, hi).to_bits(),
                    "view must answer bitwise-identically at [{lo}, {hi}]"
                );
            }
        }
        let frozen_answer = view.range_estimate(0, 63);
        let live_before = store.range_estimate(0, 63);
        // Later ingest and sealing change the store, never the view.
        store
            .ingest_all(
                basic_stream(BasicStreamConfig {
                    n: 64,
                    skew: 0.5,
                    seed: 42,
                })
                .take(100),
            )
            .unwrap();
        store.seal_all().unwrap();
        assert!(store.range_estimate(0, 63) > live_before);
        assert_eq!(
            view.range_estimate(0, 63).to_bits(),
            frozen_answer.to_bits()
        );
        assert!(view.live_records() + view.segment_count() as u64 > 0);
    }

    /// A view's answers over a sweep of ranges, as bits, plus its
    /// unsealed record count: what must not move while the view lives.
    fn pin_view(view: &SnapshotView) -> (Vec<u64>, u64) {
        let mut bits = Vec::new();
        for lo in (0..64).step_by(5) {
            for hi in [lo, lo + 4, 15, 63, 200] {
                bits.push(view.range_estimate(lo, hi).to_bits());
            }
        }
        (bits, view.live_records())
    }

    /// `count` basic records, all inside partition 0 (items `0..16` of
    /// `config(64, 4, _)`).
    fn partition0_records(count: usize, seed: u64) -> Vec<StreamRecord> {
        (0..count)
            .map(|i| StreamRecord::Basic {
                item: (i * 7 + seed as usize) % 16,
                prob: 0.05 + ((i as u64 * 13 + seed) % 17) as f64 / 20.0,
            })
            .collect()
    }

    #[test]
    fn snapshot_view_is_isolated_from_inserts_into_its_partition() {
        let store = SynopsisStore::new(config(64, 4, 10_000)).unwrap();
        store.ingest_all(partition0_records(40, 1)).unwrap();
        let view = store.snapshot_view();
        let pinned = pin_view(&view);
        assert_eq!(pinned.0, pin_view(&store.snapshot_view()).0);
        // The writer now shares its frequencies with the view: this
        // insert must copy them, not write through the view.
        store.ingest_all(partition0_records(25, 2)).unwrap();
        assert_eq!(pin_view(&view), pinned);
        assert_eq!(view.live_records(), 40);
        assert_ne!(
            store.range_estimate(0, 15).to_bits(),
            view.range_estimate(0, 15).to_bits()
        );
        // A fresh capture follows the store bitwise.
        let fresh = store.snapshot_view();
        assert_eq!(fresh.live_records(), 65);
        assert_eq!(
            fresh.range_estimate(0, 63).to_bits(),
            store.range_estimate(0, 63).to_bits()
        );
    }

    #[test]
    fn snapshot_view_is_isolated_from_an_inline_seal_of_its_partition() {
        let store = SynopsisStore::new(config(64, 4, 50)).unwrap();
        store.ingest_all(partition0_records(49, 3)).unwrap();
        let view = store.snapshot_view();
        let pinned = pin_view(&view);
        // The 50th record reaches the threshold: the inline seal swaps in
        // a replacement memtable and installs a segment.
        store.ingest_all(partition0_records(1, 4)).unwrap();
        assert_eq!(store.stats().segments, 1);
        assert_eq!(store.stats().live_records, 0);
        assert_eq!(pin_view(&view), pinned);
        assert_eq!(view.segment_count(), 0);
        // And an explicit seal after more inserts leaves it alone too.
        store.ingest_all(partition0_records(10, 5)).unwrap();
        let second = store.snapshot_view();
        let second_pinned = pin_view(&second);
        assert!(store.seal_partition(0).unwrap());
        assert_eq!(pin_view(&second), second_pinned);
        assert_eq!(pin_view(&view), pinned);
    }

    #[test]
    fn snapshot_view_is_isolated_from_a_failed_seal_undo() {
        use pds_core::vfs::fault::{self, ErrorClass, FaultSpec};
        let dir = std::env::temp_dir().join(format!("pds-store-view-undo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SynopsisStore::open_with_wal(config(64, 4, 10_000), &dir).unwrap();
        store.ingest_all(partition0_records(30, 6)).unwrap();
        let view = store.snapshot_view();
        let pinned = pin_view(&view);
        // The blob write fails every retry: the seal is undone and its
        // frozen records are absorbed back into the live memtable.
        let guard = fault::arm(FaultSpec::persistent("blob-write", ErrorClass::Eio).scoped(&dir));
        assert!(store.seal_partition(0).is_err());
        drop(guard);
        assert!(store.degraded().is_some());
        assert_eq!(pin_view(&view), pinned);
        // Nothing was lost: the store still answers what the view does.
        assert_eq!(store.stats().live_records, 30);
        assert_eq!(pin_view(&store.snapshot_view()), pinned);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_round_trips_and_rejects_skew() {
        let store = SynopsisStore::new(config(12, 3, 4)).unwrap();
        for i in 0..7 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 12,
                    prob: 0.5,
                })
                .unwrap();
        }
        store
            .ingest(StreamRecord::Alternatives(vec![(0, 0.25), (11, 0.5)]))
            .unwrap();
        let stats = store.stats();
        let json = stats.to_json().unwrap();
        // Single line (the server sends it as one `OK <json>` reply) with
        // the versioned envelope shape.
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"version\":1,"));
        assert_eq!(StoreStats::from_json(&json).unwrap(), stats);
        // Version skew and malformed payloads are errors, not panics.
        assert!(StoreStats::from_json(&json.replace("\"version\":1", "\"version\":99")).is_err());
        assert!(StoreStats::from_json("not json").is_err());
        assert!(StoreStats::from_json("{\"version\":1}").is_err());
    }

    #[test]
    fn clone_seals_counter_excludes_in_flight_freezes() {
        let store = SynopsisStore::new(config(12, 3, 100)).unwrap();
        for i in 0..9 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 12,
                    prob: 0.5,
                })
                .unwrap();
        }
        // One completed seal in partition 0, then a freeze in partition 1
        // held in-flight by hand (exactly the state a clone racing a
        // background seal observes).
        store.seal_partition(0).unwrap();
        let task = {
            let mut shard = store.write_shard(1);
            store.freeze(1, &mut shard).unwrap().unwrap()
        };
        assert_eq!(store.stats().seals, 2, "the in-flight freeze is counted");
        let cloned = store.clone();
        let stats = cloned.stats();
        // The folded-back freeze is no longer a seal of the clone: every
        // counted seal has its installed segment present.
        assert_eq!(stats.seals, 1);
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.seals, stats.segments as u64);
        // No records were lost: the frozen memtable's mass is live again.
        assert_eq!(stats.ingested_records, 9);
        // Partition 0 sealed its 4 records (items 0..4); the other 5 are
        // live again after the fold-back.
        assert_eq!(stats.live_records, 5);
        for lo in 0..12 {
            assert_eq!(
                cloned.range_estimate(lo, 11).to_bits(),
                store.range_estimate(lo, 11).to_bits()
            );
        }
        // Settle the original so its worker state stays consistent.
        let mut shard = store.write_shard(1);
        SynopsisStore::unfreeze(&store.inner, &mut shard, task);
        drop(shard);
        assert_eq!(store.stats().seals, 1);
    }

    #[test]
    fn render_metrics_exposes_store_series_and_events() {
        let mut cfg = config(12, 3, 4);
        cfg.compaction = Some(CompactionPolicy {
            min_merge: 2,
            tier_ratio: 2.0,
        });
        let store = SynopsisStore::new(cfg).unwrap();
        for i in 0..24 {
            store
                .ingest(StreamRecord::Basic {
                    item: i % 4,
                    prob: 0.5,
                })
                .unwrap();
        }
        let _ = store.estimate(0);
        let _ = store.range_estimate(0, 11);
        let _ = store.snapshot_view();
        store.seal_all().unwrap();
        let text = store.render_metrics();
        assert!(text.contains("pds_store_telemetry_enabled 1"));
        assert!(text.contains("pds_store_ingest_records_total{partition=\"0\"} 24"));
        assert!(text.contains("pds_store_freezes_total"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"estimate\"} 1"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"range_estimate\"} 1"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"snapshot_view\"} 1"));
        assert!(text.contains("pds_store_ingested_records_total 24"));
        assert!(text.contains("pds_store_compaction_rounds_total"));
        let events = store.render_events();
        assert!(
            events.iter().any(|e| e.contains("seal-installed")),
            "{events:?}"
        );
        assert!(
            events.iter().any(|e| e.contains("compaction-committed")),
            "{events:?}"
        );

        // With the knob off the same workload records nothing.
        let mut cfg = config(12, 3, 4);
        cfg.telemetry = false;
        let quiet = SynopsisStore::new(cfg).unwrap();
        for i in 0..8 {
            quiet
                .ingest(StreamRecord::Basic {
                    item: i % 12,
                    prob: 0.5,
                })
                .unwrap();
        }
        let _ = quiet.estimate(0);
        let text = quiet.render_metrics();
        assert!(text.contains("pds_store_telemetry_enabled 0"));
        assert!(text.contains("pds_store_ingest_records_total{partition=\"0\"} 0"));
        assert!(text.contains("pds_store_query_seconds_count{op=\"estimate\"} 0"));
        // The stats-derived series still report the real counters.
        assert!(text.contains("pds_store_ingested_records_total 8"));
        assert!(quiet.render_events().is_empty());
    }
}
