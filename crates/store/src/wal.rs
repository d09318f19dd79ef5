//! Per-partition write-ahead logs for live memtable contents, with
//! CRC-framed binary records and group commit.
//!
//! A store's sealed segments are durable through their install-time blobs
//! and the [`Manifest`](crate::manifest::Manifest); the records still
//! buffered in memtables are covered here.  A [`PartitionWal`] logs every
//! record routed to a partition **before** it enters the memtable, so a
//! crashed process can reopen the store and re-ingest exactly the records
//! that were live.
//!
//! ## Record framing
//!
//! Every log file opens with a `PDSL` envelope (the four magic bytes and
//! the `u16` format version, 2), followed by one **binary frame** per
//! record:
//!
//! ```text
//! len: u32 LE | crc32(len bytes): u32 LE | crc32(payload): u32 LE | payload
//! ```
//!
//! The payload is a tag byte (`b` basic, `x` x-tuple, `v` value pdf), then
//! LEB128 varints for items and counts and the raw little-endian `f64`
//! bits of every probability and value, so replay is bit-exact by
//! construction.  An append encodes its frame into a buffer the
//! [`PartitionWal`] owns and reuses, and hands it to the log's buffered
//! writer in one write: a steady-state append allocates nothing.
//!
//! The length carries its own check, so every byte of a frame is covered:
//! a damaged payload or payload checksum fails the payload CRC, and a
//! damaged length (or length check) fails the length check.  That second
//! check is what tells corruption from a torn write — without it, a length
//! damaged upwards would look like a payload cut short and silently swallow
//! every acknowledged frame after it.
//!
//! **Torn-final-frame tolerance.**  On a *live* log the final frame may be
//! incomplete — a partial header, or a header whose checked length runs
//! past the end of the file — and so may the envelope of a freshly created
//! log: that is an unacknowledged append torn by the crash and is dropped.
//! A complete frame that fails either check is corruption and aborts the
//! scan with every file intact.  Frozen logs were flushed before their
//! rename, so they are read strictly (no tolerance).  A log in the
//! version-1 text format (`r <len> <crc> <payload>` lines) is refused with
//! [`PdsError::UnsupportedFormat`].
//!
//! ## File lifecycle
//!
//! Partition `p` owns up to three kinds of files inside the WAL directory:
//!
//! * `wal-<p>.log` — the **live log**, mirroring the current memtable.
//! * `wal-<p>.<seq>.sealing` — a **frozen log**: when the memtable freezes
//!   for sealing, the live log is atomically renamed to carry the seal
//!   sequence number and a fresh live log starts.  The frozen file is
//!   deleted only after the sealed segment's blob **and** manifest entry
//!   are on disk, so a crash anywhere during a seal replays the frozen
//!   records (or finds them already covered by the manifest and skips
//!   them — never both, never neither).
//! * `wal-<p>.log.tmp` — a staging file used while **committing** a
//!   recovery; a leftover `.tmp` from a crashed recovery is discarded on
//!   the next scan.
//!
//! ## Recovery protocol (scan → re-ingest → commit)
//!
//! 1. [`PartitionWal::scan_skipping`] **reads** the frozen logs (in seal
//!    order, skipping sequences the manifest already covers) and the live
//!    log without deleting or truncating anything, so a parse error in any
//!    partition — or a crash at any point before commit — leaves every log
//!    intact for the next attempt.
//! 2. The store re-ingests the replayed records into its memtables (with
//!    auto-sealing suppressed, so the replayed set stays exactly the live
//!    set).
//! 3. [`PartitionWal::commit`] writes the replayed records to
//!    `wal-<p>.log.tmp`, atomically renames it over the live log, deletes
//!    the absorbed (and the manifest-covered) frozen logs, and returns the
//!    append handle.
//!
//! A crash before the rename replays identically next time (exactly-once
//! for live records); frozen records are exactly-once too, because the
//! manifest entry — not the frozen-file deletion — is the seal's commit
//! point.
//!
//! ## Durability contract (group commit + fsync tier)
//!
//! Appends are buffered.  The store issues **one flush per ingest call**:
//! every shard's sub-batch is appended lock-parallel without flushing,
//! then each touched shard is flushed exactly once per call
//! ([`PartitionWal::commit_group`]).  The default tier stops at
//! `BufWriter::flush` (surviving process crashes); the opt-in
//! [`WalSync::Fsync`](crate::WalSync) tier adds `File::sync_data` at the
//! same group-commit boundaries (surviving power loss), amortised across
//! the whole batch instead of taxing every record.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use pds_core::binio::{crc32, ByteReader, ByteWriter};
use pds_core::error::{PdsError, Result};
use pds_core::stream::StreamRecord;
use pds_core::vfs;

use crate::telemetry::IoPolicy;

/// Magic of the envelope that opens every log file.
const WAL_MAGIC: [u8; 4] = *b"PDSL";
/// Current log format: binary frames.  Version 1 was the text frame.
const WAL_VERSION: u16 = 2;
/// Bytes of a frame header: payload length, its check, payload CRC.
const FRAME_HEADER_LEN: usize = 12;
const TAG_BASIC: u8 = b'b';
const TAG_ALTERNATIVES: u8 = b'x';
const TAG_VALUE_PDF: u8 = b'v';

fn io_err(context: &str, e: std::io::Error) -> PdsError {
    PdsError::InvalidParameter {
        message: format!("wal: {context}: {e}"),
    }
}

fn live_path(dir: &Path, partition: usize) -> PathBuf {
    dir.join(format!("wal-{partition}.log"))
}

/// The `PDSL` envelope every log file starts with.
fn log_envelope() -> Vec<u8> {
    ByteWriter::envelope(WAL_MAGIC, WAL_VERSION).into_bytes()
}

/// The check stored beside a frame's payload length.
fn length_check(len: u32) -> u32 {
    crc32(&len.to_le_bytes())
}

/// Encodes `record`'s binary frame into `buf`, replacing its contents and
/// keeping its allocation — the encoder behind [`PartitionWal::append`],
/// the recovery commit and [`frame_record`].  Once `buf` has grown to the
/// largest frame it sees, encoding allocates nothing.
pub fn encode_frame(record: &StreamRecord, buf: &mut Vec<u8>) -> Result<()> {
    let mut w = ByteWriter::reuse(std::mem::take(buf));
    w.put_bytes(&[0; FRAME_HEADER_LEN]);
    match record {
        StreamRecord::Basic { item, prob } => {
            w.put_u8(TAG_BASIC);
            w.put_varint(*item as u64);
            w.put_f64(*prob);
        }
        StreamRecord::Alternatives(alts) => {
            w.put_u8(TAG_ALTERNATIVES);
            w.put_varint(alts.len() as u64);
            for &(item, prob) in alts {
                w.put_varint(item as u64);
                w.put_f64(prob);
            }
        }
        StreamRecord::ValueDistribution { item, entries } => {
            w.put_u8(TAG_VALUE_PDF);
            w.put_varint(*item as u64);
            w.put_varint(entries.len() as u64);
            for &(value, prob) in entries {
                w.put_f64(value);
                w.put_f64(prob);
            }
        }
    }
    *buf = w.into_bytes();
    let Some((header, payload)) = buf.split_at_mut_checked(FRAME_HEADER_LEN) else {
        return Err(PdsError::InvalidParameter {
            message: "wal: frame shorter than its header".into(),
        });
    };
    let len = u32::try_from(payload.len()).map_err(|_| PdsError::InvalidParameter {
        message: format!(
            "wal: a {}-byte record exceeds the frame limit",
            payload.len()
        ),
    })?;
    let fields = [len, length_check(len), crc32(payload)];
    for (dst, field) in header.chunks_exact_mut(4).zip(fields) {
        dst.copy_from_slice(&field.to_le_bytes());
    }
    Ok(())
}

/// Serialises one record as a binary WAL frame — the exact bytes
/// [`PartitionWal::append`] writes.  Public so durability tests and the
/// fuzzer can craft valid (and then deliberately broken) frames.
pub fn frame_record(record: &StreamRecord) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    encode_frame(record, &mut buf)?;
    Ok(buf)
}

/// The exact bytes of a log file holding `records`: the envelope, then one
/// frame per record.  Public so tests can plant valid logs.
pub fn encode_log(records: &[StreamRecord]) -> Result<Vec<u8>> {
    let mut log = log_envelope();
    let mut frame = Vec::new();
    for record in records {
        encode_frame(record, &mut frame)?;
        log.extend_from_slice(&frame);
    }
    Ok(log)
}

/// How one frame failed to decode — drives the torn-tail tolerance.
enum FrameError {
    /// The input ends inside the frame: a partial header, or a checked
    /// length running past the end.  On a live log this is a torn
    /// buffered append and is dropped.
    Truncated,
    /// A complete frame failing its length check, its payload CRC, or the
    /// payload decode: corruption, never tolerated.
    Corrupt(String),
}

/// Decodes the frame at the reader's position.
fn next_frame(r: &mut ByteReader<'_>) -> std::result::Result<StreamRecord, FrameError> {
    let corrupt = |e: PdsError| FrameError::Corrupt(e.to_string());
    if r.remaining() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let len = r.get_u32().map_err(corrupt)?;
    let check = r.get_u32().map_err(corrupt)?;
    let crc = r.get_u32().map_err(corrupt)?;
    if length_check(len) != check {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} fails its check"
        )));
    }
    let len = len as usize;
    if r.remaining() < len {
        return Err(FrameError::Truncated);
    }
    let payload = r.get_bytes(len).map_err(corrupt)?;
    if crc32(payload) != crc {
        return Err(FrameError::Corrupt("frame checksum mismatch".into()));
    }
    decode_payload(payload).map_err(corrupt)
}

/// Decodes a CRC-verified payload into its record.
fn decode_payload(payload: &[u8]) -> Result<StreamRecord> {
    const WHAT: &str = "wal frame";
    let mut r = ByteReader::new(payload, WHAT);
    let item = |r: &mut ByteReader<'_>| {
        usize::try_from(r.get_varint()?).map_err(|_| PdsError::InvalidParameter {
            message: format!("{WHAT}: item id overflows usize"),
        })
    };
    let record = match r.get_u8()? {
        TAG_BASIC => StreamRecord::Basic {
            item: item(&mut r)?,
            prob: r.get_f64()?,
        },
        TAG_ALTERNATIVES => {
            // Each alternative takes at least 9 bytes, which bounds the
            // allocation a hostile count can drive.
            let n = r.get_len(r.remaining() / 9)?;
            let mut alts = Vec::with_capacity(n);
            for _ in 0..n {
                alts.push((item(&mut r)?, r.get_f64()?));
            }
            StreamRecord::Alternatives(alts)
        }
        TAG_VALUE_PDF => {
            let item = item(&mut r)?;
            let n = r.get_len(r.remaining() / 16)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((r.get_f64()?, r.get_f64()?));
            }
            StreamRecord::ValueDistribution { item, entries }
        }
        tag => {
            return Err(PdsError::InvalidParameter {
                message: format!("{WHAT}: unknown record tag {tag:#04x}"),
            })
        }
    };
    r.finish()?;
    Ok(record)
}

/// Outcome of decoding one WAL frame — the decoder surface the fuzz
/// harness (`pds-analyze`) drives directly: a valid record, a frame cut
/// short (torn), or corruption with its reason.
#[derive(Debug)]
pub enum FrameOutcome {
    /// The bytes are exactly one valid frame.
    Record(StreamRecord),
    /// The bytes end inside the frame — a torn buffered append.  Tolerated
    /// only at the end of a *live* log.
    Truncated,
    /// A frame failing its length check, its checksum or its payload
    /// decode, or followed by trailing bytes: corruption, never tolerated.
    Corrupt(String),
}

/// Decodes `bytes` as exactly one frame, without any tail tolerance.  This
/// is [`frame_record`]'s decoding counterpart; the fuzzer asserts that no
/// mutated frame ever panics here and that a frame with any checked byte
/// corrupted never classifies as [`FrameOutcome::Record`].
pub fn decode_frame(bytes: &[u8]) -> FrameOutcome {
    let mut r = ByteReader::new(bytes, "wal frame");
    match next_frame(&mut r) {
        Ok(_) if r.remaining() != 0 => {
            FrameOutcome::Corrupt(format!("{} trailing bytes after the frame", r.remaining()))
        }
        Ok(record) => FrameOutcome::Record(record),
        Err(FrameError::Truncated) => FrameOutcome::Truncated,
        Err(FrameError::Corrupt(why)) => FrameOutcome::Corrupt(why),
    }
}

/// Decodes a whole log file.  `tolerate_torn_tail` enables the live-log
/// lenience for a torn envelope or final frame; frozen logs pass `false`.
fn decode_log(bytes: &[u8], tolerate_torn_tail: bool) -> Result<Vec<StreamRecord>> {
    let envelope = log_envelope();
    if tolerate_torn_tail && bytes.len() < envelope.len() && envelope.starts_with(bytes) {
        // A fresh live log whose envelope never reached the disk.
        return Ok(Vec::new());
    }
    if bytes.starts_with(b"r ") {
        return Err(PdsError::UnsupportedFormat {
            message: "a wal log in version-1 text frames; replay it with the build \
                      that wrote it, or remove it"
                .into(),
        });
    }
    let (mut r, version) = ByteReader::envelope(bytes, "wal log", WAL_MAGIC)?;
    if version != WAL_VERSION {
        return Err(PdsError::UnsupportedFormat {
            message: format!("a wal log of PDSL version {version}, expected {WAL_VERSION}"),
        });
    }
    let mut records = Vec::new();
    while r.remaining() > 0 {
        let offset = bytes.len() - r.remaining();
        match next_frame(&mut r) {
            Ok(record) => records.push(record),
            // Truncation only ever happens at the end of the input.
            Err(FrameError::Truncated) if tolerate_torn_tail => break,
            Err(FrameError::Truncated) => {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "wal log: truncated frame {} at byte {offset} of a frozen log",
                        records.len() + 1
                    ),
                });
            }
            Err(FrameError::Corrupt(why)) => {
                return Err(PdsError::InvalidParameter {
                    message: format!(
                        "wal log: corrupt frame {} at byte {offset}: {why}",
                        records.len() + 1
                    ),
                });
            }
        }
    }
    Ok(records)
}

/// Reads and decodes a log file, naming it in any error.
fn read_framed_log(path: &Path, tolerate_torn_tail: bool) -> Result<Vec<StreamRecord>> {
    let bytes =
        vfs::read("recovery-read", path).map_err(|e| io_err("opening a log for replay", e))?;
    decode_log(&bytes, tolerate_torn_tail).map_err(|e| match e {
        PdsError::UnsupportedFormat { message } => PdsError::UnsupportedFormat {
            message: format!("{}: {message}", path.display()),
        },
        PdsError::InvalidParameter { message } => PdsError::InvalidParameter {
            message: format!("wal: {}: {message}", path.display()),
        },
        other => other,
    })
}

/// The outcome of scanning a partition's logs: every replayable record (in
/// original arrival order) plus the frozen files that must be deleted once
/// the records are safely re-logged by [`PartitionWal::commit`].
#[derive(Debug)]
pub struct WalReplay {
    /// Replayed records: uncovered frozen logs in seal order, then the live
    /// log.
    pub records: Vec<StreamRecord>,
    /// Frozen `.sealing` files absorbed by the replay — or already covered
    /// by the manifest — and deleted at commit.
    frozen: Vec<PathBuf>,
}

/// The write-ahead log of one partition (see the module docs for the file
/// lifecycle, the frame format and the recovery protocol).
#[derive(Debug)]
pub struct PartitionWal {
    dir: PathBuf,
    partition: usize,
    live_path: PathBuf,
    writer: BufWriter<File>,
    /// The frame buffer every append encodes into and reuses.
    frame: Vec<u8>,
    /// Appends since the last [`PartitionWal::commit_group`] — lets the
    /// group-commit pass skip shards that saw no writes this batch.
    dirty: bool,
    /// Retry/backoff policy plus the telemetry hook for durable-path I/O
    /// (attached by the store; defaults to no retries, no telemetry).
    policy: IoPolicy,
}

/// Which durability tier WAL commits reach (configured per store through
/// [`StoreConfig::wal_sync`](crate::StoreConfig::wal_sync)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// Flush buffered appends to the operating system at every commit
    /// boundary: survives process crashes (the tier the crash matrix
    /// pins).  The default.
    #[default]
    Flush,
    /// Additionally `File::sync_data` at every commit boundary: survives
    /// power loss, paid once per group commit rather than per record.
    Fsync,
}

impl PartitionWal {
    /// **Phase 1 of recovery** — reads the partition's replayable records
    /// (frozen logs in seal order, then the live log) without deleting or
    /// truncating anything, so a failure anywhere in the replay leaves
    /// every log intact.  Stale `.tmp` staging files from a crashed
    /// recovery are discarded.
    ///
    /// Frozen logs whose seal sequence appears in `covered` are **not**
    /// replayed — their records are already carried by a manifest-installed
    /// segment (the manifest entry is the seal's commit point) — but they
    /// are still queued for deletion at commit.
    pub fn scan_skipping(
        dir: &Path,
        partition: usize,
        covered: &BTreeSet<u64>,
    ) -> Result<WalReplay> {
        Self::scan_skipping_with(dir, partition, covered, &IoPolicy::default())
    }

    /// [`PartitionWal::scan_skipping`] with the store's I/O policy
    /// attached, so stale-staging cleanup failures are counted instead of
    /// silently dropped.
    pub(crate) fn scan_skipping_with(
        dir: &Path,
        partition: usize,
        covered: &BTreeSet<u64>,
        policy: &IoPolicy,
    ) -> Result<WalReplay> {
        vfs::create_dir_all("recovery-read", dir)
            .map_err(|e| io_err("creating the wal directory", e))?;
        let stale = dir.join(format!("wal-{partition}.log.tmp"));
        policy.cleanup("cleanup", vfs::remove_file("cleanup", &stale));
        let mut records = Vec::new();

        // Frozen logs: wal-<p>.<seq>.sealing, replayed in ascending order.
        let prefix = format!("wal-{partition}.");
        let mut frozen: Vec<(u64, PathBuf)> = Vec::new();
        let entries = vfs::read_dir("recovery-read", dir)
            .map_err(|e| io_err("listing the wal directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing the wal directory", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            if let Some(seq) = rest
                .strip_suffix(".sealing")
                .and_then(|s| s.parse::<u64>().ok())
            {
                frozen.push((seq, entry.path()));
            }
        }
        frozen.sort();
        for (seq, path) in &frozen {
            if covered.contains(seq) {
                continue;
            }
            records.extend(read_framed_log(path, false)?);
        }
        let live = live_path(dir, partition);
        if live.exists() {
            records.extend(read_framed_log(&live, true)?);
        }
        Ok(WalReplay {
            records,
            frozen: frozen.into_iter().map(|(_, path)| path).collect(),
        })
    }

    /// [`PartitionWal::scan_skipping`] with nothing covered — every frozen
    /// log replays.
    pub fn scan(dir: &Path, partition: usize) -> Result<WalReplay> {
        Self::scan_skipping(dir, partition, &BTreeSet::new())
    }

    /// **Phase 3 of recovery** — atomically replaces the partition's live
    /// log with exactly `live_records` (the replayed records now sitting in
    /// the memtable): writes them to a `.tmp` staging file, renames it over
    /// the live log, then deletes the frozen files the replay absorbed.
    /// Returns the append handle for subsequent ingest.
    pub fn commit(
        dir: &Path,
        partition: usize,
        live_records: &[StreamRecord],
        replay: &WalReplay,
    ) -> Result<Self> {
        Self::commit_synced(dir, partition, live_records, replay, WalSync::Flush)
    }

    /// [`PartitionWal::commit`] honoring a durability tier: on
    /// [`WalSync::Fsync`] the staged log is `sync_data`'d before the rename
    /// and the directory is fsynced after it, **before** the absorbed
    /// frozen logs are deleted — a power loss can then never persist the
    /// deletions without the recovered live log they were absorbed into.
    pub fn commit_synced(
        dir: &Path,
        partition: usize,
        live_records: &[StreamRecord],
        replay: &WalReplay,
        sync: WalSync,
    ) -> Result<Self> {
        Self::commit_synced_with(
            dir,
            partition,
            live_records,
            replay,
            sync,
            IoPolicy::default(),
        )
    }

    /// [`PartitionWal::commit_synced`] with the store's I/O policy: the
    /// atomic rename retries on transient errors, absorbed-frozen-log
    /// cleanup failures are counted, and the returned handle keeps the
    /// policy for its append/commit lifetime.
    pub(crate) fn commit_synced_with(
        dir: &Path,
        partition: usize,
        live_records: &[StreamRecord],
        replay: &WalReplay,
        sync: WalSync,
        policy: IoPolicy,
    ) -> Result<Self> {
        let live = live_path(dir, partition);
        let tmp = dir.join(format!("wal-{partition}.log.tmp"));
        let mut frame = Vec::new();
        {
            let mut staged = BufWriter::new(
                vfs::create("recovery-commit", &tmp)
                    .map_err(|e| io_err("creating the staging log", e))?,
            );
            vfs::write_all("recovery-commit", &tmp, &mut staged, &log_envelope())
                .map_err(|e| io_err("writing the staging log", e))?;
            for record in live_records {
                encode_frame(record, &mut frame)?;
                vfs::write_all("recovery-commit", &tmp, &mut staged, &frame)
                    .map_err(|e| io_err("writing the staging log", e))?;
            }
            vfs::flush("recovery-commit", &tmp, &mut staged)
                .map_err(|e| io_err("flushing the staging log", e))?;
            if sync == WalSync::Fsync {
                vfs::sync_data("recovery-commit", &tmp, staged.get_ref())
                    .map_err(|e| io_err("fsyncing the staging log", e))?;
            }
        }
        crate::crashpoint::reached("mid-wal-recovery-commit");
        policy
            .run("recovery-commit", || {
                vfs::rename("recovery-commit", &tmp, &live)
            })
            .map_err(|e| io_err("publishing the recovered live log", e))?;
        if sync == WalSync::Fsync {
            vfs::sync_dir("recovery-commit", dir)
                .map_err(|e| io_err("fsyncing the wal directory", e))?;
        }
        for path in &replay.frozen {
            policy.cleanup("cleanup", vfs::remove_file("cleanup", path));
        }
        let writer = BufWriter::new(
            vfs::open_append("recovery-commit", &live, false)
                .map_err(|e| io_err("opening the live log for append", e))?,
        );
        Ok(PartitionWal {
            dir: dir.to_path_buf(),
            partition,
            live_path: live,
            writer,
            frame,
            dirty: false,
            policy,
        })
    }

    /// Scans and immediately commits in one step — the non-recovery path
    /// for tests and tools that want the old "open and replay" behaviour.
    /// Returns the WAL handle plus the replayed records (now re-logged as
    /// the live log).
    pub fn open(dir: &Path, partition: usize) -> Result<(Self, Vec<StreamRecord>)> {
        let replay = Self::scan(dir, partition)?;
        let wal = Self::commit(dir, partition, &replay.records, &replay)?;
        Ok((wal, replay.records))
    }

    /// Appends one routed record as a binary frame (buffered; see
    /// [`PartitionWal::sync`] / [`PartitionWal::commit_group`]).  The frame
    /// is encoded into the handle's reused buffer and written in one
    /// `write_all`, so a steady-state append allocates nothing.
    ///
    /// Append errors are **not retried**: a partially buffered frame
    /// cannot be rewound, so a retry would stack a second copy behind torn
    /// bytes.  The error surfaces (and is counted); the store degrades,
    /// and the torn tail — if the buffer ever reaches the disk — is
    /// exactly the torn-final-frame case replay already tolerates.
    pub fn append(&mut self, record: &StreamRecord) -> Result<()> {
        encode_frame(record, &mut self.frame)?;
        let result = vfs::write_all("wal-append", &self.live_path, &mut self.writer, &self.frame);
        if let Err(e) = &result {
            self.policy.observe_error("wal-append", e);
        }
        result.map_err(|e| io_err("appending to the live log", e))?;
        self.dirty = true;
        Ok(())
    }

    /// Flushes buffered appends to the operating system (with the policy's
    /// bounded retry: a flush retry re-drains whatever the first attempt
    /// left buffered, so the operation is idempotent).
    pub fn sync(&mut self) -> Result<()> {
        let PartitionWal {
            live_path,
            writer,
            policy,
            ..
        } = self;
        policy
            .run("wal-commit", || vfs::flush("wal-commit", live_path, writer))
            .map_err(|e| io_err("flushing the live log", e))
    }

    /// The group-commit boundary: flushes buffered appends and, on the
    /// [`WalSync::Fsync`] tier, additionally syncs file data to the device.
    /// A no-op when nothing was appended since the last commit, so the
    /// batch paths can sweep every touched shard cheaply.  Both steps are
    /// idempotent, so transient errors get the policy's bounded retry.
    pub fn commit_group(&mut self, sync: WalSync) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.sync()?;
        if sync == WalSync::Fsync {
            let PartitionWal {
                live_path,
                writer,
                policy,
                ..
            } = self;
            policy
                .run("wal-commit", || {
                    vfs::sync_data("wal-commit", live_path, writer.get_ref())
                })
                .map_err(|e| io_err("fsyncing the live log", e))?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Freezes the live log for seal `seq`: flushes, renames it to the
    /// frozen `.sealing` name and starts a fresh live log (its envelope
    /// buffered, so it reaches the disk with the first group commit).  Returns the
    /// frozen file's path — the caller deletes it (via
    /// [`PartitionWal::retire`]) once the sealed segment is installed.
    pub fn rotate(&mut self, seq: u64) -> Result<PathBuf> {
        self.sync()?;
        let frozen = self
            .dir
            .join(format!("wal-{}.{seq}.sealing", self.partition));
        self.policy
            .run("wal-rotate", || {
                vfs::rename("wal-rotate", &self.live_path, &frozen)
            })
            .map_err(|e| io_err("freezing the live log", e))?;
        let fresh = || {
            // `create` truncates, so a retry restarts from an empty file.
            let mut writer = BufWriter::new(vfs::create("wal-rotate", &self.live_path)?);
            vfs::write_all("wal-rotate", &self.live_path, &mut writer, &log_envelope())?;
            Ok(writer)
        };
        match self.policy.run("wal-rotate", fresh) {
            Ok(writer) => {
                self.writer = writer;
                self.dirty = false;
                Ok(frozen)
            }
            Err(e) => {
                // Undo the rename so `writer`'s fd and `live_path` stay
                // coherent: appends keep landing in the (restored) live log
                // and a later rotation can retry cleanly.  A failed undo is
                // counted, not dropped — the caller degrades on the error.
                self.policy.cleanup(
                    "wal-rotate",
                    vfs::rename("wal-rotate", &frozen, &self.live_path),
                );
                Err(io_err("creating the live log", e))
            }
        }
    }

    /// Folds a frozen log's records back into the live log — the undo of
    /// [`PartitionWal::rotate`] when the seal it fed failed before
    /// installing a segment.  Appends (rather than renames) so records
    /// logged since the rotation are preserved; the memtable-side undo
    /// ([`Memtable::absorb_front`](crate::Memtable::absorb_front)) prepends
    /// instead, so after an error the live log and the memtable agree as
    /// multisets though not necessarily in order.
    pub fn reabsorb(&mut self, frozen: &Path) -> Result<()> {
        let records = read_framed_log(frozen, false)?;
        for record in &records {
            self.append(record)?;
        }
        self.sync()?;
        vfs::remove_file("cleanup", frozen)
            .map_err(|e| io_err("removing a reabsorbed frozen log", e))
    }

    /// Removes a frozen log whose records are now covered by an installed
    /// segment.  Missing files are ignored (idempotent); other failures
    /// surface so the caller can count them as cleanup errors.
    pub fn retire(frozen: &Path) -> std::io::Result<()> {
        match vfs::remove_file("wal-retire", frozen) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

impl Drop for PartitionWal {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pds-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn basic(item: usize, prob: f64) -> StreamRecord {
        StreamRecord::Basic { item, prob }
    }

    #[test]
    fn append_rotate_and_replay_round_trip() {
        let dir = tmp_dir("round-trip");
        let (mut wal, replayed) = PartitionWal::open(&dir, 3).unwrap();
        assert!(replayed.is_empty());
        let records = vec![
            StreamRecord::Basic { item: 7, prob: 0.5 },
            StreamRecord::Alternatives(vec![(8, 0.25), (9, 0.5)]),
            StreamRecord::ValueDistribution {
                item: 7,
                entries: vec![(2.0, 0.5)],
            },
        ];
        for r in &records[..2] {
            wal.append(r).unwrap();
        }
        // Freeze the first two records, then log one more live record.
        let frozen = wal.rotate(0).unwrap();
        assert!(frozen.ends_with("wal-3.0.sealing"));
        wal.append(&records[2]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Reopen: frozen log replays first, then the live log.
        let (_wal2, replayed) = PartitionWal::open(&dir, 3).unwrap();
        assert_eq!(replayed, records);
        // The old files were absorbed into the fresh live log: a third open
        // replays exactly the same records (no duplicates, no frozen files).
        drop(_wal2);
        let (_wal3, replayed) = PartitionWal::open(&dir, 3).unwrap();
        assert_eq!(replayed, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_is_read_only_until_commit() {
        let dir = tmp_dir("scan-read-only");
        let (mut wal, _) = PartitionWal::open(&dir, 0).unwrap();
        wal.append(&basic(1, 0.5)).unwrap();
        let frozen = wal.rotate(0).unwrap();
        wal.append(&basic(2, 0.25)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Scanning twice returns the same records and leaves all files.
        let first = PartitionWal::scan(&dir, 0).unwrap();
        assert_eq!(first.records.len(), 2);
        assert!(frozen.exists(), "scan must not delete frozen logs");
        let second = PartitionWal::scan(&dir, 0).unwrap();
        assert_eq!(second.records, first.records);

        // Commit absorbs everything into the live log and drops the frozen
        // file.
        let _wal = PartitionWal::commit(&dir, 0, &second.records, &second).unwrap();
        assert!(!frozen.exists(), "commit retires absorbed frozen logs");
        let after = PartitionWal::scan(&dir, 0).unwrap();
        assert_eq!(after.records, first.records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_skipping_ignores_covered_frozen_logs_but_retires_them() {
        let dir = tmp_dir("scan-skipping");
        let (mut wal, _) = PartitionWal::open(&dir, 1).unwrap();
        wal.append(&basic(1, 0.5)).unwrap();
        let frozen0 = wal.rotate(0).unwrap();
        wal.append(&basic(2, 0.25)).unwrap();
        let frozen1 = wal.rotate(1).unwrap();
        wal.append(&basic(3, 0.125)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Seal 0's records are covered by an installed segment; only seal
        // 1's frozen records and the live tail replay.
        let covered: BTreeSet<u64> = [0u64].into_iter().collect();
        let replay = PartitionWal::scan_skipping(&dir, 1, &covered).unwrap();
        assert_eq!(replay.records, vec![basic(2, 0.25), basic(3, 0.125)]);
        // Commit still deletes the covered frozen file (its records live in
        // the manifest-installed segment now).
        let _wal = PartitionWal::commit(&dir, 1, &replay.records, &replay).unwrap();
        assert!(!frozen0.exists());
        assert!(!frozen1.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reabsorb_undoes_a_rotation_keeping_newer_appends() {
        let dir = tmp_dir("reabsorb");
        let (mut wal, _) = PartitionWal::open(&dir, 2).unwrap();
        wal.append(&basic(5, 0.75)).unwrap();
        let frozen = wal.rotate(0).unwrap();
        // A record logged after the rotation must survive the undo.
        wal.append(&basic(6, 0.5)).unwrap();
        wal.reabsorb(&frozen).unwrap();
        assert!(!frozen.exists());
        drop(wal);
        let (_w, replayed) = PartitionWal::open(&dir, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(replayed.contains(&basic(5, 0.75)));
        assert!(replayed.contains(&basic(6, 0.5)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_removes_frozen_logs_and_is_idempotent() {
        let dir = tmp_dir("retire");
        let (mut wal, _) = PartitionWal::open(&dir, 0).unwrap();
        wal.append(&basic(0, 0.9)).unwrap();
        let frozen = wal.rotate(5).unwrap();
        assert!(frozen.exists());
        PartitionWal::retire(&frozen).unwrap();
        assert!(!frozen.exists());
        PartitionWal::retire(&frozen).unwrap(); // second call is a no-op
        drop(wal);
        let (_wal2, replayed) = PartitionWal::open(&dir, 0).unwrap();
        assert!(replayed.is_empty(), "retired records must not replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitions_do_not_see_each_other_s_logs() {
        let dir = tmp_dir("isolation");
        let (mut a, _) = PartitionWal::open(&dir, 0).unwrap();
        let (mut b, _) = PartitionWal::open(&dir, 1).unwrap();
        a.append(&basic(1, 0.5)).unwrap();
        b.append(&basic(9, 0.25)).unwrap();
        drop(a);
        drop(b);
        let (_a2, ra) = PartitionWal::open(&dir, 0).unwrap();
        let (_b2, rb) = PartitionWal::open(&dir, 1).unwrap();
        assert_eq!(ra, vec![basic(1, 0.5)]);
        assert_eq!(rb, vec![basic(9, 0.25)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The bytes of a log holding `records`, concatenated with `tail`.
    fn log_with(records: &[StreamRecord], tail: &[u8]) -> Vec<u8> {
        let mut log = encode_log(records).unwrap();
        log.extend_from_slice(tail);
        log
    }

    #[test]
    fn corrupt_frames_surface_as_errors_without_destroying_files() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        // A frame whose payload is garbage (valid checks over an unknown
        // record tag) must abort the scan.
        let payload = b"q garbage";
        let len = payload.len() as u32;
        let mut bad = Vec::new();
        bad.extend_from_slice(&len.to_le_bytes());
        bad.extend_from_slice(&length_check(len).to_le_bytes());
        bad.extend_from_slice(&crc32(payload).to_le_bytes());
        bad.extend_from_slice(payload);
        assert!(matches!(decode_frame(&bad), FrameOutcome::Corrupt(_)));
        let mut log = log_with(&[], &bad);
        log.extend_from_slice(&frame_record(&basic(1, 0.5)).unwrap());
        fs::write(dir.join("wal-2.log"), log).unwrap();
        assert!(PartitionWal::scan(&dir, 2).is_err());
        // The corrupt log is still there for inspection/repair.
        assert!(dir.join("wal-2.log").exists());
        fs::write(dir.join("wal-2.log"), encode_log(&[basic(0, 0.5)]).unwrap()).unwrap();
        let replay = PartitionWal::scan(&dir, 2).unwrap();
        assert_eq!(replay.records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_frames_are_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let good = [basic(0, 0.5), basic(1, 0.25)];
        // A crash mid-append leaves a partial last frame: the acknowledged
        // prefix replays, the torn tail is discarded.
        let torn = frame_record(&StreamRecord::Alternatives(vec![(2, 0.1), (3, 0.5)])).unwrap();
        for cut in [3, FRAME_HEADER_LEN, torn.len() - 6] {
            fs::write(dir.join("wal-0.log"), log_with(&good, &torn[..cut])).unwrap();
            let replay = PartitionWal::scan(&dir, 0).unwrap();
            assert_eq!(replay.records, good, "cut at {cut}");
        }
        // A log that is one torn frame replays as empty, and so does a
        // fresh log whose envelope was torn.
        let lone = frame_record(&basic(7, 0.25)).unwrap();
        fs::write(
            dir.join("wal-1.log"),
            log_with(&[], &lone[..lone.len() - 2]),
        )
        .unwrap();
        assert!(PartitionWal::scan(&dir, 1).unwrap().records.is_empty());
        for cut in 0..log_envelope().len() {
            fs::write(dir.join("wal-1.log"), &log_envelope()[..cut]).unwrap();
            assert!(PartitionWal::scan(&dir, 1).unwrap().records.is_empty());
        }
        // Frozen logs stay strict: rotation flushed them, so a short frame
        // is corruption there, not a torn tail.
        fs::write(
            dir.join("wal-3.0.sealing"),
            log_with(&[], &lone[..lone.len() - 2]),
        )
        .unwrap();
        assert!(PartitionWal::scan(&dir, 3).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_but_parseable_truncation_is_detected() {
        let dir = tmp_dir("torn-parseable");
        fs::create_dir_all(&dir).unwrap();
        // An x-tuple frame cut after its first alternative: without the
        // length, the surviving bytes could pass for a one-alternative
        // record — a silently wrong tuple.  The checked length says the
        // payload is short, so the tail is dropped (live log), never
        // replayed.
        let full = frame_record(&StreamRecord::Alternatives(vec![(3, 0.25), (4, 0.5)])).unwrap();
        let torn = &full[..full.len() - 9];
        fs::write(dir.join("wal-0.log"), log_with(&[], torn)).unwrap();
        let replay = PartitionWal::scan(&dir, 0).unwrap();
        assert!(replay.records.is_empty(), "a torn x-tuple must not replay");

        // The same truncation mid-file (with a later record) is corruption:
        // the declared length reaches into the next frame and the payload
        // CRC fails.
        let mut log = log_with(&[], torn);
        log.extend_from_slice(&frame_record(&basic(4, 0.5)).unwrap());
        fs::write(dir.join("wal-1.log"), log).unwrap();
        assert!(PartitionWal::scan(&dir, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_frames_are_rejected() {
        let dir = tmp_dir("bit-flip");
        fs::create_dir_all(&dir).unwrap();
        let frame = frame_record(&basic(3, 0.25)).unwrap();
        // Every bit of every frame byte — header and payload — is checked:
        // a flip never decodes, and in a log it never replays.
        for pos in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[pos] ^= 1 << bit;
                assert!(
                    !matches!(decode_frame(&flipped), FrameOutcome::Record(_)),
                    "flip at byte {pos} bit {bit} decoded"
                );
            }
        }
        let mut flipped = frame.clone();
        flipped[FRAME_HEADER_LEN + 2] ^= 0x40; // a probability byte
        fs::write(dir.join("wal-0.log"), log_with(&[], &flipped)).unwrap();
        assert!(PartitionWal::scan(&dir, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_lengths_are_corruption_not_a_torn_tail() {
        let dir = tmp_dir("damaged-length");
        fs::create_dir_all(&dir).unwrap();
        // A length damaged upwards runs past the end of the file, which
        // would read as a torn final frame and drop the acknowledged frame
        // after it.  The length check turns it into corruption instead.
        let mut first = frame_record(&basic(1, 0.5)).unwrap();
        first[2] ^= 0x10;
        let mut log = log_with(&[], &first);
        log.extend_from_slice(&frame_record(&basic(2, 0.25)).unwrap());
        fs::write(dir.join("wal-0.log"), log).unwrap();
        assert!(PartitionWal::scan(&dir, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_text_logs_are_refused_with_a_typed_error() {
        let dir = tmp_dir("v1-text");
        fs::create_dir_all(&dir).unwrap();
        let v1 = "r 9 89240cd8 b 3 0.625\n";
        for name in ["wal-0.log", "wal-1.0.sealing"] {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(name), v1).unwrap();
            let p = if name.starts_with("wal-0") { 0 } else { 1 };
            match PartitionWal::scan(&dir, p) {
                Err(PdsError::UnsupportedFormat { message }) => {
                    assert!(message.contains(name), "{message}");
                    assert!(message.contains("version-1 text"), "{message}");
                }
                other => panic!("a v1 log must be refused as unsupported: {other:?}"),
            }
            assert_eq!(fs::read_to_string(dir.join(name)).unwrap(), v1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_replay_bit_exact() {
        // Raw f64 bits travel through the frame: values that shortest
        // round-trip text would also keep, and ones it never sees (signed
        // zero, subnormals).
        let records = vec![
            basic(0, 0.1 + 0.2),
            basic(usize::MAX >> 1, f64::MIN_POSITIVE / 3.0),
            StreamRecord::Alternatives(vec![(300, 1.0 / 3.0), (1 << 40, 2.0_f64.powi(-60))]),
            StreamRecord::ValueDistribution {
                item: 5,
                entries: vec![(-0.0, 0.5), (1e300, 0.25)],
            },
        ];
        for record in &records {
            match decode_frame(&frame_record(record).unwrap()) {
                FrameOutcome::Record(back) => assert_eq!(
                    format!("{back:?}"),
                    format!("{record:?}"),
                    "bit-exact round trip"
                ),
                other => panic!("valid frame rejected: {other:?}"),
            }
        }
        assert_eq!(
            decode_log(&encode_log(&records).unwrap(), false).unwrap(),
            records
        );
    }

    #[test]
    fn group_commit_flushes_once_and_fsync_tier_syncs() {
        let dir = tmp_dir("group-commit");
        let (mut wal, _) = PartitionWal::open(&dir, 0).unwrap();
        for i in 0..16 {
            wal.append(&basic(i, 0.5)).unwrap();
        }
        wal.commit_group(WalSync::Fsync).unwrap();
        // Nothing new: the second commit is a no-op (dirty flag cleared).
        wal.commit_group(WalSync::Flush).unwrap();
        drop(wal);
        let (_w, replayed) = PartitionWal::open(&dir, 0).unwrap();
        assert_eq!(replayed.len(), 16);
        let _ = fs::remove_dir_all(&dir);
    }
}
