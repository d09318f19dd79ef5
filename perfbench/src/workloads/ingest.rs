//! `ingest`: the durable write path.
//!
//! One closed-loop client calls `ingest_batch` with fixed-size batches of
//! the skewed stream (basic records plus TPC-H-shaped x-tuples) on a
//! durable store: 8 partitions over n = 8192, SSE histogram segments,
//! inline auto-seal at a threshold and size-tiered compaction.  WAL commits
//! flush to the operating system once per batch (`WalSync::Flush`: page
//! cache, no fsync).  The timed window is split into three phases, so the
//! reopens sample the whole run rather than its last seconds.  After each
//! phase every memtable is sealed, every partition compacted and a fixed
//! tail ingested, so a reopen loads the same blobs and replays the same
//! WAL volume in every run; then the store is dropped and reopened several
//! times (the bulk operation), the reopened answers are checked, and the
//! next phase ingests into the reopened store.
//!
//! The stream and its batches are made once, before set-up.  Set-up times
//! only the program: opening an empty durable store and ingesting the
//! fixed tail, so the first phase starts from the state every reopen
//! recovers (the tail unsealed in the memtables).  The accuracy figure
//! comes from a separate in-memory store fed a fixed input after the
//! window, so it depends on the seed alone and not on how many batches
//! the window held.
//!
//! Traced runs replay the layers inside `ingest_batch` on the same
//! records: WAL framing, appends and group commits into a temporary WAL,
//! memtable inserts into shadow memtables, and for every shadow memtable
//! that reaches the threshold the seal steps (relation, oracle, DP) and
//! the blob encoding.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use pds_core::pool;
use pds_core::stream::StreamRecord;
use pds_core::ErrorMetric;
use pds_histogram::{optimal_histogram, oracle_for_metric};
use pds_store::{
    blob, wal, CompactionPolicy, Memtable, PartitionSpec, PartitionWal, Segment, SegmentSynopsis,
    StoreConfig, SynopsisKind, SynopsisStore, WalSync,
};

use super::{dir_bytes, set_up, time_us, trace_summary, Ctx, Outcome};
use crate::alloc::AllocSnapshot;
use crate::data::{ingest_stream, mean_rel_err_pct, range_grid, Exact};
use crate::scrape::Scrape;
use crate::trace::{Overhead, Tracer};

const SETUPS: usize = 9;
const N: usize = 8192;
const PARTS: usize = 8;
const BATCH: usize = 1_000;
const POOL: usize = 400 * BATCH;
const SEAL_THRESHOLD: usize = 50_000;
const BUDGET: usize = 48;
const TAIL: usize = 40_000;
/// The timed window is split into phases; each ends with a reopen.
const PHASES: usize = 3;
/// Reopens per phase (the bulk operation).
const REOPENS: usize = 9;

fn config() -> StoreConfig {
    let mut c = StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).expect("valid partition layout"),
        SEAL_THRESHOLD,
        BUDGET,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    c.compaction = Some(CompactionPolicy::default());
    c.wal_sync = WalSync::Flush;
    c
}

/// Splits a batch by owning partition the way the store routes it
/// (x-tuples split into one sub-tuple per partition, in partition order).
fn route(spec: &PartitionSpec, batch: &[StreamRecord]) -> Vec<Vec<StreamRecord>> {
    let mut routed = vec![Vec::new(); spec.len()];
    for r in batch {
        match r {
            StreamRecord::Alternatives(alts) => {
                let mut by: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
                for &(item, prob) in alts {
                    let p = spec
                        .partition_of(item)
                        .expect("generated items are in domain");
                    by.entry(p).or_default().push((item, prob));
                }
                for (p, sub) in by {
                    routed[p].push(StreamRecord::Alternatives(sub));
                }
            }
            StreamRecord::Basic { item, .. } | StreamRecord::ValueDistribution { item, .. } => {
                let p = spec
                    .partition_of(*item)
                    .expect("generated items are in domain");
                routed[p].push(r.clone());
            }
        }
    }
    routed
}

/// The layers inside `ingest_batch`, replayed from outside on the same
/// records.
struct Shadow {
    spec: PartitionSpec,
    memtables: Vec<Memtable>,
    wals: Vec<PartitionWal>,
    frame_bytes: u64,
    routed_records: u64,
    seals: u64,
}

impl Shadow {
    fn new(ctx: &Ctx) -> Shadow {
        let spec = config().partitions;
        let dir = ctx.fresh_dir("replay-wal");
        let wals = (0..spec.len())
            .map(|p| {
                PartitionWal::open(&dir, p)
                    .expect("opening a temporary WAL")
                    .0
            })
            .collect();
        let memtables = (0..spec.len())
            .map(|p| {
                let (start, width) = spec.range(p);
                Memtable::new(start, width)
            })
            .collect();
        Shadow {
            spec,
            memtables,
            wals,
            frame_bytes: 0,
            routed_records: 0,
            seals: 0,
        }
    }

    fn replay(&mut self, batch: &[StreamRecord], tracer: &mut Tracer, req: u64, out: &mut Outcome) {
        let routed = route(&self.spec, batch);
        let id = tracer.begin("wal.frame", None, req);
        for r in routed.iter().flatten() {
            if let Some(f) = out.replay("wal::frame_record", wal::frame_record(r)) {
                self.frame_bytes += f.len() as u64;
            }
        }
        tracer.end(id);
        self.routed_records += routed.iter().map(Vec::len).sum::<usize>() as u64;
        let id = tracer.begin("wal.append", None, req);
        for (p, records) in routed.iter().enumerate() {
            for r in records {
                let res = self.wals[p].append(r);
                out.replay("PartitionWal::append", res);
            }
        }
        tracer.end(id);
        let id = tracer.begin("wal.commit", None, req);
        for w in &mut self.wals {
            let res = w.commit_group(WalSync::Flush);
            out.replay("PartitionWal::commit_group", res);
        }
        tracer.end(id);
        let id = tracer.begin("memtable.insert", None, req);
        let mut full = Vec::new();
        for (p, records) in routed.into_iter().enumerate() {
            for r in records {
                let res = self.memtables[p].insert(r);
                out.replay("Memtable::insert", res);
                if self.memtables[p].len() >= SEAL_THRESHOLD {
                    full.push(p);
                }
            }
        }
        tracer.end(id);
        for p in full {
            self.seal(p, tracer, req, out);
        }
    }

    /// Mirrors the store at a phase end: `seal_all` empties every memtable
    /// outside the timed window, then the tail refills them.
    fn restart(&mut self, tail: &[StreamRecord], out: &mut Outcome) {
        for m in &mut self.memtables {
            m.clear();
        }
        for (p, records) in route(&self.spec, tail).into_iter().enumerate() {
            for r in records {
                let res = self.memtables[p].insert(r);
                out.replay("Memtable::insert", res);
            }
        }
    }

    fn seal(&mut self, p: usize, tracer: &mut Tracer, req: u64, out: &mut Outcome) {
        let memtable = &mut self.memtables[p];
        if memtable.len() < SEAL_THRESHOLD {
            return;
        }
        self.seals += 1;
        let seal = tracer.begin("seal", None, req);
        let relation = tracer.span("seal.relation", seal, req, || memtable.to_relation());
        let Some(relation) = out.replay("Memtable::to_relation", relation) else {
            return;
        };
        let oracle = tracer.span("seal.oracle", seal, req, || {
            oracle_for_metric(&relation, ErrorMetric::Sse)
        });
        let budget = BUDGET.min(memtable.width());
        let h = tracer.span("seal.dp", seal, req, || optimal_histogram(&oracle, budget));
        let records = memtable.len() as u64;
        let segment = out.replay("optimal_histogram", h).and_then(|h| {
            out.replay(
                "Segment::new",
                Segment::new(memtable.start(), records, SegmentSynopsis::Histogram(h)),
            )
        });
        if let Some(segment) = segment {
            let bytes = tracer.span("blob.encode", seal, req, || blob::encode_blob(&segment));
            out.replay("blob::encode_blob", bytes);
        }
        tracer.end(seal);
        memtable.clear();
    }
}

/// The accuracy figure on a fixed input: a fresh in-memory store with the
/// workload's configuration takes the whole batch pool, is sealed and
/// compacted, then takes the tail, as the durable store does at the end of
/// a phase.  Returns the mean relative error of the grid answers.
fn accuracy(
    batches: &[Vec<StreamRecord>],
    tail: &[StreamRecord],
    grid: &[(usize, usize)],
    out: &mut Outcome,
) -> f64 {
    let Some(store) = out.op("SynopsisStore::new", SynopsisStore::new(config())) else {
        return f64::NAN;
    };
    let mut exact = Exact::new(N);
    for batch in batches {
        batch.iter().for_each(|r| exact.add(r));
        out.op(
            "ingest_batch(accuracy)",
            store.ingest_batch(batch.iter().cloned()),
        );
    }
    out.op("seal_all(accuracy)", store.seal_all());
    out.op("compact_all(accuracy)", store.compact_all());
    tail.iter().for_each(|r| exact.add(r));
    out.op(
        "ingest_batch(accuracy tail)",
        store.ingest_batch(tail.iter().cloned()),
    );
    let estimates: Vec<f64> = grid
        .iter()
        .map(|&(lo, hi)| store.range_estimate(lo, hi))
        .collect();
    let truth: Vec<f64> = grid.iter().map(|&(lo, hi)| exact.range(lo, hi)).collect();
    mean_rel_err_pct(&estimates, &truth)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    // p99: the inline seal spikes (about 2% of batches) are the tail.
    let mut out = Outcome::new(99.0);
    let grid = range_grid(N);
    let (batches, tail) = crate::alloc::own(|| {
        let stream = ingest_stream(N, POOL + TAIL, ctx.seed);
        let (pool_records, tail) = stream.split_at(POOL);
        let batches: Vec<Vec<StreamRecord>> =
            pool_records.chunks(BATCH).map(<[_]>::to_vec).collect();
        (batches, tail.to_vec())
    });
    let dirs: Vec<PathBuf> = (0..SETUPS)
        .map(|k| ctx.fresh_dir(&format!("setup{k}")))
        .collect();
    let store = set_up(&mut out, SETUPS, |k| {
        let s = SynopsisStore::open_with_wal(config(), &dirs[k]).expect("opening an empty store");
        s.ingest_batch(tail.iter().cloned()).expect("set-up ingest");
        s
    });
    let dir = dirs[SETUPS - 1].clone();
    for d in &dirs[..SETUPS - 1] {
        let _ = std::fs::remove_dir_all(d);
    }

    let mut shadow = tracer.enabled().then(|| Shadow::new(ctx));
    let mut acked = tail.len() as u64;
    let mut alloc = AllocSnapshot::default();
    let mut overhead = Overhead::new(tracer.enabled());
    let answers = |s: &SynopsisStore| -> Vec<u64> {
        grid.iter()
            .map(|&(lo, hi)| s.range_estimate(lo, hi).to_bits())
            .collect()
    };
    // Scraped series summed over the phases (each reopen restarts the
    // store's counters).
    let mut scraped = Scrape::default();
    let (mut disk, mut ack_mismatch, mut diverged) = (0u64, 0u64, 0u64);
    let mut store = Some(store);
    let mut k = 0usize;
    let mut window = 0.0;
    for _ in 0..PHASES {
        let Some(s) = store.take() else {
            break;
        };
        let base = s.stats();
        let phase_acked = acked;
        let before = Scrape::parse(&s.render_metrics());
        let start = super::window_start();
        while start.elapsed().as_secs_f64() < ctx.seconds / PHASES as f64 {
            let batch = batches[k % batches.len()].clone();
            let replay = shadow.as_ref().map(|_| batch.clone());
            let traced_op = tracer.enabled() && k.is_multiple_of(2);
            let id = if traced_op {
                tracer.begin("store.ingest_batch", None, k as u64)
            } else {
                None
            };
            let a0 = AllocSnapshot::now();
            let (res, us) = time_us(|| s.ingest_batch(batch));
            let a = a0.since();
            tracer.end(id);
            if out.op("ingest_batch", res).is_some() {
                acked += BATCH as u64;
                out.work += BATCH as f64;
                out.ops.push(us);
                alloc.allocs += a.allocs;
                alloc.bytes += a.bytes;
                overhead.push(traced_op, us);
            }
            if let (Some(sh), Some(records)) = (shadow.as_mut(), replay) {
                sh.replay(&records, tracer, k as u64, &mut out);
            }
            k += 1;
        }
        window += start.elapsed().as_secs_f64();
        out.peak_bytes = out.peak_bytes.max(crate::alloc::peak_live_bytes());
        scraped.add_delta(&before, &Scrape::parse(&s.render_metrics()));

        // A fixed reopen: seal and compact everything (one segment per
        // partition), then ingest a tail that stays below the threshold
        // in every partition, so every reopen loads the same blobs and
        // replays the same WAL volume.
        out.op("seal_all", s.seal_all());
        out.op("compact_all", s.compact_all());
        if let Some(sh) = shadow.as_mut() {
            sh.restart(&tail, &mut out);
        }
        if out
            .op("ingest_batch(tail)", s.ingest_batch(tail.iter().cloned()))
            .is_some()
        {
            acked += tail.len() as u64;
        }
        ack_mismatch +=
            u64::from(s.stats().ingested_records - base.ingested_records != acked - phase_acked);
        let before_drop = answers(&s);
        drop(s);
        disk = dir_bytes(&dir);

        // The bulk operation: reopen (manifest, blobs, WAL-tail replay).
        for i in 0..REOPENS {
            out.bulk.mark();
            let t = Instant::now();
            let reopened = SynopsisStore::open_with_wal(config(), &dir);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some(r) = out.op("open_with_wal", reopened) {
                out.bulk.push(ms);
                out.bulk.mark();
                if i == 0 || i + 1 == REOPENS {
                    diverged += u64::from(answers(&r) != before_drop);
                }
                if i + 1 == REOPENS {
                    store = Some(r);
                }
            }
        }
    }
    out.check(
        "acknowledged tuples == stats().ingested_records in every phase",
        ack_mismatch == 0,
    );
    out.check(
        "reopened grid answers bitwise-equal to the answers before the drop",
        diverged == 0,
    );
    drop(store);
    out.err_pct = accuracy(&batches, &tail, &grid, &mut out);

    let (p50, tail_p, tail_v) = out.ops.summary();
    out.name("ingest_tuples_per_s", out.throughput(), "tuples/s");
    out.name("ingest_p50_ms", p50 / 1e3, "ms");
    out.name(&format!("ingest_p{tail_p}_ms"), tail_v / 1e3, "ms");
    out.name("reopen_ms", out.bulk.trimmed(), "ms");
    out.name(
        "disk_bytes_per_tuple",
        disk as f64 / acked as f64,
        "B/tuple",
    );
    out.name("window_s", window, "s");
    out.name("est_err_pct", out.err_pct, "%");

    if let Some(sh) = shadow {
        let batch_tuples = out.work as u64;
        layers(&mut out, tracer, &sh, &scraped, batch_tuples, alloc, &dir);
        if let Some(pct) = overhead.pct() {
            out.layer("trace.overhead_pct", pct);
        }
    }
    out
}

fn layers(
    out: &mut Outcome,
    tracer: &Tracer,
    sh: &Shadow,
    scraped: &Scrape,
    acked: u64,
    alloc: AllocSnapshot,
    dir: &std::path::Path,
) {
    // `scraped` holds deltas already: compare it against an empty scrape.
    let (before, after) = (&Scrape::default(), scraped);
    let t = tracer.totals();
    let ns = |name: &str| t.get(name).map_or(0.0, |s| s.total_ns as f64);
    let count = |name: &str| t.get(name).map_or(0.0, |s| s.count as f64);
    let per = |name: &str, d: f64| if d > 0.0 { ns(name) / d } else { 0.0 };
    let tuples = sh.routed_records as f64;
    out.layer("memtable.insert_ns", per("memtable.insert", tuples));
    out.layer("wal.frame_ns", per("wal.frame", tuples));
    out.layer("wal.append_ns", per("wal.append", tuples));
    out.layer(
        "wal.commit_us",
        per("wal.commit", count("wal.commit")) / 1e3,
    );
    out.layer(
        "wal.commit_scraped_us",
        after.mean_us(before, "pds_store_wal_commit_seconds", ""),
    );
    out.layer(
        "wal.bytes_per_tuple",
        sh.frame_bytes as f64 / tuples.max(1.0),
    );
    let t0 = Instant::now();
    for p in 0..PARTS {
        let _ = out.op("PartitionWal::scan", PartitionWal::scan(dir, p));
    }
    out.layer("wal.replay_ms", t0.elapsed().as_secs_f64() * 1e3);
    let per_seal = |name: &str| per(name, count(name)) / 1e6;
    out.layer("seal.relation_ms", per_seal("seal.relation"));
    out.layer("seal.oracle_ms", per_seal("seal.oracle"));
    out.layer("seal.dp_ms", per_seal("seal.dp"));
    let scraped_seals = after.count_delta(before, "pds_store_seal_build_seconds", "");
    out.layer(
        "seal.build_ms",
        after.sum_ms_delta(before, "pds_store_seal_build_seconds", "") / scraped_seals.max(1.0),
    );
    out.layer("seal.count", scraped_seals);
    out.layer(
        "blob.encode_us",
        per("blob.encode", count("blob.encode")) / 1e3,
    );
    let commits = after.count_delta(before, "pds_store_seal_commit_seconds", "");
    out.layer(
        "manifest.commit_ms",
        after.sum_ms_delta(before, "pds_store_seal_commit_seconds", "") / commits.max(1.0),
    );
    out.layer(
        "compaction.rounds",
        after.delta(before, "pds_store_compaction_rounds_total"),
    );
    out.layer(
        "compaction.bytes",
        after.delta(before, "pds_store_compaction_bytes_total"),
    );
    let rounds = after.count_delta(before, "pds_store_compaction_seconds", "");
    out.layer(
        "compaction.round_ms",
        after.sum_ms_delta(before, "pds_store_compaction_seconds", "") / rounds.max(1.0),
    );
    out.layer(
        "core.alloc_bytes_per_tuple",
        alloc.bytes as f64 / acked as f64,
    );
    out.layer("core.allocs_per_tuple", alloc.allocs as f64 / acked as f64);
    out.layer("core.pool_threads", pool::num_threads() as f64);

    // Reconciliation: the replayed layers plus the store's own compaction
    // and manifest series against the traced ingest_batch time, scaled to
    // the traced half of the batches.
    let traced = t.get("store.ingest_batch").copied().unwrap_or_default();
    let share = traced.count as f64 / (out.ops.len() as f64).max(1.0);
    let replayed_ns = ns("wal.append") + ns("wal.commit") + ns("memtable.insert") + ns("seal");
    let scraped_ns = (after.sum_ms_delta(before, "pds_store_compaction_seconds", "")
        + after.sum_ms_delta(before, "pds_store_seal_commit_seconds", ""))
        * 1e6;
    let attributed_us = (replayed_ns + scraped_ns) * share / 1e3;
    trace_summary(out, tracer, traced.total_ns as f64 / 1e3, attributed_us);
}
