//! `compact_merge`: the sealed-data path.
//!
//! A durable store of 320 banded segments (32 partitions over n = 8192,
//! ten bursts per partition, each confined to its own 16-item band and
//! sealed on its own — the shape pruning exists for).  Partitions are 256
//! items wide because the seal DP costs B·w² in the partition width w,
//! which keeps the set-up short.
//!
//! Each timed cycle reopens the store lazily, runs closed-loop direct
//! `estimate`/`range_estimate` queries (first-touch block loads, then
//! warm) and a cold `merge_global(B)` — cold because the reopened store's
//! merge cache is empty — whose cached replay must be byte-identical.
//! After the cycles the last store is compacted and merged again.
//!
//! The bursts and the queries are made once, before set-up, and held as
//! the benchmark's own bytes; set-up times the program: ingesting and
//! sealing the bursts into a fresh durable store.

use std::path::Path;

use pds_core::stream::StreamRecord;
use pds_core::ErrorMetric;
use pds_histogram::merge::{optimal_piecewise_histogram, sum_pieces, Piece};
use pds_store::{blob, PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

use super::{set_up, time_us, trace_summary, Ctx, Outcome};
use crate::data::{mean_rel_err_pct, Exact, Rng};
use crate::scrape::Scrape;
use crate::trace::{Overhead, Tracer};

const SETUPS: usize = 3;
const N: usize = 8192;
const PARTS: usize = 32;
const BANDS: usize = 10;
const BAND_WIDTH: usize = 16;
const BUDGET: usize = 48;
const MERGE_B: usize = 32;
const QUERIES_PER_CYCLE: usize = 200_000;

fn config() -> StoreConfig {
    StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).expect("valid partition layout"),
        usize::MAX,
        BUDGET,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    )
}

/// Burst `k`: every partition's k-th band, 2 to 5 basic records per item.
fn burst(k: usize, rng: &mut Rng) -> Vec<StreamRecord> {
    let width = N / PARTS;
    let mut out = Vec::new();
    for p in 0..PARTS {
        for j in 0..BAND_WIDTH {
            let item = p * width + k * BAND_WIDTH + j;
            for _ in 0..2 + rng.below(4) {
                let prob = 0.05 + 0.9 * rng.next_f64();
                out.push(StreamRecord::Basic { item, prob });
            }
        }
    }
    out
}

/// Points and ranges over the covered bands: 40% points, 40% narrow
/// ranges, 20% ranges across a partition.
fn queries(seed: u64) -> Vec<(usize, usize)> {
    let width = N / PARTS;
    let covered = BANDS * BAND_WIDTH;
    let mut rng = Rng::new(seed, 11);
    (0..QUERIES_PER_CYCLE)
        .map(|_| {
            let lo = rng.below(PARTS) * width + rng.below(covered);
            let hi = match rng.below(10) {
                0..=3 => lo,
                4..=7 => lo + rng.below(BAND_WIDTH),
                _ => lo + width,
            };
            (lo, hi.min(N - 1))
        })
        .collect()
}

/// Ingests and seals each burst on its own into a fresh durable store.
fn build(dir: &Path, bursts: &[Vec<StreamRecord>]) {
    let store = SynopsisStore::open_with_wal(config(), dir).expect("opening an empty store");
    for records in bursts {
        store
            .ingest_batch(records.iter().cloned())
            .expect("set-up ingest");
        store.seal_all().expect("set-up seal");
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    // p99: cross-partition ranges visit the most segments.
    let mut out = Outcome::new(99.0);
    let dir = ctx.dir.join("store");
    // The queries' answers: the first cycle's, and the current cycle's.
    let (bursts, exact, qs, mut first, mut answers) = crate::alloc::own(|| {
        let mut rng = Rng::new(ctx.seed, 3);
        let bursts: Vec<Vec<StreamRecord>> = (0..BANDS).map(|k| burst(k, &mut rng)).collect();
        let mut exact = Exact::new(N);
        bursts.iter().flatten().for_each(|r| exact.add(r));
        let answers = || Vec::with_capacity(QUERIES_PER_CYCLE);
        (bursts, exact, queries(ctx.seed), answers(), answers())
    });
    set_up(&mut out, SETUPS, |_| {
        build(&ctx.fresh_dir("store"), &bursts)
    });

    let mut reopen = crate::stats::Sample::default();
    let mut last = None;
    let mut diverged = 0u64;
    let (mut cold_us, mut warm_us, mut loads) = (0.0, 0.0, 0.0);
    let mut overhead = Overhead::new(tracer.enabled());
    let start = super::window_start();
    let mut cycle = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds || cycle == 0 {
        drop(last.take());
        let root = tracer.begin("cycle", None, cycle);
        let id = tracer.begin("store.open_with_wal", root, cycle);
        let (store, us) = time_us(|| SynopsisStore::open_with_wal(config(), &dir));
        tracer.end(id);
        let Some(store) = out.op("open_with_wal", store) else {
            break;
        };
        reopen.push(us / 1e3);
        let s0 = tracer
            .enabled()
            .then(|| Scrape::parse(&store.render_metrics()));
        let buf = if cycle == 0 { &mut first } else { &mut answers };
        buf.clear();
        let mut pass_us = 0.0;
        for (i, &(lo, hi)) in qs.iter().enumerate() {
            // Every 100th query carries a span; the rest time the overhead.
            let traced_op = tracer.enabled() && i % 100 == 0;
            let id = if traced_op {
                tracer.begin("store.query", root, cycle)
            } else {
                None
            };
            let (v, us) = time_us(|| {
                if lo == hi {
                    store.estimate(lo)
                } else {
                    store.range_estimate(lo, hi)
                }
            });
            tracer.end(id);
            out.attempted += 1;
            out.ops.push(us);
            pass_us += us;
            overhead.push(traced_op, us);
            buf.push(v.to_bits());
        }
        if let Some(s0) = s0 {
            // A second, warm pass over the same queries: the difference to
            // the first pass is the cost of the blocks it loaded.
            let s1 = Scrape::parse(&store.render_metrics());
            let id = tracer.begin("store.query_warm_pass", root, cycle);
            let (_, warm) = time_us(|| {
                for &(lo, hi) in &qs {
                    std::hint::black_box(store.range_estimate(lo, hi));
                }
            });
            tracer.end(id);
            cold_us += pass_us;
            warm_us += warm;
            loads += s1.delta(&s0, "pds_store_block_loads_total");
        }
        diverged += u64::from(cycle > 0 && answers != first);

        let id = tracer.begin("store.merge_global", root, cycle);
        out.bulk.mark();
        let (cold, us) = time_us(|| store.merge_global(MERGE_B));
        tracer.end(id);
        if let Some(cold) = out.op("merge_global", cold) {
            out.bulk.push(us / 1e3);
            out.bulk.mark();
            if cycle == 0 {
                let cached = store.merge_global(MERGE_B).and_then(|h| h.to_binary());
                out.check(
                    "cold merge and its cached replay are byte-identical",
                    cold.to_binary().ok().is_some() && cold.to_binary().ok() == cached.ok(),
                );
                out.check(
                    format!("merged histogram has at most {MERGE_B} buckets"),
                    cold.num_buckets() <= MERGE_B,
                );
            }
        }
        tracer.end(root);
        last = Some(store);
        cycle += 1;
    }
    out.peak_bytes = crate::alloc::peak_live_bytes();
    out.work = out.ops.len() as f64;
    out.check(
        "every reopen answers the queries bitwise-equal to the first",
        diverged == 0,
    );
    let Some(store) = last else {
        return out;
    };

    let grid: Vec<(usize, usize)> = qs.iter().copied().take(500).collect();
    let est: Vec<f64> = grid
        .iter()
        .map(|&(lo, hi)| store.range_estimate(lo, hi))
        .collect();
    let truth: Vec<f64> = grid.iter().map(|&(lo, hi)| exact.range(lo, hi)).collect();
    let est_err = mean_rel_err_pct(&est, &truth);
    let merged = store.merge_global(MERGE_B).ok();
    if let (true, Some(m)) = (tracer.enabled(), &merged) {
        replay_merge(&mut out, tracer, &store, m);
        blobs(&mut out, tracer, &dir);
    }
    // Band-confined segments answer point and narrow queries almost
    // exactly, so the workload's accuracy figure is the merged synopsis's.
    out.err_pct = merged.as_ref().map_or(f64::NAN, |h| {
        let (mut num, mut den) = (0.0, 0.0);
        for (i, &x) in exact.freq().iter().enumerate() {
            num += (h.estimate(i) - x).powi(2);
            den += x * x;
        }
        100.0 * num / den
    });

    let before = Scrape::parse(&store.render_metrics());
    let (compacted, compact_us) = time_us(|| store.compact_all());
    out.op("compact_all", compacted);
    let after = Scrape::parse(&store.render_metrics());
    let post = store.merge_global(MERGE_B);
    out.check(
        format!("post-compaction merge has at most {MERGE_B} buckets"),
        post.map(|h| h.num_buckets() <= MERGE_B).unwrap_or(false),
    );

    let (p50, tail_p, tail_v) = out.ops.summary();
    out.name("query_p50_us", p50, "us");
    out.name(&format!("query_p{tail_p}_us"), tail_v, "us");
    out.name("query_per_s", out.throughput(), "queries/s");
    out.name("reopen_ms", reopen.p50(), "ms");
    out.name("merge_ms", out.bulk.trimmed(), "ms");
    out.name("compact_ms", compact_us / 1e3, "ms");
    out.name("est_err_pct", est_err, "%");
    out.name("synopsis_err_pct", out.err_pct, "%");

    if tracer.enabled() {
        out.layer("store.block_loads", loads / cycle as f64);
        out.layer(
            "store.block_load_us",
            if loads > 0.0 {
                (cold_us - warm_us) / loads
            } else {
                0.0
            },
        );
        out.layer("store.direct_query_us", out.ops.mean());
        out.layer("core.pool_threads", pds_core::pool::num_threads() as f64);
        out.layer(
            "compaction.rounds",
            after.delta(&before, "pds_store_compaction_rounds_total"),
        );
        out.layer(
            "compaction.bytes",
            after.delta(&before, "pds_store_compaction_bytes_total"),
        );
        let rounds = after.count_delta(&before, "pds_store_compaction_seconds", "");
        out.layer(
            "compaction.round_ms",
            after.sum_ms_delta(&before, "pds_store_compaction_seconds", "") / rounds.max(1.0),
        );
        // Counters of the last reopened store (its two query passes, the
        // grid and its merges): segments visited and pruned, cache hits.
        let visited = before.sum("pds_store_segments_visited_total");
        let pruned = before.sum("pds_store_segments_pruned_total");
        let per_store_queries = (qs.len() * 2 + grid.len()) as f64;
        out.layer(
            "store.segments_visited_per_query",
            visited / per_store_queries,
        );
        out.layer("store.prune_ratio", pruned / (visited + pruned).max(1.0));
        let hits = before.sum("pds_store_merge_cache_hits_total");
        let misses = before.sum("pds_store_merge_cache_misses_total");
        out.layer(
            "store.merge_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        if let Some(pct) = overhead.pct() {
            out.layer("trace.overhead_pct", pct);
        }
        let t = tracer.totals();
        let root = t.get("cycle").copied().unwrap_or_default();
        let children: f64 = [
            "store.open_with_wal",
            "store.query",
            "store.query_warm_pass",
            "store.merge_global",
        ]
        .iter()
        .map(|n| t.get(n).map_or(0.0, |s| s.total_ns as f64))
        .sum();
        // The untraced queries (all but every 100th) are known from their
        // timings.
        let odd_ns = overhead.plain_sum() * 1e3;
        trace_summary(
            &mut out,
            tracer,
            root.total_ns as f64 / 1e3,
            (children + odd_ns) / 1e3,
        );
    }
    out
}

/// Blob-layer replays over the segment blobs on disk.
fn blobs(out: &mut Outcome, tracer: &mut Tracer, dir: &Path) {
    let files: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    let (mut meta_us, mut syn_us, mut enc_us, mut bytes, mut n) = (0.0, 0.0, 0.0, 0u64, 0.0);
    for (i, path) in files.iter().enumerate() {
        let Some(raw) = out.replay("read blob", std::fs::read(path)) else {
            continue;
        };
        let id = tracer.begin("blob.decode_meta", None, i as u64);
        let (meta, us) = time_us(|| blob::decode_blob_meta(&raw));
        tracer.end(id);
        out.replay("decode_blob_meta", meta);
        meta_us += us;
        let id = tracer.begin("blob.decode", None, i as u64);
        let (seg, us) = time_us(|| blob::decode_blob(&raw));
        tracer.end(id);
        syn_us += us;
        if let Some((segment, _)) = out.replay("decode_blob", seg) {
            let id = tracer.begin("blob.encode", None, i as u64);
            let (enc, us) = time_us(|| blob::encode_blob(&segment));
            tracer.end(id);
            enc_us += us;
            if let Some(enc) = out.replay("encode_blob", enc) {
                bytes += enc.len() as u64;
            }
        }
        n += 1.0;
    }
    let n: f64 = f64::max(n, 1.0);
    out.layer("blob.decode_meta_us", meta_us / n);
    out.layer("blob.decode_synopsis_us", syn_us / n);
    out.layer("blob.encode_us", enc_us / n);
    out.layer("blob.bytes_per_segment", bytes as f64 / n);
}

/// Replays `merge_global`'s DP from the segments' synopses and checks it
/// reproduces the store's merged histogram bit for bit.
fn replay_merge(
    out: &mut Outcome,
    tracer: &mut Tracer,
    store: &SynopsisStore,
    merged: &pds_histogram::Histogram,
) {
    let mut pieces: Vec<Piece> = Vec::new();
    for p in 0..store.num_partitions() {
        let layers: Vec<Vec<Piece>> = store.segments(p).iter().map(|s| s.pieces()).collect();
        match layers.len() {
            0 => pieces.push(Piece {
                width: config().partitions.range(p).1,
                value: 0.0,
            }),
            1 => pieces.extend(layers.into_iter().flatten()),
            _ => {
                if let Some(summed) = out.replay("sum_pieces", sum_pieces(&layers)) {
                    pieces.extend(summed);
                }
            }
        }
    }
    out.layer("histogram.merge_pieces", pieces.len() as f64);
    let id = tracer.begin("histogram.merge_dp", None, 0);
    let (h, us) = time_us(|| optimal_piecewise_histogram(&pieces, MERGE_B));
    tracer.end(id);
    out.layer("histogram.merge_dp_ms", us / 1e3);
    let same = match (h.and_then(|h| h.to_binary()), merged.to_binary()) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    out.check(
        "replayed merge DP reproduces merge_global bit for bit",
        same,
    );
}
