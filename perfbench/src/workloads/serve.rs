//! `serve`: the wire read path under concurrent writes.
//!
//! An in-memory store (16 partitions over n = 8192, SSE histograms) is
//! preloaded with sealed segments plus a large unsealed tail; the seal
//! threshold is out of reach, so nothing seals while timing.  `pds-server`
//! serves it on loopback with a pool width of 2.  One closed-loop
//! connection sends a mix of `EST`, narrow `RANGE` and wide `RANGE` over
//! Zipf-skewed items; one open-loop connection sends `INGEST` batches at a
//! fixed record rate, each timed from its due time.  Each connection holds
//! a pool worker for its lifetime, so scrapes reuse the query connection.
//!
//! The bulk operation is a cold `MERGE` over the wire, sent in a burst
//! after each sixth of the timed window.  After the window the ingest
//! stops and the benchmark checks the wire answers bitwise against direct
//! store calls, the out-of-domain `OK 0` contract and the estimates
//! against its own exact sums.
//!
//! The records, query lines and `INGEST` batches are made once, before
//! set-up, and held as the benchmark's own bytes; set-up times the
//! program: the preload, its seals and the server start.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pds_core::io::write_stream;
use pds_core::pool;
use pds_core::stream::StreamRecord;
use pds_core::ErrorMetric;
use pds_histogram::Histogram;
use pds_server::proto::parse_command_bytes;
use pds_server::{Server, ServerConfig};
use pds_store::{PartitionSpec, StoreConfig, SynopsisKind, SynopsisStore};

use super::{set_up, time_us, trace_summary, Ctx, Outcome};
use crate::alloc::AllocSnapshot;
use crate::data::{ingest_stream, mean_rel_err_pct, range_grid, Exact, Rng, Zipf};
use crate::scrape::Scrape;
use crate::stats::{median, Sample};
use crate::trace::{Overhead, Tracer};

const SETUPS: usize = 5;
const N: usize = 8192;
const PARTS: usize = 16;
const BUDGET: usize = 48;
const SEALED_ROUNDS: usize = 2;
const ROUND: usize = 40_000;
const UNSEALED: usize = 10_000;
const QUERIES: usize = 50_000;
const INGEST_BATCH: usize = 10;
const INGEST_PERIOD: Duration = Duration::from_millis(100);
const MAX_INGEST_BATCHES: usize = 2_000;
/// The timed window is split into phases, each followed by a MERGE burst.
const PHASES: usize = 6;
const MERGES_PER_PHASE: usize = 8;
const MERGE_B: usize = 32;
const POOL_WIDTH: usize = 2;

/// A line-protocol client over one connection, counting its bytes.
///
/// A spinning client polls its non-blocking socket (yielding between
/// polls) instead of sleeping in `read`, so its CPU never idles between a
/// request and its reply: on a small virtual machine, waking an idle
/// virtual CPU costs more, and varies more, than the request itself.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    line: String,
    bytes: u64,
    spin: bool,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, spin: bool) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nonblocking(spin)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            line: String::new(),
            bytes: 0,
            spin,
        })
    }

    /// Switches between spinning and blocking reads.
    fn set_spin(&mut self, spin: bool) -> std::io::Result<()> {
        self.spin = spin;
        self.stream.set_nonblocking(spin)
    }

    /// Reads until at least `n` bytes are buffered.
    fn fill(&mut self, n: usize) -> std::io::Result<()> {
        let mut chunk = [0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.buf.len() < n {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e) if self.spin && e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    // Yield rather than spin: a runnable server thread on
                    // this CPU (the ingest connection's) runs at once.
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends `request` and returns the reply line without its newline.
    fn call(&mut self, request: &[u8]) -> std::io::Result<&str> {
        self.stream.write_all(request)?;
        let end = loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                break i;
            }
            let want = self.buf.len() + 1;
            self.fill(want)?;
        };
        let rest = self.buf.split_off(end + 1);
        let line = std::mem::replace(&mut self.buf, rest);
        self.bytes += (request.len() + line.len()) as u64;
        self.line = String::from_utf8_lossy(&line).into_owned();
        Ok(self.line.trim_end())
    }

    /// Sends `request`, expects `OK BIN <len>` and returns the body.
    fn call_bin(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        let head = self.call(request)?.to_string();
        let len: usize = head
            .strip_prefix("OK BIN ")
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("unexpected reply {head:?}")))?;
        self.fill(len)?;
        let rest = self.buf.split_off(len);
        self.bytes += len as u64;
        Ok(std::mem::replace(&mut self.buf, rest))
    }

    fn scrape(&mut self) -> std::io::Result<Scrape> {
        let body = self.call_bin(b"METRICS\n")?;
        Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
    }
}

/// One query of the mix.
#[derive(Clone, Copy)]
enum Query {
    Est(usize),
    Range(usize, usize),
}

impl Query {
    fn line(self) -> String {
        match self {
            Query::Est(i) => format!("EST {i}\n"),
            Query::Range(lo, hi) => format!("RANGE {lo} {hi}\n"),
        }
    }

    fn direct(self, store: &SynopsisStore) -> f64 {
        match self {
            Query::Est(i) => store.estimate(i),
            Query::Range(lo, hi) => store.range_estimate(lo, hi),
        }
    }
}

/// 50% `EST`, 35% narrow `RANGE` (≤ 16 items), 15% wide `RANGE` (n/4),
/// all anchored at Zipf-skewed items.
fn query_mix(seed: u64) -> Vec<Query> {
    let zipf = Zipf::new(N, 1.0);
    let mut rng = Rng::new(seed, 7);
    (0..QUERIES)
        .map(|_| {
            let item = zipf.sample(&mut rng);
            match rng.below(100) {
                0..=49 => Query::Est(item),
                50..=84 => Query::Range(item, (item + rng.below(16)).min(N - 1)),
                _ => Query::Range(item, (item + N / 4).min(N - 1)),
            }
        })
        .collect()
}

fn parse_ok_f64(reply: &str) -> Option<f64> {
    reply.strip_prefix("OK ")?.parse().ok()
}

struct Running {
    store: Arc<SynopsisStore>,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    handle: pds_server::ServerHandle,
}

impl Running {
    fn stop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.server.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop();
    }
}

fn start(records: &[StreamRecord]) -> Running {
    let mut config = StoreConfig::new(
        PartitionSpec::uniform(N, PARTS).expect("valid partition layout"),
        usize::MAX,
        BUDGET,
        SynopsisKind::Histogram(ErrorMetric::Sse),
    );
    config.compaction = None;
    let store = SynopsisStore::new(config).expect("valid store config");
    let mut chunks = records.chunks(ROUND);
    for _ in 0..SEALED_ROUNDS {
        let chunk = chunks.next().expect("sized above");
        store
            .ingest_batch(chunk.iter().cloned())
            .expect("preload ingest");
        store.seal_all().expect("preload seal");
    }
    for chunk in chunks {
        store
            .ingest_batch(chunk.iter().cloned())
            .expect("preload ingest");
    }
    let store = Arc::new(store);
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("binding a loopback port");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    Running {
        store,
        server: Some(thread),
        handle,
    }
}

/// The open-loop ingest connection: sends batch `i` at `start + i·period`
/// and times each reply from that due time.  Records per-batch latency
/// (ms) and how late each send started (ms) into `lat` and `late`, sized
/// for every batch beforehand; returns the batches acknowledged and
/// refused.
fn ingest_loop(
    mut client: Client,
    batches: &[Vec<u8>],
    stop: &AtomicBool,
    (lat, late): (&mut Vec<f64>, &mut Vec<f64>),
) -> (usize, u64) {
    let ok = format!("OK {INGEST_BATCH}");
    let mut refused = 0u64;
    let t0 = Instant::now();
    let mut acked = 0;
    for (i, batch) in batches.iter().enumerate() {
        let due = t0 + INGEST_PERIOD * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        match client.call(batch) {
            Ok(r) if r == ok => acked += 1,
            _ => {
                refused += 1;
                break;
            }
        }
        lat.push(due.elapsed().as_secs_f64() * 1e3);
    }
    let _ = client.call(b"QUIT\n");
    (acked, refused)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    pool::set_num_threads(Some(POOL_WIDTH));
    // p90: a wire round trip has no structural tail, and its p99 is
    // host noise on a small virtual machine.
    let mut out = Outcome::new(90.0);
    let (queries, lines, preload, ingest_records, ingest_batches) = crate::alloc::own(|| {
        let queries = query_mix(ctx.seed);
        let lines: Vec<String> = queries.iter().map(|q| q.line()).collect();
        let preload = ingest_stream(N, SEALED_ROUNDS * ROUND + UNSEALED, ctx.seed);
        let ingest_records = ingest_stream(N, MAX_INGEST_BATCHES * INGEST_BATCH, ctx.seed ^ 0xA11);
        let ingest_batches: Vec<Vec<u8>> = ingest_records
            .chunks(INGEST_BATCH)
            .map(|c| {
                let mut b = format!("INGEST {}\n", c.len()).into_bytes();
                write_stream(c.iter(), &mut b).expect("writing to memory");
                b
            })
            .collect();
        (queries, lines, preload, ingest_records, ingest_batches)
    });
    let (mut ingest_lat, mut ingest_late) = crate::alloc::own(|| {
        let samples = || Vec::with_capacity(ingest_batches.len());
        (samples(), samples())
    });

    let mut run = set_up(&mut out, SETUPS, |_| start(&preload));
    let addr = run.handle.addr();
    let (Some(mut q), Some(ing)) = (
        out.op("connect", Client::connect(addr, true)),
        out.op("connect", Client::connect(addr, false)),
    ) else {
        return out;
    };
    let before = if tracer.enabled() {
        out.op("METRICS", q.scrape())
    } else {
        None
    };

    let stop = AtomicBool::new(false);
    let mut overhead = Overhead::new(tracer.enabled());
    let mut merges_ok = true;
    let mut query_bytes = 0u64;
    let (ingest_acked, refused) = std::thread::scope(|s| {
        let start = super::window_start();
        let samples = (&mut ingest_lat, &mut ingest_late);
        let ingester = s.spawn(|| ingest_loop(ing, &ingest_batches, &stop, samples));
        let mut i = 0usize;
        'phases: for phase in 1..=PHASES {
            while start.elapsed().as_secs_f64() < ctx.seconds * phase as f64 / PHASES as f64 {
                let line = lines[i % lines.len()].as_bytes();
                let traced_op = tracer.enabled() && i.is_multiple_of(2);
                let id = if traced_op {
                    tracer.begin("client.query", None, i as u64)
                } else {
                    None
                };
                let b0 = q.bytes;
                let (reply, us) = time_us(|| q.call(line).map(|r| parse_ok_f64(r).is_some()));
                tracer.end(id);
                query_bytes += q.bytes - b0;
                match reply {
                    Ok(true) => {
                        out.attempted += 1;
                        out.ops.push(us);
                        overhead.push(traced_op, us);
                    }
                    other => {
                        out.op::<(), String>("wire query", Err(format!("{other:?}")));
                        break 'phases;
                    }
                }
                i += 1;
            }
            // The bulk operation, a burst after each phase so the samples
            // span the run: cold MERGEs (budgets alternate over the whole
            // run, so each evicts the single-entry merge cache).  The merge DP runs on the pool's
            // threads, so the client blocks instead of spinning on a core
            // the DP needs.
            out.op("blocking reads", q.set_spin(false));
            for j in 0..MERGES_PER_PHASE {
                let b = MERGE_B + (phase * MERGES_PER_PHASE + j) % 2;
                out.bulk.mark();
                let (body, us) = time_us(|| q.call_bin(format!("MERGE {b}\n").as_bytes()));
                if let Some(body) = out.op("MERGE", body) {
                    out.bulk.push(us / 1e3);
                    out.bulk.mark();
                    merges_ok &= Histogram::from_binary(&body).is_ok_and(|h| h.num_buckets() <= b);
                }
            }
            out.op("spinning reads", q.set_spin(true));
        }
        stop.store(true, Ordering::SeqCst);
        ingester.join().expect("the ingest client does not panic")
    });
    out.check("every MERGE b decodes with at most b buckets", merges_ok);
    out.peak_bytes = crate::alloc::peak_live_bytes();
    out.work = out.ops.len() as f64;
    out.attempted += (ingest_acked as u64) + refused;
    out.failed += refused;
    let mut exact = Exact::new(N);
    for r in preload
        .iter()
        .chain(&ingest_records[..ingest_acked * INGEST_BATCH])
    {
        exact.add(r);
    }
    let after = if tracer.enabled() {
        out.op("METRICS", q.scrape())
    } else {
        None
    };

    // Quiesced: wire answers against direct calls, bit for bit.  The
    // sweep's allocations, less the client thread's own (its reply
    // buffers and the direct calls), are the server's and the store's.
    let store = Arc::clone(&run.store);
    let mut mismatches = 0;
    let (a0, client0) = (AllocSnapshot::now(), crate::alloc::thread_bytes());
    let sweep = 500;
    for (query, line) in queries.iter().zip(&lines).take(sweep) {
        let wire = q.call(line.as_bytes()).ok().and_then(parse_ok_f64);
        if wire.map(f64::to_bits) != Some(query.direct(&store).to_bits()) {
            mismatches += 1;
        }
    }
    let server_alloc_bytes = a0.since().bytes - (crate::alloc::thread_bytes() - client0);
    out.check(
        "wire answers bitwise-equal to direct calls",
        mismatches == 0,
    );
    let zero = [&b"EST 8192\n"[..], b"RANGE 9000 9100\n", b"RANGE 5 2\n"]
        .iter()
        .all(|l| q.call(l).map(|r| r == "OK 0").unwrap_or(false));
    out.check("out-of-domain reads answer the literal OK 0", zero);
    let grid = range_grid(N);
    let wire_grid: Vec<f64> = grid
        .iter()
        .map(|&(lo, hi)| {
            q.call(Query::Range(lo, hi).line().as_bytes())
                .ok()
                .and_then(parse_ok_f64)
                .unwrap_or(f64::NAN)
        })
        .collect();
    let truth: Vec<f64> = grid.iter().map(|&(lo, hi)| exact.range(lo, hi)).collect();
    out.err_pct = mean_rel_err_pct(&wire_grid, &truth);

    let (p50, tail_p, tail_v) = out.ops.summary();
    out.name("query_p50_us", p50, "us");
    out.name(&format!("query_p{tail_p}_us"), tail_v, "us");
    out.name("query_per_s", out.throughput(), "queries/s");
    out.name("query_p90_us", out.ops.tail(90.0).1, "us");
    let (ip50, itail_p, itail) = Sample::from(ingest_lat).summary();
    out.name("ingest_p50_ms", ip50, "ms");
    out.name(&format!("ingest_p{itail_p}_ms"), itail, "ms");
    out.name(
        "ingest_generator_late_max_ms",
        ingest_late.iter().cloned().fold(0.0, f64::max),
        "ms",
    );
    out.name("ingest_batches_acked", ingest_acked as f64, "count");
    out.name("merge_ms", out.bulk.trimmed(), "ms");
    out.name("est_err_pct", out.err_pct, "%");

    if let (Some(before), Some(after)) = (before, after) {
        let queries_sent = out.ops.len() as f64;
        layers(&mut out, tracer, &store, &queries, &lines, &before, &after);
        out.layer(
            "server.bytes_per_query",
            query_bytes as f64 / queries_sent.max(1.0),
        );
        out.layer(
            "core.alloc_bytes_per_query",
            server_alloc_bytes as f64 / sweep as f64,
        );
        if let Some(pct) = overhead.pct() {
            out.layer("trace.overhead_pct", pct);
        }
    }
    let _ = q.call(b"QUIT\n");
    drop(q);
    run.stop();
    out
}

fn layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    store: &SynopsisStore,
    queries: &[Query],
    lines: &[String],
    before: &Scrape,
    after: &Scrape,
) {
    const REPLAY: usize = 5_000;
    let exec = |verb: &str| {
        after.mean_us(
            before,
            "pds_server_request_seconds",
            &format!("{{verb=\"{verb}\"}}"),
        )
    };
    let count = |verb: &str| {
        after.count_delta(
            before,
            "pds_server_request_seconds",
            &format!("{{verb=\"{verb}\"}}"),
        )
    };
    let (est, range) = (exec("est"), exec("range"));
    out.layer("server.exec_us.est", est);
    out.layer("server.exec_us.range", range);
    out.layer("server.exec_us.ingest", exec("ingest"));
    let (ne, nr) = (count("est"), count("range"));
    let exec_mean = (est * ne + range * nr) / (ne + nr).max(1.0);
    let rtt = out.ops.mean();
    out.layer("server.wire_us", rtt - exec_mean);

    // Replays of the layers one wire query passes through.
    let id = tracer.begin("server.parse", None, 0);
    let t = Instant::now();
    for l in lines.iter().take(REPLAY) {
        let _ = std::hint::black_box(parse_command_bytes(l.trim_end().as_bytes()));
    }
    let parse_ns = t.elapsed().as_secs_f64() * 1e9 / REPLAY as f64;
    tracer.end(id);
    out.layer("server.parse_ns", parse_ns);

    let mut capture = Vec::new();
    let mut bytes = 0;
    for i in 0..20 {
        let a0 = AllocSnapshot::now();
        let id = tracer.begin("store.snapshot_view", None, i);
        let (view, us) = time_us(|| store.snapshot_view());
        tracer.end(id);
        bytes = a0.since().bytes;
        capture.push(us);
        drop(view);
    }
    let capture_us = median(&capture);
    out.layer("store.snapshot_view_us", capture_us);
    out.layer("store.snapshot_view_bytes", bytes as f64);

    let view = store.snapshot_view();
    let id = tracer.begin("store.view_query", None, 0);
    let (_, us) = time_us(|| {
        for q in queries.iter().take(REPLAY) {
            std::hint::black_box(match *q {
                Query::Est(i) => view.estimate(i),
                Query::Range(lo, hi) => view.range_estimate(lo, hi),
            });
        }
    });
    tracer.end(id);
    let view_us = us / REPLAY as f64;
    out.layer("store.view_query_us", view_us);

    let s0 = Scrape::parse(&store.render_metrics());
    let id = tracer.begin("store.direct_query", None, 0);
    let (_, us) = time_us(|| {
        for q in queries.iter().take(REPLAY) {
            std::hint::black_box(q.direct(store));
        }
    });
    tracer.end(id);
    let s1 = Scrape::parse(&store.render_metrics());
    out.layer("store.direct_query_us", us / REPLAY as f64);
    let visited = s1.delta(&s0, "pds_store_segments_visited_total");
    let pruned = s1.delta(&s0, "pds_store_segments_pruned_total");
    out.layer("store.segments_visited_per_query", visited / REPLAY as f64);
    out.layer("store.prune_ratio", pruned / (visited + pruned).max(1.0));
    out.layer("core.pool_threads", pool::num_threads() as f64);

    // A wire query is parse + capture + view query + socket I/O; the
    // remainder after the replayed parts is unattributed.
    let attributed = parse_ns / 1e3 + capture_us + view_us;
    trace_summary(out, tracer, rtt, attributed);
}
