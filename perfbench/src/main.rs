//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|serve|compact_merge|build> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, prints every metric by name with
//! its unit and the run's provenance, then as the last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when an answer is wrong.  See `perfbench/README.md`.

mod alloc;
mod data;
mod scrape;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use alloc::CountingAlloc;
use stats::{cpu_ticks, result_line, Metric};
use trace::Tracer;
use workloads::{Ctx, Outcome};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["ingest", "serve", "compact_merge", "build"];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("bulk_ms", "ms"),
    ("err_pct", "%"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: name and unit.  A layer a workload leaves idle
/// reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("server.parse_ns", "ns"),
    ("server.exec_us.est", "us"),
    ("server.exec_us.range", "us"),
    ("server.exec_us.ingest", "us"),
    ("server.wire_us", "us"),
    ("server.bytes_per_query", "B"),
    ("store.snapshot_view_us", "us"),
    ("store.snapshot_view_bytes", "B"),
    ("store.view_query_us", "us"),
    ("store.direct_query_us", "us"),
    ("store.segments_visited_per_query", "count"),
    ("store.prune_ratio", "ratio"),
    ("store.block_loads", "count"),
    ("store.block_load_us", "us"),
    ("store.merge_cache_hit_ratio", "ratio"),
    ("memtable.insert_ns", "ns"),
    ("wal.frame_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.commit_us", "us"),
    ("wal.commit_scraped_us", "us"),
    ("wal.bytes_per_tuple", "B/tuple"),
    ("wal.replay_ms", "ms"),
    ("seal.relation_ms", "ms"),
    ("seal.oracle_ms", "ms"),
    ("seal.dp_ms", "ms"),
    ("seal.build_ms", "ms"),
    ("seal.count", "count"),
    ("blob.encode_us", "us"),
    ("blob.bytes_per_segment", "B"),
    ("blob.decode_meta_us", "us"),
    ("blob.decode_synopsis_us", "us"),
    ("manifest.commit_ms", "ms"),
    ("compaction.rounds", "count"),
    ("compaction.bytes", "B"),
    ("compaction.round_ms", "ms"),
    ("histogram.merge_dp_ms", "ms"),
    ("histogram.merge_pieces", "count"),
    ("histogram.oracle_ms.sse", "ms"),
    ("histogram.oracle_ms.ssre", "ms"),
    ("histogram.oracle_ms.sae", "ms"),
    ("histogram.oracle_ms.mae", "ms"),
    ("histogram.dp_ms.sse", "ms"),
    ("histogram.dp_ms.ssre", "ms"),
    ("histogram.dp_ms.sae", "ms"),
    ("histogram.dp_ms.mae", "ms"),
    ("histogram.bucket_evals", "count"),
    ("wavelet.build_ms", "ms"),
    ("core.alloc_bytes_per_tuple", "B/tuple"),
    ("core.allocs_per_tuple", "count"),
    ("core.alloc_bytes_per_query", "B"),
    ("core.pool_threads", "count"),
    ("core.peak_heap_mb", "MB"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The run's provenance as one line of `key=value` pairs, so a result can
/// be traced to the code and the box that produced it.
fn provenance(args: &Args, out: &Outcome, steal: &str) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (tail_p, _) = out.op_tail();
    let (op_calm, bulk_calm) = (out.ops.calm_count(), out.bulk.calm_count());
    let setup_calm = out.setups.calm_count();
    format!(
        "provenance: commit={commit} nproc={nproc} pool_threads={} PDS_THREADS={} rustc=\"{rustc}\" \
         workload={} seed={} seconds={} trace={} op_samples={} op_tail_percentile=p{tail_p} \
         op_spread={:.4} op_calm_windows={}/{} bulk_samples={} bulk_spread={:.4} \
         bulk_calm_windows={}/{} setups={} setup_calm={}/{} host_steal_pct={steal}",
        pds_core::pool::num_threads(),
        std::env::var("PDS_THREADS").unwrap_or_else(|_| "unset".into()),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.ops.len(),
        out.ops.spread(),
        op_calm.0,
        op_calm.1,
        out.bulk.len(),
        out.bulk.spread(),
        bulk_calm.0,
        bulk_calm.1,
        out.setups.len(),
        setup_calm.0,
        setup_calm.1,
    )
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let p50 = out.op_p50();
    let (_, tail) = out.op_tail();
    let values = [
        out.setup_s(),
        out.throughput(),
        p50,
        tail,
        out.bulk.trimmed(),
        out.err_pct,
        out.peak_bytes as f64 / (1u64 << 20) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            unit,
            value,
        })
        .collect()
}

fn per_layer(out: &Outcome) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.into(),
            unit,
            value: if name == "core.peak_heap_mb" {
                alloc::process_peak_bytes() as f64 / (1u64 << 20) as f64
            } else {
                out.layers.get(name).copied().unwrap_or(0.0)
            },
        })
        .collect()
}

/// Removes temporary directories (`<workload>-<seed>-<pid>`) left behind by
/// runs that were killed: those whose process no longer exists.
fn remove_stale_runs(root: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = name.rsplit('-').next().and_then(|p| p.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !std::path::Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Temporary files live inside the working directory, in a directory
    // private to this process.
    let root = PathBuf::from(".bench_tmp");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        dir: root.join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    remove_stale_runs(&root);
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.dir.display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(args.trace, 1 << 20);
    let ticks_before = cpu_ticks();
    let out = match args.workload.as_str() {
        "ingest" => workloads::ingest::run(&ctx, &mut tracer),
        "serve" => workloads::serve::run(&ctx, &mut tracer),
        "compact_merge" => workloads::compact_merge::run(&ctx, &mut tracer),
        _ => workloads::build::run(&ctx, &mut tracer),
    };
    // The share of the box's CPU time the hypervisor gave to others while
    // this run was trying to use it: high steal explains a slow run.
    let steal = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.2}", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_string(),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let _ = std::fs::remove_dir(&root);

    if args.trace {
        let dump_dir = PathBuf::from(".bench_out");
        let path = dump_dir.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dump_dir).and_then(|_| tracer.dump(&path));
        match written {
            Ok(()) => println!(
                "spans: {} written to {} ({} dropped: buffer full)",
                tracer.spans().len(),
                path.display(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        for (name, t) in tracer.totals() {
            println!(
                "span {name}: count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for (name, value, unit) in &out.named {
        println!("{}: {name} = {value} {unit}", args.workload);
    }
    let metrics = if args.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    for m in &metrics {
        println!("{}: {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    println!("{}", provenance(&args, &out, &steal));
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    match result_line(correct, out.attempted.max(1), out.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload build --trace 2")).is_err());
        assert!(parse_args(&argv("--workload build --seconds")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn metric_tables_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(stats::valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|m| stats::valid_unit(m.1)));
        assert!(WORKLOADS.iter().all(|w| stats::valid_name(w)));
    }

    #[test]
    fn every_run_reports_every_listed_metric() {
        let out = Outcome::new(99.0);
        let e2e: Vec<String> = end_to_end(&out).into_iter().map(|m| m.name).collect();
        let layer: Vec<String> = per_layer(&out).into_iter().map(|m| m.name).collect();
        assert_eq!(e2e, END_TO_END.map(|m| m.0.to_string()));
        assert_eq!(layer, PER_LAYER.map(|m| m.0.to_string()));
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(manifest) else {
            return; // a copy of the package without the manifest next to it
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
