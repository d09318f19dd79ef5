//! `build`: the paper's own kernels, called directly.
//!
//! Each cycle builds the optimal histogram of a TPC-H-shaped tuple-pdf
//! relation under SSE, SSRE, SAE and MAE (the metric's oracle plus the
//! exact DP — exactly what `build_histogram` runs; cycles rotate over 16
//! seeded relations, whose results the figures average) and the SSE-optimal
//! wavelet of a relation over a 2^15 domain (`build_sse_wavelet`).  Each
//! of the five builds is one operation, and each is its own kind: the
//! operation figures are the geometric mean of the five builds' figures.
//! The bulk operation is the whole cycle.  The domain is small enough
//! that the slowest metric (MAE) keeps a cycle under 0.1 s, so a run holds
//! over a thousand builds.  The store and the server do no work here.
//!
//! The relations are made once, before set-up.  Set-up builds the
//! reference oracles (every metric's on every relation) that the checks
//! and the error percentages score the timed builds with.  The kernels
//! run at pool width 1, and every timing, set-up included, is the
//! thread's CPU time: on a small virtual machine whose host lends its
//! CPUs to other guests, wall time moves with their load, CPU time does
//! not.

use pds_core::generator::{tpch_like, TpchLikeConfig};
use pds_core::{ErrorMetric, ProbabilisticRelation};
use pds_histogram::{
    error_percentage, expected_cost, oracle_for_metric, BucketCostOracle, DpTables, Histogram,
};
use pds_wavelet::build_sse_wavelet;

use super::{set_up_timed, thread_cpu_us, trace_summary, Ctx, Outcome};
use crate::stats::Sample;
use crate::trace::{Overhead, Tracer};

const SETUPS: usize = 9;
const N: usize = 192;
/// Relations per run: a cycle builds on one of them in turn, so a run's
/// figures average over many relations rather than hinge on one.
const RELATIONS: usize = 16;
const B: usize = 16;
const WAVELET_N: usize = 1 << 15;
const WAVELET_B: usize = 500;

const METRICS: [(&str, ErrorMetric); 4] = [
    ("sse", ErrorMetric::Sse),
    ("ssre", ErrorMetric::Ssre { c: 0.5 }),
    ("sae", ErrorMetric::Sae),
    ("mae", ErrorMetric::Mae),
];

fn relation(n: usize, tuples: usize, seed: u64) -> ProbabilisticRelation {
    tpch_like(TpchLikeConfig {
        n,
        tuples,
        max_alternatives: 4,
        locality_window: 8,
        skew: 0.8,
        seed,
    })
    .into()
}

/// The DP's objective for `h`.  Every metric but SSE is checked against
/// the independent `expected_cost`; the SSE DP optimises the paper's
/// equation-(5) objective with the tuple-pdf prefix-array approximation,
/// so its buckets are re-scored with that same oracle.
fn objective(
    rel: &ProbabilisticRelation,
    metric: ErrorMetric,
    oracle: &dyn BucketCostOracle,
    h: &Histogram,
) -> f64 {
    match metric {
        ErrorMetric::Sse => h
            .buckets()
            .iter()
            .map(|b| oracle.bucket(b.start, b.end).cost)
            .sum(),
        m => expected_cost(rel, m, h),
    }
}

/// The error percentage of Figures 2 and 4: the cost between the finest
/// (one bucket per item) and the coarsest (one bucket) histograms.
fn error_pct(oracle: &dyn BucketCostOracle, cost: f64) -> f64 {
    let n = oracle.n();
    let singles = (0..n).map(|i| oracle.bucket(i, i).cost);
    let best = if oracle.is_cumulative() {
        singles.sum()
    } else {
        singles.fold(0.0, f64::max)
    };
    error_percentage(cost, best, oracle.bucket(0, n - 1).cost)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    // p90: a run holds a few hundred builds of each kind, and p99 would
    // need 1 000.
    let mut out = Outcome::new(90.0);
    // Windows of 100 builds: each kind spans several windows, and a
    // window's p90 still has ten builds beyond it.
    out.kinds = vec![Sample::new(100); METRICS.len() + 1];
    pds_core::pool::set_num_threads(Some(1));
    let (rels, wrel) = crate::alloc::own(|| {
        let rels: Vec<ProbabilisticRelation> = (0..RELATIONS as u64)
            .map(|k| relation(N, 4 * N, ctx.seed.wrapping_mul(31).wrapping_add(k)))
            .collect();
        (rels, relation(WAVELET_N, 2 * WAVELET_N, ctx.seed ^ 0x3A7E))
    });
    let refs: Vec<Vec<Box<dyn BucketCostOracle>>> = crate::alloc::own(|| {
        set_up_timed(
            &mut out,
            SETUPS,
            || thread_cpu_us() / 1e6,
            |_| {
                rels.iter()
                    .map(|r| {
                        METRICS
                            .iter()
                            .map(|&(_, m)| oracle_for_metric(r, m))
                            .collect()
                    })
                    .collect()
            },
        )
    });

    let mut oracle_ms = [0.0; 4];
    let mut dp_ms = [0.0; 4];
    let mut evals = 0u64;
    let mut errs: [Vec<f64>; 4] = Default::default();
    let mut cost_mismatch = 0u64;
    let mut overhead = Overhead::new(tracer.enabled());
    let start = super::window_start();
    let mut cycle = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds || cycle == 0 {
        let t_cycle = thread_cpu_us();
        let rel_index = cycle as usize % RELATIONS;
        let rel = &rels[rel_index];
        for (k, &(name, metric)) in METRICS.iter().enumerate() {
            let traced_op = tracer.enabled() && cycle.is_multiple_of(2);
            let root = if traced_op {
                tracer.begin("build_histogram", None, cycle)
            } else {
                None
            };
            // `build_histogram` is exactly these two calls; making them
            // separately lets the spans split oracle from DP.
            let t = thread_cpu_us();
            let oracle = tracer.span("histogram.oracle", root, cycle, || {
                oracle_for_metric(rel, metric)
            });
            let t_dp = thread_cpu_us();
            let built = tracer.span("histogram.dp", root, cycle, || {
                DpTables::build(&oracle, B).and_then(|tables| {
                    let h = tables.extract(B, &oracle)?;
                    Ok((h, tables.optimal_cost(B), tables.bucket_evaluations()))
                })
            });
            let t_end = thread_cpu_us();
            tracer.end(root);
            let Some((h, dp_cost, evaluations)) = out.op(name, built) else {
                continue;
            };
            let us = t_end - t;
            out.ops.push(us);
            out.kinds[k].push(us);
            oracle_ms[k] += (t_dp - t) / 1e3;
            dp_ms[k] += (t_end - t_dp) / 1e3;
            evals += evaluations as u64;
            overhead.push(traced_op, us);
            if cycle < RELATIONS as u64 {
                let oracle = &refs[rel_index][k];
                let actual = objective(rel, metric, oracle.as_ref(), &h);
                let ok = (actual - dp_cost).abs() <= 1e-9 * dp_cost.abs().max(1.0)
                    && h.num_buckets() <= B;
                cost_mismatch += u64::from(!ok);
                errs[k].push(error_pct(oracle.as_ref(), dp_cost));
            }
        }
        let id = tracer.begin("wavelet.build", None, cycle);
        let t = thread_cpu_us();
        let w = build_sse_wavelet(&wrel, WAVELET_B);
        let us = thread_cpu_us() - t;
        tracer.end(id);
        if let Some(w) = out.op("build_sse_wavelet", w) {
            out.ops.push(us);
            out.kinds[METRICS.len()].push(us);
            if cycle == 0 {
                out.check(
                    format!("wavelet keeps at most {WAVELET_B} coefficients"),
                    w.retained().len() <= WAVELET_B,
                );
            }
        }
        out.bulk.push((thread_cpu_us() - t_cycle) / 1e3);
        cycle += 1;
    }
    out.peak_bytes = crate::alloc::peak_live_bytes();
    out.work = out.ops.len() as f64;
    out.name("window_wall_s", start.elapsed().as_secs_f64(), "s");
    out.check(
        "every DP cost equals the objective of its returned histogram (<= B buckets)",
        cost_mismatch == 0,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.err_pct = mean(&errs.concat());

    let (tail_p, tail_v) = out.op_tail();
    out.name("build_s", out.bulk.trimmed() / 1e3, "s");
    out.name("build_p50_ms", out.op_p50() / 1e3, "ms");
    out.name(&format!("build_p{tail_p}_ms"), tail_v / 1e3, "ms");
    let wavelet = &out.kinds[METRICS.len()];
    let (wavelet_ms, wavelet_mean_ms) = (wavelet.windowed(50.0) / 1e3, wavelet.mean() / 1e3);
    out.name("wavelet_ms", wavelet_ms, "ms");
    out.name("synopsis_err_pct", out.err_pct, "%");
    for (&(name, _), e) in METRICS.iter().zip(&errs) {
        out.name(&format!("synopsis_err_pct.{name}"), mean(e), "%");
    }

    if tracer.enabled() {
        let c = cycle as f64;
        let names = [
            ("histogram.oracle_ms.sse", "histogram.dp_ms.sse"),
            ("histogram.oracle_ms.ssre", "histogram.dp_ms.ssre"),
            ("histogram.oracle_ms.sae", "histogram.dp_ms.sae"),
            ("histogram.oracle_ms.mae", "histogram.dp_ms.mae"),
        ];
        for (k, (o, d)) in names.into_iter().enumerate() {
            out.layer(o, oracle_ms[k] / c);
            out.layer(d, dp_ms[k] / c);
        }
        out.layer("histogram.bucket_evals", evals as f64 / c);
        out.layer("wavelet.build_ms", wavelet_mean_ms);
        out.layer("core.pool_threads", pds_core::pool::num_threads() as f64);
        if let Some(pct) = overhead.pct() {
            out.layer("trace.overhead_pct", pct);
        }
        let t = tracer.totals();
        let root = t.get("build_histogram").copied().unwrap_or_default();
        trace_summary(
            &mut out,
            tracer,
            root.total_ns as f64 / 1e3,
            (root.total_ns - root.self_ns) as f64 / 1e3,
        );
    }
    out
}
