//! The four workloads.  Each sets itself up several times (reporting the
//! median set-up time), runs its timed loop for the requested seconds,
//! checks its answers and fills an [`Outcome`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats::Sample;
use crate::trace::Tracer;

pub mod build;
pub mod compact_merge;
pub mod ingest;
pub mod serve;

/// What a run was asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// This run's private temporary directory (created empty, removed after).
    pub dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty subdirectory of the run's temporary directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d)
            .expect("creating a temporary directory inside the working directory");
        d
    }
}

/// Everything a workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// Set-up durations, s, each marked on its own.
    pub setups: Sample,
    /// Latency of each primary operation, µs.
    pub ops: Sample,
    /// The same latencies split by operation kind, where the kinds differ
    /// in cost by design (empty otherwise); see [`Outcome::op_p50`].
    pub kinds: Vec<Sample>,
    /// The percentile `op_tail_us` reports: the workload's structural
    /// tail, chosen so that it is not host noise.
    pub tail_p: f64,
    /// Work items completed by the primary operations (tuples for ingest,
    /// queries or builds otherwise).
    pub work: f64,
    /// Durations of the workload's bulk operation, ms, each marked on its
    /// own (see [`Sample::mark`]); `bulk_ms` is their trimmed mean.
    pub bulk: Sample,
    /// The workload's accuracy figure, %.
    pub err_pct: f64,
    /// Peak live heap during the timed window, bytes.
    pub peak_bytes: u64,
    /// The user-level metrics this workload stands for, with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (errors, refusals, failed checks).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Correctness checks by name.
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    /// An empty outcome whose `op_tail_us` is the `tail_p` percentile.
    pub fn new(tail_p: f64) -> Self {
        Outcome {
            setups: Sample::new(1),
            ops: Sample::default(),
            kinds: Vec::new(),
            tail_p,
            work: 0.0,
            bulk: Sample::new(1),
            err_pct: 0.0,
            peak_bytes: 0,
            named: Vec::new(),
            layers: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
        }
    }

    /// Records a check; a failed one counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Counts an operation whose result is `r`; returns the value if any.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }

    /// [`Outcome::op`] for a traced run's replay of a layer call: only a
    /// failure is counted, so replays do not inflate `attempted`.
    pub fn replay<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| {
            self.attempted += 1;
            self.failed += 1;
            eprintln!("replayed operation failed: {what}: {e}");
        })
        .ok()
    }

    /// Adds a user-level metric line.
    pub fn name(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// The operations' p50, µs: over windows ([`Sample::windowed`]), and
    /// where the operations come in kinds, the geometric mean of the
    /// kinds' p50s — the median of a mix of kinds lands between them and
    /// jumps, and a plain mean would follow the costliest kind alone.
    pub fn op_p50(&self) -> f64 {
        self.over_kinds(|s| s.windowed(50.0))
    }

    /// `(percentile, value)` of the operations' tail at `tail_p` (see
    /// [`Sample::tail`]), the geometric mean over the kinds where there are
    /// kinds.
    pub fn op_tail(&self) -> (f64, f64) {
        let p = (self.kinds.iter().chain([&self.ops]))
            .map(|s| s.tail(self.tail_p).0)
            .fold(self.tail_p, f64::min);
        (p, self.over_kinds(|s| s.tail(p).1))
    }

    fn over_kinds(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        if self.kinds.is_empty() {
            f(&self.ops)
        } else {
            let logs: f64 = self.kinds.iter().map(|s| f(s).max(1e-12).ln()).sum();
            (logs / self.kinds.len() as f64).exp()
        }
    }

    /// Median set-up time over the calm set-ups, s.
    pub fn setup_s(&self) -> f64 {
        self.setups.p50()
    }

    /// Primary work items per second of operation time, the median over
    /// the windows of [`Sample::rate`].
    pub fn throughput(&self) -> f64 {
        let per_op = self.work / self.ops.len().max(1) as f64;
        self.ops.rate() * 1e6 * per_op
    }
}

/// Opens the timed window: the peak live heap restarts from here.
pub fn window_start() -> Instant {
    crate::alloc::reset_peak();
    Instant::now()
}

/// Times `f` in µs.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// CPU time the calling thread has used, µs.  On a guest kernel with
/// paravirtual steal accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) it
/// leaves out the time the hypervisor gave to other guests, which wall
/// time does not.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_us() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 * 1e6 + t.nsec as f64 / 1e3
}

/// Wall time since the first call, µs, where thread CPU time is not
/// available.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_us() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Sets the workload up `times` times, dropping all but the last instance,
/// and records each set-up's wall time (`setup_s` is their median over the
/// calm ones, see [`Sample`]).
/// Cheap set-ups repeat more often, so their median is as steady as a
/// costly one's.
pub fn set_up<T>(out: &mut Outcome, times: usize, f: impl FnMut(usize) -> T) -> T {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let wall_s = || EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64();
    set_up_timed(out, times, wall_s, f)
}

/// [`set_up`] timed by `now`, a clock in seconds.
pub fn set_up_timed<T>(
    out: &mut Outcome,
    times: usize,
    now: impl Fn() -> f64,
    mut f: impl FnMut(usize) -> T,
) -> T {
    let mut last = None;
    for k in 0..times {
        drop(last.take());
        out.setups.mark();
        let t = now();
        let v = f(k);
        out.setups.push(now() - t);
        out.setups.mark();
        last = Some(v);
    }
    last.expect("at least one set-up")
}

/// Total size of the regular files directly inside `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Records the traced share of an end-to-end time that no measured layer
/// accounts for.  It is negative when the layers' replays cost more than
/// the call they were replayed from.
pub fn trace_summary(out: &mut Outcome, tracer: &Tracer, total_us: f64, attributed_us: f64) {
    let unattributed = total_us - attributed_us;
    out.layer(
        "trace.unattributed_pct",
        100.0 * unattributed / total_us.max(1e-12),
    );
    out.layer("trace.spans", tracer.spans().len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn set_up_times_every_instance_by_the_given_clock_and_keeps_the_last() {
        let mut out = Outcome::new(99.0);
        let clock = Cell::new(0.0);
        let tick = || {
            clock.set(clock.get() + 0.5);
            clock.get()
        };
        let last = set_up_timed(&mut out, 3, tick, |k| k * 10);
        assert_eq!(last, 20);
        assert_eq!(out.setups.len(), 3);
        assert_eq!(out.setup_s(), 0.5);
    }

    #[test]
    fn operation_kinds_combine_by_geometric_mean() {
        let mut out = Outcome::new(90.0);
        out.ops = Sample::from(vec![5.0; 2000]);
        assert_eq!(out.op_p50(), 5.0, "without kinds, the operations' own p50");
        out.kinds = vec![
            Sample::from(vec![1.0; 1000]),
            Sample::from(vec![100.0; 1000]),
        ];
        assert!((out.op_p50() - 10.0).abs() < 1e-9);
        assert_eq!(out.op_tail().0, 90.0);
        assert!((out.op_tail().1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn thread_cpu_time_moves_forward_with_work() {
        let t0 = thread_cpu_us();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_us() > t0, "{x}");
    }
}
