//! Order statistics and the result line: percentiles, the tail-percentile
//! rule, quartiles, samples summarised over their calm windows,
//! metric-name validation and the JSON object printed as the last line of
//! a run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The value at percentile `p` (0 < p ≤ 100, to a tenth) of `sorted`,
/// nearest-rank.  The rank is computed in integers, so p99.9 of 10 000
/// values is exactly the 9 990th.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000)
}

/// The highest of p99.9, p99, p90 and p75 that leaves at least ten
/// samples above its rank (else p50) — the highest percentile a sample of
/// `n` supports.
pub fn tail_percentile(n: usize) -> f64 {
    for p in [99.9, 99.0, 90.0, 75.0] {
        if n >= rank(n, p) + 10 {
            return p;
        }
    }
    50.0
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method).  Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The spread the benchmark's stability rule uses: the distance between
/// the first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The mean of `values` once the lowest and the highest eighth are left
/// out (0 when empty).  Unlike a median it moves in proportion when a
/// share of the values shifts, rather than all at once when that share
/// passes a half; unlike a plain mean one stray value barely moves it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 8;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Host CPU steal share up to which a window always counts as calm.  One
/// clock tick of steal in a 100 ms operation on two CPUs reads as 5%.
const STEAL_FLOOR: f64 = 0.05;
/// The most windows a sample is cut into.
const MAX_WINDOWS: usize = 32;

/// Box-wide CPU time so far, `(steal, total)` in clock ticks, from the
/// first line of `/proc/stat` (`None` where there is no such file).  Reads
/// into a stack buffer, so it allocates nothing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    use std::io::Read;
    let mut buf = [0u8; 512];
    let n = std::fs::File::open("/proc/stat")
        .and_then(|mut f| f.read(&mut buf))
        .ok()?;
    let line = std::str::from_utf8(&buf[..n]).ok()?.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A latency sample: the raw values, cut into consecutive windows, plus
/// marks of the host's CPU steal counters taken as the values arrive.
///
/// Every summary (percentiles, tail, rate) is taken over the calm
/// windows only: those whose steal share is at most the median window's
/// or at most 5%.  A stretch in which the hypervisor gave this guest's CPUs
/// to other guests therefore moves no summary unless it covers most of
/// the run; on a quiet host every window is calm.
///
/// Operation percentiles are each window's percentile, averaged over the
/// calm windows ([`trimmed_mean`]).  On a small virtual machine latency
/// switches between levels for seconds at a time (where the scheduler
/// places the threads, what the host's other guests do); a percentile of
/// the pooled values would jump from one level to the other as their
/// shares cross, the window average moves with the shares.
#[derive(Debug, Clone)]
pub struct Sample {
    values: Vec<f64>,
    /// Observations per window at least.
    min_window: usize,
    /// `(observations so far, steal ticks, total ticks)`.
    marks: Vec<(usize, u64, u64)>,
    last_mark: Option<Instant>,
}

impl Default for Sample {
    fn default() -> Self {
        Sample::new(1000)
    }
}

impl From<Vec<f64>> for Sample {
    fn from(values: Vec<f64>) -> Self {
        Sample {
            values,
            ..Sample::default()
        }
    }
}

/// Pushes onto a buffer that is the benchmark's own: it grows by declared
/// steps, so it never shows in the program's peak heap.
fn push_owned<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        let more = v.capacity().max(256);
        crate::alloc::own_bytes((more * std::mem::size_of::<T>()) as u64);
        v.reserve_exact(more);
    }
    v.push(x);
}

impl Sample {
    /// An empty sample whose windows hold at least `min_window`
    /// observations: 1 000 for operation latencies, whose windows need a
    /// tail; 1 for long bulk operations, each marked on its own.
    pub fn new(min_window: usize) -> Self {
        Sample {
            values: Vec::new(),
            min_window: min_window.max(1),
            marks: Vec::new(),
            last_mark: None,
        }
    }

    /// Adds one observation, and marks the steal counters if the last mark
    /// is 100 ms old.
    pub fn push(&mut self, v: f64) {
        push_owned(&mut self.values, v);
        if self.values.len() % 64 == 1
            && self
                .last_mark
                .is_none_or(|t| t.elapsed() >= Duration::from_millis(100))
        {
            self.mark();
        }
    }

    /// Marks the steal counters now.  Called right before and right after
    /// a long operation, it gives that operation its own steal share.
    pub fn mark(&mut self) {
        if let Some((steal, total)) = cpu_ticks() {
            self.mark_at(steal, total);
        }
    }

    fn mark_at(&mut self, steal: u64, total: u64) {
        push_owned(&mut self.marks, (self.values.len(), steal, total));
        self.last_mark = Some(Instant::now());
    }

    /// Observations so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Mean of all the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The steal share over observations `[a, b)`: from the last mark at
    /// or before `a` to the first at or after `b` (0 without marks).
    fn steal_share(&self, a: usize, b: usize) -> f64 {
        let start = self.marks.iter().rev().find(|m| m.0 <= a);
        let end = self.marks.iter().find(|m| m.0 >= b);
        match (start.or(self.marks.first()), end.or(self.marks.last())) {
            (Some(s), Some(e)) if e.2 > s.2 => (e.1 - s.1) as f64 / (e.2 - s.2) as f64,
            _ => 0.0,
        }
    }

    /// The calm windows (see [`Sample`]) of the consecutive windows of at
    /// least `min_window` observations each (at most 16), and how many
    /// windows there were.
    fn calm_windows(&self) -> (Vec<&[f64]>, usize) {
        let k = (self.values.len() / self.min_window).clamp(1, MAX_WINDOWS);
        let size = self.values.len().div_ceil(k).max(1);
        let windows: Vec<(&[f64], f64)> = self
            .values
            .chunks(size)
            .enumerate()
            .map(|(i, w)| (w, self.steal_share(i * size, i * size + w.len())))
            .collect();
        let shares: Vec<f64> = windows.iter().map(|w| w.1).collect();
        let cut = median(&shares).max(STEAL_FLOOR);
        let calm = windows.iter().filter(|w| w.1 <= cut).map(|w| w.0).collect();
        (calm, windows.len())
    }

    /// `(calm windows, windows)`, for the provenance line.
    pub fn calm_count(&self) -> (usize, usize) {
        let (calm, all) = self.calm_windows();
        (calm.len(), all)
    }

    /// `(percentile used, value)` of the tail at percentile `want`, or at
    /// the highest percentile a window supports if that is lower
    /// ([`tail_percentile`]); the value as [`Sample::windowed`] gives it,
    /// so one burst of host noise moves at most one window's tail; zeros
    /// when empty.
    pub fn tail(&self, want: f64) -> (f64, f64) {
        if self.values.is_empty() {
            return (0.0, 0.0);
        }
        let shortest = self.calm_windows().0.iter().map(|w| w.len()).min();
        let p = tail_percentile(shortest.unwrap_or(0)).min(want);
        (p, self.windowed(p))
    }

    /// Each calm window's percentile `p`, averaged over the windows with
    /// [`trimmed_mean`] (0 when empty).
    pub fn windowed(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .calm_windows()
            .0
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut w = w.to_vec();
                w.sort_by(f64::total_cmp);
                percentile(&w, p)
            })
            .collect();
        trimmed_mean(&per_window)
    }

    /// `(p50, tail percentile, tail value)`, each over windows (see
    /// [`Sample::windowed`]), with the tail at p99 (see [`Sample::tail`]);
    /// zeros when empty.
    pub fn summary(&self) -> (f64, f64, f64) {
        let (p, tail) = self.tail(99.0);
        (self.windowed(50.0), p, tail)
    }

    /// Observations per unit of their summed value (per second for µs
    /// latencies when scaled by 1e6) over the calm windows together.
    pub fn rate(&self) -> f64 {
        let calm = self.calm_windows().0;
        let count: usize = calm.iter().map(|w| w.len()).sum();
        let total: f64 = calm.iter().map(|w| w.iter().sum::<f64>()).sum();
        count as f64 / total.max(1e-12)
    }

    /// The value at percentile `p` of the calm windows' observations (0
    /// when empty).
    pub fn at(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.calm_windows().0.concat();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    /// The [`trimmed_mean`] of the calm windows' observations (0 when
    /// empty): for bulk operations, which switch between speed levels
    /// like the operations do (see [`Sample`]).
    pub fn trimmed(&self) -> f64 {
        trimmed_mean(&self.calm_windows().0.concat())
    }

    /// The median of the calm windows' observations (0 when empty).
    pub fn p50(&self) -> f64 {
        self.at(50.0)
    }

    /// The within-run spread of all the observations, `(q3 - q1) / median`
    /// (0 below two values).
    pub fn spread(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        relative_iqr(&self.values)
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result object: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, on one line.  Rejects invalid names, units and
/// non-finite values, which JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn sample_summary() {
        // Built without marks, so no window counts as stolen.
        let upto = |n: u32| Sample::from((1..=n).map(f64::from).collect::<Vec<_>>());
        assert_eq!(Sample::default().summary(), (0.0, 0.0, 0.0));
        let s = upto(1000);
        assert_eq!(s.summary(), (500.0, 99.0, 990.0));
        assert_eq!(s.mean(), 500.5);
        assert_eq!(s.at(90.0), 900.0);
        let s = upto(20_000);
        assert_eq!(s.summary().1, 99.0, "the tail stays p99 on large samples");
        // Twenty windows of 1 000; the lowest and highest two are trimmed,
        // so the figures are the mean over windows 2..=17.
        assert_eq!(s.summary().0, 10_000.0);
        assert_eq!(s.summary().2, 10_490.0);
        assert_eq!(s.tail(90.0), (90.0, 10_400.0));
        assert_eq!(Sample::from(vec![2.0; 3000]).rate(), 0.5);
    }

    #[test]
    fn trimmed_mean_leaves_out_an_eighth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[4.0, 1.0]), 2.5);
        let mut v: Vec<f64> = (1..=16).map(f64::from).collect();
        v[15] = 1e9;
        assert_eq!(trimmed_mean(&v), (3..=14).sum::<u32>() as f64 / 12.0);
    }

    #[test]
    fn a_latency_level_shift_moves_the_p50_in_proportion() {
        // Thirty-two windows of 1 000, some at 100 and the rest at 160: the
        // pooled median jumps from 160 to 100 as the fast share passes a
        // half; the windowed p50 moves with the share.
        let with_fast = |fast: usize| {
            let values: Vec<f64> = (0..32_000)
                .map(|i| if i / 1000 < fast { 100.0 } else { 160.0 })
                .collect();
            Sample::from(values)
        };
        assert_eq!(with_fast(15).at(50.0), 160.0);
        assert_eq!(with_fast(17).at(50.0), 100.0);
        let (a, b) = (with_fast(15).summary().0, with_fast(17).summary().0);
        assert!(a > b && a - b < 10.0, "{a} {b}");
    }

    #[test]
    fn summaries_leave_out_stolen_windows() {
        // Four windows of 1 000; the third ran while the host stole 30% of
        // the CPU time and is twice as slow.
        let mut s = Sample::new(1000);
        let (mut steal, mut total) = (0, 0);
        for w in 0..4u64 {
            s.mark_at(steal, total);
            for _ in 0..1000 {
                s.values.push(if w == 2 { 20.0 } else { 10.0 });
            }
            total += 1000;
            steal += if w == 2 { 300 } else { 5 };
        }
        s.mark_at(steal, total);
        assert_eq!(s.calm_count(), (3, 4));
        assert_eq!(s.at(99.0), 10.0);
        assert_eq!(s.tail(99.0), (99.0, 10.0));
        assert_eq!(s.rate(), 0.1);
        assert_eq!(s.mean(), 12.5, "the mean keeps every observation");

        // Below the 5% floor every window counts, however the shares rank.
        let mut calm = Sample::new(1);
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().enumerate() {
            calm.mark_at(i as u64, 100 * i as u64);
            calm.values.push(v);
        }
        calm.mark_at(5, 500);
        assert_eq!(calm.calm_count(), (5, 5));
        assert_eq!(calm.p50(), 3.0);
    }

    #[test]
    fn single_operations_are_marked_on_their_own() {
        // Bulk operations marked before and after: the second one was
        // stolen from; the queries in between do not count.
        let mut s = Sample::new(1);
        let ticks = [(0, 0), (1, 100), (2, 150), (60, 250), (61, 300), (62, 400)];
        for (i, v) in [5.0, 50.0, 6.0].into_iter().enumerate() {
            s.mark_at(ticks[2 * i].0, ticks[2 * i].1);
            s.values.push(v);
            s.mark_at(ticks[2 * i + 1].0, ticks[2 * i + 1].1);
        }
        assert_eq!(s.steal_share(1, 2), 0.58);
        assert_eq!(s.calm_count(), (2, 3));
        assert_eq!(s.p50(), 5.0);
        assert_eq!(s.trimmed(), 5.5);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "server.exec_us.est", "a-b", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("B/tuple"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("tuples per s"));
    }

    #[test]
    fn result_line_shape() {
        let m = |name: &str, value: f64| Metric {
            name: name.into(),
            unit: "ms",
            value,
        };
        let line = result_line(true, 10, 1, &[m("a", 1.5), m("b.c", 2.0)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b.c\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(true, 1, 0, &[m("a", f64::NAN)]).is_err());
        assert!(result_line(true, 1, 0, &[m("a b", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("a", 1.0), m("a", 2.0)]).is_err());
    }
}
