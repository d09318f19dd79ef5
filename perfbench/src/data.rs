//! Seeded inputs and the benchmark's own reference answers: a small
//! deterministic RNG, a Zipf item sampler, the skewed ingest stream and
//! exact expected frequencies computed from the records the benchmark sent.

use pds_core::generator::{tpch_like, TpchLikeConfig};
use pds_core::stream::{basic_stream, records_of, BasicStreamConfig, StreamRecord};
use pds_core::ProbabilisticRelation;

/// SplitMix64: a tiny seeded generator, independent of the program's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so each consumer of one
    /// seed draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Zipf-skewed items over `[0, n)`, with the popular items spread over the
/// domain rather than clustered at its start.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` items with exponent `skew`.
    pub fn new(n: usize, skew: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(skew);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// One item.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let n = self.cdf.len();
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(n - 1);
        // 2654435761 is odd and n a power of two in every workload, so the
        // map is a permutation of the domain.
        (rank.wrapping_mul(2_654_435_761)) % n
    }
}

/// The skewed ingest stream: Zipf basic records with every fifth record
/// an x-tuple from a TPC-H-shaped tuple-pdf relation (alternatives in a
/// 32-item window, so some straddle partition edges and are split).
pub fn ingest_stream(n: usize, count: usize, seed: u64) -> Vec<StreamRecord> {
    let tuples = count / 5;
    let relation: ProbabilisticRelation = tpch_like(TpchLikeConfig {
        n,
        tuples,
        max_alternatives: 4,
        locality_window: 32,
        skew: 0.8,
        seed: seed ^ 0x5EED,
    })
    .into();
    let mut xs = records_of(&relation).into_iter();
    let mut basic = basic_stream(BasicStreamConfig { n, skew: 0.8, seed });
    (0..count)
        .map(|i| {
            let x = if i % 5 == 4 { xs.next() } else { None };
            x.unwrap_or_else(|| basic.next().expect("the basic stream is unbounded"))
        })
        .collect()
}

/// Exact expected frequencies of the records the benchmark sent.
#[derive(Debug, Clone)]
pub struct Exact {
    freq: Vec<f64>,
}

impl Exact {
    /// All-zero frequencies over `[0, n)`.
    pub fn new(n: usize) -> Self {
        Exact { freq: vec![0.0; n] }
    }

    /// Adds one record's expected mass per item.
    pub fn add(&mut self, record: &StreamRecord) {
        match record {
            StreamRecord::Basic { item, prob } => self.freq[*item] += prob,
            StreamRecord::Alternatives(alts) => {
                for &(item, prob) in alts {
                    self.freq[item] += prob;
                }
            }
            StreamRecord::ValueDistribution { item, entries } => {
                self.freq[*item] += entries.iter().map(|&(v, p)| v * p).sum::<f64>();
            }
        }
    }

    /// Expected frequency per item.
    pub fn freq(&self) -> &[f64] {
        &self.freq
    }

    /// Exact expected total over the inclusive range `[lo, hi]`.
    pub fn range(&self, lo: usize, hi: usize) -> f64 {
        self.freq[lo..=hi].iter().sum()
    }
}

/// A fixed grid of 1 024 inclusive ranges over `[0, n)`: widths 1, 16,
/// 256 and n/4, at starts spread over the domain.
pub fn range_grid(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for width in [1, 16, 256, n / 4] {
        for k in 0..256 {
            let lo = (k * 977 + width * 3) % (n - width + 1);
            out.push((lo, lo + width - 1));
        }
    }
    out
}

/// Mean relative error, in percent, of `estimates` against `exact`, with
/// the paper's sanity bound: each error is relative to `max(exact, 1)`, so
/// ranges with almost no expected mass do not dominate the mean.
pub fn mean_rel_err_pct(estimates: &[f64], exact: &[f64]) -> f64 {
    let sum: f64 = estimates
        .iter()
        .zip(exact)
        .map(|(&e, &x)| (e - x).abs() / x.max(1.0))
        .sum();
    100.0 * sum / exact.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_zipf_are_seeded_and_in_range() {
        let (mut a, mut b) = (Rng::new(3, 1), Rng::new(3, 1));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(3, 1).next_u64(), Rng::new(3, 2).next_u64());
        let z = Zipf::new(1024, 1.0);
        let mut r = Rng::new(9, 0);
        let mut hits = vec![0u32; 1024];
        for _ in 0..10_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(*hits.iter().max().unwrap() > 500, "the top item is popular");
    }

    #[test]
    fn exact_sums_and_error() {
        let mut e = Exact::new(8);
        e.add(&StreamRecord::Basic { item: 1, prob: 0.5 });
        e.add(&StreamRecord::Alternatives(vec![(1, 0.25), (6, 0.75)]));
        assert_eq!(e.range(0, 7), 1.5);
        assert_eq!(e.range(1, 1), 0.75);
        assert_eq!(mean_rel_err_pct(&[1.0, 0.5, 9.0], &[2.0, 0.0, 6.0]), 50.0);
        let s = ingest_stream(1024, 100, 4);
        assert_eq!(s.len(), 100);
        assert!(matches!(s[4], StreamRecord::Alternatives(_)));
        assert_eq!(s, ingest_stream(1024, 100, 4));
        assert!(range_grid(1024)
            .iter()
            .all(|&(lo, hi)| lo <= hi && hi < 1024));
    }
}
