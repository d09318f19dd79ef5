//! Reading the store's and server's Prometheus-style text exposition
//! (`SynopsisStore::render_metrics`, the `METRICS` verb).

use std::collections::BTreeMap;

/// One scrape: every sample line keyed by its series (name plus labels).
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses an exposition; `#` lines and unparseable lines are skipped.
    pub fn parse(text: &str) -> Scrape {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Scrape { series }
    }

    /// Adds `after - before` of every series to `self`, so deltas over
    /// several store lifetimes (each restarting its counters) sum up.
    pub fn add_delta(&mut self, before: &Scrape, after: &Scrape) {
        for (key, v) in &after.series {
            let d = v - before.series.get(key).copied().unwrap_or(0.0);
            *self.series.entry(key.clone()).or_insert(0.0) += d;
        }
    }

    /// The sum of every series named `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// One series by its exact key, e.g. `x_count{verb="est"}` (0 if absent).
    pub fn get(&self, key: &str) -> f64 {
        self.series.get(key).copied().unwrap_or(0.0)
    }

    /// `self - earlier` for [`Scrape::sum`].
    pub fn delta(&self, earlier: &Scrape, name: &str) -> f64 {
        self.sum(name) - earlier.sum(name)
    }

    /// Mean latency in µs of a histogram series between two scrapes:
    /// `Δ<name>_sum / Δ<name>_count` (0 when nothing was observed).
    pub fn mean_us(&self, earlier: &Scrape, name: &str, labels: &str) -> f64 {
        let key = |suffix: &str| format!("{name}_{suffix}{labels}");
        let count = self.get(&key("count")) - earlier.get(&key("count"));
        if count <= 0.0 {
            return 0.0;
        }
        (self.get(&key("sum")) - earlier.get(&key("sum"))) / count * 1e6
    }

    /// `Δ<name>_count` between two scrapes.
    pub fn count_delta(&self, earlier: &Scrape, name: &str, labels: &str) -> f64 {
        let key = format!("{name}_count{labels}");
        self.get(&key) - earlier.get(&key)
    }

    /// `Δ<name>_sum` between two scrapes, in ms.
    pub fn sum_ms_delta(&self, earlier: &Scrape, name: &str, labels: &str) -> f64 {
        let key = format!("{name}_sum{labels}");
        (self.get(&key) - earlier.get(&key)) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# TYPE c counter\n\
        c{partition=\"0\"} 3\n\
        c{partition=\"1\"} 4\n\
        plain 2.5\n\
        # TYPE h histogram\n\
        h_bucket{verb=\"est\",le=\"+Inf\"} 4\n\
        h_sum{verb=\"est\"} 0.002\n\
        h_count{verb=\"est\"} 4\n";

    #[test]
    fn sums_labels_and_reads_histograms() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.sum("c"), 7.0);
        assert_eq!(s.sum("plain"), 2.5);
        assert_eq!(s.sum("missing"), 0.0);
        let empty = Scrape::default();
        assert!((s.mean_us(&empty, "h", "{verb=\"est\"}") - 500.0).abs() < 1e-9);
        assert_eq!(s.count_delta(&empty, "h", "{verb=\"est\"}"), 4.0);
        assert_eq!(s.mean_us(&s, "h", "{verb=\"est\"}"), 0.0);
        assert_eq!(s.delta(&empty, "c"), 7.0);
        let mut acc = Scrape::default();
        acc.add_delta(&empty, &s);
        acc.add_delta(&empty, &s);
        assert_eq!(acc.sum("c"), 14.0);
        assert_eq!(acc.count_delta(&empty, "h", "{verb=\"est\"}"), 8.0);
    }
}
