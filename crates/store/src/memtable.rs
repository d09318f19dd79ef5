//! The mutable ingest buffer of one partition.

use std::sync::Arc;

use pds_core::error::{PdsError, Result};
use pds_core::model::{BasicModel, ProbabilisticRelation, TuplePdfModel, ValuePdf, ValuePdfModel};
use pds_core::stream::StreamRecord;

/// The in-memory write buffer of one item-range partition: arriving records
/// are appended (with their global item ids localised to the partition) and
/// the exact per-item expected frequencies are maintained incrementally, so
/// live un-sealed data answers range queries without scanning the buffer.
///
/// The expected frequencies sit behind an `Arc` that writers update
/// copy-on-write, so `Memtable::capture` shares them with a reader in
/// `O(1)`: while no capture is alive every update is an in-place write
/// behind a uniqueness check, and the first update after a capture copies
/// the vector once.
#[derive(Debug, Clone)]
pub struct Memtable {
    /// First global item of the partition.
    start: usize,
    /// Buffered records, item ids localised to `[0, width)`.
    records: Vec<StreamRecord>,
    /// Exact expected frequency per local item (expectation is linear, so
    /// every record kind contributes a closed-form increment).
    expected: Arc<Vec<f64>>,
}

/// A read-only point-in-time capture of a [`Memtable`]'s expected
/// frequencies: the partition start, the shared frequency vector and the
/// record count, never the records themselves.  Later writes to the
/// memtable copy the vector rather than touch this one, so a capture
/// answers [`MemtableCapture::range_sum`] bitwise as the memtable did
/// when it was taken.
#[derive(Debug, Clone)]
pub(crate) struct MemtableCapture {
    start: usize,
    records: usize,
    expected: Arc<Vec<f64>>,
}

impl MemtableCapture {
    /// Number of records buffered at capture time.
    pub(crate) fn len(&self) -> usize {
        self.records
    }

    /// Exact expected total frequency over the **global** inclusive item
    /// range `[lo, hi]` at capture time (see [`Memtable::range_sum`]).
    pub(crate) fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        window_sum(self.start, &self.expected, lo, hi)
    }
}

/// The sum of `expected` (local indexing from global item `start`) over
/// its overlap with the global inclusive range `[lo, hi]` — the one
/// summation behind both [`Memtable::range_sum`] and
/// [`MemtableCapture::range_sum`], so the two agree bitwise.
fn window_sum(start: usize, expected: &[f64], lo: usize, hi: usize) -> f64 {
    let end = start + expected.len();
    if hi < start || lo >= end {
        return 0.0;
    }
    let from = lo.max(start) - start;
    let to = hi.min(end - 1) - start;
    expected[from..=to].iter().sum()
}

impl Memtable {
    /// Creates an empty memtable for the partition covering the global item
    /// range `[start, start + width)`.
    pub fn new(start: usize, width: usize) -> Self {
        Memtable {
            start,
            records: Vec::new(),
            expected: Arc::new(vec![0.0; width]),
        }
    }

    /// First global item of the partition.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of items in the partition.
    pub fn width(&self) -> usize {
        self.expected.len()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The exact expected frequency of every item in the partition (local
    /// indexing).
    pub fn expected_frequencies(&self) -> &[f64] {
        &self.expected
    }

    /// The buffered records in arrival order (item ids localised to the
    /// partition) — what a WAL replay must reproduce exactly, which the
    /// durability suites assert against.
    pub fn records(&self) -> &[StreamRecord] {
        &self.records
    }

    /// Shares the current expected frequencies with a reader: an `Arc`
    /// clone, no copy of the frequencies or the records.
    pub(crate) fn capture(&self) -> MemtableCapture {
        MemtableCapture {
            start: self.start,
            records: self.records.len(),
            expected: Arc::clone(&self.expected),
        }
    }

    /// Appends a record.  The record is validated and every item it touches
    /// must fall inside this partition's range (the store splits
    /// cross-partition x-tuples before routing).
    pub fn insert(&mut self, record: StreamRecord) -> Result<()> {
        let (lo, hi) = record.validate()?;
        let end = self.start + self.width();
        if lo < self.start || hi >= end {
            return Err(PdsError::ItemOutOfDomain {
                item: if lo < self.start { lo } else { hi },
                domain: end,
            });
        }
        // Localise and fold the expectation increment.  `make_mut` is a
        // uniqueness check unless a capture still shares the vector.
        let expected = Arc::make_mut(&mut self.expected);
        let local = match record {
            StreamRecord::Basic { item, prob } => {
                expected[item - self.start] += prob;
                StreamRecord::Basic {
                    item: item - self.start,
                    prob,
                }
            }
            StreamRecord::Alternatives(alts) => {
                let alts: Vec<(usize, f64)> = alts
                    .into_iter()
                    .map(|(i, p)| {
                        expected[i - self.start] += p;
                        (i - self.start, p)
                    })
                    .collect();
                StreamRecord::Alternatives(alts)
            }
            StreamRecord::ValueDistribution { item, entries } => {
                expected[item - self.start] += entries.iter().map(|&(v, p)| v * p).sum::<f64>();
                StreamRecord::ValueDistribution {
                    item: item - self.start,
                    entries,
                }
            }
        };
        self.records.push(local);
        Ok(())
    }

    /// Exact expected total frequency over the **global** inclusive item
    /// range `[lo, hi]`, counting only this partition's overlap.
    pub fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        window_sum(self.start, &self.expected, lo, hi)
    }

    /// Materialises the buffered records as a probabilistic relation over
    /// the partition's local domain, picking the tightest of the three
    /// uncertainty models that can represent the buffer:
    ///
    /// * only basic records → basic model;
    /// * basic and/or x-tuple records → tuple pdf model;
    /// * any value-pdf record → value pdf model, folding every contribution
    ///   into per-item pdfs by convolution (x-tuple alternatives are folded
    ///   as independent Bernoullis — the same within-tuple boundary
    ///   approximation as cross-partition splitting, documented at the
    ///   crate level).
    pub fn to_relation(&self) -> Result<ProbabilisticRelation> {
        let n = self.width();
        let has_value = self
            .records
            .iter()
            .any(|r| matches!(r, StreamRecord::ValueDistribution { .. }));
        let has_tuple = self
            .records
            .iter()
            .any(|r| matches!(r, StreamRecord::Alternatives(_)));
        if has_value {
            let mut pdfs = vec![ValuePdf::zero(); n];
            for record in &self.records {
                match record {
                    StreamRecord::Basic { item, prob } => {
                        pdfs[*item] = pdfs[*item].convolve_bernoulli(*prob);
                    }
                    StreamRecord::Alternatives(alts) => {
                        for &(item, prob) in alts {
                            pdfs[item] = pdfs[item].convolve_bernoulli(prob);
                        }
                    }
                    StreamRecord::ValueDistribution { item, entries } => {
                        pdfs[*item] = pdfs[*item].convolve(&ValuePdf::new(entries.clone())?);
                    }
                }
            }
            Ok(ValuePdfModel::new(pdfs).into())
        } else if has_tuple {
            let tuples = self.records.iter().map(|record| match record {
                StreamRecord::Basic { item, prob } => vec![(*item, *prob)],
                StreamRecord::Alternatives(alts) => alts.clone(),
                StreamRecord::ValueDistribution { .. } => unreachable!("handled above"),
            });
            Ok(TuplePdfModel::from_alternatives(n, tuples)?.into())
        } else {
            let pairs = self.records.iter().map(|record| match record {
                StreamRecord::Basic { item, prob } => (*item, *prob),
                _ => unreachable!("handled above"),
            });
            Ok(BasicModel::from_pairs(n, pairs)?.into())
        }
    }

    /// Empties the buffer (called after the records were sealed into a
    /// segment), keeping the partition range.  A capture still sharing
    /// the frequencies keeps them: the memtable takes a fresh zeroed
    /// vector instead of copying one it is about to zero.
    pub fn clear(&mut self) {
        self.records.clear();
        match Arc::get_mut(&mut self.expected) {
            Some(expected) => expected.fill(0.0),
            None => self.expected = Arc::new(vec![0.0; self.width()]),
        }
    }

    /// Prepends an `older` buffer of the same partition (its records come
    /// first, as they arrived first) — the undo path when a frozen memtable
    /// could not be sealed and its records must rejoin the live buffer.
    ///
    /// # Panics
    ///
    /// Panics when the two memtables cover different partition ranges.
    pub fn absorb_front(&mut self, mut older: Memtable) {
        assert_eq!(
            (self.start, self.width()),
            (older.start, older.width()),
            "absorb_front requires matching partition ranges"
        );
        std::mem::swap(&mut self.records, &mut older.records);
        self.records.append(&mut older.records);
        let expected = Arc::make_mut(&mut self.expected);
        for (mine, theirs) in expected.iter_mut().zip(older.expected.iter()) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_frequencies_track_all_record_kinds() {
        let mut m = Memtable::new(10, 4);
        m.insert(StreamRecord::Basic {
            item: 10,
            prob: 0.5,
        })
        .unwrap();
        m.insert(StreamRecord::Alternatives(vec![(11, 0.25), (13, 0.75)]))
            .unwrap();
        m.insert(StreamRecord::ValueDistribution {
            item: 11,
            entries: vec![(2.0, 0.5), (4.0, 0.25)],
        })
        .unwrap();
        assert_eq!(m.len(), 3);
        let e = m.expected_frequencies();
        assert!((e[0] - 0.5).abs() < 1e-12);
        assert!((e[1] - (0.25 + 2.0)).abs() < 1e-12);
        assert!((e[3] - 0.75).abs() < 1e-12);
        // Global range sums clip to the partition.
        assert!((m.range_sum(0, 100) - 3.5).abs() < 1e-12);
        assert!((m.range_sum(11, 11) - 2.25).abs() < 1e-12);
        assert_eq!(m.range_sum(0, 9), 0.0);
        assert_eq!(m.range_sum(14, 20), 0.0);
    }

    #[test]
    fn out_of_range_and_invalid_records_are_rejected() {
        let mut m = Memtable::new(10, 4);
        assert!(m
            .insert(StreamRecord::Basic { item: 9, prob: 0.5 })
            .is_err());
        assert!(m
            .insert(StreamRecord::Basic {
                item: 14,
                prob: 0.5
            })
            .is_err());
        assert!(m
            .insert(StreamRecord::Basic {
                item: 10,
                prob: 1.5
            })
            .is_err());
        assert!(m
            .insert(StreamRecord::Alternatives(vec![(10, 0.2), (14, 0.2)]))
            .is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn relation_model_matches_buffer_contents() {
        // Basic only.
        let mut m = Memtable::new(0, 3);
        m.insert(StreamRecord::Basic { item: 0, prob: 0.5 })
            .unwrap();
        assert_eq!(m.to_relation().unwrap().model_name(), "basic");
        // Adding an x-tuple upgrades to tuple pdf.
        m.insert(StreamRecord::Alternatives(vec![(1, 0.5), (2, 0.5)]))
            .unwrap();
        let rel = m.to_relation().unwrap();
        assert_eq!(rel.model_name(), "tuple-pdf");
        assert!((rel.expected_frequencies()[1] - 0.5).abs() < 1e-12);
        // Adding a value pdf upgrades to value pdf and keeps expectations.
        m.insert(StreamRecord::ValueDistribution {
            item: 2,
            entries: vec![(3.0, 0.5)],
        })
        .unwrap();
        let rel = m.to_relation().unwrap();
        assert_eq!(rel.model_name(), "value-pdf");
        for (i, &e) in m.expected_frequencies().iter().enumerate() {
            assert!((rel.expected_frequencies()[i] - e).abs() < 1e-9, "item {i}");
        }
    }

    #[test]
    fn absorb_front_prepends_records_and_sums_expectations() {
        let mut older = Memtable::new(4, 4);
        older
            .insert(StreamRecord::Basic { item: 4, prob: 0.5 })
            .unwrap();
        let mut newer = Memtable::new(4, 4);
        newer
            .insert(StreamRecord::Basic {
                item: 5,
                prob: 0.25,
            })
            .unwrap();
        newer.absorb_front(older);
        assert_eq!(newer.len(), 2);
        // Older record first (localised item 0), newer second (item 1).
        assert_eq!(newer.records[0], StreamRecord::Basic { item: 0, prob: 0.5 });
        assert_eq!(
            newer.records[1],
            StreamRecord::Basic {
                item: 1,
                prob: 0.25
            }
        );
        assert!((newer.range_sum(4, 7) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn captures_are_isolated_from_every_later_mutation() {
        let basic = |item, prob| StreamRecord::Basic { item, prob };
        let pin = |c: &MemtableCapture| {
            (
                c.len(),
                c.range_sum(0, 100).to_bits(),
                c.range_sum(6, 7).to_bits(),
            )
        };
        let mut m = Memtable::new(4, 4);
        m.insert(basic(4, 0.5)).unwrap();
        m.insert(basic(6, 0.25)).unwrap();
        // With no capture alive, inserts update the frequencies in place.
        let unshared = m.expected_frequencies().as_ptr();
        m.insert(basic(7, 0.125)).unwrap();
        assert_eq!(m.expected_frequencies().as_ptr(), unshared);

        // Insert: the writer copies, the capture keeps its values.
        let shot = m.capture();
        let pinned = pin(&shot);
        assert_eq!(pinned.1, m.range_sum(0, 100).to_bits());
        m.insert(basic(6, 0.0625)).unwrap();
        assert_eq!(pin(&shot), pinned);
        assert_ne!(m.expected_frequencies().as_ptr(), unshared);
        assert_eq!(m.range_sum(6, 7), 0.4375);

        // Undo of a failed seal: absorbing an older buffer copies too.
        let shot = m.capture();
        let pinned = pin(&shot);
        let mut older = Memtable::new(4, 4);
        older.insert(basic(7, 0.5)).unwrap();
        m.absorb_front(older);
        assert_eq!(pin(&shot), pinned);
        assert_eq!(m.len(), 5);
        assert_eq!(m.range_sum(7, 7), 0.625);

        // Clear: the capture keeps the shared vector, the memtable zeroes
        // a fresh one.
        let shot = m.capture();
        let pinned = pin(&shot);
        m.clear();
        assert_eq!(pin(&shot), pinned);
        assert_eq!(shot.len(), 5);
        assert!(m.is_empty() && m.capture().len() == 0);
        assert_eq!(m.range_sum(0, 100), 0.0);
    }

    #[test]
    fn clear_resets_the_buffer_but_keeps_the_range() {
        let mut m = Memtable::new(5, 2);
        m.insert(StreamRecord::Basic { item: 6, prob: 0.9 })
            .unwrap();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.start(), 5);
        assert_eq!(m.width(), 2);
        assert_eq!(m.range_sum(0, 100), 0.0);
    }
}
