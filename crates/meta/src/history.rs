//! The append-only history of write summaries.
//!
//! The version manager appends one [`WriteSummary`] per issued ticket —
//! *before* the writer starts building metadata. Writers consult the
//! history to compute deterministic links to the trees of earlier
//! versions, including versions that are still in flight. This shared
//! summary table is the simulation analogue of BlobSeer's version manager
//! handing each writer the descriptors of concurrent in-flight updates.

use atomio_types::{ByteRange, ExtentList, VersionId};
use parking_lot::RwLock;
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// Summary of one write: which bytes it touched and the tree capacity its
/// version was published with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSummary {
    /// The write's assigned version.
    pub version: VersionId,
    /// The set of bytes the write covers.
    pub extents: Arc<ExtentList>,
    /// Tree capacity (root range length) of this version: a power-of-two
    /// multiple of the leaf size, monotonically non-decreasing across
    /// versions.
    pub capacity: u64,
}

// Hand-written: the derive cannot see through the `Arc` around the
// extent list (summaries ride ticket responses over the wire).
impl Serialize for WriteSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), self.version.to_value()),
            ("extents".to_string(), self.extents.to_value()),
            ("capacity".to_string(), self.capacity.to_value()),
        ])
    }
}

impl Deserialize for WriteSummary {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(WriteSummary {
            version: VersionId::from_value(v.get_or_null("version"))?,
            extents: Arc::new(ExtentList::from_value(v.get_or_null("extents"))?),
            capacity: u64::from_value(v.get_or_null("capacity"))?,
        })
    }
}

/// Append-only, shared history of write summaries for one blob.
///
/// Version `k` (k ≥ 1) lives at index `k - 1`; version 0 is the implicit
/// empty snapshot.
#[derive(Debug, Default)]
pub struct VersionHistory {
    rows: RwLock<Vec<WriteSummary>>,
}

impl VersionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the summary for the next version.
    ///
    /// # Panics
    /// Panics if `summary.version` is not exactly one past the last
    /// recorded version — tickets are issued densely and in order.
    pub fn append(&self, summary: WriteSummary) {
        push_dense(&mut self.rows.write(), summary);
    }

    /// All summaries of versions strictly greater than `known` (a row
    /// count from a previous call). Used by remote clients to mirror the
    /// server-side history incrementally: a ticket response carries the
    /// delta since the client's last known row.
    pub fn summaries_since(&self, known: usize) -> Vec<WriteSummary> {
        let rows = self.rows.read();
        rows.get(known.min(rows.len())..)
            .map_or_else(Vec::new, |tail| tail.to_vec())
    }

    /// Merges a delta obtained from [`Self::summaries_since`] into this
    /// history: already-known versions are skipped, new ones appended in
    /// order. The whole delta is merged under one write lock, so
    /// concurrent absorbs of overlapping deltas (two ranks sharing one
    /// mirror) cannot interleave between the skip test and the append.
    /// Panics (like [`Self::append`]) on a gap, which would mean the
    /// server skipped rows.
    pub fn absorb(&self, delta: impl IntoIterator<Item = WriteSummary>) {
        let mut rows = self.rows.write();
        for summary in delta {
            if summary.version.raw() > rows.len() as u64 {
                push_dense(&mut rows, summary);
            }
        }
    }

    /// Number of versions recorded (excluding the implicit version 0).
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// True when no write has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.read().is_empty()
    }

    /// The summary of `v`, if recorded.
    pub fn summary(&self, v: VersionId) -> Option<WriteSummary> {
        if v.is_initial() {
            return None;
        }
        self.rows.read().get(v.raw() as usize - 1).cloned()
    }

    /// Tree capacity of version `v` (0 for the initial empty version).
    pub fn capacity_of(&self, v: VersionId) -> u64 {
        self.summary(v).map_or(0, |s| s.capacity)
    }

    /// The latest version **strictly below** `below` whose write touched
    /// `range`, together with that version's capacity.
    ///
    /// This is the deterministic link-target computation: the returned
    /// version's tree contains (or will contain) a node for every dyadic
    /// range it touched.
    pub fn latest_toucher(&self, below: VersionId, range: ByteRange) -> Option<(VersionId, u64)> {
        if range.is_empty() {
            return None;
        }
        let rows = self.rows.read();
        let upper = (below.raw() as usize).saturating_sub(1).min(rows.len());
        rows[..upper]
            .iter()
            .rev()
            .find(|s| s.extents.overlaps(&ExtentList::single(range)))
            .map(|s| (s.version, s.capacity))
    }
}

/// Appends `summary` to `rows`, asserting density and monotonic capacity.
fn push_dense(rows: &mut Vec<WriteSummary>, summary: WriteSummary) {
    let expected = VersionId::new(rows.len() as u64 + 1);
    assert_eq!(
        summary.version, expected,
        "history rows must be appended densely"
    );
    if let Some(prev) = rows.last() {
        assert!(
            summary.capacity >= prev.capacity,
            "capacity must be monotonic"
        );
    }
    rows.push(summary);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: u64, pairs: &[(u64, u64)], cap: u64) -> WriteSummary {
        WriteSummary {
            version: VersionId::new(v),
            extents: Arc::new(ExtentList::from_pairs(pairs.iter().copied())),
            capacity: cap,
        }
    }

    #[test]
    fn append_and_lookup() {
        let h = VersionHistory::new();
        assert!(h.is_empty());
        h.append(summary(1, &[(0, 10)], 64));
        h.append(summary(2, &[(100, 10)], 128));
        assert_eq!(h.len(), 2);
        assert_eq!(h.capacity_of(VersionId::new(1)), 64);
        assert_eq!(h.capacity_of(VersionId::new(2)), 128);
        assert_eq!(h.capacity_of(VersionId::INITIAL), 0);
        assert!(h.summary(VersionId::new(3)).is_none());
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn sparse_append_rejected() {
        let h = VersionHistory::new();
        h.append(summary(2, &[(0, 1)], 64));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn shrinking_capacity_rejected() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 1)], 128));
        h.append(summary(2, &[(0, 1)], 64));
    }

    #[test]
    fn latest_toucher_scans_down() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 100)], 128)); // v1 touches [0,100)
        h.append(summary(2, &[(50, 100)], 256)); // v2 touches [50,150)
        h.append(summary(3, &[(200, 10)], 256)); // v3 touches [200,210)

        // Below v4 (i.e. among v1..v3):
        let below = VersionId::new(4);
        assert_eq!(
            h.latest_toucher(below, ByteRange::new(0, 10)),
            Some((VersionId::new(1), 128))
        );
        assert_eq!(
            h.latest_toucher(below, ByteRange::new(60, 10)),
            Some((VersionId::new(2), 256))
        );
        assert_eq!(
            h.latest_toucher(below, ByteRange::new(205, 1)),
            Some((VersionId::new(3), 256))
        );
        assert_eq!(h.latest_toucher(below, ByteRange::new(300, 10)), None);

        // Below v2 only v1 is visible.
        assert_eq!(
            h.latest_toucher(VersionId::new(2), ByteRange::new(60, 10)),
            Some((VersionId::new(1), 128))
        );
        // Below v1 nothing is visible.
        assert_eq!(
            h.latest_toucher(VersionId::new(1), ByteRange::new(0, 10)),
            None
        );
    }

    #[test]
    fn summaries_roundtrip_and_mirror() {
        use serde::{Deserialize, Serialize};
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 10)], 64));
        h.append(summary(2, &[(100, 10), (200, 4)], 128));
        h.append(summary(3, &[(50, 10)], 128));

        // Wire roundtrip preserves every field.
        for s in h.summaries_since(0) {
            let back = WriteSummary::from_value(&s.to_value()).unwrap();
            assert_eq!(back.version, s.version);
            assert_eq!(*back.extents, *s.extents);
            assert_eq!(back.capacity, s.capacity);
        }

        // A mirror absorbing overlapping deltas converges without gaps.
        let mirror = VersionHistory::new();
        mirror.absorb(h.summaries_since(0));
        mirror.absorb(h.summaries_since(1)); // overlap: v2, v3 already known
        assert_eq!(mirror.len(), 3);
        assert_eq!(
            mirror.latest_toucher(VersionId::new(4), ByteRange::new(55, 1)),
            Some((VersionId::new(3), 128))
        );
        assert!(h.summaries_since(3).is_empty());
        assert!(h.summaries_since(99).is_empty());
    }

    #[test]
    fn concurrent_absorbs_of_overlapping_deltas_stay_dense() {
        // Two threads share one mirror and absorb overlapping deltas of
        // the same source at the same time, as two ranks behind one
        // remote version manager do.
        for _ in 0..200 {
            let source = VersionHistory::new();
            for v in 1..=32 {
                source.append(summary(v, &[(v * 10, 5)], 64));
            }
            let mirror = VersionHistory::new();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let (source, mirror) = (&source, &mirror);
                    s.spawn(move || {
                        for known in (0..32).step_by(4) {
                            mirror.absorb(source.summaries_since(known));
                        }
                    });
                }
            });
            assert_eq!(mirror.len(), 32);
            assert_eq!(mirror.summaries_since(0), source.summaries_since(0));
        }
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn absorbing_a_gap_is_rejected() {
        let h = VersionHistory::new();
        h.absorb(vec![summary(1, &[(0, 1)], 64), summary(3, &[(0, 1)], 64)]);
    }

    #[test]
    fn latest_toucher_boundary_semantics() {
        let h = VersionHistory::new();
        h.append(summary(1, &[(0, 100)], 128));
        // Adjacent (not overlapping) range does not count as touching.
        assert_eq!(
            h.latest_toucher(VersionId::new(2), ByteRange::new(100, 10)),
            None
        );
        // Empty range touches nothing.
        assert_eq!(
            h.latest_toucher(VersionId::new(2), ByteRange::empty()),
            None
        );
    }
}
