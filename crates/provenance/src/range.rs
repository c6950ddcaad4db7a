//! A byte-interval map: which lineage node last wrote each byte.
//!
//! One [`RangeMap`] per file tracks disjoint, half-open segments
//! `[start, end) -> owner`. A write overwrites (splitting partially
//! covered segments); a read query returns every owning segment it
//! overlaps, and the caller reads the uncovered gaps off the holes
//! between them. Both operations are `O(log n + touched)` on a
//! `BTreeMap` keyed by segment start, so a trace that rewrites the same
//! extents millions of times stays cheap.

use std::collections::BTreeMap;

/// Disjoint half-open segments over `u64` byte offsets, each owned by a
/// `u32` id (a lineage node).
#[derive(Clone, Debug, Default)]
pub struct RangeMap {
    /// start -> (end, owner); invariant: segments are disjoint, non-empty.
    segs: BTreeMap<u64, (u64, u32)>,
}

impl RangeMap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Record that `owner` wrote `[start, end)`, replacing anything there.
    pub fn write(&mut self, start: u64, end: u64, owner: u32) {
        if start >= end {
            return;
        }
        // Segments starting inside (start, end): consumed; a tail
        // extending past `end` is re-inserted at `end`, outside the range.
        while let Some((&s, &(e, o))) = self.segs.range(start + 1..end).next() {
            self.segs.remove(&s);
            if e > end {
                self.segs.insert(end, (e, o));
            }
        }
        // The segment holding `start`, if any: one starting there is
        // overwritten in place, a predecessor straddling it is cut short.
        let held = match self.segs.range_mut(..=start).next_back() {
            Some((&s, seg)) if seg.0 > start => {
                let old = *seg;
                *seg = if s == start {
                    (end, owner)
                } else {
                    (start, old.1)
                };
                Some((s, old))
            }
            _ => None,
        };
        if held.is_none_or(|(s, _)| s != start) {
            self.segs.insert(start, (end, owner));
        }
        // Its part past `end` survives.
        if let Some((_, (e, o))) = held {
            if e > end {
                self.segs.insert(end, (e, o));
            }
        }
    }

    /// Segments of `[start, end)` with a recorded owner, in offset order:
    /// `(overlap_start, overlap_end, owner)`. The ranges between them
    /// are the sub-ranges nobody wrote.
    pub fn covered(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        let end = end.max(start);
        // Predecessor straddling `start` contributes its tail.
        let head = self
            .segs
            .range(..start)
            .next_back()
            .filter(|&(_, &(e, _))| e > start && start < end)
            .map(move |(_, &(e, o))| (start, e.min(end), o));
        let inside = self
            .segs
            .range(start..end)
            .map(move |(&s, &(e, o))| (s, e.min(end), o));
        head.into_iter().chain(inside)
    }

    /// Every live segment, in offset order (the file's final producers).
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.segs.iter().map(|(&s, &(e, o))| (s, e, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_writer_wins_with_splits() {
        let mut m = RangeMap::new();
        m.write(0, 100, 1);
        m.write(40, 60, 2);
        assert_eq!(
            m.segments().collect::<Vec<_>>(),
            vec![(0, 40, 1), (40, 60, 2), (60, 100, 1)]
        );
        assert_eq!(
            m.covered(30, 70).collect::<Vec<_>>(),
            vec![(30, 40, 1), (40, 60, 2), (60, 70, 1)]
        );
    }

    #[test]
    fn overwrite_consumes_whole_segments() {
        let mut m = RangeMap::new();
        m.write(0, 10, 1);
        m.write(20, 30, 2);
        m.write(0, 40, 3);
        assert_eq!(m.segments().collect::<Vec<_>>(), vec![(0, 40, 3)]);
    }

    #[test]
    fn covered_leaves_the_gaps_uncovered() {
        let mut m = RangeMap::new();
        m.write(10, 20, 1);
        m.write(30, 40, 2);
        assert_eq!(
            m.covered(0, 50).collect::<Vec<_>>(),
            vec![(10, 20, 1), (30, 40, 2)]
        );
        assert_eq!(m.covered(12, 18).collect::<Vec<_>>(), vec![(12, 18, 1)]);
        assert_eq!(m.covered(0, 5).count(), 0);
        assert_eq!(
            m.covered(15, 35).collect::<Vec<_>>(),
            vec![(15, 20, 1), (30, 35, 2)]
        );
    }

    #[test]
    fn straddling_tail_survives_an_interior_write() {
        let mut m = RangeMap::new();
        m.write(0, 100, 1);
        m.write(10, 20, 2);
        m.write(15, 18, 3);
        assert_eq!(
            m.covered(0, 100).collect::<Vec<_>>(),
            vec![
                (0, 10, 1),
                (10, 15, 2),
                (15, 18, 3),
                (18, 20, 2),
                (20, 100, 1)
            ]
        );
    }

    #[test]
    fn empty_ranges_are_inert() {
        let mut m = RangeMap::new();
        m.write(5, 5, 1);
        assert!(m.is_empty());
        assert_eq!(m.covered(0, 0).count(), 0);
        m.write(0, 10, 2);
        assert_eq!(m.covered(5, 5).count(), 0);
        assert_eq!(m.covered(7, 3).count(), 0);
    }
}
