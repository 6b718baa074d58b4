//! Interval index over a recorded timeline: the one lookup structure the
//! span trees and the blame report use to find the exec, load and solve
//! intervals that can overlap a query's wait window.
//!
//! Built once per trace in O(B log B) for B intervals; each query then
//! costs two binary searches plus the length of the slice they return,
//! instead of a scan of the whole device timeline.
//!
//! The per-query tables beside it are keyed by the integer ids the trace
//! records (query, batch, device), so they hash with [`IdHasher`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use proteus_sim::SimTime;

/// A hash map keyed by trace ids, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative hasher for integer ids (the rotate-xor-multiply step of
/// rustc's FxHash). The ids come from a recorded trace, not from an
/// adversary, so SipHash's collision resistance buys nothing here, and the
/// tables are only looked up, never iterated into output, so the hasher
/// cannot change what the analyses print.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Intervals `[start, until)` with a payload, stable-sorted by `start`.
#[derive(Debug)]
pub(crate) struct IntervalIndex<P> {
    /// `(start, until, payload)`, in start order; equal starts keep their
    /// insertion order.
    items: Vec<(SimTime, SimTime, P)>,
    /// `reach[i]` is the largest `until` over `items[..=i]`. It never
    /// decreases, so it can be binary searched even when intervals overlap
    /// (an exec cut short by a crash, then a new exec after recovery) or
    /// were recorded out of order.
    reach: Vec<SimTime>,
}

impl<P> IntervalIndex<P> {
    /// Indexes `items`, given in any order.
    pub(crate) fn new(mut items: Vec<(SimTime, SimTime, P)>) -> Self {
        items.sort_by_key(|&(start, _, _)| start);
        let mut max = SimTime::ZERO;
        let reach = items
            .iter()
            .map(|&(_, until, _)| {
                max = max.max(until);
                max
            })
            .collect();
        Self { items, reach }
    }

    /// The contiguous run of intervals that can overlap `[lo, hi)`, in
    /// start order. Every interval with `start < hi` and `until > lo` is in
    /// it; the run may also hold intervals that end at or before `lo`, which
    /// overlap nothing, so overlap sums and coverage tests over the run equal
    /// those over the whole timeline.
    pub(crate) fn overlapping(&self, lo: SimTime, hi: SimTime) -> &[(SimTime, SimTime, P)] {
        let first = self.reach.partition_point(|&r| r <= lo);
        let last = self.items.partition_point(|&(start, _, _)| start < hi);
        self.items.get(first..last).unwrap_or(&[])
    }
}

/// One [`IntervalIndex`] per device, keyed by device number.
#[derive(Debug)]
pub(crate) struct ByDevice<P>(IdMap<u32, IntervalIndex<P>>);

impl<P> ByDevice<P> {
    /// Indexes each device's intervals.
    pub(crate) fn new(per_device: IdMap<u32, Vec<(SimTime, SimTime, P)>>) -> Self {
        Self(
            per_device
                .into_iter()
                .map(|(device, items)| (device, IntervalIndex::new(items)))
                .collect(),
        )
    }

    /// [`IntervalIndex::overlapping`] on one device's timeline (empty for a
    /// device with no intervals).
    pub(crate) fn overlapping(
        &self,
        device: u32,
        lo: SimTime,
        hi: SimTime,
    ) -> &[(SimTime, SimTime, P)] {
        self.0
            .get(&device)
            .map_or(&[], |index| index.overlapping(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Ids of the intervals with `start < hi` and `until > lo`, sorted.
    fn touching(items: &[(SimTime, SimTime, u32)], lo: SimTime, hi: SimTime) -> Vec<u32> {
        let mut ids: Vec<u32> = items
            .iter()
            .filter(|&&(a, b, _)| a < hi && b > lo)
            .map(|&(_, _, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn run_holds_every_overlapping_interval() {
        // Overlapping, out-of-order and zero-length intervals.
        let items = vec![
            (t(50), t(60), 0),
            (t(0), t(100), 1),
            (t(10), t(20), 2),
            (t(20), t(20), 3),
            (t(120), t(130), 4),
            (t(110), t(125), 5),
            (t(200), t(300), 6),
        ];
        let index = IntervalIndex::new(items.clone());
        for lo in (0..320).step_by(5) {
            for hi in (0..320).step_by(5) {
                let (lo, hi) = (t(lo), t(hi));
                let run = index.overlapping(lo, hi);
                assert_eq!(
                    touching(run, lo, hi),
                    touching(&items, lo, hi),
                    "window {lo:?}..{hi:?}"
                );
                // Everything in the run starts before `hi`, so whatever
                // else it holds ends by `lo`.
                assert!(run.iter().all(|&(a, _, _)| a < hi));
            }
        }
    }

    #[test]
    fn run_is_narrow_on_a_sequential_timeline() {
        let items: Vec<_> = (0..1000u64)
            .map(|i| (t(10 * i), t(10 * i + 10), i))
            .collect();
        let index = IntervalIndex::new(items);
        let run = index.overlapping(t(5000), t(5025));
        assert_eq!(
            run.iter().map(|&(_, _, i)| i).collect::<Vec<_>>(),
            [500, 501, 502]
        );
        assert!(index.overlapping(t(20_000), t(30_000)).is_empty());
        assert!(index.overlapping(t(50), t(40)).is_empty());
    }

    #[test]
    fn equal_starts_keep_insertion_order() {
        let index = IntervalIndex::new(vec![
            (t(5), t(9), 'b'),
            (t(1), t(2), 'a'),
            (t(5), t(7), 'c'),
        ]);
        let order: Vec<char> = index.overlapping(t(0), t(10)).iter().map(|i| i.2).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }
}
