//! Calendar (bucket) queue for due-time indices.
//!
//! The event loop keeps one `(due time, entity index)` entry per pending
//! client request and per busy server. `BTreeSet` gave `O(log n)` inserts,
//! removals, and min queries; at 50 000 clients the constant factor of tree
//! rebalancing on every request issue dominates the event loop. A
//! [`DueQueue`] stores entries in coarse time buckets (quantised due
//! instants) instead: insert and removal touch one small bucket, the
//! lexicographic minimum is cached between mutations, and collecting all
//! entries due by `t` walks only the buckets the window covers — `O(1)`
//! amortised per operation for the densely-due populations the big presets
//! produce.
//!
//! Semantics mirror the `BTreeSet<(SimTime, u32)>` they replace exactly:
//! entries are unique, `min` is the smallest `(time, index)` pair, and
//! [`collect_due`](DueQueue::collect_due) is a non-destructive read of every
//! entry with `time <= t` (callers re-sort by entity name, so bucket-internal
//! order never leaks into behaviour).

use simnet::SimTime;
use std::collections::VecDeque;

/// Width of one calendar bucket, in simulated seconds. Chosen near the
/// service-time scale: busy-server dues land in the first handful of
/// buckets, and at 50k clients the request-due density (tens of dues per
/// second) keeps buckets short. Sparse presets pay a few empty-bucket skips
/// per event, which is noise at their scale.
const BUCKET_SECS: f64 = 0.25;

/// A calendar queue of unique `(due, index)` entries.
#[derive(Debug, Default, Clone)]
pub struct DueQueue {
    /// Bucket index of `buckets[0]`.
    base: u64,
    buckets: VecDeque<Vec<(SimTime, u32)>>,
    /// Emptied buckets retired from the front, reused at the back: the
    /// calendar slides forward without allocating a bucket per quantum.
    spare: Vec<Vec<(SimTime, u32)>>,
    len: usize,
    /// Cached lexicographic minimum entry, maintained across mutations.
    min: Option<(SimTime, u32)>,
    /// Lifetime operation counters (observability only, never behaviour).
    inserts: u64,
    removes: u64,
    /// `collect_due` is `&self`, hence the cell.
    collected: std::cell::Cell<u64>,
}

/// Lifetime operation counts of a [`DueQueue`]: inserts, successful
/// removals, and entries yielded by [`collect_due`](DueQueue::collect_due).
/// Deterministic for a given run; they never influence scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DueQueueStats {
    /// Entries inserted.
    pub inserts: u64,
    /// Entries successfully removed.
    pub removes: u64,
    /// Entries yielded by due-window scans.
    pub collected: u64,
}

impl std::ops::Add for DueQueueStats {
    type Output = DueQueueStats;

    fn add(self, other: DueQueueStats) -> DueQueueStats {
        DueQueueStats {
            inserts: self.inserts + other.inserts,
            removes: self.removes + other.removes,
            collected: self.collected + other.collected,
        }
    }
}

fn bucket_of(t: SimTime) -> u64 {
    (t.as_secs() / BUCKET_SECS) as u64
}

impl DueQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, retaining bucket capacity.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
        self.min = None;
    }

    /// Inserts an entry. Callers guarantee `(due, index)` pairs are unique
    /// (one pending due per entity), matching the set they replaced.
    pub fn insert(&mut self, due: SimTime, index: u32) {
        let b = bucket_of(due);
        if self.buckets.is_empty() {
            self.base = b;
            self.buckets.push_back(self.spare.pop().unwrap_or_default());
        } else if b < self.base {
            for _ in b..self.base {
                self.buckets
                    .push_front(self.spare.pop().unwrap_or_default());
            }
            self.base = b;
        } else {
            let offset = b - self.base;
            while self.buckets.len() as u64 <= offset {
                self.buckets.push_back(self.spare.pop().unwrap_or_default());
            }
        }
        self.buckets[(b - self.base) as usize].push((due, index));
        self.len += 1;
        self.inserts += 1;
        if self.min.is_none_or(|m| (due, index) < m) {
            self.min = Some((due, index));
        }
    }

    /// Removes an entry if present; returns whether it was.
    pub fn remove(&mut self, due: SimTime, index: u32) -> bool {
        let b = bucket_of(due);
        if self.buckets.is_empty() || b < self.base {
            return false;
        }
        let offset = (b - self.base) as usize;
        let Some(bucket) = self.buckets.get_mut(offset) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|&e| e == (due, index)) else {
            return false;
        };
        bucket.swap_remove(pos);
        self.len -= 1;
        self.removes += 1;
        if self.min == Some((due, index)) {
            self.recompute_min();
        }
        true
    }

    /// The earliest due time, if any entry is pending.
    pub fn min_time(&self) -> Option<SimTime> {
        self.min.map(|(t, _)| t)
    }

    /// Appends every entry with `time <= t` to `out`, in unspecified order
    /// (non-destructive — callers remove entries per entity as they process
    /// them, and re-sort by entity name for deterministic processing order).
    pub fn collect_due(&self, t: SimTime, out: &mut Vec<(SimTime, u32)>) {
        if self.len == 0 {
            return;
        }
        let last = bucket_of(t);
        if last < self.base {
            return;
        }
        let end = ((last - self.base) as usize + 1).min(self.buckets.len());
        let before = out.len();
        for bucket in self.buckets.iter().take(end) {
            for &(due, index) in bucket {
                if due <= t {
                    out.push((due, index));
                }
            }
        }
        self.collected
            .set(self.collected.get() + (out.len() - before) as u64);
    }

    /// Lifetime operation counts (observability only).
    pub fn stats(&self) -> DueQueueStats {
        DueQueueStats {
            inserts: self.inserts,
            removes: self.removes,
            collected: self.collected.get(),
        }
    }

    /// Re-derives the cached minimum, advancing `base` past leading empty
    /// buckets so later scans start at the populated front.
    fn recompute_min(&mut self) {
        if self.len == 0 {
            self.min = None;
            self.spare.extend(self.buckets.drain(..));
            return;
        }
        while self.buckets.front().is_some_and(Vec::is_empty) {
            self.spare.extend(self.buckets.pop_front());
            self.base += 1;
        }
        self.min = self
            .buckets
            .front()
            .and_then(|bucket| bucket.iter().copied().min());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn min_tracks_inserts_and_removals() {
        let mut q = DueQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.min_time(), None);
        q.insert(t(5.0), 1);
        q.insert(t(2.0), 2);
        q.insert(t(2.0), 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.min_time(), Some(t(2.0)));
        assert!(q.remove(t(2.0), 0));
        assert_eq!(q.min_time(), Some(t(2.0)));
        assert!(q.remove(t(2.0), 2));
        assert_eq!(q.min_time(), Some(t(5.0)));
        assert!(!q.remove(t(2.0), 2), "double remove is a no-op");
        assert!(q.remove(t(5.0), 1));
        assert_eq!(q.min_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn earlier_insert_after_base_advanced() {
        let mut q = DueQueue::new();
        q.insert(t(100.0), 1);
        assert!(q.remove(t(100.0), 1));
        q.insert(t(200.0), 2);
        // Base has advanced past bucket 0; a near-term due must still work.
        q.insert(t(0.1), 3);
        assert_eq!(q.min_time(), Some(t(0.1)));
        let mut due = Vec::new();
        q.collect_due(t(1.0), &mut due);
        assert_eq!(due, vec![(t(0.1), 3)]);
    }

    #[test]
    fn collect_due_matches_btreeset_range() {
        use std::collections::BTreeSet;
        // Deterministic pseudo-random churn, shadowed by the BTreeSet the
        // queue replaces.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = DueQueue::new();
        let mut reference: BTreeSet<(u64, u32)> = BTreeSet::new();
        for step in 0..2000 {
            let op = next() % 3;
            if op < 2 {
                // Insert a unique (time, idx): time in hundredths of seconds.
                let centis = next() % 50_000;
                let idx = (next() % 64) as u32;
                let time = t(centis as f64 / 100.0);
                if reference.insert((centis, idx)) {
                    q.insert(time, idx);
                }
            } else if let Some(&(centis, idx)) = reference.iter().nth((next() % 8) as usize) {
                reference.remove(&(centis, idx));
                assert!(q.remove(t(centis as f64 / 100.0), idx));
            }
            assert_eq!(q.len(), reference.len());
            let expect_min = reference
                .first()
                .map(|&(centis, _)| t(centis as f64 / 100.0));
            assert_eq!(q.min_time(), expect_min, "step {step}");
            // Compare a due window against the reference range scan.
            let horizon = (next() % 50_000) as f64 / 100.0;
            let mut got = Vec::new();
            q.collect_due(t(horizon), &mut got);
            got.sort();
            let want: Vec<(SimTime, u32)> = reference
                .range(..=((horizon * 100.0).round() as u64, u32::MAX))
                .map(|&(centis, idx)| (t(centis as f64 / 100.0), idx))
                .collect();
            assert_eq!(got, want, "step {step} horizon {horizon}");
        }
    }
}
