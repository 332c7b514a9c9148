//! Miss Status Holding Registers (MSHRs) with same-line merge.
//!
//! The MSHR file bounds the number of outstanding misses — i.e. the amount of
//! memory-level parallelism the core can actually expose. The paper's limit
//! study uses unlimited MSHRs so that the IQ/RF/LQ/SQ are the only limiters;
//! the realistic configuration uses a finite file. Requests to a line that
//! already has an outstanding miss merge into the existing entry.

use crate::Cycle;
use ltp_isa::IntHashMap;

/// Result of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the miss proceeds to the next level at the
    /// given cycle (equal to the request cycle unless the file was full).
    Allocated {
        /// Cycle at which the miss could actually be issued downstream.
        issue_cycle: Cycle,
    },
    /// The line already has an outstanding miss; this request completes when
    /// that miss completes.
    Merged {
        /// Completion cycle of the outstanding miss.
        completion_cycle: Cycle,
    },
}

/// A finite (or unlimited) MSHR file tracking outstanding line misses.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// line address -> completion cycle of the outstanding miss. A hash map
    /// (rather than an ordered map) so the per-miss insert/remove churn of
    /// the hot loop reuses capacity instead of allocating tree nodes; every
    /// ordered decision below breaks ties explicitly, so behaviour is
    /// independent of iteration order.
    outstanding: IntHashMap<u64, Cycle>,
    /// The completion cycles of `outstanding`, ascending (a multiset). The
    /// outstanding count at any cycle and the next cycle at which it changes
    /// are binary searches here, not scans of the map.
    completions: Vec<Cycle>,
    peak_occupancy: usize,
    total_allocations: u64,
    total_merges: u64,
    full_stall_cycles: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries. Use `usize::MAX` for the
    /// unlimited file of the limit study.
    #[must_use]
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR capacity must be at least 1");
        // Pre-size the tables so miss churn never grows them mid-run (the
        // live count is bounded by the file capacity; 512 covers the limit
        // study's practical outstanding-miss population).
        let reserve = capacity.clamp(64, 512);
        MshrFile {
            capacity,
            outstanding: IntHashMap::with_capacity_and_hasher(reserve, Default::default()),
            completions: Vec::with_capacity(reserve),
            peak_occupancy: 0,
            total_allocations: 0,
            total_merges: 0,
            full_stall_cycles: 0,
        }
    }

    /// Index of the first entry of `completions` still in flight at `now`.
    fn first_after(&self, now: Cycle) -> usize {
        self.completions.partition_point(|&c| c <= now)
    }

    /// Number of misses currently outstanding at `now` (entries whose
    /// completion is still in the future).
    #[must_use]
    pub fn outstanding_at(&self, now: Cycle) -> usize {
        self.completions.len() - self.first_after(now)
    }

    /// The first cycle after `now` at which [`MshrFile::outstanding_at`]
    /// changes if no further request arrives, or `None` when nothing is in
    /// flight at `now`. The count is constant over `now..next`.
    #[must_use]
    pub fn next_change_after(&self, now: Cycle) -> Option<Cycle> {
        self.completions.get(self.first_after(now)).copied()
    }

    fn completions_insert(&mut self, cycle: Cycle) {
        let at = self.completions.partition_point(|&c| c <= cycle);
        self.completions.insert(at, cycle);
    }

    fn completions_remove(&mut self, cycle: Cycle) {
        let at = self.completions.partition_point(|&c| c < cycle);
        debug_assert_eq!(self.completions.get(at), Some(&cycle));
        self.completions.remove(at);
    }

    /// Removes entries that have completed by `now`.
    pub fn retire_completed(&mut self, now: Cycle) {
        let done = self.first_after(now);
        if done == 0 {
            return;
        }
        self.completions.drain(..done);
        self.outstanding.retain(|_, &mut c| c > now);
    }

    /// Checks whether `line_addr` has an outstanding miss at `now` without
    /// allocating a new entry. Returns [`MshrOutcome::Merged`] if so. Used for
    /// accesses that hit in a cache on a line whose refill is still in flight.
    pub fn lookup_or_allocate_probe(&mut self, line_addr: u64, now: Cycle) -> MshrOutcome {
        if let Some(&completion) = self.outstanding.get(&line_addr) {
            if completion > now {
                self.total_merges += 1;
                return MshrOutcome::Merged {
                    completion_cycle: completion,
                };
            }
        }
        MshrOutcome::Allocated { issue_cycle: now }
    }

    /// Presents a miss for `line_addr` at cycle `now`.
    ///
    /// * If the line already has an outstanding miss, the request merges and
    ///   the existing completion cycle is returned.
    /// * Otherwise a new entry is allocated. If the file is full, the issue
    ///   cycle is delayed until the earliest outstanding miss completes.
    ///
    /// The caller must later call [`MshrFile::record_completion`] with the
    /// final completion cycle of an allocated miss so that subsequent requests
    /// can merge with it.
    pub fn lookup_or_allocate(&mut self, line_addr: u64, now: Cycle) -> MshrOutcome {
        self.retire_completed(now);

        if let Some(&completion) = self.outstanding.get(&line_addr) {
            self.total_merges += 1;
            return MshrOutcome::Merged {
                completion_cycle: completion,
            };
        }

        let issue_cycle = if self.capacity != usize::MAX && self.outstanding.len() >= self.capacity
        {
            // Wait until the earliest outstanding miss completes; ties are
            // broken towards the smallest line address (the entry the old
            // ordered-map scan would have found).
            let earliest = self.completions[0];
            let key = self
                .outstanding
                .iter()
                .filter(|&(_, &c)| c == earliest)
                .map(|(&k, _)| k)
                .min()
                .expect("full MSHR file has entries");
            let stall = earliest.saturating_sub(now);
            self.full_stall_cycles += stall;
            // Drop the completed entry so we stay within capacity.
            self.outstanding.remove(&key);
            self.completions.remove(0);
            earliest
        } else {
            now
        };

        self.total_allocations += 1;
        // Placeholder completion; the caller overwrites it via record_completion.
        self.outstanding.insert(line_addr, issue_cycle);
        self.completions_insert(issue_cycle);
        self.peak_occupancy = self.peak_occupancy.max(self.outstanding.len());
        MshrOutcome::Allocated { issue_cycle }
    }

    /// Records the completion cycle of a previously allocated miss so that
    /// later requests to the same line can merge with it.
    pub fn record_completion(&mut self, line_addr: u64, completion: Cycle) {
        if let Some(entry) = self.outstanding.get_mut(&line_addr) {
            let old = std::mem::replace(entry, completion);
            self.completions_remove(old);
            self.completions_insert(completion);
        }
    }

    /// Capacity of the file (`usize::MAX` = unlimited).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest number of simultaneously outstanding misses observed.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Number of allocated (non-merged) misses.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.total_allocations
    }

    /// Number of merged requests.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.total_merges
    }

    /// Total cycles requests were delayed because the file was full.
    #[must_use]
    pub fn full_stall_cycles(&self) -> u64 {
        self.full_stall_cycles
    }
}

/// Exported MSHR state for the snapshot codec.
#[derive(Debug)]
pub(crate) struct MshrSnap {
    pub(crate) capacity: usize,
    /// `(line address, completion cycle)` sorted by line address.
    pub(crate) outstanding: Vec<(u64, Cycle)>,
    pub(crate) peak_occupancy: usize,
    pub(crate) total_allocations: u64,
    pub(crate) total_merges: u64,
    pub(crate) full_stall_cycles: u64,
}

impl MshrFile {
    pub(crate) fn snap_parts(&self) -> MshrSnap {
        let mut outstanding: Vec<(u64, Cycle)> =
            self.outstanding.iter().map(|(&k, &c)| (k, c)).collect();
        outstanding.sort_unstable();
        MshrSnap {
            capacity: self.capacity,
            outstanding,
            peak_occupancy: self.peak_occupancy,
            total_allocations: self.total_allocations,
            total_merges: self.total_merges,
            full_stall_cycles: self.full_stall_cycles,
        }
    }

    pub(crate) fn from_snap_parts(snap: MshrSnap) -> MshrFile {
        let mut file = MshrFile::new(snap.capacity.max(1));
        file.capacity = snap.capacity.max(1);
        // Extend into the constructor's deliberately pre-sized tables instead
        // of replacing them, so a restored machine keeps the never-grow-
        // mid-run capacity guarantee the hot loop relies on.
        file.outstanding.extend(snap.outstanding);
        file.completions.extend(file.outstanding.values().copied());
        file.completions.sort_unstable();
        file.peak_occupancy = snap.peak_occupancy;
        file.total_allocations = snap.total_allocations;
        file.total_merges = snap.total_merges;
        file.full_stall_cycles = snap.full_stall_cycles;
        file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        let out = m.lookup_or_allocate(0x1000, 10);
        assert_eq!(out, MshrOutcome::Allocated { issue_cycle: 10 });
        m.record_completion(0x1000, 200);
        let merged = m.lookup_or_allocate(0x1000, 20);
        assert_eq!(
            merged,
            MshrOutcome::Merged {
                completion_cycle: 200
            }
        );
        assert_eq!(m.allocations(), 1);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn different_lines_do_not_merge() {
        let mut m = MshrFile::new(4);
        m.lookup_or_allocate(0x1000, 0);
        m.record_completion(0x1000, 300);
        let out = m.lookup_or_allocate(0x2000, 0);
        assert!(matches!(out, MshrOutcome::Allocated { .. }));
    }

    #[test]
    fn completed_entries_are_retired() {
        let mut m = MshrFile::new(4);
        m.lookup_or_allocate(0x1000, 0);
        m.record_completion(0x1000, 100);
        assert_eq!(m.outstanding_at(50), 1);
        assert_eq!(m.outstanding_at(100), 0);
        // After completion the same line misses again and allocates fresh.
        let out = m.lookup_or_allocate(0x1000, 150);
        assert!(matches!(out, MshrOutcome::Allocated { issue_cycle: 150 }));
    }

    #[test]
    fn full_file_delays_issue() {
        let mut m = MshrFile::new(2);
        m.lookup_or_allocate(0xa000, 0);
        m.record_completion(0xa000, 100);
        m.lookup_or_allocate(0xb000, 0);
        m.record_completion(0xb000, 150);
        // Third distinct miss at cycle 10 must wait for the first to complete.
        let out = m.lookup_or_allocate(0xc000, 10);
        match out {
            MshrOutcome::Allocated { issue_cycle } => assert_eq!(issue_cycle, 100),
            MshrOutcome::Merged { .. } => panic!("should allocate"),
        }
        assert_eq!(m.full_stall_cycles(), 90);
    }

    #[test]
    fn unlimited_file_never_delays() {
        let mut m = MshrFile::new(usize::MAX);
        for i in 0..1000u64 {
            let out = m.lookup_or_allocate(0x1_0000 + i * 64, 5);
            assert_eq!(out, MshrOutcome::Allocated { issue_cycle: 5 });
            m.record_completion(0x1_0000 + i * 64, 500);
        }
        assert_eq!(m.outstanding_at(5), 1000);
        assert_eq!(m.peak_occupancy(), 1000);
    }

    /// The outstanding count and its next-change cycle agree with a brute
    /// force scan of the entries at every probed cycle, across random miss
    /// traffic with merges, full-file stalls and retirement.
    #[test]
    fn count_and_next_change_match_brute_force() {
        for capacity in [1usize, 4, 16, usize::MAX] {
            let mut m = MshrFile::new(capacity);
            let mut rng = 0x2545_f491_4f6c_dd1du64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut now = 0u64;
            for _ in 0..4_000 {
                now += next() % 7;
                let line = (next() % 40) * 64;
                if let MshrOutcome::Allocated { issue_cycle } = m.lookup_or_allocate(line, now) {
                    m.record_completion(line, issue_cycle + 1 + next() % 300);
                }
                for probe in [now, now + next() % 50, now + next() % 400] {
                    let live: Vec<Cycle> = m
                        .outstanding
                        .values()
                        .copied()
                        .filter(|&c| c > probe)
                        .collect();
                    assert_eq!(m.outstanding_at(probe), live.len());
                    assert_eq!(m.next_change_after(probe), live.iter().copied().min());
                }
                let mut sorted: Vec<Cycle> = m.outstanding.values().copied().collect();
                sorted.sort_unstable();
                assert_eq!(m.completions, sorted, "completion index diverged");
            }
            assert!(m.allocations() > 0);
        }
    }

    #[test]
    fn next_change_is_the_next_completion() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_change_after(0), None);
        m.lookup_or_allocate(0x1000, 0);
        m.record_completion(0x1000, 100);
        m.lookup_or_allocate(0x2000, 0);
        m.record_completion(0x2000, 40);
        assert_eq!(m.next_change_after(0), Some(40));
        assert_eq!(m.next_change_after(39), Some(40));
        assert_eq!(m.next_change_after(40), Some(100));
        assert_eq!(m.outstanding_at(40), 1);
        assert_eq!(m.next_change_after(100), None);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
