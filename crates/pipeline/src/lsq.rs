//! Load queue, store queue and the memory dependence predictor.
//!
//! The LQ and SQ are modelled as bounded allocation pools plus enough address
//! state for store-to-load forwarding. Entries are allocated at rename and
//! freed at commit (stores: shortly after commit when the write drains),
//! matching Figure 4. The paper's proposed design does *not* delay LQ/SQ
//! allocation for parked instructions (§4.3); the limit study rows that sweep
//! the LQ/SQ sizes do, which the pipeline supports through
//! `PipelineConfig::delay_lsq_alloc`.
//!
//! The memory dependence predictor implements the §5.3 interaction with LTP:
//! loads that have previously forwarded from a store that was parked are
//! remembered; at rename such a load inherits the parked bit (it is sent to
//! LTP) so that it wakes together with its producing store.

use ltp_isa::{Pc, SeqNum};
use std::collections::VecDeque;

/// Up-front reservation for a queue of the given configured capacity: the
/// full capacity for realistic sizes, a sane cap for the limit study's
/// `usize::MAX`, so steady-state growth never reallocates mid-run.
fn bounded_reserve(capacity: usize) -> usize {
    capacity.min(1024)
}

/// One store queue entry with the address once known.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreEntry {
    pub(crate) seq: SeqNum,
    pub(crate) line_addr: Option<u64>,
    pub(crate) data_ready_cycle: Option<u64>,
    pub(crate) was_parked: bool,
}

/// The store queue.
///
/// Entries are kept in allocation order (which is program order except under
/// delayed LQ/SQ allocation, where a released parked store can allocate after
/// a younger store). While the queue is allocation-sorted — the common case —
/// the seq→slot lookups used by address capture and release are a binary
/// search instead of the seed's linear scan; a rare out-of-order allocation
/// drops back to the scan until the queue drains, preserving the exact
/// forwarding semantics of the seed.
#[derive(Debug, Clone)]
pub struct StoreQueue {
    pub(crate) capacity: usize,
    pub(crate) entries: VecDeque<StoreEntry>,
    /// Whether `entries` is currently sorted by sequence number.
    pub(crate) sorted: bool,
    pub(crate) peak: usize,
}

impl StoreQueue {
    /// Creates an empty store queue (`usize::MAX` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> StoreQueue {
        assert!(capacity > 0, "SQ needs at least one entry");
        StoreQueue {
            capacity,
            entries: VecDeque::with_capacity(bounded_reserve(capacity)),
            sorted: true,
            peak: 0,
        }
    }

    /// Slot of the entry for store `seq`: binary search while the queue is
    /// allocation-sorted, linear scan otherwise.
    fn position_of(&self, seq: SeqNum) -> Option<usize> {
        if self.sorted {
            self.entries.binary_search_by_key(&seq.0, |e| e.seq.0).ok()
        } else {
            self.entries.iter().position(|e| e.seq == seq)
        }
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether another store can be allocated.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.capacity == usize::MAX || self.entries.len() < self.capacity
    }

    /// Whether space remains beyond a reserve held for LTP releases.
    #[must_use]
    pub fn has_space_beyond_reserve(&self, reserve: usize) -> bool {
        self.capacity == usize::MAX || self.entries.len() + reserve < self.capacity
    }

    /// Peak occupancy observed.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Allocates an entry for the store `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn allocate(&mut self, seq: SeqNum, was_parked: bool) {
        assert!(self.has_space(), "allocating into a full SQ");
        if self.entries.back().is_some_and(|b| b.seq >= seq) {
            self.sorted = false;
        }
        self.entries.push_back(StoreEntry {
            seq,
            line_addr: None,
            data_ready_cycle: None,
            was_parked,
        });
        self.peak = self.peak.max(self.entries.len());
    }

    /// Records the address (and data-ready cycle) of store `seq` once its
    /// address generation has executed.
    pub fn set_address(&mut self, seq: SeqNum, line_addr: u64, data_ready_cycle: u64) {
        if let Some(pos) = self.position_of(seq) {
            let e = &mut self.entries[pos];
            e.line_addr = Some(line_addr);
            e.data_ready_cycle = Some(data_ready_cycle);
        }
    }

    /// Checks whether a load to `line_addr`, younger than `load_seq`, can
    /// forward from an older store. Returns:
    ///
    /// * `Some((data_ready_cycle, store_was_parked))` if an older store to the
    ///   same line exists with a known address (the youngest such store wins);
    /// * `None` if no older store matches.
    #[must_use]
    pub fn forward_for(&self, load_seq: SeqNum, line_addr: u64) -> Option<(u64, bool)> {
        self.entries
            .iter()
            .rev()
            .filter(|e| e.seq.is_older_than(load_seq))
            .find(|e| e.line_addr == Some(line_addr))
            .map(|e| (e.data_ready_cycle.unwrap_or(0), e.was_parked))
    }

    /// Frees the entry of store `seq` (at/after commit). Returns whether an
    /// entry was removed.
    pub fn release(&mut self, seq: SeqNum) -> bool {
        if let Some(pos) = self.position_of(seq) {
            self.entries.remove(pos);
            if self.entries.is_empty() {
                self.sorted = true;
            }
            true
        } else {
            false
        }
    }
}

/// The load queue: a bounded pool of in-flight loads, kept sorted by
/// sequence number so allocation and release are a binary search (the seed
/// scanned linearly). Under delayed LQ allocation a released parked load can
/// allocate out of order, which is a mid-queue insert; the common in-order
/// case appends at the back.
#[derive(Debug, Clone)]
pub struct LoadQueue {
    pub(crate) capacity: usize,
    pub(crate) entries: VecDeque<SeqNum>,
    pub(crate) peak: usize,
}

impl LoadQueue {
    /// Creates an empty load queue (`usize::MAX` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> LoadQueue {
        assert!(capacity > 0, "LQ needs at least one entry");
        LoadQueue {
            capacity,
            entries: VecDeque::with_capacity(bounded_reserve(capacity)),
            peak: 0,
        }
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether another load can be allocated.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.capacity == usize::MAX || self.entries.len() < self.capacity
    }

    /// Whether space remains beyond a reserve held for LTP releases.
    #[must_use]
    pub fn has_space_beyond_reserve(&self, reserve: usize) -> bool {
        self.capacity == usize::MAX || self.entries.len() + reserve < self.capacity
    }

    /// Peak occupancy observed.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Allocates an entry for load `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn allocate(&mut self, seq: SeqNum) {
        assert!(self.has_space(), "allocating into a full LQ");
        if self.entries.back().is_none_or(|&b| b < seq) {
            self.entries.push_back(seq);
        } else if let Err(pos) = self.entries.binary_search(&seq) {
            self.entries.insert(pos, seq);
        }
        self.peak = self.peak.max(self.entries.len());
    }

    /// Frees the entry of load `seq`. Returns whether an entry was removed.
    pub fn release(&mut self, seq: SeqNum) -> bool {
        if let Ok(pos) = self.entries.binary_search(&seq) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }
}

/// Predicts which loads depend on (parked) stores, keyed by load PC (§5.3).
#[derive(Debug, Clone, Default)]
pub struct MemDepPredictor {
    pub(crate) dependent_loads: ltp_isa::IntHashSet<u64>,
    pub(crate) hits: u64,
}

impl MemDepPredictor {
    /// Creates an empty predictor.
    #[must_use]
    pub fn new() -> MemDepPredictor {
        MemDepPredictor::default()
    }

    /// Records that the load at `pc` forwarded from a store that had been
    /// parked in LTP.
    pub fn train(&mut self, pc: Pc) {
        self.dependent_loads.insert(pc.0);
    }

    /// Whether the load at `pc` is predicted to depend on a parked store.
    pub fn predicts_parked_dependence(&mut self, pc: Pc) -> bool {
        let hit = self.dependent_loads.contains(&pc.0);
        if hit {
            self.hits += 1;
        }
        hit
    }

    /// Number of positive predictions made.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_allocation_and_capacity() {
        let mut sq = StoreQueue::new(2);
        sq.allocate(SeqNum(0), false);
        assert!(sq.has_space());
        sq.allocate(SeqNum(1), false);
        assert!(!sq.has_space());
        assert!(!sq.has_space_beyond_reserve(1));
        assert!(sq.release(SeqNum(0)));
        assert!(sq.has_space());
        assert!(!sq.release(SeqNum(0)));
        assert_eq!(sq.peak(), 2);
    }

    #[test]
    fn store_forwarding_matches_youngest_older_store() {
        let mut sq = StoreQueue::new(8);
        sq.allocate(SeqNum(1), false);
        sq.allocate(SeqNum(3), true);
        sq.set_address(SeqNum(1), 0x100, 50);
        sq.set_address(SeqNum(3), 0x100, 80);
        // A load at seq 5 forwards from the youngest older store (seq 3).
        let (ready, parked) = sq.forward_for(SeqNum(5), 0x100).unwrap();
        assert_eq!(ready, 80);
        assert!(parked);
        // A load older than both stores cannot forward.
        assert!(sq.forward_for(SeqNum(0), 0x100).is_none());
        // A different line does not forward.
        assert!(sq.forward_for(SeqNum(5), 0x140).is_none());
    }

    #[test]
    fn forwarding_ignores_unknown_addresses() {
        let mut sq = StoreQueue::new(8);
        sq.allocate(SeqNum(1), false);
        assert!(sq.forward_for(SeqNum(5), 0x100).is_none());
    }

    #[test]
    fn lq_allocation_release() {
        let mut lq = LoadQueue::new(2);
        lq.allocate(SeqNum(4));
        lq.allocate(SeqNum(5));
        assert!(!lq.has_space());
        assert!(lq.release(SeqNum(4)));
        assert!(lq.has_space());
        assert!(!lq.release(SeqNum(4)));
        assert_eq!(lq.peak(), 2);
        assert!(lq.has_space_beyond_reserve(0));
    }

    #[test]
    fn unlimited_queues() {
        let mut lq = LoadQueue::new(usize::MAX);
        let mut sq = StoreQueue::new(usize::MAX);
        for s in 0..1000u64 {
            lq.allocate(SeqNum(s));
            sq.allocate(SeqNum(s), false);
        }
        assert!(lq.has_space());
        assert!(sq.has_space_beyond_reserve(10_000));
    }

    #[test]
    #[should_panic(expected = "full LQ")]
    fn lq_overflow_panics() {
        let mut lq = LoadQueue::new(1);
        lq.allocate(SeqNum(0));
        lq.allocate(SeqNum(1));
    }

    #[test]
    #[should_panic(expected = "full SQ")]
    fn sq_overflow_panics() {
        let mut sq = StoreQueue::new(1);
        sq.allocate(SeqNum(0), false);
        sq.allocate(SeqNum(1), false);
    }

    #[test]
    fn mem_dep_predictor_learns() {
        let mut p = MemDepPredictor::new();
        assert!(!p.predicts_parked_dependence(Pc(0x10)));
        p.train(Pc(0x10));
        assert!(p.predicts_parked_dependence(Pc(0x10)));
        assert!(!p.predicts_parked_dependence(Pc(0x20)));
        assert_eq!(p.hits(), 1);
    }
}
