//! The reorder buffer.
//!
//! Every instruction — parked or not — allocates a ROB entry at rename so
//! that commit stays in order ("while the parked instructions have not been
//! placed in the IQ, they have been allocated an entry in the ROB to ensure
//! in-order commit", §3). The ROB is also where the LTP wakeup boundary is
//! computed: Non-Urgent instructions between the head and the *second*
//! long-latency instruction in the ROB are woken (§3.2, §5.2).

use crate::rat::RegSource;
use crate::state::InFlight;
use ltp_isa::{ArchReg, OpClass, Pc, PhysReg, SeqNum};
use ltp_mem::Cycle;
use std::collections::VecDeque;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobState {
    /// Parked in LTP; not yet dispatched to the IQ.
    Parked,
    /// Dispatched to the IQ, waiting for operands / issue.
    InQueue,
    /// Issued to a functional unit; completion scheduled.
    Executing,
    /// Result produced; eligible for commit when it reaches the head.
    Completed,
}

/// One reorder buffer entry.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Sequence number of the instruction.
    pub seq: SeqNum,
    /// Its PC (needed for UIT updates at commit).
    pub pc: Pc,
    /// Operation class.
    pub op: OpClass,
    /// Current state.
    pub state: RobState,
    /// Destination architectural register, if any.
    pub dst: Option<ArchReg>,
    /// Physical register allocated for the destination (None while parked).
    pub dest_phys: Option<PhysReg>,
    /// Previous mapping of the destination register, freed at commit.
    pub prev_mapping: RegSource,
    /// Whether this instruction is long-latency (LLC-missing load, divide,
    /// square root) — discovered at issue/execute time for loads.
    pub long_latency: bool,
    /// Whether the instruction currently holds an LQ entry.
    pub holds_lq: bool,
    /// Whether the instruction currently holds an SQ entry.
    pub holds_sq: bool,
    /// Whether it was parked in LTP at rename (for statistics).
    pub was_parked: bool,
    /// Cycle at which execution completes (valid once `Executing`).
    pub completion_cycle: Cycle,
}

impl RobEntry {
    /// Whether the entry has completed execution.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        self.state == RobState::Completed
    }
}

/// The reorder buffer: a bounded FIFO of [`RobEntry`].
///
/// Sequence numbers are dense along the trace and every renamed instruction
/// pushes an entry, so an entry's slot is arithmetically derivable from its
/// sequence number (`seq - head.seq`) — [`Rob::get`] / [`Rob::get_mut`] are
/// O(1) rather than a search. The §3.2 Non-Urgent wakeup boundary is served
/// from `ll_incomplete`, a sorted index of incomplete long-latency entries
/// maintained incrementally by [`Rob::push`], [`Rob::mark_issued`],
/// [`Rob::complete`] and [`Rob::try_commit`], so the per-cycle boundary query
/// no longer scans the whole window.
///
/// Each slot also carries the instruction's in-flight metadata (the decoded
/// instruction and its rename-time sources), which lives exactly as long as
/// the ROB entry: the issue, release and commit stages read it by sequence
/// number through the same O(1) slot arithmetic.
#[derive(Debug, Clone)]
pub struct Rob {
    pub(crate) capacity: usize,
    pub(crate) entries: VecDeque<RobEntry>,
    /// In-flight metadata, parallel to `entries` (`None` only for entries
    /// pushed through the public [`Rob::push`]).
    pub(crate) inflight: VecDeque<Option<InFlight>>,
    /// Sequence numbers of incomplete long-latency entries, ascending.
    pub(crate) ll_incomplete: Vec<u64>,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Rob {
        assert!(capacity > 0, "ROB needs at least one entry");
        Rob {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(1024)),
            inflight: VecDeque::with_capacity(capacity.min(1024)),
            ll_incomplete: Vec::with_capacity(64),
        }
    }

    /// Slot of the entry with sequence number `seq`, derived arithmetically
    /// from the dense sequence numbering (with a search fallback for
    /// synthetic non-dense test streams).
    pub(crate) fn position_of(&self, seq: SeqNum) -> Option<usize> {
        let front = self.entries.front()?;
        let idx = seq.0.checked_sub(front.seq.0)? as usize;
        if let Some(e) = self.entries.get(idx) {
            if e.seq == seq {
                return Some(idx);
            }
        }
        self.entries.binary_search_by_key(&seq.0, |e| e.seq.0).ok()
    }

    fn ll_insert(&mut self, seq: SeqNum) {
        if let Err(pos) = self.ll_incomplete.binary_search(&seq.0) {
            self.ll_incomplete.insert(pos, seq.0);
        }
    }

    fn ll_remove(&mut self, seq: SeqNum) {
        if let Ok(pos) = self.ll_incomplete.binary_search(&seq.0) {
            self.ll_incomplete.remove(pos);
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ROB has room for another instruction.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an entry at the tail (program order).
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full or the entry is out of program order.
    pub fn push(&mut self, entry: RobEntry) {
        self.push_slot(entry, None);
    }

    /// Appends an entry together with its in-flight metadata.
    pub(crate) fn push_inflight(&mut self, entry: RobEntry, inflight: InFlight) {
        self.push_slot(entry, Some(inflight));
    }

    fn push_slot(&mut self, entry: RobEntry, inflight: Option<InFlight>) {
        assert!(self.has_space(), "pushing into a full ROB");
        if let Some(last) = self.entries.back() {
            assert!(
                last.seq.is_older_than(entry.seq),
                "ROB entries must be pushed in program order"
            );
        }
        if entry.long_latency && !entry.is_completed() {
            self.ll_insert(entry.seq);
        }
        self.entries.push_back(entry);
        self.inflight.push_back(inflight);
    }

    /// The oldest entry, if any.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Sequence number just past the youngest entry (wake-everything
    /// boundary when there is no second long-latency instruction).
    #[must_use]
    pub fn tail_boundary(&self) -> SeqNum {
        self.entries
            .back()
            .map(|e| SeqNum(e.seq.0 + 1))
            .unwrap_or(SeqNum(0))
    }

    /// Pops the head if it has completed. Returns the committed entry.
    pub fn try_commit(&mut self) -> Option<RobEntry> {
        self.try_commit_inflight().map(|(entry, _)| entry)
    }

    /// Like [`Rob::try_commit`], also handing back the entry's in-flight
    /// metadata.
    pub(crate) fn try_commit_inflight(&mut self) -> Option<(RobEntry, Option<InFlight>)> {
        if self
            .entries
            .front()
            .map(RobEntry::is_completed)
            .unwrap_or(false)
        {
            let entry = self.entries.pop_front();
            if let Some(e) = &entry {
                // A committing entry is complete, so it normally left the
                // index in `complete`; entries driven to Completed through
                // `get_mut` (tests) are swept here.
                if e.long_latency {
                    self.ll_remove(e.seq);
                }
            }
            let inflight = self.inflight.pop_front().flatten();
            entry.map(|e| (e, inflight))
        } else {
            None
        }
    }

    /// Marks the entry as issued to a functional unit: state, completion
    /// cycle and (for loads discovered to miss, divides, square roots) the
    /// long-latency flag. Keeps the wakeup-boundary index coherent.
    pub fn mark_issued(&mut self, seq: SeqNum, completion_cycle: Cycle, long_latency: bool) {
        let Some(idx) = self.position_of(seq) else {
            return;
        };
        let e = &mut self.entries[idx];
        e.state = RobState::Executing;
        e.completion_cycle = completion_cycle;
        if long_latency && !e.long_latency {
            e.long_latency = true;
            self.ll_insert(seq);
        }
    }

    /// Marks the entry completed (writeback), removing it from the
    /// wakeup-boundary index, and returns it for inspection.
    pub fn complete(&mut self, seq: SeqNum) -> Option<&RobEntry> {
        let idx = self.position_of(seq)?;
        let e = &mut self.entries[idx];
        e.state = RobState::Completed;
        if e.long_latency {
            self.ll_remove(seq);
        }
        Some(&self.entries[idx])
    }

    /// Mutable access to the entry with sequence number `seq`.
    ///
    /// Callers must not flip `state` to [`RobState::Completed`] or raise
    /// `long_latency` through this handle — use [`Rob::complete`] /
    /// [`Rob::mark_issued`] so the wakeup-boundary index stays coherent.
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut RobEntry> {
        let idx = self.position_of(seq)?;
        self.entries.get_mut(idx)
    }

    /// The in-flight metadata of the entry with sequence number `seq`.
    pub(crate) fn inflight(&self, seq: SeqNum) -> Option<&InFlight> {
        let idx = self.position_of(seq)?;
        self.inflight.get(idx)?.as_ref()
    }

    /// Shared access to the entry with sequence number `seq`.
    #[must_use]
    pub fn get(&self, seq: SeqNum) -> Option<&RobEntry> {
        let idx = self.position_of(seq)?;
        self.entries.get(idx)
    }

    /// Iterates over entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// The LTP Non-Urgent wakeup boundary: the sequence number of the
    /// *second* incomplete long-latency instruction in the ROB. Parked
    /// instructions older than this boundary are woken so that, when the
    /// long-latency instruction blocking the head completes, everything up to
    /// the next stall point is ready to commit (§3.2).
    ///
    /// When fewer than two incomplete long-latency instructions are present
    /// the boundary is one past the ROB tail (wake everything).
    #[must_use]
    pub fn nu_wake_boundary(&self) -> SeqNum {
        let boundary = match self.ll_incomplete.get(1) {
            Some(&seq) => SeqNum(seq),
            None => self.tail_boundary(),
        };
        debug_assert_eq!(
            boundary,
            self.nu_wake_boundary_scan(),
            "incremental long-latency index diverged from the window scan"
        );
        boundary
    }

    /// Reference implementation of the boundary (full window scan), kept for
    /// the debug cross-check above.
    fn nu_wake_boundary_scan(&self) -> SeqNum {
        let mut seen = 0;
        for e in &self.entries {
            if e.long_latency && !e.is_completed() {
                seen += 1;
                if seen == 2 {
                    return e.seq;
                }
            }
        }
        self.tail_boundary()
    }

    /// Number of parked entries currently in the ROB.
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state == RobState::Parked)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, long_latency: bool, completed: bool) -> RobEntry {
        RobEntry {
            seq: SeqNum(seq),
            pc: Pc(0x100 + seq * 4),
            op: OpClass::IntAlu,
            state: if completed {
                RobState::Completed
            } else {
                RobState::InQueue
            },
            dst: Some(ArchReg::int(1)),
            dest_phys: None,
            prev_mapping: RegSource::Ready,
            long_latency,
            holds_lq: false,
            holds_sq: false,
            was_parked: false,
            completion_cycle: 0,
        }
    }

    #[test]
    fn push_and_commit_in_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(0, false, true));
        rob.push(entry(1, false, false));
        assert_eq!(rob.len(), 2);
        let c = rob.try_commit().unwrap();
        assert_eq!(c.seq, SeqNum(0));
        // Head not completed: no commit.
        assert!(rob.try_commit().is_none());
        assert_eq!(rob.len(), 1);
    }

    #[test]
    #[should_panic(expected = "full ROB")]
    fn push_into_full_rob_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0, false, false));
        rob.push(entry(1, false, false));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_push_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5, false, false));
        rob.push(entry(3, false, false));
    }

    #[test]
    fn get_by_seq() {
        let mut rob = Rob::new(8);
        for s in 10..15u64 {
            rob.push(entry(s, false, false));
        }
        assert_eq!(rob.get(SeqNum(12)).unwrap().seq, SeqNum(12));
        assert!(rob.get(SeqNum(99)).is_none());
        rob.get_mut(SeqNum(13)).unwrap().state = RobState::Completed;
        assert!(rob.get(SeqNum(13)).unwrap().is_completed());
    }

    #[test]
    fn wake_boundary_is_second_long_latency() {
        let mut rob = Rob::new(16);
        rob.push(entry(0, true, false)); // first LL (blocking the head)
        rob.push(entry(1, false, false));
        rob.push(entry(2, false, false));
        rob.push(entry(3, true, false)); // second LL
        rob.push(entry(4, false, false));
        assert_eq!(rob.nu_wake_boundary(), SeqNum(3));
    }

    #[test]
    fn wake_boundary_ignores_completed_long_latency() {
        let mut rob = Rob::new(16);
        rob.push(entry(0, true, true)); // completed LL does not count
        rob.push(entry(1, true, false));
        rob.push(entry(2, false, false));
        // Only one incomplete LL -> boundary is past the tail.
        assert_eq!(rob.nu_wake_boundary(), SeqNum(3));
    }

    #[test]
    fn wake_boundary_with_no_long_latency_is_tail() {
        let mut rob = Rob::new(16);
        rob.push(entry(7, false, false));
        rob.push(entry(8, false, false));
        assert_eq!(rob.nu_wake_boundary(), SeqNum(9));
        assert_eq!(Rob::new(4).nu_wake_boundary(), SeqNum(0));
    }

    #[test]
    fn parked_count() {
        let mut rob = Rob::new(16);
        let mut e = entry(0, false, false);
        e.state = RobState::Parked;
        rob.push(e);
        rob.push(entry(1, false, false));
        assert_eq!(rob.parked_count(), 1);
    }
}
