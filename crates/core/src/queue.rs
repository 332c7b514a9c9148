//! The Long Term Parking queue itself (Figure 9c).
//!
//! For the recommended Non-Urgent-only design the LTP is a plain FIFO:
//! instructions enter at the tail in program order and leave from the head in
//! program order when the ROB-proximity wakeup condition is met. The extended
//! design that also parks Non-Ready instructions additionally allows
//! out-of-order release of entries whose ticket set has become empty (a CAM /
//! bit-matrix in hardware; here a scan).
//!
//! Bandwidth is limited by the number of LTP ports: at most `ports`
//! instructions can enter *and* at most `ports` can leave per cycle
//! (Figure 10 sweeps 1/2/4/8 ports).

use crate::class::Criticality;
use crate::tickets::{Ticket, TicketSet};
use crate::Cycle;
use ltp_isa::SeqNum;
use std::collections::VecDeque;

/// One instruction parked in LTP.
#[derive(Debug, Clone)]
pub struct ParkedInst {
    /// Dynamic sequence number of the parked instruction.
    pub seq: SeqNum,
    /// Its criticality at the time it was parked.
    pub class: Criticality,
    /// Tickets it waits on (empty for Non-Urgent-only parking).
    pub tickets: TicketSet,
    /// Cycle at which it entered the LTP (for residency statistics).
    pub parked_at: Cycle,
    /// Whether the instruction writes a register (it will need one when it
    /// leaves LTP; used for the Figure 7 "registers in LTP" statistic).
    pub writes_reg: bool,
    /// Whether it is a load / store (Figure 7 loads/stores in LTP).
    pub is_load: bool,
    /// Whether it is a store.
    pub is_store: bool,
}

/// The parking FIFO with port-limited enqueue/dequeue bandwidth.
///
/// The seed scanned every parked entry on each ticket broadcast and on each
/// composition-statistics query. This version keeps the same observable
/// behaviour with incremental indexes:
///
/// * `ticket_holders` maps a ticket to the sequence numbers parked waiting
///   on it, so [`LtpQueue::clear_ticket`] touches exactly the holders
///   (entries are seq-sorted, so each lookup is a binary search). A
///   force-released entry may leave a stale holder behind; the broadcast
///   skips sequence numbers no longer parked.
/// * `ready_urgent` is the seq-sorted set of Urgent entries whose ticket set
///   is empty — precisely the candidates of the out-of-order release path.
/// * The writer/load/store composition counters of Figure 7 are maintained
///   on park/release instead of being recounted by iteration.
#[derive(Debug, Clone)]
pub struct LtpQueue {
    pub(crate) capacity: usize,
    pub(crate) ports: usize,
    pub(crate) entries: VecDeque<ParkedInst>,
    pub(crate) enqueued_this_cycle: usize,
    pub(crate) dequeued_this_cycle: usize,
    pub(crate) current_cycle: Cycle,
    pub(crate) total_parked: u64,
    pub(crate) total_released: u64,
    pub(crate) full_rejections: u64,
    pub(crate) port_rejections: u64,
    /// Parked instructions that will need a destination register.
    pub(crate) writers: usize,
    /// Parked loads.
    pub(crate) loads: usize,
    /// Parked stores.
    pub(crate) stores: usize,
    /// Ticket id → seqs of parked holders (may include already-released
    /// stale seqs, skipped on broadcast). Indexed by ticket id; ids are
    /// recycled by the ticket file so this stays dense and small.
    pub(crate) ticket_holders: Vec<Vec<u64>>,
    /// Seq-sorted Urgent entries with an empty ticket set.
    pub(crate) ready_urgent: Vec<u64>,
}

impl LtpQueue {
    /// Creates an empty LTP queue with `capacity` entries and `ports`
    /// enqueue/dequeue slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `ports` is zero.
    #[must_use]
    pub fn new(capacity: usize, ports: usize) -> LtpQueue {
        assert!(capacity > 0, "LTP queue needs at least one entry");
        assert!(ports > 0, "LTP queue needs at least one port");
        LtpQueue {
            capacity,
            ports,
            entries: VecDeque::with_capacity(capacity.min(1024)),
            enqueued_this_cycle: 0,
            dequeued_this_cycle: 0,
            current_cycle: 0,
            total_parked: 0,
            total_released: 0,
            full_rejections: 0,
            port_rejections: 0,
            writers: 0,
            loads: 0,
            stores: 0,
            ticket_holders: Vec::new(),
            ready_urgent: Vec::with_capacity(capacity.min(1024)),
        }
    }

    /// Slot of the parked instruction `seq` (entries are seq-sorted).
    fn position_of(&self, seq: SeqNum) -> Option<usize> {
        self.entries.binary_search_by_key(&seq.0, |e| e.seq.0).ok()
    }

    fn ready_urgent_insert(&mut self, seq: SeqNum) {
        if let Err(pos) = self.ready_urgent.binary_search(&seq.0) {
            self.ready_urgent.insert(pos, seq.0);
        }
    }

    fn ready_urgent_remove(&mut self, seq: SeqNum) {
        if let Ok(pos) = self.ready_urgent.binary_search(&seq.0) {
            self.ready_urgent.remove(pos);
        }
    }

    /// Book-keeping shared by every successful removal from the queue.
    fn note_removed(&mut self, inst: &ParkedInst) {
        self.dequeued_this_cycle += 1;
        self.total_released += 1;
        self.writers -= usize::from(inst.writes_reg);
        self.loads -= usize::from(inst.is_load);
        self.stores -= usize::from(inst.is_store);
        if inst.class.urgent && inst.tickets.is_empty() {
            self.ready_urgent_remove(inst.seq);
        }
    }

    fn roll_cycle(&mut self, now: Cycle) {
        if now != self.current_cycle {
            self.current_cycle = now;
            self.enqueued_this_cycle = 0;
            self.dequeued_this_cycle = 0;
        }
    }

    /// Number of instructions currently parked.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether an instruction can be parked at cycle `now` (space available
    /// and an enqueue port free this cycle).
    pub fn can_park(&mut self, now: Cycle) -> bool {
        self.roll_cycle(now);
        self.entries.len() < self.capacity && self.enqueued_this_cycle < self.ports
    }

    /// Parks an instruction at cycle `now`. Returns `false` (and counts the
    /// rejection) if the queue is full or out of enqueue bandwidth this
    /// cycle, in which case the caller must dispatch the instruction
    /// normally.
    pub fn park(&mut self, inst: ParkedInst, now: Cycle) -> bool {
        self.roll_cycle(now);
        if self.entries.len() >= self.capacity {
            self.full_rejections += 1;
            return false;
        }
        if self.enqueued_this_cycle >= self.ports {
            self.port_rejections += 1;
            return false;
        }
        debug_assert!(
            self.entries.back().is_none_or(|b| b.seq < inst.seq),
            "LTP must be filled in program order"
        );
        self.writers += usize::from(inst.writes_reg);
        self.loads += usize::from(inst.is_load);
        self.stores += usize::from(inst.is_store);
        for t in inst.tickets.iter() {
            let idx = t.0 as usize;
            if self.ticket_holders.len() <= idx {
                self.ticket_holders.resize_with(idx + 1, Vec::new);
            }
            self.ticket_holders[idx].push(inst.seq.0);
        }
        if inst.class.urgent && inst.tickets.is_empty() {
            // Parks arrive in program order, so this is a push at the back.
            self.ready_urgent_insert(inst.seq);
        }
        self.entries.push_back(inst);
        self.enqueued_this_cycle += 1;
        self.total_parked += 1;
        true
    }

    /// Sequence number of the oldest parked instruction, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<SeqNum> {
        self.entries.front().map(|e| e.seq)
    }

    /// Whether [`LtpQueue::pop_release_in_order`] would release the oldest
    /// entry on a cycle with its dequeue ports still free: it is older than
    /// `wake_before` and its ticket set is empty. Reads state only.
    #[must_use]
    pub fn in_order_release_ready(&self, wake_before: SeqNum) -> bool {
        self.entries
            .front()
            .is_some_and(|f| f.seq.is_older_than(wake_before) && f.tickets.is_empty())
    }

    /// Whether an Urgent entry with an empty ticket set is waiting, i.e.
    /// whether [`LtpQueue::pop_release_ready_out_of_order`] would release
    /// something on a cycle with its dequeue ports still free.
    #[must_use]
    pub fn has_ready_urgent(&self) -> bool {
        !self.ready_urgent.is_empty()
    }

    /// Releases up to `max` instructions in program order whose sequence
    /// number is strictly older than `wake_before` **and** whose ticket set is
    /// empty. This implements the ROB-proximity wakeup of Non-Urgent
    /// instructions: the pipeline passes the sequence number of the next
    /// long-latency instruction in the ROB (or the ROB tail), and everything
    /// older than it wakes, oldest first.
    pub fn release_in_order(
        &mut self,
        wake_before: SeqNum,
        max: usize,
        now: Cycle,
    ) -> Vec<ParkedInst> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop_release_in_order(wake_before, now) {
                Some(inst) => out.push(inst),
                None => break,
            }
        }
        out
    }

    /// Releases the next instruction of the in-order (ROB proximity) path,
    /// or `None` when the head does not qualify or dequeue bandwidth ran
    /// out. Allocation-free building block of [`LtpQueue::release_in_order`],
    /// used by the pipeline's per-cycle release loop.
    pub fn pop_release_in_order(&mut self, wake_before: SeqNum, now: Cycle) -> Option<ParkedInst> {
        self.roll_cycle(now);
        if self.dequeued_this_cycle >= self.ports {
            return None;
        }
        let front = self.entries.front()?;
        if !(front.seq.is_older_than(wake_before) && front.tickets.is_empty()) {
            return None;
        }
        let inst = self.entries.pop_front().expect("front exists");
        self.note_removed(&inst);
        Some(inst)
    }

    /// Forces the release of the oldest parked instruction regardless of the
    /// wakeup condition (deadlock avoidance, §5.4: "Whenever we start to run
    /// out of pipeline resources, we always pick an instruction from LTP").
    pub fn force_release_oldest(&mut self, now: Cycle) -> Option<ParkedInst> {
        self.roll_cycle(now);
        if self.dequeued_this_cycle >= self.ports {
            return None;
        }
        let inst = self.entries.pop_front()?;
        // A forced release can leave with live tickets; its holder-index
        // entries go stale and are skipped by the next broadcast.
        self.note_removed(&inst);
        Some(inst)
    }

    /// Releases up to `max` instructions *out of order* whose ticket sets are
    /// empty (used for Urgent + Non-Ready instructions, which must issue to
    /// the IQ as soon as their data is about to arrive, appendix A).
    pub fn release_ready_out_of_order(&mut self, max: usize, now: Cycle) -> Vec<ParkedInst> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop_release_ready_out_of_order(now) {
                Some(inst) => out.push(inst),
                None => break,
            }
        }
        out
    }

    /// Releases the oldest Urgent instruction whose ticket set is empty, out
    /// of order, or `None` when no candidate exists or dequeue bandwidth ran
    /// out. Allocation-free building block of
    /// [`LtpQueue::release_ready_out_of_order`].
    pub fn pop_release_ready_out_of_order(&mut self, now: Cycle) -> Option<ParkedInst> {
        self.roll_cycle(now);
        if self.dequeued_this_cycle >= self.ports {
            return None;
        }
        let &seq = self.ready_urgent.first()?;
        let idx = self
            .position_of(SeqNum(seq))
            .expect("ready-urgent index holds only parked entries");
        let inst = self.entries.remove(idx).expect("index is valid");
        debug_assert!(inst.class.urgent && inst.tickets.is_empty());
        self.note_removed(&inst);
        Some(inst)
    }

    /// Broadcasts the completion of a long-latency instruction: removes
    /// `ticket` from every parked instruction waiting on it (via the holder
    /// index — O(holders·log occupancy) instead of a full scan). Returns the
    /// number of entries whose ticket set became empty as a result.
    pub fn clear_ticket(&mut self, ticket: Ticket) -> usize {
        let mut became_ready = 0;
        let Some(list) = self.ticket_holders.get_mut(ticket.0 as usize) else {
            return 0;
        };
        let mut holders = std::mem::take(list);
        for &seq in &holders {
            // Stale holders (force-released before the broadcast) are gone
            // from the queue and skipped.
            let Some(idx) = self.position_of(SeqNum(seq)) else {
                continue;
            };
            let e = &mut self.entries[idx];
            if e.tickets.clear_ticket(ticket) && e.tickets.is_empty() {
                became_ready += 1;
                if e.class.urgent {
                    self.ready_urgent_insert(SeqNum(seq));
                }
            }
        }
        // Hand the drained buffer back so its capacity is reused.
        holders.clear();
        self.ticket_holders[ticket.0 as usize] = holders;
        became_ready
    }

    /// Iterates over the parked instructions from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &ParkedInst> {
        self.entries.iter()
    }

    /// Number of parked instructions that will need a destination register
    /// (incrementally maintained, O(1)).
    #[must_use]
    pub fn parked_writers(&self) -> usize {
        debug_assert_eq!(
            self.writers,
            self.entries.iter().filter(|e| e.writes_reg).count()
        );
        self.writers
    }

    /// Number of parked loads (incrementally maintained, O(1)).
    #[must_use]
    pub fn parked_loads(&self) -> usize {
        debug_assert_eq!(
            self.loads,
            self.entries.iter().filter(|e| e.is_load).count()
        );
        self.loads
    }

    /// Number of parked stores (incrementally maintained, O(1)).
    #[must_use]
    pub fn parked_stores(&self) -> usize {
        debug_assert_eq!(
            self.stores,
            self.entries.iter().filter(|e| e.is_store).count()
        );
        self.stores
    }

    /// Total instructions ever parked.
    #[must_use]
    pub fn total_parked(&self) -> u64 {
        self.total_parked
    }

    /// Total instructions ever released.
    #[must_use]
    pub fn total_released(&self) -> u64 {
        self.total_released
    }

    /// Number of park attempts rejected because the queue was full.
    #[must_use]
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// Number of park attempts rejected because enqueue bandwidth ran out.
    #[must_use]
    pub fn port_rejections(&self) -> u64 {
        self.port_rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parked(seq: u64) -> ParkedInst {
        ParkedInst {
            seq: SeqNum(seq),
            class: Criticality::NON_URGENT_READY,
            tickets: TicketSet::new(),
            parked_at: 0,
            writes_reg: true,
            is_load: false,
            is_store: false,
        }
    }

    fn parked_with_ticket(seq: u64, t: Ticket) -> ParkedInst {
        ParkedInst {
            seq: SeqNum(seq),
            class: Criticality::URGENT_NON_READY,
            tickets: [t].into_iter().collect(),
            parked_at: 0,
            writes_reg: true,
            is_load: false,
            is_store: false,
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = LtpQueue::new(8, 8);
        for s in 0..5u64 {
            assert!(q.park(parked(s), 0));
        }
        let released = q.release_in_order(SeqNum(100), 10, 1);
        let seqs: Vec<u64> = released.iter().map(|p| p.seq.0).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_limit_rejects() {
        let mut q = LtpQueue::new(2, 8);
        assert!(q.park(parked(0), 0));
        assert!(q.park(parked(1), 0));
        assert!(!q.park(parked(2), 0));
        assert_eq!(q.full_rejections(), 1);
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn port_limit_applies_per_cycle() {
        let mut q = LtpQueue::new(16, 2);
        assert!(q.park(parked(0), 5));
        assert!(q.park(parked(1), 5));
        assert!(!q.park(parked(2), 5));
        assert_eq!(q.port_rejections(), 1);
        // Next cycle the port budget resets.
        assert!(q.park(parked(2), 6));
    }

    #[test]
    fn release_respects_wake_boundary() {
        let mut q = LtpQueue::new(8, 8);
        for s in 0..6u64 {
            q.park(parked(s), 0);
        }
        let released = q.release_in_order(SeqNum(3), 10, 1);
        assert_eq!(released.len(), 3);
        assert_eq!(q.occupancy(), 3);
        assert_eq!(q.oldest(), Some(SeqNum(3)));
    }

    #[test]
    fn release_respects_ports_and_max() {
        let mut q = LtpQueue::new(8, 2);
        // With 2 ports, parking 6 instructions takes 3 cycles.
        for s in 0..6u64 {
            assert!(q.park(parked(s), s / 2));
        }
        let released = q.release_in_order(SeqNum(100), 10, 10);
        assert_eq!(released.len(), 2, "dequeue bandwidth is 2 per cycle");
        let released = q.release_in_order(SeqNum(100), 1, 11);
        assert_eq!(released.len(), 1, "caller max applies");
    }

    #[test]
    fn non_empty_ticket_blocks_in_order_release() {
        let mut q = LtpQueue::new(8, 8);
        q.park(parked_with_ticket(0, Ticket(7)), 0);
        q.park(parked(1), 0);
        // Head is waiting on a ticket: nothing older can be skipped in the
        // in-order release path.
        assert!(q.release_in_order(SeqNum(100), 10, 1).is_empty());
        assert_eq!(q.clear_ticket(Ticket(7)), 1);
        let released = q.release_in_order(SeqNum(100), 10, 2);
        assert_eq!(released.len(), 2);
    }

    #[test]
    fn out_of_order_release_skips_waiting_head() {
        let mut q = LtpQueue::new(8, 8);
        q.park(parked_with_ticket(0, Ticket(1)), 0);
        let mut urgent_ready = parked_with_ticket(1, Ticket(2));
        urgent_ready.tickets = TicketSet::new();
        q.park(urgent_ready, 0);
        let released = q.release_ready_out_of_order(10, 1);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].seq, SeqNum(1));
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.oldest(), Some(SeqNum(0)));
    }

    #[test]
    fn force_release_ignores_conditions() {
        let mut q = LtpQueue::new(8, 8);
        q.park(parked_with_ticket(0, Ticket(1)), 0);
        let released = q.force_release_oldest(1).unwrap();
        assert_eq!(released.seq, SeqNum(0));
        assert!(q.is_empty());
        assert!(q.force_release_oldest(1).is_none());
    }

    #[test]
    fn composition_statistics() {
        let mut q = LtpQueue::new(8, 8);
        q.park(
            ParkedInst {
                seq: SeqNum(0),
                class: Criticality::NON_URGENT_NON_READY,
                tickets: TicketSet::new(),
                parked_at: 0,
                writes_reg: false,
                is_load: false,
                is_store: true,
            },
            0,
        );
        q.park(
            ParkedInst {
                seq: SeqNum(1),
                class: Criticality::NON_URGENT_READY,
                tickets: TicketSet::new(),
                parked_at: 0,
                writes_reg: true,
                is_load: true,
                is_store: false,
            },
            0,
        );
        assert_eq!(q.parked_stores(), 1);
        assert_eq!(q.parked_loads(), 1);
        assert_eq!(q.parked_writers(), 1);
        assert_eq!(q.total_parked(), 2);
        assert_eq!(q.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = LtpQueue::new(0, 1);
    }

    /// The seed's scan-based parking queue, kept as a reference model: every
    /// release path and the ticket broadcast scan the whole queue, which is
    /// the behaviour the indexed implementation must reproduce exactly.
    mod reference {
        use super::*;

        #[derive(Debug, Default)]
        pub struct ScanQueue {
            pub entries: VecDeque<ParkedInst>,
            pub ports: usize,
            pub dequeued_this_cycle: usize,
            pub current_cycle: Cycle,
        }

        impl ScanQueue {
            pub fn new(ports: usize) -> ScanQueue {
                ScanQueue {
                    ports,
                    ..ScanQueue::default()
                }
            }

            fn roll_cycle(&mut self, now: Cycle) {
                if now != self.current_cycle {
                    self.current_cycle = now;
                    self.dequeued_this_cycle = 0;
                }
            }

            pub fn park(&mut self, inst: ParkedInst) {
                self.entries.push_back(inst);
            }

            pub fn release_in_order(
                &mut self,
                wake_before: SeqNum,
                max: usize,
                now: Cycle,
            ) -> Vec<u64> {
                self.roll_cycle(now);
                let mut out = Vec::new();
                while out.len() < max && self.dequeued_this_cycle < self.ports {
                    match self.entries.front() {
                        Some(f) if f.seq.is_older_than(wake_before) && f.tickets.is_empty() => {
                            let inst = self.entries.pop_front().expect("front exists");
                            self.dequeued_this_cycle += 1;
                            out.push(inst.seq.0);
                        }
                        _ => break,
                    }
                }
                out
            }

            pub fn release_ready_out_of_order(&mut self, max: usize, now: Cycle) -> Vec<u64> {
                self.roll_cycle(now);
                let mut out = Vec::new();
                let mut idx = 0;
                while idx < self.entries.len() {
                    if out.len() >= max || self.dequeued_this_cycle >= self.ports {
                        break;
                    }
                    if self.entries[idx].tickets.is_empty() && self.entries[idx].class.urgent {
                        let inst = self.entries.remove(idx).expect("index is valid");
                        self.dequeued_this_cycle += 1;
                        out.push(inst.seq.0);
                    } else {
                        idx += 1;
                    }
                }
                out
            }

            pub fn force_release_oldest(&mut self, now: Cycle) -> Option<u64> {
                self.roll_cycle(now);
                if self.dequeued_this_cycle >= self.ports {
                    return None;
                }
                let inst = self.entries.pop_front()?;
                self.dequeued_this_cycle += 1;
                Some(inst.seq.0)
            }

            pub fn clear_ticket(&mut self, ticket: Ticket) -> usize {
                let mut became_ready = 0;
                for e in &mut self.entries {
                    if e.tickets.clear_ticket(ticket) && e.tickets.is_empty() {
                        became_ready += 1;
                    }
                }
                became_ready
            }

            pub fn composition(&self) -> (usize, usize, usize) {
                (
                    self.entries.iter().filter(|e| e.writes_reg).count(),
                    self.entries.iter().filter(|e| e.is_load).count(),
                    self.entries.iter().filter(|e| e.is_store).count(),
                )
            }
        }
    }

    mod differential {
        use super::reference::ScanQueue;
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// The indexed queue (ticket-holder index, ready-urgent index,
            /// incremental composition counters) makes release and broadcast
            /// decisions identical to the seed's whole-queue scans on random
            /// interleavings of park / clear-ticket / release operations.
            #[test]
            fn indexed_queue_matches_scan_reference(
                raw_ops in prop::collection::vec(
                    (any::<u8>(), any::<u8>(), any::<u8>()), 1..150),
            ) {
                let ports = 2;
                let mut indexed = LtpQueue::new(4096, ports);
                let mut scan = ScanQueue::new(ports);
                let mut next_seq = 0u64;
                let mut now = 1u64;
                for (kind, a, b) in raw_ops {
                    match kind % 6 {
                        // Park: random urgency and a random 0..2-ticket set
                        // drawn from a tiny domain so broadcasts collide.
                        0 | 1 => {
                            let urgent = a & 1 == 1;
                            let mut tickets = TicketSet::new();
                            if a & 2 != 0 {
                                tickets.insert(Ticket(u32::from(b % 4)));
                            }
                            if a & 4 != 0 {
                                tickets.insert(Ticket(u32::from(b / 4 % 4)));
                            }
                            let inst = ParkedInst {
                                seq: SeqNum(next_seq),
                                class: Criticality { urgent, ready: tickets.is_empty() },
                                tickets,
                                parked_at: now,
                                writes_reg: a & 8 != 0,
                                is_load: a & 16 != 0,
                                is_store: a & 32 != 0,
                            };
                            next_seq += 1;
                            if indexed.park(inst.clone(), now) {
                                scan.park(inst);
                            }
                        }
                        2 => {
                            let t = Ticket(u32::from(a % 4));
                            prop_assert_eq!(indexed.clear_ticket(t), scan.clear_ticket(t));
                        }
                        3 => {
                            now += u64::from(a % 2);
                            let boundary = SeqNum(next_seq.saturating_sub(u64::from(b % 8)));
                            let max = 1 + a as usize % 3;
                            let got: Vec<u64> = indexed
                                .release_in_order(boundary, max, now)
                                .iter()
                                .map(|i| i.seq.0)
                                .collect();
                            prop_assert_eq!(got, scan.release_in_order(boundary, max, now));
                        }
                        4 => {
                            now += u64::from(a % 2);
                            let max = 1 + a as usize % 3;
                            let got: Vec<u64> = indexed
                                .release_ready_out_of_order(max, now)
                                .iter()
                                .map(|i| i.seq.0)
                                .collect();
                            prop_assert_eq!(got, scan.release_ready_out_of_order(max, now));
                        }
                        _ => {
                            now += 1;
                            let got = indexed.force_release_oldest(now).map(|i| i.seq.0);
                            prop_assert_eq!(got, scan.force_release_oldest(now));
                        }
                    }
                    prop_assert_eq!(indexed.occupancy(), scan.entries.len());
                    let (w, l, s) = scan.composition();
                    prop_assert_eq!(indexed.parked_writers(), w);
                    prop_assert_eq!(indexed.parked_loads(), l);
                    prop_assert_eq!(indexed.parked_stores(), s);
                }
            }
        }
    }

    /// In-order release vs. ticket wake: a ticket broadcast that wakes an
    /// entry in the *middle* of the FIFO must not let it overtake the still
    /// ticket-blocked head on the in-order path; only the out-of-order
    /// (urgent) path may extract it, and the head keeps blocking everything
    /// behind it until its own ticket clears.
    #[test]
    fn ticket_wake_in_the_middle_does_not_reorder_fifo() {
        let mut q = LtpQueue::new(8, 8);
        q.park(parked_with_ticket(0, Ticket(1)), 0); // head, blocked
        q.park(parked(1), 0); //                        ready, non-urgent
        q.park(parked_with_ticket(2, Ticket(2)), 0); // urgent, blocked
        q.park(parked(3), 0);

        // Ticket 2 completes: seq 2 becomes ready mid-queue.
        assert_eq!(q.clear_ticket(Ticket(2)), 1);
        // The in-order path still releases nothing — the head waits on t1.
        assert!(q.release_in_order(SeqNum(100), 10, 1).is_empty());
        // The urgent out-of-order path extracts exactly the woken entry.
        let urgent = q.release_ready_out_of_order(10, 1);
        assert_eq!(urgent.iter().map(|p| p.seq.0).collect::<Vec<_>>(), [2]);
        // Seq 1 is ready and non-urgent: it must keep waiting behind head.
        assert_eq!(q.oldest(), Some(SeqNum(0)));
        assert_eq!(q.occupancy(), 3);

        // Head's ticket clears: the in-order path drains 0, 1, 3 in order.
        assert_eq!(q.clear_ticket(Ticket(1)), 1);
        let released = q.release_in_order(SeqNum(100), 10, 2);
        assert_eq!(
            released.iter().map(|p| p.seq.0).collect::<Vec<_>>(),
            [0, 1, 3]
        );
        assert_eq!(q.total_released(), 4);
    }

    /// The in-order and out-of-order release paths share the per-cycle
    /// dequeue port budget (they model the same physical ports).
    #[test]
    fn release_paths_share_dequeue_ports() {
        let mut q = LtpQueue::new(16, 2);
        q.park(parked(0), 0);
        q.park(parked(1), 0);
        let mut urgent = parked_with_ticket(2, Ticket(9));
        urgent.tickets = TicketSet::new();
        q.park(urgent, 1);

        // Both in-order releases consume the cycle's two dequeue ports...
        assert_eq!(q.release_in_order(SeqNum(2), 10, 5).len(), 2);
        // ...so the urgent path gets nothing until the next cycle.
        assert!(q.release_ready_out_of_order(10, 5).is_empty());
        assert_eq!(q.release_ready_out_of_order(10, 6).len(), 1);
    }
}
