//! A timing wheel for the stage bus's delayed signals.
//!
//! The seed queued completion and long-latency signals in `BinaryHeap`s:
//! every schedule/pop was `O(log pending)` with heap churn on the hottest
//! per-cycle path. Almost all events land within a bounded horizon (the
//! worst functional-unit or DRAM latency), so a classic timing wheel fits:
//! scheduling is `O(1)` — push into the slot `cycle mod wheel-size` — and
//! advancing a cycle drains exactly one slot. A second, unbounded **far
//! level** catches the rare event beyond the horizon (e.g. a DRAM access
//! stuck behind a deep bank queue) and migrates it into the wheel as time
//! advances, so correctness never depends on the horizon chosen.
//!
//! Pop order is kept bit-identical to the seed's heaps: events due at or
//! before `now` are staged and drained in `(cycle, payload)` order. All
//! per-cycle buffers (slots, staging, scratch) retain their capacity, so the
//! steady-state loop performs no heap allocation.

use ltp_mem::Cycle;

/// A two-level timing wheel of `(cycle, payload)` events.
#[derive(Debug, Clone)]
pub struct TimingWheel {
    /// Power-of-two slot array; slot `c & mask` holds events for cycle `c`
    /// (and, transiently, for `c + k·len` until those migrate on advance).
    slots: Vec<Vec<(Cycle, u64)>>,
    /// One bit per slot, set while the slot holds events, so
    /// [`TimingWheel::next_event`] finds the next occupied slot a word at a
    /// time.
    occupied: Vec<u64>,
    mask: u64,
    /// Every event with `cycle <= drained_through` has been moved to
    /// `staging` (or already popped).
    drained_through: Cycle,
    /// Due events, sorted descending so the next event pops from the back.
    staging: Vec<(Cycle, u64)>,
    staging_sorted: bool,
    /// Events beyond the wheel horizon; `far_min` caches their earliest
    /// cycle so the per-cycle advance check is O(1).
    far: Vec<(Cycle, u64)>,
    far_min: Cycle,
    len: usize,
}

impl TimingWheel {
    /// Creates a wheel able to hold events up to `horizon` cycles ahead
    /// without touching the far level. The horizon is rounded up to a power
    /// of two; events beyond it remain correct (they take the far path).
    pub fn new(horizon: u64) -> TimingWheel {
        let size = horizon.max(2).next_power_of_two();
        // Pre-size every slot so the steady-state loop never grows one: a
        // slot holds the events of one cycle, bounded in practice by the
        // machine's issue width (events are scheduled at issue time).
        let slot_capacity = 8;
        TimingWheel {
            // (`vec![..; n]` would clone the prototype and lose its
            // capacity, so build each pre-sized slot explicitly.)
            slots: (0..size)
                .map(|_| Vec::with_capacity(slot_capacity))
                .collect(),
            occupied: vec![0; (size as usize).div_ceil(64)],
            mask: size - 1,
            drained_through: 0,
            staging: Vec::with_capacity(slot_capacity * 4),
            staging_sorted: true,
            far: Vec::with_capacity(32),
            far_min: Cycle::MAX,
            len: 0,
        }
    }

    /// Number of scheduled events not yet popped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` for `cycle`. Scheduling in the past (relative to
    /// the latest `pop_due` cycle) is allowed; the event becomes due
    /// immediately, ordered by its original cycle.
    pub fn schedule(&mut self, cycle: Cycle, payload: u64) {
        self.len += 1;
        if cycle <= self.drained_through {
            self.staging.push((cycle, payload));
            self.staging_sorted = false;
        } else if cycle - self.drained_through <= self.mask {
            self.push_slot(cycle, payload);
        } else {
            self.far.push((cycle, payload));
            self.far_min = self.far_min.min(cycle);
        }
    }

    fn push_slot(&mut self, cycle: Cycle, payload: u64) {
        let slot = (cycle & self.mask) as usize;
        self.slots[slot].push((cycle, payload));
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// The first occupied slot at or after `start` in circular order.
    fn first_occupied_from(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start / 64, start % 64);
        let words = self.occupied.len();
        // The start word's high part, the words after it, then the wrapped
        // words up to and including the start word's low part.
        let tail = (w0..words).map(|w| (w, if w == w0 { !0u64 << b0 } else { !0 }));
        let head = (0..=w0).map(|w| (w, if w == w0 { (1u64 << b0) - 1 } else { !0 }));
        tail.chain(head).find_map(|(w, keep)| {
            let bits = self.occupied[w] & keep;
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// The cycle of the earliest scheduled event, or `None` when the wheel is
    /// empty. An event scheduled in the past reports its original cycle, so
    /// `next_event() <= now` exactly when [`TimingWheel::pop_due`] would
    /// return something at `now`.
    ///
    /// Staged events are due (`cycle <= drained_through`); slot events lie in
    /// `drained_through + 1 ..= drained_through + mask`, one cycle per slot;
    /// far events lie beyond that. So the answer is the staged minimum, else
    /// the first occupied slot in cycle order, else the far minimum.
    pub fn next_event(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if let Some(due) = self.staging.iter().map(|&(c, _)| c).min() {
            return Some(due);
        }
        let start = ((self.drained_through + 1) & self.mask) as usize;
        if let Some(slot) = self.first_occupied_from(start) {
            let cycle = self.slots[slot][0].0;
            debug_assert!(self.slots[slot].iter().all(|e| e.0 == cycle));
            return Some(cycle);
        }
        debug_assert!(self.far_min != Cycle::MAX, "events left but none found");
        Some(self.far_min)
    }

    /// Pops the next event due at or before `now`, in `(cycle, payload)`
    /// order, or `None` when nothing is due.
    pub fn pop_due(&mut self, now: Cycle) -> Option<u64> {
        if now > self.drained_through {
            self.advance(now);
        }
        if !self.staging_sorted {
            // Descending, so the earliest (cycle, payload) pops from the back.
            self.staging.sort_unstable_by(|a, b| b.cmp(a));
            self.staging_sorted = true;
        }
        let (_, payload) = self.staging.pop()?;
        self.len -= 1;
        Some(payload)
    }

    /// Moves everything due at or before `now` into the staging buffer and
    /// migrates far events that entered the horizon into the wheel.
    fn advance(&mut self, now: Cycle) {
        if now - self.drained_through > self.mask {
            // The jump covers the whole wheel: every wheel-resident event has
            // `cycle <= drained_through + mask < now`, so one pass over the
            // slots drains them all. (The previous per-cycle loop rescanned
            // the slot array once per elapsed cycle — O(gap) instead of
            // O(size) on a large jump.)
            for slot in &mut self.slots {
                if !slot.is_empty() {
                    self.staging.append(slot);
                    self.staging_sorted = false;
                }
            }
            self.occupied.fill(0);
        } else {
            for c in (self.drained_through + 1)..=now {
                let index = (c & self.mask) as usize;
                let slot = &mut self.slots[index];
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].0 <= now {
                        self.staging.push(slot.swap_remove(i));
                        self.staging_sorted = false;
                    } else {
                        i += 1;
                    }
                }
                if slot.is_empty() {
                    self.occupied[index / 64] &= !(1 << (index % 64));
                }
            }
        }
        self.drained_through = now;
        if self.far_min <= now + self.mask {
            let mut min = Cycle::MAX;
            let mut i = 0;
            while i < self.far.len() {
                let (cycle, payload) = self.far[i];
                if cycle <= now + self.mask {
                    self.far.swap_remove(i);
                    if cycle <= now {
                        self.staging.push((cycle, payload));
                        self.staging_sorted = false;
                    } else {
                        self.push_slot(cycle, payload);
                    }
                } else {
                    min = min.min(cycle);
                    i += 1;
                }
            }
            self.far_min = min;
        }
    }
}

impl ltp_snapshot::Codec for TimingWheel {
    /// Encodes `(size, drained_through, events)` with the pending events
    /// sorted ascending. Pop order only depends on `(cycle, payload)` order —
    /// staging is re-sorted before every pop and wheel slots drain through
    /// that same sort — so the sorted form is canonical *and* behaviourally
    /// exact.
    fn write(&self, w: &mut ltp_snapshot::Writer) {
        (self.mask + 1).write(w);
        self.drained_through.write(w);
        let mut events: Vec<(Cycle, u64)> = Vec::with_capacity(self.len);
        events.extend(self.staging.iter().copied());
        for slot in &self.slots {
            events.extend(slot.iter().copied());
        }
        events.extend(self.far.iter().copied());
        events.sort_unstable();
        events.write(w);
    }
    fn read(r: &mut ltp_snapshot::Reader<'_>) -> Result<Self, ltp_snapshot::SnapError> {
        let size = u64::read(r)?;
        if !size.is_power_of_two() {
            return Err(ltp_snapshot::SnapError::Invalid("timing wheel size"));
        }
        let drained_through = Cycle::read(r)?;
        let events = Vec::<(Cycle, u64)>::read(r)?;
        let mut wheel = TimingWheel::new(size);
        wheel.drained_through = drained_through;
        for (cycle, payload) in events {
            wheel.schedule(cycle, payload);
        }
        Ok(wheel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_payload_order() {
        let mut w = TimingWheel::new(16);
        w.schedule(10, 2);
        w.schedule(5, 1);
        w.schedule(5, 0);
        assert_eq!(w.pop_due(4), None);
        assert_eq!(w.pop_due(5), Some(0));
        assert_eq!(w.pop_due(5), Some(1));
        assert_eq!(w.pop_due(5), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(10), Some(2));
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn far_events_survive_the_horizon() {
        let mut w = TimingWheel::new(4);
        w.schedule(3, 1);
        w.schedule(1000, 2);
        w.schedule(40, 3);
        assert_eq!(w.pop_due(3), Some(1));
        assert_eq!(w.pop_due(3), None);
        // Advance in small steps across several wheel wraps.
        let mut popped = Vec::new();
        for now in 4..=1000 {
            while let Some(p) = w.pop_due(now) {
                popped.push((now, p));
            }
        }
        assert_eq!(popped, vec![(40, 3), (1000, 2)]);
    }

    #[test]
    fn scheduling_in_the_past_pops_before_current_events() {
        let mut w = TimingWheel::new(8);
        w.schedule(6, 9);
        assert_eq!(w.pop_due(5), None);
        // Issued "last cycle" with zero latency: due immediately, and older
        // than the cycle-6 event.
        w.schedule(5, 7);
        assert_eq!(w.pop_due(6), Some(7));
        assert_eq!(w.pop_due(6), Some(9));
    }

    #[test]
    fn wrap_around_does_not_mix_cycles() {
        let mut w = TimingWheel::new(4);
        // Two events in the same slot (cycles 2 and 6 with a 4-slot wheel).
        w.schedule(2, 20);
        w.schedule(6, 60);
        assert_eq!(w.pop_due(2), Some(20));
        assert_eq!(w.pop_due(2), None);
        assert_eq!(w.pop_due(6), Some(60));
    }

    /// A jump of ~1M cycles must drain in one pass over the slots (the bug
    /// was an O(gap) rescan), preserving pop order and the length counter —
    /// including events parked in the far level and events scheduled after
    /// the jump.
    #[test]
    fn million_cycle_jump_preserves_order_and_len() {
        let mut w = TimingWheel::new(8);
        // In-wheel events, a far event beyond the horizon, and duplicates.
        for (c, p) in [(3u64, 30u64), (7, 70), (7, 71), (500, 5000), (9, 90)] {
            w.schedule(c, p);
        }
        assert_eq!(w.len(), 5);
        let jump = 1_000_000;
        let mut out = Vec::new();
        while let Some(p) = w.pop_due(jump) {
            out.push(p);
        }
        assert_eq!(out, vec![30, 70, 71, 90, 5000]);
        assert_eq!(w.len(), 0);
        // The wheel keeps working after the jump, including another jump.
        w.schedule(jump + 2, 1);
        w.schedule(jump + 5, 2);
        w.schedule(jump + 3_000_000, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop_due(jump + 1), None);
        assert_eq!(w.pop_due(jump + 2), Some(1));
        assert_eq!(w.pop_due(jump + 3_000_000), Some(2));
        assert_eq!(w.pop_due(jump + 3_000_000), Some(3));
        assert_eq!(w.len(), 0);
    }

    /// `next_event` equals the minimum of a shadow list of pending events
    /// under random scheduling (near, far, in the past) and random advances,
    /// including jumps beyond the horizon.
    #[test]
    fn next_event_matches_brute_force() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for horizon in [4u64, 16, 64] {
            let mut w = TimingWheel::new(horizon);
            let mut shadow: Vec<(Cycle, u64)> = Vec::new();
            let mut now = 0u64;
            for payload in 0..3_000u64 {
                let delay = match next() % 10 {
                    0 => 0,
                    1 => horizon * 3 + next() % 500,
                    _ => next() % horizon,
                };
                let cycle = (now + delay).saturating_sub(next() % 2);
                w.schedule(cycle, payload);
                shadow.push((cycle, payload));
                assert_eq!(w.next_event(), shadow.iter().map(|e| e.0).min());
                now += match next() % 20 {
                    0 => horizon * 4 + next() % 300,
                    n => n % 3,
                };
                while let Some(p) = w.pop_due(now) {
                    let at = shadow.iter().position(|e| e.1 == p).expect("known event");
                    assert!(shadow.swap_remove(at).0 <= now);
                }
                assert!(shadow.iter().all(|e| e.0 > now), "a due event was kept");
                assert_eq!(w.next_event(), shadow.iter().map(|e| e.0).min());
            }
        }
    }

    #[test]
    fn large_jumps_drain_everything_in_order() {
        let mut w = TimingWheel::new(8);
        for c in [12u64, 3, 40, 3, 7] {
            w.schedule(c, c * 10 + 1);
        }
        let mut out = Vec::new();
        while let Some(p) = w.pop_due(1_000) {
            out.push(p);
        }
        assert_eq!(out, vec![31, 31, 71, 121, 401]);
        assert_eq!(w.len(), 0);
    }
}
