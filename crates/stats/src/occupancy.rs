//! Time-weighted occupancy tracking.
//!
//! Figure 1c and Figure 7 of the paper report the *average number of entries
//! in use per cycle* for the IQ, RF, LQ, SQ and LTP. [`OccupancyTracker`]
//! computes exactly that: it is sampled once per simulated cycle (or over a
//! span of cycles) with the current occupancy and reports the time-weighted
//! mean and peak.

/// Tracks the time-weighted average and peak occupancy of a structure.
#[derive(Debug, Clone, Default)]
pub struct OccupancyTracker {
    weighted_sum: u128,
    cycles: u64,
    peak: u64,
}

impl OccupancyTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> OccupancyTracker {
        OccupancyTracker::default()
    }

    /// Records that the structure held `occupancy` entries for `cycles`
    /// consecutive cycles.
    #[inline]
    pub fn sample(&mut self, cycles: u64, occupancy: u64) {
        self.weighted_sum += u128::from(cycles) * u128::from(occupancy);
        self.cycles += cycles;
        if cycles > 0 {
            self.peak = self.peak.max(occupancy);
        }
    }

    /// Records a single-cycle sample.
    #[inline]
    pub fn sample_cycle(&mut self, occupancy: u64) {
        self.sample(1, occupancy);
    }

    /// Time-weighted mean occupancy; zero if never sampled.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.weighted_sum as f64 / self.cycles as f64
        }
    }

    /// Highest occupancy observed.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Number of cycles sampled.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Merges another tracker (concatenating its sampled time).
    pub fn merge(&mut self, other: &OccupancyTracker) {
        self.weighted_sum += other.weighted_sum;
        self.cycles += other.cycles;
        self.peak = self.peak.max(other.peak);
    }
}

impl ltp_snapshot::Codec for OccupancyTracker {
    fn write(&self, w: &mut ltp_snapshot::Writer) {
        self.weighted_sum.write(w);
        self.cycles.write(w);
        self.peak.write(w);
    }
    fn read(r: &mut ltp_snapshot::Reader<'_>) -> Result<Self, ltp_snapshot::SnapError> {
        Ok(OccupancyTracker {
            weighted_sum: u128::read(r)?,
            cycles: u64::read(r)?,
            peak: u64::read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_zero() {
        let t = OccupancyTracker::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.peak(), 0);
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn mean_is_time_weighted() {
        let mut t = OccupancyTracker::new();
        t.sample(10, 0);
        t.sample(10, 10);
        assert!((t.mean() - 5.0).abs() < 1e-9);
        assert_eq!(t.peak(), 10);
        assert_eq!(t.cycles(), 20);
    }

    #[test]
    fn sample_cycle_is_one_cycle() {
        let mut t = OccupancyTracker::new();
        for i in 0..4 {
            t.sample_cycle(i);
        }
        assert_eq!(t.cycles(), 4);
        assert!((t.mean() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_length_sample_does_not_affect_peak() {
        let mut t = OccupancyTracker::new();
        t.sample(0, 1000);
        assert_eq!(t.peak(), 0);
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn merge_concatenates_time() {
        let mut a = OccupancyTracker::new();
        a.sample(10, 2);
        let mut b = OccupancyTracker::new();
        b.sample(10, 4);
        a.merge(&b);
        assert!((a.mean() - 3.0).abs() < 1e-9);
        assert_eq!(a.peak(), 4);
    }
}
