//! Pieces shared by every phase: the failure tally, per-operation samples,
//! the seeded schedule and the stop rule of a timed phase.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::expected::Expected;
use crate::points::{Point, PointSet};
use crate::tracer::Tracer;

/// Operations attempted and failed, shared across client threads.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed operation and says why on standard error.
    pub fn fail(&self, why: &str) {
        eprintln!("FAILED: {why}");
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts the outcome of one checked operation.
    pub fn check(&self, outcome: Result<(), String>) -> bool {
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.fail(&why);
                false
            }
        }
    }

    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// What every phase needs: the inputs, the stored outputs to check against,
/// the span recorder and the failure tally.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    pub set: &'a PointSet,
    pub expected: &'a Expected,
    pub tracer: &'a Tracer,
    pub tally: &'a Tally,
}

/// Operations a phase completed correctly, and the worst sampled-vs-full
/// IPC error among them.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub done: usize,
    /// Worst per-point |sampled − full| / full IPC, in percent.
    pub ipc_err_max_pct: f64,
}

impl Ops {
    pub fn record(&mut self, ipc_err_pct: f64) {
        self.done += 1;
        self.ipc_err_max_pct = self.ipc_err_max_pct.max(ipc_err_pct);
    }
}

/// Each point's fastest host time. The host's speed alternates between two
/// levels for seconds at a time, so the fastest of a point's runs is the
/// least disturbed measurement of it.
#[derive(Debug, Default, Clone)]
pub struct Best(BTreeMap<String, f64>);

impl Best {
    pub fn record(&mut self, p: &Point, secs: f64) {
        let best = self.0.entry(p.id()).or_insert(secs);
        *best = best.min(secs);
    }

    /// Host seconds of one round of the point set at each point's fastest.
    #[must_use]
    pub fn round_s(&self) -> f64 {
        self.0.values().sum()
    }

    /// Points per second at each point's fastest run; `None` unless all
    /// `n` points ran.
    #[must_use]
    pub fn rate(&self, n: usize) -> Option<f64> {
        (self.0.len() == n).then(|| n as f64 / self.round_s())
    }
}

/// |a − b| / b in percent.
#[must_use]
pub fn err_pct(estimate: f64, reference: f64) -> f64 {
    (estimate - reference).abs() / reference * 100.0
}

/// How long a phase runs: at least `seconds` and `min_samples` operations,
/// in whole rounds of the point set, and at most `max_rounds` rounds.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_samples: usize,
    pub max_rounds: usize,
}

/// A phase is cut after this long whatever its budget says, so a run always
/// ends within the time the benchmark is allowed.
pub const HARD_LIMIT_S: f64 = 120.0;

impl Budget {
    /// A fixed amount of work: `rounds` rounds of the point set.
    #[must_use]
    pub fn rounds(rounds: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_samples: 0,
            max_rounds: rounds,
        }
    }

    /// Whether a phase that started at `start` and has finished `rounds`
    /// rounds holding `samples` samples is done.
    #[must_use]
    pub fn done(&self, start: Instant, rounds: usize, samples: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        rounds >= self.max_rounds
            || elapsed >= HARD_LIMIT_S
            || (rounds > 0 && elapsed >= self.seconds && samples >= self.min_samples)
    }
}

/// The order in which a phase visits the points: round `r` is a
/// Fisher–Yates shuffle of the point set drawn from the run seed.
#[derive(Debug, Clone)]
pub struct Schedule {
    seed: u64,
}

impl Schedule {
    #[must_use]
    pub fn new(seed: u64) -> Schedule {
        Schedule { seed }
    }

    /// The points of round `round`, shuffled.
    #[must_use]
    pub fn round(&self, points: &[Point], round: usize) -> Vec<Point> {
        let mut state = self.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut order = points.to_vec();
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// The point of the `k`-th job of an endless sequence of rounds.
    #[must_use]
    pub fn job(&self, points: &[Point], k: usize) -> Point {
        self.round(points, k / points.len())[k % points.len()]
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::{points_of, COMPUTE};

    #[test]
    fn schedule_is_a_seeded_permutation_per_round() {
        let points = points_of(&COMPUTE);
        let ids = |v: Vec<Point>| v.iter().map(Point::id).collect::<Vec<_>>();
        let a = Schedule::new(1);
        let mut r0 = ids(a.round(&points, 0));
        assert_eq!(r0, ids(Schedule::new(1).round(&points, 0)));
        assert_ne!(r0, ids(Schedule::new(2).round(&points, 0)));
        r0.sort();
        let mut all = ids(points.clone());
        all.sort();
        assert_eq!(r0, all);
        assert_eq!(a.job(&points, 7).id(), a.round(&points, 1)[1].id());
    }
}
