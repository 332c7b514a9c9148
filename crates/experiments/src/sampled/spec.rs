//! The shape of a sampled run and the types it reports: [`SampleSpec`],
//! [`SampleControl`], per-interval measurements and failures, and the
//! [`SampledResult`] aggregate.

use crate::fault::FaultPlan;
use crate::parallel::{LptGovernor, RetryPolicy, TaskFailure};
use crate::runner::RunOptions;
use ltp_pipeline::RunError;
use ltp_stats::ConfidenceInterval;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Shape of one sampled-simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SampleSpec {
    /// Total trace length in instructions.
    pub total_insts: u64,
    /// Number of sample intervals (evenly spaced over the trace).
    pub intervals: usize,
    /// Detailed warm-up instructions per interval (pipeline fill, excluded
    /// from the measurement).
    pub detail_warm: u64,
    /// Measured detailed instructions per interval.
    pub detail_measure: u64,
    /// Workload seed (the detailed trace uses `seed + 1`, the cache-warming
    /// prefix `seed`, matching [`crate::SimBuilder`]).
    pub seed: u64,
    /// Cache-warming instructions replayed functionally before the trace
    /// starts (the same discipline as [`crate::SimBuilder`]).
    pub warm_insts: u64,
}

impl SampleSpec {
    /// Derives a spec from run options: the trace is `16×` the full-detail
    /// budget — sampling is the methodology that makes traces of this length
    /// affordable at all — split into 6 intervals whose measured windows are
    /// capped at 10 240 instructions (~15 % detail fraction at the default
    /// budget).
    ///
    /// The window cap is the accuracy-critical choice: a window must span at
    /// least one full phase cycle of a phased workload (the bundled
    /// `mixed_phases` alternates every 512 iterations, ≈ 9.7 k instructions
    /// per compute+memory cycle), so every window measures the true phase
    /// *mix*. Many short windows instead sample individual phases, and the
    /// estimate then rides on how many windows happened to land in each
    /// phase — a few-percent bias at any affordable interval count.
    ///
    /// The detailed warm-up (capped at 2 048 instructions) is the other
    /// accuracy-critical choice: a resumed window starts from functionally
    /// warmed state, and the warm-up both fills the pipeline and lets the
    /// LTP classifier retrain on detailed-execution feedback before the
    /// measurement opens. Halving it measurably biases classifier-sensitive
    /// points (`hash_probe` under LTP drifts past 2 % error at 1 k warm-up).
    #[must_use]
    pub fn from_options(opts: &RunOptions) -> SampleSpec {
        let total_insts = opts.detail_insts * 16;
        let intervals = 6usize;
        let stride = total_insts / intervals as u64;
        SampleSpec {
            total_insts,
            intervals,
            detail_warm: (stride / 16).min(2_048),
            detail_measure: (stride / 4).min(10_240),
            seed: opts.seed,
            warm_insts: opts.warm_insts,
        }
    }

    /// Fraction of the trace simulated in detail (warm-up + measurement).
    #[must_use]
    pub fn detail_fraction(&self) -> f64 {
        (self.detail_warm + self.detail_measure) as f64 * self.intervals as f64
            / self.total_insts as f64
    }

    pub(super) fn validate(&self) {
        assert!(self.intervals > 0, "need at least one interval");
    }

    /// The effective per-interval detailed window for a given stride: warm-up
    /// and measurement are clamped so the window never overlaps the next
    /// interval (short strides shrink the window rather than double-measuring
    /// trace regions, so odd interval counts and trace lengths stay sound).
    #[must_use]
    pub fn effective_window(&self, stride: u64) -> (u64, u64) {
        let warm = self.detail_warm.min(stride.saturating_sub(1));
        let measure = self.detail_measure.min(stride - warm);
        (warm, measure)
    }

    /// Checkpoint positions for a trace of `total` instructions: one per
    /// stratum of `total / intervals`, offset *within* its stratum by a
    /// golden-ratio (Weyl) low-discrepancy sequence scaled to the slack the
    /// detailed window leaves free.
    ///
    /// Grid-aligned systematic sampling aliases against periodic program
    /// behaviour — a phased workload whose phase cycle resonates with the
    /// stride shows every window the same phase and biases the estimate by
    /// several percent. The rotating offsets spread the windows across phase
    /// positions while keeping one window per stratum (stratified sampling),
    /// and are deterministic, so the streaming and two-phase runners place
    /// windows identically.
    #[must_use]
    pub fn interval_starts(&self, total: u64) -> Vec<u64> {
        let intervals = self.intervals.min(total.max(1) as usize);
        let stride = total / intervals as u64;
        let (warm, measure) = self.effective_window(stride);
        let slack = stride.saturating_sub(warm + measure);
        (0..intervals)
            .map(|i| {
                // Fractional part of i / φ, scaled to the stratum slack.
                let weyl = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                i as u64 * stride + ((u128::from(weyl) * u128::from(slack)) >> 64) as u64
            })
            .collect()
    }
}

/// Wall-clock breakdown of one sampled run. In the streaming pipeline the
/// functional pass and the detailed intervals overlap, so the parts can sum
/// to more than `total_secs` — that surplus *is* the overlap won back.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampledTiming {
    /// Functional pass on the producer thread: cache warming, fast-forward
    /// and per-interval checkpoint capture.
    pub functional_secs: f64,
    /// Detailed interval simulation, summed across workers (CPU seconds).
    pub detail_cpu_secs: f64,
    /// Per-interval IPC aggregation into the confidence interval.
    pub aggregate_secs: f64,
    /// Journaling cost: reading the journal at setup (on resume) and the one
    /// atomic write after the interval stream ends (zero when the run is not
    /// journaled).
    pub journal_secs: f64,
    /// End-to-end wall clock of the sampled run.
    pub total_secs: f64,
}

/// One measured sample interval.
#[derive(Debug, Clone)]
pub struct IntervalMeasurement {
    /// Interval index in trace order.
    pub index: usize,
    /// Trace position (instructions) of the checkpoint.
    pub start: u64,
    /// Measured instructions (can be short by one commit group).
    pub instructions: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// IPC of the measured window.
    pub ipc: f64,
    /// LPT cost weight (functional LLC misses in the interval).
    pub weight: u64,
}

/// Why one interval produced no measurement.
#[derive(Debug, Clone)]
pub enum IntervalError {
    /// A deterministic simulation error (e.g. a detected deadlock, with its
    /// diagnostic snapshot attached). Deterministic errors are *not*
    /// retried: the same inputs would fail the same way.
    Run(RunError),
    /// The fault-tolerance layer abandoned the interval after exhausting its
    /// retry budget (worker panics and/or deadline overruns).
    Task(TaskFailure),
    /// The run was cancelled ([`SampleControl::cancel`]) before this interval
    /// was simulated. Cancelled intervals are not errors of the interval
    /// itself; they simply mark what the partial result is missing.
    Cancelled,
}

impl std::fmt::Display for IntervalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntervalError::Run(e) => write!(f, "simulation error: {e}"),
            IntervalError::Task(t) => write!(f, "{t}"),
            IntervalError::Cancelled => write!(f, "cancelled before simulation"),
        }
    }
}

/// A sample interval that produced no measurement; the run degrades to a
/// partial result instead of failing outright.
#[derive(Debug, Clone)]
pub struct IntervalFailure {
    /// Interval index in trace order.
    pub index: usize,
    /// Trace position (instructions) of the interval's checkpoint.
    pub start: u64,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// What went wrong.
    pub error: IntervalError,
}

impl std::fmt::Display for IntervalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interval {} (at inst {}) lost after {} attempt{}: {}",
            self.index,
            self.start,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error
        )
    }
}

/// A streaming observer for completed interval measurements: invoked from
/// worker threads the moment an interval's measurement exists (and once per
/// journal-replayed interval at setup). The `ltp-service` job server uses it
/// to stream per-interval results to HTTP clients while the run is still in
/// flight. Consumers must key on [`IntervalMeasurement::index`]: under a
/// retry policy with a deadline, a discarded over-deadline attempt may emit
/// the same (deterministic) measurement twice.
pub type ProgressSink = Arc<dyn Fn(&IntervalMeasurement) + Send + Sync>;

/// Fault-tolerance and persistence controls for one sampled point.
#[derive(Clone)]
pub struct SampleControl {
    /// Retry discipline for interval simulation attempts.
    pub retry: RetryPolicy,
    /// Deterministic fault plan injected into interval attempts. A
    /// non-empty plan also moves `retry`'s deadline and backoff onto
    /// virtual time ([`VirtualClock`](crate::parallel::VirtualClock)): the
    /// plan's delays advance it, host load does not.
    pub faults: FaultPlan,
    /// Journal file for this point: the measurements of completed intervals
    /// are written to it once the interval stream ends, and `resume` replays
    /// them.
    pub journal: Option<PathBuf>,
    /// Replay completed intervals from `journal` before simulating; only a
    /// journal written for a header matching this run field-for-field is
    /// trusted, and a missing or damaged journal silently degrades to a
    /// fresh run.
    pub resume: bool,
    /// Configuration label recorded in (and checked against) the journal
    /// header.
    pub config_label: String,
    /// Checkpoint cache consulted before the functional pass. A hit
    /// rebuilds every interval checkpoint from the cached warm state —
    /// bypassing fast-forward entirely — bit-identical to what the cold
    /// pass would emit; a miss runs the pass and stores its warm states
    /// for every later run sharing the (trace, warm-config, geometry) key.
    pub cache: Option<Arc<crate::cache::CheckpointCache>>,
    /// Pre-computed content fingerprint of the detailed trace
    /// ([`ltp_isa::trace_fingerprint`]). Sweeps running several
    /// configurations over one workload fingerprint once and share it;
    /// when absent (and a cache is set) it is computed here.
    pub trace_fnv: Option<u64>,
    /// Streaming per-interval observer (see [`ProgressSink`]).
    pub progress: Option<ProgressSink>,
    /// Cooperative cancellation flag. Once set, the producer stops emitting
    /// checkpoints and queued workers skip their simulations; already-running
    /// intervals finish. Unsimulated intervals surface as
    /// [`IntervalError::Cancelled`] failures on a partial result, so a
    /// cancelled run still reports everything it measured.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cross-run execution governor: when set, every interval simulation
    /// runs under [`LptGovernor::run`] keyed by the interval's LPT weight,
    /// so concurrent sampled runs (the service's active jobs) share one
    /// global heaviest-first permit pool instead of oversubscribing the
    /// machine with independent worker pools.
    pub governor: Option<Arc<LptGovernor>>,
}

impl Default for SampleControl {
    fn default() -> SampleControl {
        SampleControl {
            retry: RetryPolicy::none(),
            faults: FaultPlan::new(),
            journal: None,
            resume: false,
            config_label: String::new(),
            cache: None,
            trace_fnv: None,
            progress: None,
            cancel: None,
            governor: None,
        }
    }
}

impl std::fmt::Debug for SampleControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleControl")
            .field("retry", &self.retry)
            .field("faults", &self.faults)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("config_label", &self.config_label)
            .field("cache", &self.cache.is_some())
            .field("trace_fnv", &self.trace_fnv)
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("governor", &self.governor.is_some())
            .finish()
    }
}

/// The aggregate of a sampled run.
#[derive(Debug, Clone)]
pub struct SampledResult {
    /// Workload name.
    pub workload: String,
    /// Mean per-interval IPC with its 95 % confidence interval.
    pub ipc: ConfidenceInterval,
    /// Per-interval measurements, in trace order.
    pub intervals: Vec<IntervalMeasurement>,
    /// Instructions simulated in detail (warm-up + measured), all intervals.
    pub detailed_insts: u64,
    /// Trace length.
    pub total_insts: u64,
    /// Encoded size of the first interval's checkpoint in bytes — what
    /// persisting a checkpoint would cost. Checkpoints flow through the
    /// runner in memory, so exactly one is encoded per run, for this metric
    /// (a fully replayed run reports the journaled value instead).
    pub checkpoint_bytes: usize,
    /// Wall-clock breakdown (functional pass / detailed intervals /
    /// aggregation).
    pub timing: SampledTiming,
    /// Intervals that produced no measurement (empty on a clean run). When
    /// non-empty the result is *partial*: `ipc` covers the measured
    /// intervals only and its confidence interval is widened for the missing
    /// ones ([`ConfidenceInterval::widened_for_missing`]).
    pub failures: Vec<IntervalFailure>,
    /// Intervals the run planned to measure.
    pub planned_intervals: usize,
    /// Intervals replayed from the journal instead of simulated.
    pub resumed_intervals: usize,
    /// First journaling I/O error, if any — journaling is best-effort and
    /// never fails the run, but silence would hide a dead journal.
    pub journal_error: Option<String>,
}

impl SampledResult {
    /// Whether any planned interval was lost (the result is degraded).
    #[must_use]
    pub fn is_partial(&self) -> bool {
        !self.failures.is_empty()
    }
    /// Aggregate IPC weighted by measured instructions (total work over
    /// total measured time), the estimator compared against full-detail IPC.
    #[must_use]
    pub fn weighted_ipc(&self) -> f64 {
        let insts: u64 = self.intervals.iter().map(|i| i.instructions).sum();
        let cycles: u64 = self.intervals.iter().map(|i| i.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            insts as f64 / cycles as f64
        }
    }
}
