//! Checkpointed sampled simulation: the `SampledRunner` and the `sample`
//! experiment.
//!
//! Full-detail simulation of production-length traces is the slowest part of
//! the repo; interval sampling is the standard way simulators scale
//! (SMARTS/SimPoint). The runner here:
//!
//! 1. **pre-decodes** the trace once into a flat [`DecodedTrace`] (memory
//!    and branch events resolved up front, straight-line stretches costing
//!    nothing) and makes a **functional fast-forward** pass over it
//!    ([`ltp_pipeline::FunctionalFastForward::advance_on`]): caches, branch
//!    predictor and LTP learned state advance at far above
//!    detailed-simulation speed;
//! 2. **streams** an in-memory [`Snapshot`](ltp_pipeline::Snapshot) checkpoint into a bounded queue
//!    at each interval boundary, weighted by the functional LLC-miss count of
//!    the interval (a cost proxy: memory-bound intervals simulate slower in
//!    detail) — detailed simulation of an interval starts the moment its
//!    checkpoint lands, overlapping the remainder of the functional pass
//!    ([`crate::parallel::stream_map_lpt_ft`]). Checkpoints cross the queue as
//!    objects, not bytes: the encode/decode round-trip is only worth paying
//!    when a checkpoint is persisted, and here it never is (one checkpoint
//!    per run is still encoded to report the persisted-size footprint);
//! 3. worker threads claim the **heaviest available** interval first (online
//!    LPT scheduling) — each resumes a processor from its checkpoint, runs a
//!    short detailed warm-up (pipeline fill), and measures the interval's
//!    IPC;
//! 4. aggregates per-interval IPC into a mean with a Student-t 95 %
//!    confidence interval ([`ltp_stats::ConfidenceInterval`]).
//!
//! [`SampledRequest::two_phase`] keeps the previous checkpoint-all-then-
//! simulate-all discipline over the per-instruction functional interpreter:
//! it is the differential reference the streaming pipeline is tested against
//! (identical per-interval results, byte-identical checkpoints) and the
//! baseline its overlap is measured against.
//!
//! The `sample` experiment compares this estimate (and its wall-clock) to
//! the full-detail run of the same trace, reporting the IPC error and the
//! speed-up per simulation point.
//!
//! The code is split by concern: `spec` holds [`SampleSpec`] and the
//! reported types, `runner` the streaming and two-phase runners, `report`
//! the `sample` experiment; [`SampledRequest`], the one entry point into the
//! runners, lives here.

mod report;
mod runner;
mod spec;
#[cfg(test)]
mod tests;

pub use report::{
    digest_line, result_digest, run, run_with_control, SampleRunControl, SampleRunStatus,
};
pub use spec::{
    IntervalError, IntervalFailure, IntervalMeasurement, ProgressSink, SampleControl, SampleSpec,
    SampledResult, SampledTiming,
};

use crate::cache::CheckpointCache;
use crate::fault::FaultPlan;
use crate::parallel::{LptGovernor, RetryPolicy};
use ltp_core::OracleClassifier;
use ltp_isa::{DecodedTrace, DynInst};
use ltp_pipeline::{PipelineConfig, RunError};
use ltp_workloads::{trace, WorkloadKind};
use runner::{run_controlled, run_two_phase};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// One sampled-simulation request: the single entry point to the sampled
/// runner.
///
/// A request names the configuration, workload and [`SampleSpec`]; everything
/// else — trace source, pre-decoded trace, shared oracle analysis,
/// [`SampleControl`] (retry/faults/journal/cache/progress/cancel/governor)
/// and the two-phase reference schedule — is opt-in through builder methods.
/// Both the CLI and the `ltp-service` job server construct their runs through
/// this type, so there is exactly one path into the runner.
///
/// ```no_run
/// use ltp_experiments::sampled::{SampleSpec, SampledRequest};
/// use ltp_experiments::RunOptions;
/// use ltp_pipeline::PipelineConfig;
/// use ltp_workloads::WorkloadKind;
///
/// let spec = SampleSpec::from_options(&RunOptions::quick());
/// let result = SampledRequest::new(
///     PipelineConfig::ltp_proposed(),
///     WorkloadKind::IndirectStream,
///     spec,
/// )
/// .run()
/// .expect("sampled run");
/// assert_eq!(result.intervals.len(), result.planned_intervals);
/// ```
pub struct SampledRequest<'a> {
    cfg: PipelineConfig,
    kind: WorkloadKind,
    spec: SampleSpec,
    trace: Option<&'a [DynInst]>,
    owned_trace: Option<Vec<DynInst>>,
    dec: Option<&'a DecodedTrace>,
    oracle: Option<&'a OracleClassifier>,
    control: SampleControl,
    two_phase: bool,
}

impl std::fmt::Debug for SampledRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampledRequest")
            .field("kind", &self.kind.name())
            .field("spec", &self.spec)
            .field("trace", &self.trace.map(<[DynInst]>::len))
            .field("owned_trace", &self.owned_trace.as_ref().map(Vec::len))
            .field("dec", &self.dec.is_some())
            .field("oracle", &self.oracle.is_some())
            .field("control", &self.control)
            .field("two_phase", &self.two_phase)
            .finish_non_exhaustive()
    }
}

impl<'a> SampledRequest<'a> {
    /// Starts a request for one `(configuration, workload, spec)` point with
    /// default controls: the trace is generated from the spec's seed, no
    /// retries, no journal, no cache.
    #[must_use]
    pub fn new(cfg: PipelineConfig, kind: WorkloadKind, spec: SampleSpec) -> SampledRequest<'a> {
        SampledRequest {
            cfg,
            kind,
            spec,
            trace: None,
            owned_trace: None,
            dec: None,
            oracle: None,
            control: SampleControl::default(),
            two_phase: false,
        }
    }

    /// Uses a caller-provided detailed trace (which must be the one the spec
    /// would generate for the oracle analysis to be sound). Callers comparing
    /// sampled against full detail share one trace allocation this way.
    #[must_use]
    pub fn trace(mut self, detail: &'a [DynInst]) -> SampledRequest<'a> {
        self.trace = Some(detail);
        self.owned_trace = None;
        self
    }

    /// Uses an owned detailed trace — e.g. one decoded off the wire by the
    /// service's inline-trace job submissions.
    #[must_use]
    pub fn owned_trace(mut self, detail: Vec<DynInst>) -> SampledRequest<'a> {
        self.owned_trace = Some(detail);
        self.trace = None;
        self
    }

    /// Shares a pre-decoded form of the trace (a pure function of the trace;
    /// sweeps decode once). Must match the request's trace.
    #[must_use]
    pub fn decoded(mut self, dec: &'a DecodedTrace) -> SampledRequest<'a> {
        self.dec = Some(dec);
        self
    }

    /// Shares a pre-computed oracle analysis (a pure function of
    /// `(configuration, trace)`); when absent and the configuration needs
    /// one, it is analysed inside [`SampledRequest::run`].
    #[must_use]
    pub fn oracle(mut self, oracle: &'a OracleClassifier) -> SampledRequest<'a> {
        self.oracle = Some(oracle);
        self
    }

    /// Replaces the whole [`SampleControl`] at once.
    #[must_use]
    pub fn control(mut self, control: SampleControl) -> SampledRequest<'a> {
        self.control = control;
        self
    }

    /// Sets the retry discipline for interval attempts.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> SampledRequest<'a> {
        self.control.retry = retry;
        self
    }

    /// Sets the deterministic fault plan injected into interval attempts.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> SampledRequest<'a> {
        self.control.faults = faults;
        self
    }

    /// Journals completed intervals to `path`; with `resume` they replay.
    #[must_use]
    pub fn journal(mut self, path: PathBuf) -> SampledRequest<'a> {
        self.control.journal = Some(path);
        self
    }

    /// Replays completed intervals from the journal before simulating.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> SampledRequest<'a> {
        self.control.resume = resume;
        self
    }

    /// Sets the configuration label recorded in the journal header.
    #[must_use]
    pub fn config_label(mut self, label: impl Into<String>) -> SampledRequest<'a> {
        self.control.config_label = label.into();
        self
    }

    /// Consults (and populates) a shared checkpoint cache.
    #[must_use]
    pub fn cache(mut self, cache: Arc<CheckpointCache>) -> SampledRequest<'a> {
        self.control.cache = Some(cache);
        self
    }

    /// Shares a pre-computed trace fingerprint for the cache key.
    #[must_use]
    pub fn trace_fnv(mut self, fnv: u64) -> SampledRequest<'a> {
        self.control.trace_fnv = Some(fnv);
        self
    }

    /// Streams completed interval measurements to `sink` as they land.
    #[must_use]
    pub fn progress(mut self, sink: ProgressSink) -> SampledRequest<'a> {
        self.control.progress = Some(sink);
        self
    }

    /// Makes the run cooperatively cancellable through `flag`.
    #[must_use]
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> SampledRequest<'a> {
        self.control.cancel = Some(flag);
        self
    }

    /// Runs every interval simulation under a shared cross-run governor.
    #[must_use]
    pub fn governor(mut self, governor: Arc<LptGovernor>) -> SampledRequest<'a> {
        self.control.governor = Some(governor);
        self
    }

    /// Switches to the two-phase reference schedule: checkpoint **all**
    /// intervals with the per-instruction functional interpreter, then
    /// simulate them all (offline LPT). The differential reference the
    /// streaming pipeline is tested against — measurements are bit-identical,
    /// only the schedule (and wall-clock) differs. Two-phase runs ignore the
    /// fault-tolerance and persistence controls.
    #[must_use]
    pub fn two_phase(mut self) -> SampledRequest<'a> {
        self.two_phase = true;
        self
    }

    /// Runs the request (see the module docs for the pipeline).
    ///
    /// Per-interval failures (worker panics past the retry budget,
    /// deterministic interval errors, cancellation) come back *inside* the
    /// result as [`SampledResult::failures`], degrading it to a clearly
    /// flagged partial result — not as `Err`.
    ///
    /// # Errors
    ///
    /// Whole-run failures only: the snapshot errors of unsupported
    /// configurations as [`RunError::SnapshotUnsupported`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero intervals) or if a shared
    /// decoded trace does not match the trace.
    pub fn run(&self) -> Result<SampledResult, RunError> {
        let generated: Option<Vec<DynInst>> = match (self.trace, &self.owned_trace) {
            (None, None) => Some(trace(
                self.kind,
                self.spec.seed.wrapping_add(1),
                self.spec.total_insts as usize,
            )),
            _ => None,
        };
        let detail: &[DynInst] = self
            .trace
            .or(self.owned_trace.as_deref())
            .or(generated.as_deref())
            .expect("a trace source is always present");
        if self.two_phase {
            return run_two_phase(self.cfg, self.kind, detail, &self.spec);
        }
        let decoded: Option<DecodedTrace> =
            self.dec.is_none().then(|| DecodedTrace::from_insts(detail));
        let dec = self.dec.or(decoded.as_ref()).expect("decoded trace");
        run_controlled(
            self.cfg,
            self.kind,
            detail,
            dec,
            self.oracle,
            &self.spec,
            &self.control,
        )
    }
}
