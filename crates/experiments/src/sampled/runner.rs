//! The streaming runner behind [`SampledRequest::run`] and the two-phase
//! reference schedule behind [`SampledRequest::two_phase`].
//!
//! [`SampledRequest::run`]: super::SampledRequest::run
//! [`SampledRequest::two_phase`]: super::SampledRequest::two_phase

use super::{
    IntervalError, IntervalFailure, IntervalMeasurement, SampleControl, SampleSpec, SampledResult,
    SampledTiming,
};
use crate::cache::{sampled_warm_key, CachedInterval, IntervalGeometry, SampledWarmEntry};
use crate::journal::{self, JournalEntry, JournalHeader, JournalRecord};
use crate::parallel::{
    par_map_lpt, stream_map_lpt_ft, Clock, TaskOutcome, VirtualClock, WallClock,
};
use ltp_core::OracleClassifier;
use ltp_isa::{DecodedTrace, DynInst};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, RunError, Snapshot};
use ltp_stats::ConfidenceInterval;
use ltp_workloads::{replay_slice, trace, WorkloadKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The streaming runner body behind
/// [`SampledRequest::run`](super::SampledRequest::run). Interval
/// attempts run isolated under [`stream_map_lpt_ft`] with `control.retry`;
/// a deterministic [`RunError`] (e.g. a detected deadlock) is *not* retried
/// and surfaces as an [`IntervalFailure`] carrying the error, while panics
/// and deadline overruns are retried per policy before the interval is
/// declared lost. Lost intervals degrade the result to a clearly flagged
/// partial one ([`SampledResult::is_partial`]) with a widened confidence
/// interval rather than failing the run.
///
/// With `control.journal` set, the measurements of every completed interval
/// are journaled ([`crate::journal`]) in one atomic write once the interval
/// stream ends; with `control.resume` also set, intervals already in a
/// journal written for this exact run are replayed instead of re-simulated
/// (if *all* intervals replay, the functional pass is skipped entirely).
/// Per-interval measurements are deterministic, so a resumed or
/// fault-recovered run aggregates bit-identically to an uninterrupted one.
///
/// # Errors
///
/// Whole-run failures only (e.g. the snapshot errors of unsupported
/// configurations as [`RunError::SnapshotUnsupported`]). Per-interval
/// failures come back *inside* the result, not as `Err`.
///
/// # Panics
///
/// Panics if `spec` is inconsistent (zero intervals) or if `dec` was not
/// decoded from `detail`.
pub(super) fn run_controlled(
    cfg: PipelineConfig,
    kind: WorkloadKind,
    detail: &[DynInst],
    dec: &DecodedTrace,
    oracle: Option<&OracleClassifier>,
    spec: &SampleSpec,
    control: &SampleControl,
) -> Result<SampledResult, RunError> {
    spec.validate();
    assert_eq!(
        dec.len(),
        detail.len() as u64,
        "decoded trace does not match the detailed trace"
    );
    let run_t0 = Instant::now();
    let total = detail.len() as u64;
    let intervals = spec.intervals.min(total.max(1) as usize);
    let stride = total / intervals as u64;
    let (warm_eff, measure_eff) = spec.effective_window(stride);
    let starts = spec.interval_starts(total);
    let name = kind.name();

    // Resume: replay completed intervals from the journal written for
    // exactly this run. A missing, damaged, foreign or old-format journal is
    // a miss, not an error — the run simply starts fresh.
    let journal_t0 = Instant::now();
    let journaled = control.journal.as_deref().map(|path| {
        (
            path,
            JournalHeader::for_run(spec, name, &control.config_label, &cfg),
        )
    });
    let resumed = journaled
        .as_ref()
        .filter(|_| control.resume)
        .and_then(|(path, header)| journal::read_journal(path, header))
        .unwrap_or_default();
    let replayed: Vec<IntervalMeasurement> = resumed
        .records
        .iter()
        .filter_map(|rec| {
            let idx = usize::try_from(rec.index).ok()?;
            (idx < intervals && starts.get(idx) == Some(&rec.start)).then(|| IntervalMeasurement {
                index: idx,
                start: rec.start,
                instructions: rec.instructions,
                cycles: rec.cycles,
                ipc: rec.instructions as f64 / rec.cycles.max(1) as f64,
                weight: rec.weight,
            })
        })
        .collect();
    let done: std::collections::HashSet<usize> = replayed.iter().map(|m| m.index).collect();
    let resumed_intervals = done.len();
    let all_done = resumed_intervals == intervals;
    // Replayed intervals stream to the progress sink too: a resumed job's
    // observers see every measurement exactly as a fresh run's would.
    if let Some(sink) = &control.progress {
        for m in &replayed {
            sink(m);
        }
    }
    let cancel_requested = || {
        control
            .cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };
    let journal_read_secs = journal_t0.elapsed().as_secs_f64();

    // An oracle-classified configuration gets one whole-trace analysis shared
    // by every interval — the same analysis a full-detail run would use (and
    // none at all when the journal already covers every interval).
    let analysed: Option<OracleClassifier> = if !all_done && oracle.is_none() && cfg.needs_oracle()
    {
        Some(crate::sim::analyze_oracle(&cfg, detail))
    } else {
        None
    };
    let oracle = oracle.or(analysed.as_ref());

    // Streaming pipeline: the functional pass runs on this thread and emits
    // each interval's checkpoint into the bounded queue the moment its
    // boundary is reached; workers start the detailed simulation of an
    // interval immediately, heaviest (most functional misses) first. The
    // detailed phase therefore overlaps all of the functional pass after the
    // first interval boundary. Replayed intervals are fast-forwarded over
    // without checkpointing; when everything replayed, the pass is skipped.
    let mut producer_err: Option<RunError> = None;
    // Trace-order indices actually pushed into the stream: normally every
    // non-replayed interval, but cancellation stops production early and the
    // outcome mapping below must know exactly what was emitted.
    let mut pushed_log: Vec<usize> = Vec::new();
    let mut functional_secs = 0.0f64;
    let mut checkpoint_bytes = if done.contains(&0) {
        usize::try_from(resumed.checkpoint_bytes).unwrap_or(usize::MAX)
    } else {
        0
    };
    let detail_nanos = AtomicU64::new(0);
    // Deadlines and backoffs run on host time, except under a fault plan:
    // there the injected delays advance per-thread virtual time, so whether
    // an attempt overruns its deadline depends on the plan alone.
    let (wall_clock, virtual_clock) = (WallClock::default(), VirtualClock::default());
    let clock: &dyn Clock = if control.faults.is_empty() {
        &wall_clock
    } else {
        &virtual_clock
    };
    let outcomes: Vec<TaskOutcome<Result<IntervalMeasurement, WorkerErr>>> = if all_done {
        Vec::new()
    } else {
        let func_t0 = Instant::now();
        // The worker body is shared by the cold and cache-hit producers.
        let worker = |job: &IntervalJob, attempt: u32| {
            // A queued interval observed after cancellation is skipped, not
            // simulated — the cheapest way to drain the stream fast.
            if cancel_requested() {
                return Err(WorkerErr::Cancelled);
            }
            control.faults.inject(job.index, attempt, clock);
            let simulate = || {
                let t0 = Instant::now();
                let m = simulate_interval(job, oracle, name, detail, warm_eff, measure_eff);
                detail_nanos.fetch_add(
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    Ordering::Relaxed,
                );
                m
            };
            // Under a governor the permit wait happens here, outside the
            // detail timer, so `detail_cpu_secs` stays a work measurement.
            let m = match control.governor.as_deref() {
                Some(gov) => gov.run(job.weight + 1, simulate),
                None => simulate(),
            };
            if let Ok(m) = &m {
                if let Some(sink) = &control.progress {
                    sink(m);
                }
            }
            m.map_err(WorkerErr::Run)
        };
        // Checkpoint cache: key over the trace identity (name + content
        // fingerprint), the warm half of the configuration, and the
        // interval geometry — exactly the inputs the functional pass can
        // observe, so detail-only sweep dimensions (ROB/IQ/PRF, classifier
        // kind, LTP mode) share one entry.
        let cache_key = control.cache.as_deref().map(|cache| {
            let trace_fnv = control
                .trace_fnv
                .unwrap_or_else(|| ltp_isa::trace_fingerprint(detail));
            let geometry = IntervalGeometry {
                total_insts: total,
                intervals: spec.intervals as u64,
                detail_warm: spec.detail_warm,
                detail_measure: spec.detail_measure,
                seed: spec.seed,
                warm_insts: spec.warm_insts,
            };
            (
                cache,
                sampled_warm_key(name, trace_fnv, &cfg.warmup_config(), &geometry),
            )
        });
        let wants_classifier = matches!(
            ltp_pipeline::ClassifierTraining::of(&cfg.ltp),
            ltp_pipeline::ClassifierTraining::Trained { .. }
        );
        let cached: Option<SampledWarmEntry> = cache_key.as_ref().and_then(|(cache, key)| {
            // Beyond the codec checks, demand the entry's shape matches this
            // run (a 64-bit key collision must degrade to a miss, not a
            // panic in the restore path).
            cache.load_sampled_warm(*key).filter(|e| {
                e.intervals.len() == starts.len()
                    && e.intervals
                        .iter()
                        .zip(&starts)
                        .all(|(ci, &s)| ci.start == s && ci.state.consumed() == s)
                    && e.intervals
                        .iter()
                        .all(|ci| ci.state.has_classifier_state() == wants_classifier)
            })
        });

        if let Some(entry) = cached {
            // Cache hit: the functional pass is bypassed entirely. Each
            // interval's checkpoint is rebuilt from the cached warm state
            // under *this* configuration — byte-identical to what the cold
            // fast-forward would have captured, per the warm-key contract.
            stream_map_lpt_ft(
                intervals - resumed_intervals,
                control.retry,
                clock,
                |queue| {
                    for (i, (cached_iv, &start)) in
                        entry.intervals.into_iter().zip(&starts).enumerate()
                    {
                        if done.contains(&i) {
                            continue;
                        }
                        if cancel_requested() {
                            break;
                        }
                        let ff = FunctionalFastForward::from_warm_state(cfg, cached_iv.state);
                        let snap = match ff.checkpoint() {
                            Ok(snap) => snap,
                            Err(e) => {
                                producer_err = Some(RunError::SnapshotUnsupported(e.to_string()));
                                break;
                            }
                        };
                        if i == 0 {
                            checkpoint_bytes = snap.to_bytes().len();
                        }
                        pushed_log.push(i);
                        queue.push(
                            cached_iv.weight + 1,
                            IntervalJob {
                                index: i,
                                start,
                                snap: Arc::new(snap),
                                weight: cached_iv.weight,
                            },
                        );
                    }
                    functional_secs = func_t0.elapsed().as_secs_f64();
                },
                worker,
            )
        } else {
            let mut ff = FunctionalFastForward::new(cfg);
            if spec.warm_insts > 0 {
                let warm = trace(kind, spec.seed, spec.warm_insts as usize);
                ff.warm_caches(&warm);
            }
            stream_map_lpt_ft(
                intervals - resumed_intervals,
                control.retry,
                clock,
                |queue| {
                    // On a miss with a cache attached, capture every interval
                    // boundary's warm state (replayed intervals included —
                    // the entry must be whole to serve future runs). A
                    // capture failure abandons the store, never the run.
                    let mut captured: Option<Vec<CachedInterval>> = cache_key
                        .is_some()
                        .then(|| Vec::with_capacity(starts.len()));
                    for (i, &start) in starts.iter().enumerate() {
                        if cancel_requested() {
                            // Stop producing checkpoints; the incomplete
                            // capture set is discarded below, never stored.
                            captured = None;
                            break;
                        }
                        ff.advance_on(dec, start);
                        if let Some(cap) = captured.as_mut() {
                            match ff.warm_state() {
                                Ok(state) => cap.push(CachedInterval {
                                    start,
                                    weight: 0,
                                    state,
                                }),
                                Err(_) => captured = None,
                            }
                        }
                        let job_snap = if done.contains(&i) {
                            None
                        } else {
                            let snap = match ff.checkpoint() {
                                Ok(snap) => snap,
                                Err(e) => {
                                    producer_err =
                                        Some(RunError::SnapshotUnsupported(e.to_string()));
                                    break;
                                }
                            };
                            if i == 0 {
                                // Report what persisting a checkpoint costs.
                                checkpoint_bytes = snap.to_bytes().len();
                            }
                            Some(snap)
                        };
                        let end = starts.get(i + 1).copied().unwrap_or(total);
                        ff.advance_on(dec, end);
                        let weight = ff.take_llc_misses();
                        if let Some(cap) = captured.as_mut() {
                            if let Some(last) = cap.last_mut() {
                                last.weight = weight;
                            }
                        }
                        if let Some(snap) = job_snap {
                            // LPT cost: the detailed window length is
                            // constant, so the miss weight is the
                            // differentiating term; +1 keeps zero-miss
                            // intervals schedulable.
                            pushed_log.push(i);
                            queue.push(
                                weight + 1,
                                IntervalJob {
                                    index: i,
                                    start,
                                    snap: Arc::new(snap),
                                    weight,
                                },
                            );
                        }
                    }
                    if let (Some(cap), Some((cache, key))) = (captured, cache_key.as_ref()) {
                        if cap.len() == starts.len() {
                            cache.store_sampled_warm(*key, &SampledWarmEntry { intervals: cap });
                        }
                    }
                    functional_secs = func_t0.elapsed().as_secs_f64();
                },
                worker,
            )
        }
    };
    let agg_t0 = Instant::now();
    // `stream_map_lpt_ft` returns outcomes in push order and `pushed_log`
    // recorded exactly which trace-order intervals were pushed — map them
    // back. Intervals never pushed (production stopped by cancellation)
    // surface as `Cancelled` failures so the partial result accounts for
    // every planned interval.
    debug_assert_eq!(outcomes.len(), pushed_log.len());
    let mut intervals_out: Vec<IntervalMeasurement> = replayed;
    let mut failures: Vec<IntervalFailure> = Vec::new();
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let index = pushed_log[k];
        let start = starts[index];
        match outcome {
            TaskOutcome::Done { value: Ok(m), .. } => intervals_out.push(m),
            TaskOutcome::Done {
                value: Err(WorkerErr::Run(e)),
                attempts,
            } => failures.push(IntervalFailure {
                index,
                start,
                attempts,
                error: IntervalError::Run(e),
            }),
            TaskOutcome::Done {
                value: Err(WorkerErr::Cancelled),
                attempts,
            } => failures.push(IntervalFailure {
                index,
                start,
                attempts,
                error: IntervalError::Cancelled,
            }),
            TaskOutcome::Failed(mut t) => {
                // The task layer knows only push indices; report trace ones.
                t.index = index;
                failures.push(IntervalFailure {
                    index,
                    start,
                    attempts: t.attempts,
                    error: IntervalError::Task(t),
                });
            }
        }
    }
    let pushed_set: std::collections::HashSet<usize> = pushed_log.into_iter().collect();
    for index in (0..intervals).filter(|i| !done.contains(i) && !pushed_set.contains(i)) {
        failures.push(IntervalFailure {
            index,
            start: starts[index],
            attempts: 0,
            error: IntervalError::Cancelled,
        });
    }
    intervals_out.sort_by_key(|m| m.index);
    failures.sort_by_key(|f| f.index);

    let samples: Vec<f64> = intervals_out.iter().map(|m| m.ipc).collect();
    let ipc = ConfidenceInterval::from_samples(&samples).widened_for_missing(failures.len());
    let aggregate_secs = agg_t0.elapsed().as_secs_f64();

    // The journal is rewritten whole, in one atomic write, after the stream
    // ends: every measured interval (replayed ones included) and the
    // checkpoint size, never machine state. Journaling is best-effort — an
    // I/O failure is reported on the result but never fails the run.
    let journal_write_t0 = Instant::now();
    let journal_error = journaled.as_ref().and_then(|(path, header)| {
        let entry = JournalEntry {
            checkpoint_bytes: checkpoint_bytes as u64,
            records: intervals_out
                .iter()
                .map(|m| JournalRecord {
                    index: m.index as u64,
                    start: m.start,
                    weight: m.weight,
                    instructions: m.instructions,
                    cycles: m.cycles,
                })
                .collect(),
        };
        journal::write_journal(path, header, &entry)
            .err()
            .map(|e| e.to_string())
    });
    let journal_secs = journal_read_secs + journal_write_t0.elapsed().as_secs_f64();
    if let Some(e) = producer_err {
        return Err(e);
    }
    let timing = SampledTiming {
        functional_secs,
        detail_cpu_secs: detail_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        aggregate_secs,
        journal_secs,
        total_secs: run_t0.elapsed().as_secs_f64(),
    };
    Ok(SampledResult {
        workload: name.to_string(),
        ipc,
        detailed_insts: intervals_out
            .iter()
            .map(|m| m.instructions + warm_eff)
            .sum(),
        total_insts: total,
        intervals: intervals_out,
        checkpoint_bytes,
        timing,
        failures,
        planned_intervals: intervals,
        resumed_intervals,
        journal_error,
    })
}

/// Why one worker attempt produced no measurement (internal to the stream).
enum WorkerErr {
    /// Deterministic simulation error: not retried, reported as
    /// [`IntervalError::Run`].
    Run(RunError),
    /// The run was cancelled before this interval simulated.
    Cancelled,
}

/// One interval's unit of work flowing through the streaming queue: the
/// in-memory checkpoint plus where it sits in the trace and what it should
/// cost.
#[derive(Debug)]
struct IntervalJob {
    index: usize,
    start: u64,
    snap: Arc<Snapshot>,
    weight: u64,
}

/// Resumes a processor from one checkpoint and runs its detailed warm-up +
/// measurement — the worker body shared by the streaming and two-phase
/// runners, so the two schedules cannot drift apart in simulation semantics.
fn simulate_interval(
    job: &IntervalJob,
    oracle: Option<&OracleClassifier>,
    name: &str,
    detail: &[DynInst],
    warm_eff: u64,
    measure_eff: u64,
) -> Result<IntervalMeasurement, RunError> {
    let total = detail.len() as u64;
    let mut resumed = job.snap.resume();
    if let Some(oracle) = oracle {
        resumed.set_oracle(oracle.clone());
    }
    let max_insts = (job.start + warm_eff + measure_eff).min(total);
    let result =
        resumed.run_measured_from(replay_slice(name, detail), max_insts, job.start + warm_eff)?;
    Ok(IntervalMeasurement {
        index: job.index,
        start: job.start,
        instructions: result.instructions,
        cycles: result.cycles,
        ipc: result.instructions as f64 / result.cycles.max(1) as f64,
        weight: job.weight,
    })
}

/// The two-phase runner body behind
/// [`SampledRequest::two_phase`](super::SampledRequest::two_phase): the
/// previous discipline, kept as the differential reference for the streaming
/// pipeline. It checkpoints **all** intervals with the per-instruction
/// functional interpreter ([`FunctionalFastForward::feed`]), then simulates
/// them all with offline-LPT scheduling ([`par_map_lpt`]). Checkpoints,
/// weights and per-interval measurements are bit-identical to
/// [`run_controlled`]'s; only the schedule (and therefore the wall-clock)
/// differs.
///
/// # Errors
///
/// The first interval's [`RunError`], and the snapshot errors of
/// unsupported configurations as [`RunError::SnapshotUnsupported`].
///
/// # Panics
///
/// Panics if `spec` is inconsistent (zero intervals).
pub(super) fn run_two_phase(
    cfg: PipelineConfig,
    kind: WorkloadKind,
    detail: &[DynInst],
    spec: &SampleSpec,
) -> Result<SampledResult, RunError> {
    spec.validate();
    let run_t0 = Instant::now();
    let total = detail.len() as u64;
    let intervals = spec.intervals.min(total.max(1) as usize);
    let stride = total / intervals as u64;
    let (warm_eff, measure_eff) = spec.effective_window(stride);
    let starts = spec.interval_starts(total);

    let oracle: Option<OracleClassifier> = if cfg.needs_oracle() {
        Some(crate::sim::analyze_oracle(&cfg, detail))
    } else {
        None
    };
    let name = kind.name();

    // Phase 1 — serial functional pass over every interval, per-instruction.
    let func_t0 = Instant::now();
    let mut ff = FunctionalFastForward::new(cfg);
    if spec.warm_insts > 0 {
        let warm = trace(kind, spec.seed, spec.warm_insts as usize);
        ff.warm_caches(&warm);
    }
    let mut jobs: Vec<IntervalJob> = Vec::with_capacity(intervals);
    let mut checkpoint_bytes = 0usize;
    for (i, &start) in starts.iter().enumerate() {
        ff.feed_all(&detail[ff.consumed() as usize..start as usize]);
        debug_assert_eq!(ff.consumed(), start);
        let snap = ff
            .checkpoint()
            .map_err(|e| RunError::SnapshotUnsupported(e.to_string()))?;
        if i == 0 {
            checkpoint_bytes = snap.to_bytes().len();
        }
        let end = starts.get(i + 1).copied().unwrap_or(total);
        ff.feed_all(&detail[start as usize..end as usize]);
        let weight = ff.take_llc_misses();
        jobs.push(IntervalJob {
            index: i,
            start,
            snap: Arc::new(snap),
            weight,
        });
    }
    let functional_secs = func_t0.elapsed().as_secs_f64();

    // Phase 2 — detailed interval simulations, longest first.
    let detail_nanos = AtomicU64::new(0);
    let measurements: Vec<Result<IntervalMeasurement, RunError>> = par_map_lpt(
        jobs,
        |job| job.weight + 1,
        |job| {
            let t0 = Instant::now();
            let m = simulate_interval(job, oracle.as_ref(), name, detail, warm_eff, measure_eff);
            detail_nanos.fetch_add(
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
            m
        },
    );

    let agg_t0 = Instant::now();
    let mut intervals_out = Vec::with_capacity(measurements.len());
    for m in measurements {
        intervals_out.push(m?);
    }
    let samples: Vec<f64> = intervals_out.iter().map(|m| m.ipc).collect();
    let ipc = ConfidenceInterval::from_samples(&samples);
    let timing = SampledTiming {
        functional_secs,
        detail_cpu_secs: detail_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        aggregate_secs: agg_t0.elapsed().as_secs_f64(),
        journal_secs: 0.0,
        total_secs: run_t0.elapsed().as_secs_f64(),
    };
    Ok(SampledResult {
        workload: name.to_string(),
        ipc,
        detailed_insts: intervals_out
            .iter()
            .map(|m| m.instructions + warm_eff)
            .sum(),
        total_insts: total,
        planned_intervals: intervals_out.len(),
        intervals: intervals_out,
        checkpoint_bytes,
        timing,
        failures: Vec::new(),
        resumed_intervals: 0,
        journal_error: None,
    })
}
