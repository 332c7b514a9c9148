//! The `sample` experiment: Figure-1 points simulated both sampled and in
//! full detail, reported with IPC error, confidence interval and speed-up.

use super::{run_controlled, IntervalMeasurement, ProgressSink, SampleControl, SampleSpec};
use crate::fault::FaultPlan;
use crate::journal;
use crate::parallel::{LptGovernor, RetryPolicy};
use crate::report::Report;
use crate::runner::{limit_study_config, RunOptions};
use ltp_core::{LtpMode, OracleClassifier};
use ltp_isa::{DecodedTrace, DynInst};
use ltp_pipeline::{PipelineConfig, RunError};
use ltp_workloads::{trace, WorkloadKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The three Figure-1 configurations the `sample` experiment covers.
pub(super) fn fig1_configs() -> [(&'static str, PipelineConfig); 3] {
    [
        ("IQ:32", PipelineConfig::limit_study_unlimited().with_iq(32)),
        ("IQ:32+LTP", limit_study_config(LtpMode::Both).with_iq(32)),
        (
            "IQ:256",
            PipelineConfig::limit_study_unlimited().with_iq(256),
        ),
    ]
}

/// Runs the full-detail reference for one point over the *same* trace the
/// sampled run uses, so the error column isolates the sampling methodology.
/// Delegates to [`SimBuilder`] so the warm-trace seed discipline and oracle
/// recipe stay defined in exactly one place.
pub(super) fn full_detail_ipc(
    cfg: PipelineConfig,
    kind: WorkloadKind,
    detail: &[DynInst],
    oracle: Option<&OracleClassifier>,
    spec: &SampleSpec,
) -> Result<f64, RunError> {
    let mut builder = crate::SimBuilder::new(cfg, kind)
        .seed(spec.seed)
        .warm_insts(spec.warm_insts)
        .detail_insts(spec.total_insts);
    if let Some(oracle) = oracle {
        builder = builder.oracle(oracle.clone());
    }
    let r = builder.run_on(detail)?;
    Ok(r.instructions as f64 / r.cycles.max(1) as f64)
}

/// One line of the run digest, per measured interval. Two runs (over any
/// transport: in-process, CLI, HTTP job) that measure the same intervals
/// produce the same lines — and therefore the same [`result_digest`] — so
/// bit-identity can be asserted by comparing one hex number.
#[must_use]
pub fn digest_line(workload: &str, label: &str, m: &IntervalMeasurement) -> String {
    format!(
        "{workload}|{label}|{}|{}|{}\n",
        m.index, m.instructions, m.cycles
    )
}

/// FNV-1a digest over concatenated [`digest_line`]s, rendered exactly as the
/// reports print it (`{:#018x}`).
#[must_use]
pub fn result_digest(lines: &str) -> String {
    format!("{:#018x}", ltp_snapshot::fnv1a64(lines.as_bytes()))
}

/// Experiment-level fault-tolerance controls for the `sample` experiment,
/// fanned out to every point's [`SampleControl`].
#[derive(Clone, Default)]
pub struct SampleRunControl {
    /// Retry policy for every point; `None` means
    /// [`RetryPolicy::default_sampled`].
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault plan injected into every point.
    pub faults: FaultPlan,
    /// Directory for per-point journals ([`journal::journal_path`] names the
    /// files); enables journaling when set.
    pub journal_dir: Option<PathBuf>,
    /// Replay matching journals from `journal_dir` before simulating.
    pub resume: bool,
    /// Checkpoint-cache directory shared across points (and across runs);
    /// enables the content-addressed warm-state cache when set.
    pub cache_dir: Option<PathBuf>,
    /// Streaming per-interval observer fanned out to every point.
    pub progress: Option<ProgressSink>,
    /// Cooperative cancellation flag fanned out to every point; points not
    /// yet started when it trips are skipped entirely.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cross-run execution governor fanned out to every point.
    pub governor: Option<Arc<LptGovernor>>,
}

impl std::fmt::Debug for SampleRunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleRunControl")
            .field("retry", &self.retry)
            .field("faults", &self.faults)
            .field("journal_dir", &self.journal_dir)
            .field("resume", &self.resume)
            .field("cache_dir", &self.cache_dir)
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("governor", &self.governor.is_some())
            .finish()
    }
}

/// What happened across the points of one `sample` experiment run — the
/// basis for the binary's exit code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleRunStatus {
    /// Points that completed degraded (lost intervals, flagged PARTIAL).
    pub partial_points: usize,
    /// Points that failed outright.
    pub error_points: usize,
}

/// Runs the `sample` experiment: Figure-1-style points simulated both ways,
/// with IPC error, confidence interval and wall-clock speed-up per point.
#[must_use]
pub fn run(opts: &RunOptions) -> Report {
    run_with_control(opts, &SampleRunControl::default()).0
}

/// [`run`] with explicit fault-tolerance controls, reporting the run status
/// alongside the report (the binary maps it to distinct exit codes).
#[must_use]
pub fn run_with_control(
    opts: &RunOptions,
    control: &SampleRunControl,
) -> (Report, SampleRunStatus) {
    let spec = SampleSpec::from_options(opts);
    let kinds = WorkloadKind::ALL;
    let mut status = SampleRunStatus::default();
    let retry = control.retry.unwrap_or_else(RetryPolicy::default_sampled);
    // A deterministic digest over every measured interval: two runs that
    // recover to the same measurements print the same digest, so the CI
    // canary can compare a fault-injected run against a fault-free one
    // without parsing the table.
    let mut digest_buf = String::new();
    let mut notes: Vec<String> = Vec::new();
    let cache: Option<Arc<crate::cache::CheckpointCache>> = control
        .cache_dir
        .as_deref()
        .map(|dir| match crate::cache::CheckpointCache::open(dir) {
            Ok(c) => Ok(Arc::new(c)),
            Err(e) => Err(e),
        })
        .transpose()
        .unwrap_or_else(|e| {
            notes.push(format!("checkpoint cache disabled: {e}"));
            None
        });

    let mut report = Report::new("sample");
    report.push_text(format!(
        "Sampled simulation vs full detail (Figure-1 configurations)\n\
         trace {} insts, {} intervals x ({} warm + {} measured) detailed \
         ({:.1}% detail fraction), functional fast-forward between intervals\n\n",
        spec.total_insts,
        spec.intervals,
        spec.detail_warm,
        spec.detail_measure,
        spec.detail_fraction() * 100.0
    ));

    let columns: Vec<String> = [
        "workload",
        "config",
        "full IPC",
        "sampled IPC (95% CI)",
        "err%",
        "full s",
        "sampled s",
        "speedup",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut total_full_secs = 0.0;
    let mut total_sampled_secs = 0.0;
    let mut worst_err = 0.0f64;
    let mut checkpoint_bytes = 0usize;
    let mut functional_secs = 0.0f64;
    let mut functional_insts = 0u64;
    let mut detail_cpu_secs = 0.0f64;
    let mut detailed_insts = 0u64;
    let mut aggregate_secs = 0.0f64;
    let mut journal_secs = 0.0f64;
    let mut resumed_intervals = 0usize;
    let mut planned_intervals = 0usize;

    'points: for kind in kinds {
        // Trace generation (and its decoded-event form) is identical
        // preparation for both methodologies and for every configuration, so
        // it happens once per workload outside the timed regions.
        let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
        let dec = DecodedTrace::from_insts(&detail);
        // The trace fingerprint is part of every cache key for this
        // workload; hash it once here rather than once per configuration.
        let trace_fnv = cache.as_ref().map(|_| ltp_isa::trace_fingerprint(&detail));
        for (label, cfg) in fig1_configs() {
            if control
                .cancel
                .as_deref()
                .is_some_and(|c| c.load(Ordering::Relaxed))
            {
                notes.push("run cancelled: remaining points skipped".to_string());
                break 'points;
            }
            // The oracle analysis is likewise a pure function of
            // (configuration, trace), consumed identically by both sides —
            // analyse once per point and share it, so the timed columns
            // compare simulation methodologies rather than re-derived prep.
            let oracle: Option<OracleClassifier> = cfg
                .needs_oracle()
                .then(|| crate::sim::analyze_oracle(&cfg, &detail));
            let t0 = std::time::Instant::now();
            let full = match full_detail_ipc(cfg, kind, &detail, oracle.as_ref(), &spec) {
                Ok(ipc) => ipc,
                Err(e) => {
                    status.error_points += 1;
                    rows.push(vec![
                        kind.name().to_string(),
                        label.to_string(),
                        format!("error: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let full_secs = t0.elapsed().as_secs_f64();

            let point_control = SampleControl {
                retry,
                faults: control.faults.clone(),
                journal: control
                    .journal_dir
                    .as_deref()
                    .map(|dir| journal::journal_path(dir, kind.name(), label)),
                resume: control.resume,
                config_label: label.to_string(),
                cache: cache.clone(),
                trace_fnv,
                progress: control.progress.clone(),
                cancel: control.cancel.clone(),
                governor: control.governor.clone(),
            };
            let t1 = std::time::Instant::now();
            let sampled = match run_controlled(
                cfg,
                kind,
                &detail,
                &dec,
                oracle.as_ref(),
                &spec,
                &point_control,
            ) {
                Ok(s) => s,
                Err(e) => {
                    status.error_points += 1;
                    rows.push(vec![
                        kind.name().to_string(),
                        label.to_string(),
                        format!("{full:.4}"),
                        format!("error: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let sampled_secs = t1.elapsed().as_secs_f64();
            if sampled.is_partial() {
                status.partial_points += 1;
                for f in &sampled.failures {
                    notes.push(format!("{}/{label}: {f}", kind.name()));
                }
            }
            if let Some(e) = &sampled.journal_error {
                notes.push(format!("{}/{label}: journal disabled: {e}", kind.name()));
            }
            for m in &sampled.intervals {
                digest_buf.push_str(&digest_line(kind.name(), label, m));
            }

            let estimate = sampled.weighted_ipc();
            let err = (estimate - full).abs() / full * 100.0;
            worst_err = worst_err.max(err);
            total_full_secs += full_secs;
            total_sampled_secs += sampled_secs;
            functional_secs += sampled.timing.functional_secs;
            functional_insts += sampled.total_insts;
            detail_cpu_secs += sampled.timing.detail_cpu_secs;
            detailed_insts += sampled.detailed_insts;
            aggregate_secs += sampled.timing.aggregate_secs;
            journal_secs += sampled.timing.journal_secs;
            resumed_intervals += sampled.resumed_intervals;
            planned_intervals += sampled.planned_intervals;
            checkpoint_bytes = checkpoint_bytes.max(sampled.checkpoint_bytes);
            let partial_mark = if sampled.is_partial() {
                format!(
                    " [PARTIAL {}/{}]",
                    sampled.intervals.len(),
                    sampled.planned_intervals
                )
            } else {
                String::new()
            };
            rows.push(vec![
                kind.name().to_string(),
                label.to_string(),
                format!("{full:.4}"),
                format!(
                    "{:.4} ± {:.4} (±{:.2}%){partial_mark}",
                    sampled.ipc.mean,
                    sampled.ipc.half_width,
                    sampled.ipc.relative_percent()
                ),
                format!("{err:.2}"),
                format!("{full_secs:.2}"),
                format!("{sampled_secs:.2}"),
                format!("{:.2}x", full_secs / sampled_secs.max(1e-9)),
            ]);
        }
    }

    report.push_table(columns, rows);
    let mut out = String::new();
    out.push_str(&format!(
        "\ntotal wall-clock: full {total_full_secs:.2}s, sampled {total_sampled_secs:.2}s \
         -> {:.2}x speedup; worst per-point IPC error {worst_err:.2}%; \
         encoded checkpoint {checkpoint_bytes} bytes\n",
        total_full_secs / total_sampled_secs.max(1e-9)
    ));
    let functional_rate = functional_insts as f64 / functional_secs.max(1e-9);
    let detailed_rate = detailed_insts as f64 / detail_cpu_secs.max(1e-9);
    let journal_part = if control.journal_dir.is_some() {
        format!(
            ", journaling {journal_secs:.3}s ({:.2}% of sampled wall-clock)",
            journal_secs / total_sampled_secs.max(1e-9) * 100.0
        )
    } else {
        String::new()
    };
    out.push_str(&format!(
        "timing breakdown (all sampled points): functional pass {functional_secs:.2}s, \
         detailed intervals {detail_cpu_secs:.2} cpu-s (overlapped with the functional \
         pass), aggregation {aggregate_secs:.3}s{journal_part}\n"
    ));
    out.push_str(&format!(
        "throughput: functional {} insts/s, detailed {} insts/s\n",
        functional_rate as u64, detailed_rate as u64
    ));
    if let Some(cache) = &cache {
        out.push_str(&cache.stats().summary_line());
        out.push('\n');
    }
    out.push_str(
        "(sampled side = 1 streamed decode-once functional pass overlapped with \
         online-LPT parallel detailed intervals; full side = 1 serial full-detail run \
         per point)\n",
    );
    if control.resume {
        out.push_str(&format!(
            "resume: {resumed_intervals}/{planned_intervals} intervals replayed from journals\n"
        ));
    }
    if status.partial_points > 0 || status.error_points > 0 {
        out.push_str(&format!(
            "DEGRADED RUN: {} partial point(s), {} failed point(s) — partial CIs are \
             widened for the missing intervals\n",
            status.partial_points, status.error_points
        ));
    }
    for note in &notes {
        out.push_str(&format!("  {note}\n"));
    }
    let digest = result_digest(&digest_buf);
    out.push_str(&format!(
        "result digest: {digest} (FNV-1a over every measured interval)\n"
    ));
    report.push_text(out);
    report.push_meta("digest", digest);
    report.push_meta("partial_points", status.partial_points.to_string());
    report.push_meta("error_points", status.error_points.to_string());
    report.push_meta("resumed_intervals", resumed_intervals.to_string());
    report.push_meta("planned_intervals", planned_intervals.to_string());
    if let Some(cache) = &cache {
        // Machine-readable cache counters alongside the summary text — the
        // job server folds these into its /metrics aggregates.
        let stats = cache.stats();
        report.push_meta("cache_hits", stats.hits.to_string());
        report.push_meta("cache_misses", stats.misses.to_string());
    }
    (report, status)
}
