//! Unit tests of the sampled runner and the `sample` experiment.

use super::report::{fig1_configs, full_detail_ipc};
use super::*;
use crate::runner::limit_study_config;
use ltp_core::LtpMode;
use ltp_isa::DecodedTrace;
use ltp_pipeline::PipelineConfig;
use ltp_workloads::{trace, WorkloadKind};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

fn quick_spec() -> SampleSpec {
    // Cheaper than the default spec (smaller measured windows) but the
    // same trace length: short traces bias the *reference* (a 48k
    // compute-bound run under-reports steady IPC by ~2% of cold-start
    // ramp all by itself), so accuracy must be judged at a length where
    // the full-detail run has amortized its own transient.
    SampleSpec {
        total_insts: 240_000,
        intervals: 12,
        detail_warm: 1_000,
        detail_measure: 2_000,
        seed: 2015,
        warm_insts: 4_000,
    }
}

#[test]
fn sampled_run_reports_interval_and_ci() {
    let spec = quick_spec();
    let r = SampledRequest::new(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::IndirectStream,
        spec,
    )
    .run()
    .expect("no deadlock");
    assert!(r.failures.is_empty());
    assert_eq!(r.intervals.len(), 12);
    assert_eq!(r.ipc.n, 12);
    assert!(r.ipc.mean > 0.0);
    assert!(r.ipc.half_width.is_finite());
    assert!(r.detailed_insts < r.total_insts / 4);
    // Intervals are in trace order with increasing starts.
    for w in r.intervals.windows(2) {
        assert!(w[0].start < w[1].start);
    }
    // Checkpoints are compact (~200 kB encoded, dominated by cache tags)
    // and must stay so: the runner holds one per interval in memory and
    // reports the encoded size of the first.
    assert!(r.checkpoint_bytes > 0);
    assert!(r.checkpoint_bytes < 400_000, "{} bytes", r.checkpoint_bytes);
}

#[test]
fn sampled_ipc_is_close_to_full_detail() {
    // The headline accuracy claim, deterministic: <= 2% IPC error on the
    // Figure-1 configurations (the configurations the `sample`
    // experiment's speed-up claim covers) at a ~15% detail fraction.
    let spec = quick_spec();
    for kind in [WorkloadKind::IndirectStream, WorkloadKind::ComputeBound] {
        let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
        for (label, cfg) in fig1_configs() {
            let full = full_detail_ipc(cfg, kind, &detail, None, &spec).expect("no deadlock");
            let sampled = SampledRequest::new(cfg, kind, spec)
                .trace(&detail)
                .run()
                .expect("no deadlock");
            let err = (sampled.weighted_ipc() - full).abs() / full * 100.0;
            assert!(
                err <= 2.0,
                "{}/{label}: sampled {:.4} vs full {:.4} -> {err:.2}% error",
                kind.name(),
                sampled.weighted_ipc(),
                full
            );
        }
    }
}

#[test]
fn streaming_matches_two_phase_runner() {
    // The streaming pipeline must be a pure schedule change: identical
    // per-interval measurements (and therefore identical IPC and CI) to
    // the two-phase reference, which itself uses the per-instruction
    // functional interpreter.
    let spec = quick_spec();
    let kind = WorkloadKind::IndirectStream;
    let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
    for (label, cfg) in fig1_configs() {
        let streamed = SampledRequest::new(cfg, kind, spec)
            .trace(&detail)
            .run()
            .expect("streamed");
        let two_phase = SampledRequest::new(cfg, kind, spec)
            .trace(&detail)
            .two_phase()
            .run()
            .expect("2-phase");
        assert_eq!(
            streamed.intervals.len(),
            two_phase.intervals.len(),
            "{label}"
        );
        for (s, t) in streamed.intervals.iter().zip(&two_phase.intervals) {
            assert_eq!(s.index, t.index, "{label}");
            assert_eq!(s.start, t.start, "{label}");
            assert_eq!(
                s.instructions, t.instructions,
                "{label} interval {}",
                s.index
            );
            assert_eq!(s.cycles, t.cycles, "{label} interval {}", s.index);
            assert_eq!(s.weight, t.weight, "{label} interval {}", s.index);
        }
        assert_eq!(
            streamed.checkpoint_bytes, two_phase.checkpoint_bytes,
            "{label}"
        );
        assert_eq!(streamed.ipc.mean.to_bits(), two_phase.ipc.mean.to_bits());
        assert_eq!(streamed.detailed_insts, two_phase.detailed_insts);
    }
}

#[test]
fn timing_breakdown_is_populated() {
    let spec = quick_spec();
    let r = SampledRequest::new(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::ComputeBound,
        spec,
    )
    .run()
    .expect("no deadlock");
    assert!(r.timing.functional_secs > 0.0);
    assert!(r.timing.detail_cpu_secs > 0.0);
    assert!(r.timing.total_secs >= r.timing.functional_secs);
    // Streaming overlap: the end-to-end wall clock must not exceed the
    // serial sum of the phases (it should be well under on multi-core).
    assert!(r.timing.total_secs <= r.timing.functional_secs + r.timing.detail_cpu_secs + 1.0);
}

#[test]
fn short_stride_clamps_detail_window() {
    // Intervals shorter than warm+measure shrink the window instead of
    // panicking or overlapping the next interval.
    let spec = SampleSpec {
        total_insts: 6_000,
        intervals: 6,
        detail_warm: 5_000,
        detail_measure: 5_000,
        seed: 3,
        warm_insts: 1_000,
    };
    let (warm, measure) = spec.effective_window(1_000);
    assert_eq!(warm, 999);
    assert_eq!(measure, 1);
    let r = SampledRequest::new(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::IndirectStream,
        spec,
    )
    .run()
    .expect("clamped run");
    assert_eq!(r.intervals.len(), 6);
    for w in r.intervals.windows(2) {
        // Measured windows stay within their own interval.
        assert!(w[0].start + 1_000 <= w[1].start + 1);
    }
}

#[test]
fn oracle_configs_are_sampleable() {
    let spec = SampleSpec {
        total_insts: 24_000,
        intervals: 4,
        detail_warm: 500,
        detail_measure: 1_000,
        seed: 7,
        warm_insts: 2_000,
    };
    let cfg = limit_study_config(LtpMode::NonUrgentOnly).with_iq(32);
    let r = SampledRequest::new(cfg, WorkloadKind::IndirectStream, spec)
        .run()
        .expect("oracle sampled run");
    assert_eq!(r.intervals.len(), 4);
    assert!(r.ipc.mean > 0.0);
}

fn cache_spec() -> SampleSpec {
    SampleSpec {
        total_insts: 60_000,
        intervals: 6,
        detail_warm: 500,
        detail_measure: 1_000,
        seed: 11,
        warm_insts: 2_000,
    }
}

fn cache_tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltp-sampled-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_against_cache(
    cache: Option<Arc<crate::cache::CheckpointCache>>,
    spec: &SampleSpec,
) -> SampledResult {
    let kind = WorkloadKind::IndirectStream;
    let cfg = PipelineConfig::ltp_proposed();
    let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
    let dec = DecodedTrace::from_insts(&detail);
    let control = SampleControl {
        cache,
        ..SampleControl::default()
    };
    SampledRequest::new(cfg, kind, *spec)
        .trace(&detail)
        .decoded(&dec)
        .control(control)
        .run()
        .expect("sampled run")
}

fn assert_results_bit_identical(a: &SampledResult, b: &SampledResult) {
    assert_eq!(a.ipc.mean.to_bits(), b.ipc.mean.to_bits());
    assert_eq!(a.ipc.half_width.to_bits(), b.ipc.half_width.to_bits());
    assert_eq!(a.intervals.len(), b.intervals.len());
    for (x, y) in a.intervals.iter().zip(&b.intervals) {
        assert_eq!(x.start, y.start);
        assert_eq!(x.instructions, y.instructions);
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.weight, y.weight);
    }
    assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes);
}

/// A cache-hit run bypasses the functional pass yet reproduces the cold
/// run's per-interval measurements, IPC mean and confidence interval
/// bit-for-bit.
#[test]
fn cache_hit_run_is_bit_identical_to_cold_run() {
    let spec = cache_spec();
    let dir = cache_tmp_dir("hit");
    let baseline = run_against_cache(None, &spec);

    let cache = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("open"));
    let cold = run_against_cache(Some(cache.clone()), &spec);
    let stats = cache.stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.stores, 1);
    assert_results_bit_identical(&baseline, &cold);

    // A fresh cache handle on the same directory, as a later sweep
    // invocation would open.
    let cache2 = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("reopen"));
    let warm = run_against_cache(Some(cache2.clone()), &spec);
    let stats = cache2.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 0);
    assert_results_bit_identical(&baseline, &warm);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted cache entry is a miss: the run regenerates (and re-stores)
/// it instead of failing or producing different numbers.
#[test]
fn corrupted_cache_entry_is_regenerated() {
    let spec = cache_spec();
    let dir = cache_tmp_dir("corrupt");
    let cache = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("open"));
    let cold = run_against_cache(Some(cache.clone()), &spec);
    assert_eq!(cache.stats().stores, 1);

    // Flip a byte in the middle of the stored entry.
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("one entry file");
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&entry, &bytes).expect("write corruption");

    let cache2 = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("reopen"));
    let recovered = run_against_cache(Some(cache2.clone()), &spec);
    let stats = cache2.stats();
    assert_eq!(stats.hits, 0, "corrupt entry must not count as a hit");
    assert!(stats.corrupt >= 1);
    assert_eq!(stats.stores, 1, "the entry is regenerated");
    assert_results_bit_identical(&cold, &recovered);

    // And the regenerated entry serves the next run.
    let cache3 = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("reopen2"));
    let warm = run_against_cache(Some(cache3.clone()), &spec);
    assert_eq!(cache3.stats().hits, 1);
    assert_results_bit_identical(&cold, &warm);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Detail-only configuration changes share one cache entry; a different
/// warm half (classifier-training projection) takes its own.
#[test]
fn cache_entries_are_shared_across_detail_configs_only() {
    let spec = cache_spec();
    let dir = cache_tmp_dir("share");
    let kind = WorkloadKind::IndirectStream;
    let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
    let dec = DecodedTrace::from_insts(&detail);
    let cache = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("open"));
    let control = SampleControl {
        cache: Some(cache.clone()),
        ..SampleControl::default()
    };
    let run = |cfg: PipelineConfig| {
        SampledRequest::new(cfg, kind, spec)
            .trace(&detail)
            .decoded(&dec)
            .control(control.clone())
            .run()
            .expect("sampled run")
    };
    let _ = run(PipelineConfig::ltp_proposed());
    let _ = run(PipelineConfig::ltp_proposed().with_iq(256).with_regs(128));
    let _ =
        run(PipelineConfig::ltp_proposed().with_classifier(ltp_core::ClassifierKind::AlwaysReady));
    let stats = cache.stats();
    assert_eq!(stats.hits, 1, "IQ:256 shares the proposed design's entry");
    assert_eq!(stats.misses, 2, "the inert classifier needs its own");
    assert_eq!(stats.stores, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A pre-set cancel flag cancels every interval: the run is partial with
/// all failures tagged [`IntervalError::Cancelled`], not an error.
#[test]
fn preset_cancel_flag_cancels_all_intervals() {
    let spec = cache_spec();
    let cancel = Arc::new(AtomicBool::new(true));
    let r = SampledRequest::new(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::IndirectStream,
        spec,
    )
    .cancel_flag(cancel)
    .run()
    .expect("cancelled run is not an error");
    assert!(r.is_partial(), "all intervals cancelled => partial");
    assert_eq!(r.failures.len(), spec.intervals);
    for f in &r.failures {
        assert!(
            matches!(f.error, IntervalError::Cancelled),
            "unexpected failure: {:?}",
            f.error
        );
        assert_eq!(f.attempts, 0, "cancelled intervals are never attempted");
    }
}

/// The progress sink observes every measured interval exactly the set the
/// final result reports.
#[test]
fn progress_sink_sees_every_measured_interval() {
    let spec = cache_spec();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    let r = SampledRequest::new(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::IndirectStream,
        spec,
    )
    .progress(Arc::new(move |m: &IntervalMeasurement| {
        sink.lock().expect("sink lock").push((m.index, m.cycles));
    }))
    .run()
    .expect("sampled run");
    let mut seen = seen.lock().expect("sink lock").clone();
    seen.sort_unstable();
    let mut expect: Vec<(usize, u64)> = r.intervals.iter().map(|m| (m.index, m.cycles)).collect();
    expect.sort_unstable();
    assert_eq!(seen, expect);
}

/// The digest helpers are stable: same measurements, same digest string.
#[test]
fn digest_helpers_are_deterministic() {
    let m = IntervalMeasurement {
        index: 3,
        start: 1_000,
        instructions: 2_000,
        cycles: 2_500,
        ipc: 0.8,
        weight: 7,
    };
    let line = digest_line("indirect_stream", "ltp_proposed", &m);
    assert_eq!(line, "indirect_stream|ltp_proposed|3|2000|2500\n");
    let d1 = result_digest(&line);
    let d2 = result_digest(&line);
    assert_eq!(d1, d2);
    assert!(d1.starts_with("0x"), "digest renders as 0x-prefixed hex");
    assert_eq!(d1.len(), 18, "{{:#018x}} formatting");
    assert_ne!(d1, result_digest("other\n"));
}
