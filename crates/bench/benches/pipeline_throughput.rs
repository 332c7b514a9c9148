//! Full-pipeline throughput: simulated instructions per second of host time
//! on a mixed kernel, the tracking metric for the simulator's hot cycle loop,
//! plus two memory-bound kernels whose windows sit stalled behind LLC misses
//! (where the run loop skips quiescent cycles).
//!
//! Unlike the figure benches (which regenerate paper results), this target
//! measures the cost of the simulation machinery itself across the headline
//! machine configurations and the classifier dimension, so regressions in the
//! stage modules or the classifier layer show up in `BENCH_*.json`
//! trajectories.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ltp_core::ClassifierKind;
use ltp_isa::DynInst;
use ltp_pipeline::{PipelineConfig, Processor, SharePolicy};
use ltp_workloads::{co_trace, replay_slice, trace, WorkloadKind};

/// Instruction budget per iteration: large enough to reach steady state in
/// the mixed kernel's compute and memory phases.
const INSTS: u64 = 6_000;

/// Pre-generated warm and detail traces of `kind`, shared by every
/// iteration so the timed region is dominated by the cycle loop, not
/// workload synthesis.
fn kernel_traces(kind: WorkloadKind) -> (Vec<DynInst>, Vec<DynInst>) {
    let warm = trace(kind, 7, 2_000);
    let detail = trace(kind, 8, INSTS as usize);
    (warm, detail)
}

fn traces() -> (Vec<DynInst>, Vec<DynInst>) {
    kernel_traces(WorkloadKind::MixedPhases)
}

fn sim(cfg: PipelineConfig, warm: &[DynInst], detail: &[DynInst]) -> u64 {
    let mut cpu = Processor::new(cfg);
    cpu.warm_caches(warm);
    // The borrowed replay shares one trace allocation across every
    // iteration; the timed region is purely the cycle loop.
    cpu.run(replay_slice("kernel", detail), INSTS)
        .expect("no deadlock")
        .cycles
}

fn machine_configs(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_throughput/machine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(INSTS));
    let (warm, detail) = traces();
    for (label, cfg) in [
        ("baseline_iq64", PipelineConfig::micro2015_baseline()),
        ("small_iq32", PipelineConfig::small_no_ltp()),
        ("ltp_proposed", PipelineConfig::ltp_proposed()),
        (
            "limit_study_iq32",
            PipelineConfig::limit_study_unlimited().with_iq(32),
        ),
    ] {
        group.bench_function(label, |b| b.iter(|| sim(cfg, &warm, &detail)));
    }
    // The proposed machine on the memory-bound kernels: most cycles wait on
    // DRAM, so these points track the quiescent-cycle skip.
    for kind in [WorkloadKind::IndirectStream, WorkloadKind::PointerChase] {
        let (warm, detail) = kernel_traces(kind);
        let cfg = PipelineConfig::ltp_proposed();
        group.bench_function(kind.name(), |b| b.iter(|| sim(cfg, &warm, &detail)));
    }
    group.finish();
}

fn classifier_dimension(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_throughput/classifier");
    group.sample_size(10);
    group.throughput(Throughput::Elements(INSTS));
    let (warm, detail) = traces();
    for kind in ClassifierKind::SWEEPABLE {
        let cfg = PipelineConfig::ltp_proposed().with_classifier(kind);
        group.bench_function(kind.label(), |b| b.iter(|| sim(cfg, &warm, &detail)));
    }
    group.finish();
}

/// Simulation-machinery cost of the 2-way SMT co-run path (two streams, per
/// thread state, shared-capacity checks): simulated instructions per second
/// of host time across both threads. The snapshot JSON tracks these points
/// alongside the single-thread numbers.
fn smt_co_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_throughput/smt");
    group.sample_size(10);
    group.throughput(Throughput::Elements(2 * INSTS));
    let warm: Vec<Vec<DynInst>> = (0u8..2)
        .map(|tid| co_trace(WorkloadKind::IndirectStream, 7 + u64::from(tid), 2_000, tid))
        .collect();
    let detail: Vec<Vec<DynInst>> = (0u8..2)
        .map(|tid| {
            co_trace(
                WorkloadKind::IndirectStream,
                9 + u64::from(tid),
                INSTS as usize,
                tid,
            )
        })
        .collect();
    for (label, cfg) in [
        (
            "co_run_baseline",
            PipelineConfig::small_no_ltp().smt(SharePolicy::Shared),
        ),
        (
            "co_run_ltp",
            PipelineConfig::ltp_proposed().smt(SharePolicy::Shared),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut cpu = Processor::new(cfg);
                for w in &warm {
                    cpu.warm_caches(w);
                }
                let streams = detail
                    .iter()
                    .map(|d| replay_slice("indirect_stream", d))
                    .collect();
                cpu.run_smt(streams, INSTS).expect("no deadlock").cycles
            })
        });
    }
    group.finish();
}

criterion_group!(benches, machine_configs, classifier_dimension, smt_co_run);
criterion_main!(benches);
