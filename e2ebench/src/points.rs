//! The point set: the 7 workload kernels × the paper's three machine
//! configurations, the sampling geometry, and the traces every workload of
//! the benchmark runs.

use ltp_experiments::runner::named_config;
use ltp_experiments::sampled::SampleSpec;
use ltp_experiments::RunOptions;
use ltp_isa::{DecodedTrace, DynInst};
use ltp_pipeline::PipelineConfig;
use ltp_workloads::{trace, WorkloadKind};
use std::collections::BTreeMap;

use crate::tracer::{SpanId, Tracer};

/// The paper's comparison: baseline (IQ 64), the small machine without LTP
/// (IQ 32, 96 registers) and the proposed design (IQ 32 + LTP).
pub const CONFIGS: [&str; 3] = ["micro2015_baseline", "small_no_ltp", "ltp_proposed"];

/// Kernels whose full-detail runs spend most cycles waiting on memory.
pub const MEMBOUND: [WorkloadKind; 5] = [
    WorkloadKind::PointerChase,
    WorkloadKind::IndirectStream,
    WorkloadKind::GatherFp,
    WorkloadKind::HashProbe,
    WorkloadKind::MixedPhases,
];

/// Kernels that run at high IPC with few idle cycles.
pub const COMPUTE: [WorkloadKind; 2] = [WorkloadKind::ComputeBound, WorkloadKind::StencilStream];

/// Workload seed whose expected outputs every claim is made against.
pub const DEFAULT_WORKLOAD_SEED: u64 = 2015;
/// Workload seed kept aside to re-check claims on inputs not tuned against.
pub const HELD_OUT_WORKLOAD_SEED: u64 = 7411;

/// Sampling geometry of every point: the repository's `quick` preset (a
/// 96k-instruction trace, 6 intervals of 1k warm-up + 4k measured
/// instructions, 4k cache-warming prefix), so each run repeats every point
/// often enough for a p90 with ten samples beyond it.
#[must_use]
pub fn spec(workload_seed: u64) -> SampleSpec {
    SampleSpec::from_options(&RunOptions {
        seed: workload_seed,
        ..RunOptions::quick()
    })
}

/// One simulation point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub kind: WorkloadKind,
    pub config: &'static str,
    pub cfg: PipelineConfig,
}

impl Point {
    /// Builds the point for one of [`CONFIGS`].
    ///
    /// # Panics
    ///
    /// Panics on a configuration name the simulator does not know.
    #[must_use]
    pub fn new(kind: WorkloadKind, config: &'static str) -> Point {
        let cfg = named_config(config).expect("benchmark configs are named configs");
        assert!(
            !cfg.needs_oracle(),
            "benchmark points run without oracle analysis"
        );
        Point { kind, config, cfg }
    }

    /// `kernel/config`, the point's id in spans and messages.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}/{}", self.kind.name(), self.config)
    }
}

/// Every (kind, config) pair over `kinds`, kinds outermost.
#[must_use]
pub fn points_of(kinds: &[WorkloadKind]) -> Vec<Point> {
    kinds
        .iter()
        .flat_map(|&k| CONFIGS.iter().map(move |&c| Point::new(k, c)))
        .collect()
}

/// The traces of one kernel: the cache-warming prefix (workload seed) and
/// the detailed trace (seed + 1), exactly as `SimBuilder` and
/// `SampledRequest` generate them, plus its decoded form when asked for.
#[derive(Debug)]
pub struct Traces {
    pub warm: Vec<DynInst>,
    pub detail: Vec<DynInst>,
    pub decoded: Option<DecodedTrace>,
}

/// The generated inputs of one workload.
#[derive(Debug)]
pub struct PointSet {
    pub spec: SampleSpec,
    pub points: Vec<Point>,
    pub traces: BTreeMap<&'static str, Traces>,
}

impl PointSet {
    /// Generates the traces of `points` (one per kernel), decoding them when
    /// `decode` is set, with a span around each library call.
    #[must_use]
    pub fn generate(
        spec: SampleSpec,
        points: Vec<Point>,
        decode: bool,
        tracer: &Tracer,
        parent: SpanId,
    ) -> PointSet {
        let mut traces = BTreeMap::new();
        for p in &points {
            let name = p.kind.name();
            if traces.contains_key(name) {
                continue;
            }
            let (warm, detail) = tracer.time("workloads.trace", parent, name, || {
                (
                    trace(p.kind, spec.seed, spec.warm_insts as usize),
                    trace(p.kind, spec.seed.wrapping_add(1), spec.total_insts as usize),
                )
            });
            let decoded = decode.then(|| {
                tracer.time("isa.decode", parent, name, || {
                    DecodedTrace::from_insts(&detail)
                })
            });
            traces.insert(
                name,
                Traces {
                    warm,
                    detail,
                    decoded,
                },
            );
        }
        PointSet {
            spec,
            points,
            traces,
        }
    }

    /// The traces of `p`'s kernel.
    #[must_use]
    pub fn traces(&self, p: &Point) -> &Traces {
        &self.traces[p.kind.name()]
    }
}
