//! End-to-end and per-layer benchmark of the LTP simulator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <detail_membound|detail_compute|sample_cold|service_warm> \
//!     --seed <n> --seconds <s> --trace <0|1> [--workload-seed <2015|7411>]
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --record --workload-seed <n>
//! ```
//!
//! See `README.md` beside this file for the workloads, the metrics and the
//! layer each per-layer metric belongs to.

mod common;
mod detail;
mod expected;
mod points;
mod probe;
mod report;
mod sample;
mod service;
mod stats;
mod tracer;

use ltp_experiments::sampled::SampleSpec;
use ltp_service::Server;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tracer::{SpanId, Tracer, ROOT};

use common::{Budget, Ctx, Schedule, Tally};
use expected::Expected;
use ltp_workloads::WorkloadKind;
use points::{PointSet, COMPUTE, MEMBOUND};
use report::{Report, END_TO_END, PER_LAYER};
use sample::Store;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DetailMembound,
    DetailCompute,
    SampleCold,
    ServiceWarm,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DetailMembound,
        Workload::DetailCompute,
        Workload::SampleCold,
        Workload::ServiceWarm,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DetailMembound => "detail_membound",
            Workload::DetailCompute => "detail_compute",
            Workload::SampleCold => "sample_cold",
            Workload::ServiceWarm => "service_warm",
        }
    }

    fn kinds(self) -> Vec<WorkloadKind> {
        match self {
            Workload::DetailMembound => MEMBOUND.to_vec(),
            Workload::DetailCompute => COMPUTE.to_vec(),
            Workload::SampleCold | Workload::ServiceWarm => WorkloadKind::ALL.to_vec(),
        }
    }

    fn is_detail(self) -> bool {
        matches!(self, Workload::DetailMembound | Workload::DetailCompute)
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    workload_seed: u64,
    record: bool,
}

const USAGE: &str = "usage: ltp-e2ebench --workload <detail_membound|detail_compute|sample_cold|service_warm> \
--seed <n> --seconds <s> --trace <0|1> [--workload-seed <n>]\n       ltp-e2ebench --record --workload-seed <n>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        workload_seed: points::DEFAULT_WORKLOAD_SEED,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for --seconds: {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--workload-seed" => args.workload_seed = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.record {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The sampled runner and the service size their worker pools from this.
    std::env::set_var("LTP_THREADS", nproc.to_string());
    let spec = points::spec(args.workload_seed);
    if args.record {
        return match record(spec) {
            Ok(path) => {
                println!("recorded {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("record: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    match run(workload, &args, spec, nproc) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch space for caches, journals and service state; removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(w: Workload, args: &Args, spec: SampleSpec, nproc: usize) -> Result<String, String> {
    let expected = Expected::for_spec(&spec)?;
    let out_dir = PathBuf::from(".e2ebench");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    println!(
        "workload {} seed {} workload-seed {} seconds {} trace {} threads {nproc}",
        w.name(),
        args.seed,
        spec.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "points: {} kernels x {:?}, {} insts per trace, {} intervals x ({} warm + {} measured)",
        w.kinds().len(),
        points::CONFIGS,
        spec.total_insts,
        spec.intervals,
        spec.detail_warm,
        spec.detail_measure
    );
    println!("note: the model is not validated against hardware; the only error reported is sampled against full detail");
    let tally = Tally::default();
    let (report, declared) = if args.trace {
        let tracer = Tracer::new(true);
        let r = traced(w, args, spec, &expected, &tally, &tracer, nproc, &work.0)
            .map_err(|e| e.to_string())?;
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        (r, &PER_LAYER[..])
    } else {
        let r =
            timed(w, args, spec, &expected, &tally, nproc, &work.0).map_err(|e| e.to_string())?;
        (r, &END_TO_END[..])
    };
    for (name, unit) in declared {
        if let Some(v) = report.get(name) {
            println!("metric {name} = {v:.6} {unit}");
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    report.json(declared)
}

/// The generated inputs of a run, plus the warmed server of `service_warm`.
struct Setup {
    set: PointSet,
    warm: Option<Warm>,
}

/// A server whose cache holds every point's warm state, and the digest
/// each point produced in-process while warming it.
struct Warm {
    server: Server,
    cache: PathBuf,
    refs: BTreeMap<String, String>,
}

#[allow(clippy::too_many_arguments)]
fn setup(
    w: Workload,
    spec: SampleSpec,
    decode: bool,
    expected: &Expected,
    tally: &Tally,
    tracer: &Tracer,
    nproc: usize,
    dir: &Path,
) -> std::io::Result<Setup> {
    tracer.nest("bench.setup", ROOT, w.name(), |span| {
        let set = PointSet::generate(spec, points::points_of(&w.kinds()), decode, tracer, span);
        let warm = if w == Workload::ServiceWarm {
            let ctx = Ctx {
                set: &set,
                expected,
                tracer,
                tally,
            };
            Some(warm_server(ctx, dir, nproc, span)?)
        } else {
            None
        };
        Ok(Setup { set, warm })
    })
}

/// Starts a server with cache and journal directories under `dir`, and warms
/// its cache by running every point once in-process, which also records
/// each point's reference digest.
fn warm_server(ctx: Ctx<'_>, dir: &Path, nproc: usize, parent: SpanId) -> std::io::Result<Warm> {
    let cache = dir.join("service-cache");
    let server = service::start(nproc, &cache, &dir.join("service-journal"))?;
    let store = Store::Shared {
        cache: &cache,
        journal: None,
    };
    let refs = sample::run(ctx, &Schedule::new(0), Budget::rounds(1), store, parent)?.digests;
    Ok(Warm {
        server,
        cache,
        refs,
    })
}

/// The untraced run: set up [`SETUP_REPEATS`] times, then measure the
/// workload's phase for `--seconds`.
fn timed(
    w: Workload,
    args: &Args,
    spec: SampleSpec,
    expected: &Expected,
    tally: &Tally,
    nproc: usize,
    work: &Path,
) -> std::io::Result<Report> {
    let tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for i in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        let s = setup(
            w,
            spec,
            !w.is_detail(),
            expected,
            tally,
            &tracer,
            nproc,
            &work.join(format!("setup-{i}")),
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let ctx = Ctx {
        set: &s.set,
        expected,
        tracer: &tracer,
        tally,
    };
    let schedule = Schedule::new(args.seed);
    let n = s.set.points.len();
    let budget = Budget {
        seconds: args.seconds,
        min_samples: 2 * n,
        max_rounds: usize::MAX,
    };
    // In-process jobs run one at a time and are timed one by one, so their
    // rate is taken at each point's fastest run (see `Best`); the service's
    // rate is what its closed loop completed per second of wall clock.
    let (ops, jobs_per_s) = match w {
        Workload::DetailMembound | Workload::DetailCompute => {
            let out = detail::run(ctx, &schedule, budget, ROOT);
            (out.ops, out.best.rate(n))
        }
        Workload::SampleCold => {
            let store = Store::FreshPerRun(&work.join("runs"));
            let out = sample::run(ctx, &schedule, budget, store, ROOT)?;
            (out.ops, out.best.rate(n))
        }
        Workload::ServiceWarm => {
            let warm = s.warm.as_ref().expect("service_warm sets up a server");
            let out = service::run(
                ctx,
                &warm.server,
                &warm.refs,
                &schedule,
                budget,
                nproc,
                ROOT,
            );
            let rate = out.ops.done as f64 / out.wall_s;
            (out.ops, Some(rate))
        }
    };
    let mut r = Report::default();
    r.attempted = tally.attempted();
    r.failed = tally.failed();
    if let Some(jobs_per_s) = jobs_per_s {
        r.set(
            "sim_minsts_per_s",
            jobs_per_s * spec.total_insts as f64 / 1e6,
        );
        r.set("jobs_per_s", jobs_per_s);
    }
    r.set("ipc_err_max_pct", ops.ipc_err_max_pct);
    r.set("peak_rss_mb", peak_rss_mb()?);
    r.set("setup_s", stats::median(&setup_s).expect("set-ups ran"));
    println!("jobs completed: {}; set-up seconds: {setup_s:?}", ops.done);
    Ok(r)
}

fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// A workload's own phase output, as the traced run keeps it.
enum Own {
    Detail(detail::DetailOut),
    Sample(sample::SampleOut),
    Service(service::ServiceOut),
}

/// The traced run: one set-up, the workload's phase once untraced and once
/// traced (their difference is the tracing overhead), then one pass of each
/// other phase over the same points, so every layer reports on every
/// workload. Each layer's numbers come from the workload's own phase where
/// it reaches that layer; on `service_warm` the sampled and cache layers come
/// from the call every job makes, run in-process against the warm cache.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: Workload,
    args: &Args,
    spec: SampleSpec,
    expected: &Expected,
    tally: &Tally,
    tracer: &Tracer,
    nproc: usize,
    work: &Path,
) -> std::io::Result<Report> {
    let s = setup(
        w,
        spec,
        true,
        expected,
        tally,
        tracer,
        nproc,
        &work.join("setup"),
    )?;
    let quiet = Tracer::new(false);
    let ctx = Ctx {
        set: &s.set,
        expected,
        tracer,
        tally,
    };
    let schedule = Schedule::new(args.seed);
    let one = Budget::rounds(1);
    let jobs = Budget {
        seconds: 0.0,
        min_samples: stats::samples_needed(0.9),
        max_rounds: usize::MAX,
    };
    let own = |c: Ctx<'_>, name: &str| -> std::io::Result<(Own, f64)> {
        let t0 = Instant::now();
        let own = match w {
            Workload::DetailMembound | Workload::DetailCompute => {
                Own::Detail(detail::run(c, &schedule, one, ROOT))
            }
            Workload::SampleCold => {
                let store = Store::FreshPerRun(&work.join(name));
                Own::Sample(sample::run(c, &schedule, one, store, ROOT)?)
            }
            Workload::ServiceWarm => {
                let warm = s.warm.as_ref().expect("service_warm sets up a server");
                Own::Service(service::run(
                    c,
                    &warm.server,
                    &warm.refs,
                    &schedule,
                    jobs,
                    nproc,
                    ROOT,
                ))
            }
        };
        Ok((own, t0.elapsed().as_secs_f64()))
    };
    let (_, untraced_s) = own(
        Ctx {
            tracer: &quiet,
            ..ctx
        },
        "own-untraced",
    )?;
    let (traced_own, traced_s) = own(ctx, "own-traced")?;

    let (mut pipeline, mut sampled, mut svc) = (None, None, None);
    match traced_own {
        Own::Detail(d) => pipeline = Some(d.layer),
        Own::Sample(o) => sampled = Some(o.layer),
        Own::Service(o) => svc = Some(o),
    }
    let pipeline = pipeline.unwrap_or_else(|| detail::run(ctx, &schedule, one, ROOT).layer);
    let sampled = match (sampled, &s.warm) {
        (Some(l), _) => l,
        // What every service job runs, in-process against the warm cache.
        (None, Some(warm)) => {
            let journal = work.join("hit-journal");
            std::fs::create_dir_all(&journal)?;
            let store = Store::Shared {
                cache: &warm.cache,
                journal: Some(&journal),
            };
            sample::run(ctx, &schedule, one, store, ROOT)?.layer
        }
        (None, None) => {
            let store = Store::FreshPerRun(&work.join("sample-pass"));
            sample::run(ctx, &schedule, one, store, ROOT)?.layer
        }
    };
    let svc = match svc {
        Some(o) => o,
        None => {
            let warm = warm_server(ctx, &work.join("probe-service"), nproc, ROOT)?;
            service::run(ctx, &warm.server, &warm.refs, &schedule, jobs, nproc, ROOT)
        }
    };
    let probe = probe::run(ctx, ROOT);

    let mut r = Report::default();
    layers(&mut r, tracer, &pipeline, &sampled, &svc, &probe, nproc);
    r.set("trace.untraced_s", untraced_s);
    r.set("trace.traced_s", traced_s);
    r.set("trace.overhead_s", traced_s - untraced_s);
    r.set(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    r.set("trace.spans", tracer.spans().len() as f64);
    r.attempted = tally.attempted();
    r.failed = tally.failed();
    Ok(r)
}

/// Fills every per-layer metric except the `trace.*` ones.
fn layers(
    r: &mut Report,
    tracer: &Tracer,
    p: &detail::PipelineLayer,
    s: &sample::SampledLayer,
    svc: &service::ServiceOut,
    probe: &probe::ProbeLayer,
    nproc: usize,
) {
    let spans = tracer.spans();
    let span_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e9)
            .sum()
    };
    r.set("workloads.trace_s", span_s("workloads.trace"));
    r.set("isa.decode_s", span_s("isa.decode"));
    r.set("pipeline.run_s", p.run_s);
    r.set("pipeline.cycles", p.cycles as f64);
    r.set(
        "pipeline.host_ns_per_cycle",
        p.run_s * 1e9 / p.cycles as f64,
    );
    r.set(
        "pipeline.idle_cycle_share",
        p.idle_cycles as f64 / p.cycles as f64,
    );
    r.set("pipeline.ipc", p.insts as f64 / p.cycles as f64);
    r.set("mem.llc_mpki", p.llc_misses as f64 * 1e3 / p.insts as f64);
    r.set(
        "mem.avg_latency_cycles",
        p.mem_latency as f64 / p.mem_accesses as f64,
    );
    r.set("core.ltp_parked_share", p.parked as f64 / p.insts as f64);
    r.set(
        "ffwd.minsts_per_s",
        probe.ffwd_insts as f64 / probe.ffwd_s / 1e6,
    );
    r.set(
        "snapshot.encode_us",
        probe.encode_s * 1e6 / probe.snapshots as f64,
    );
    r.set(
        "snapshot.decode_us",
        probe.decode_s * 1e6 / probe.snapshots as f64,
    );
    r.set(
        "snapshot.bytes",
        probe.bytes as f64 / probe.snapshots as f64,
    );
    r.set("sampled.functional_s", s.functional_s);
    r.set("sampled.detail_cpu_s", s.detail_cpu_s);
    r.set("sampled.journal_s", s.journal_s);
    r.set("sampled.aggregate_s", s.aggregate_s);
    r.set("sampled.total_s", s.total_s);
    r.set(
        "pool.utilisation",
        s.detail_cpu_s / (nproc as f64 * s.total_s),
    );
    r.set(
        "governor.queue_depth_mean",
        stats::mean(&svc.layer.governor_queue),
    );
    r.set(
        "governor.running_mean",
        stats::mean(&svc.layer.governor_running),
    );
    let c = &s.cache;
    r.set("cache.hits", c.hits as f64);
    r.set("cache.misses", c.misses as f64);
    r.set(
        "cache.hit_ratio",
        c.hits as f64 / (c.hits + c.misses) as f64,
    );
    r.set("cache.bytes_written", c.bytes_written as f64);
    r.set("cache.bytes_read", c.bytes_read as f64);
    for (name, v, q) in [
        ("service.job_latency_p50_ms", &svc.latency_ms, 0.5),
        ("service.job_latency_p90_ms", &svc.latency_ms, 0.9),
        ("service.first_result_p50_ms", &svc.first_ms, 0.5),
        ("service.first_result_p90_ms", &svc.first_ms, 0.9),
        ("service.submit_p50_ms", &svc.layer.submit_ms, 0.5),
        ("service.submit_p90_ms", &svc.layer.submit_ms, 0.9),
        ("service.status_p50_ms", &svc.layer.status_ms, 0.5),
        ("service.status_p90_ms", &svc.layer.status_ms, 0.9),
    ] {
        println!("latency {name}: {} samples", v.len());
        if let Some(x) = stats::percentile(v, q) {
            r.set(name, x);
        }
    }
    for (ep, key) in [
        ("POST /jobs", "submit"),
        ("GET /jobs/:id", "status"),
        ("GET /jobs/:id/results", "results"),
    ] {
        if let Some(&(_, mean, p50)) = svc.layer.server.get(ep) {
            let (p50_name, mean_name) = match key {
                "submit" => (
                    "service.server_submit_p50_us",
                    "service.server_submit_mean_us",
                ),
                "status" => (
                    "service.server_status_p50_us",
                    "service.server_status_mean_us",
                ),
                _ => (
                    "service.server_results_p50_us",
                    "service.server_results_mean_us",
                ),
            };
            r.set(p50_name, p50);
            r.set(mean_name, mean);
        }
    }
    let own = tracer.self_seconds();
    for (layer, name) in [
        ("bench", "self.bench_s"),
        ("workloads", "self.workloads_s"),
        ("isa", "self.isa_s"),
        ("pipeline", "self.pipeline_s"),
        ("ffwd", "self.ffwd_s"),
        ("snapshot", "self.snapshot_s"),
        ("sampled", "self.sampled_s"),
        ("service", "self.service_s"),
    ] {
        r.set(name, own.get(layer).copied().unwrap_or(0.0));
    }
}

/// Records the expected outputs of every point for `spec.seed` and writes
/// them beside the benchmark.
fn record(spec: SampleSpec) -> Result<PathBuf, String> {
    let table = Expected::record(spec, &points::points_of(&WorkloadKind::ALL))?;
    let path = PathBuf::from(format!(
        "{}/expected/seed-{}.tsv",
        env!("CARGO_MANIFEST_DIR"),
        spec.seed
    ));
    std::fs::write(&path, table.render(&spec)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use points::Point;

    /// Runs one round of `phase` against `expected` and returns
    /// (attempted, failed).
    fn outcome(set: &PointSet, expected: &Expected, phase: impl FnOnce(Ctx<'_>)) -> (u64, u64) {
        let tracer = Tracer::new(false);
        let tally = Tally::default();
        phase(Ctx {
            set,
            expected,
            tracer: &tracer,
            tally: &tally,
        });
        (tally.attempted(), tally.failed())
    }

    #[test]
    fn a_tampered_expectation_is_a_failed_operation_in_every_phase() {
        let spec = SampleSpec {
            total_insts: 6_000,
            intervals: 2,
            detail_warm: 200,
            detail_measure: 500,
            seed: 3,
            warm_insts: 500,
        };
        let points = vec![Point::new(WorkloadKind::ComputeBound, "ltp_proposed")];
        let set = PointSet::generate(spec, points.clone(), true, &Tracer::new(false), ROOT);
        let good = Expected::record(spec, &points).expect("record");
        let mut bad = good.clone();
        for e in bad.points.values_mut() {
            e.full_cycles += 1;
            e.digest = "0x0000000000000000".to_string();
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("tampered-test-{}", std::process::id()));
        let cache = dir.join("cache");
        let schedule = Schedule::new(1);
        let one = Budget::rounds(1);
        let detail = |c: Ctx<'_>| {
            detail::run(c, &schedule, one, ROOT);
        };
        let mut refs = BTreeMap::new();
        let sample = |c: Ctx<'_>, refs: &mut BTreeMap<String, String>| {
            let store = Store::Shared {
                cache: &cache,
                journal: None,
            };
            refs.extend(
                sample::run(c, &schedule, one, store, ROOT)
                    .expect("cache dir")
                    .digests,
            );
        };
        assert_eq!(outcome(&set, &good, detail), (1, 0));
        assert_eq!(outcome(&set, &bad, detail), (1, 1));
        assert_eq!(
            outcome(&set, &bad, |c| sample(c, &mut BTreeMap::new())),
            (1, 1)
        );
        assert_eq!(outcome(&set, &good, |c| sample(c, &mut refs)), (1, 0));

        let server = service::start(1, &cache, &dir.join("journal")).expect("server");
        let service = |c: Ctx<'_>| {
            service::run(c, &server, &refs, &schedule, one, 1, ROOT);
        };
        assert_eq!(outcome(&set, &good, service), (1, 0));
        assert_eq!(outcome(&set, &bad, service), (1, 1));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
