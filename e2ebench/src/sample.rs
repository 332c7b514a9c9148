//! Sampled phase: `SampledRequest::run` over each point, with a checkpoint
//! cache and optionally a journal directory.

use ltp_experiments::cache::CacheStats;
use ltp_experiments::sampled::{SampledRequest, SampledResult};
use ltp_experiments::CheckpointCache;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::common::{err_pct, Best, Budget, Ctx, Ops, Schedule};
use crate::expected::digest;
use crate::points::Point;
use crate::tracer::SpanId;

/// The sampled runner's own time split and the cache's counters, summed
/// over runs.
#[derive(Debug, Default, Clone)]
pub struct SampledLayer {
    pub runs: u64,
    pub functional_s: f64,
    pub detail_cpu_s: f64,
    pub journal_s: f64,
    pub aggregate_s: f64,
    pub total_s: f64,
    pub cache: CacheStats,
}

impl SampledLayer {
    fn add(&mut self, r: &SampledResult) {
        self.runs += 1;
        self.functional_s += r.timing.functional_secs;
        self.detail_cpu_s += r.timing.detail_cpu_secs;
        self.journal_s += r.timing.journal_secs;
        self.aggregate_s += r.timing.aggregate_secs;
        self.total_s += r.timing.total_secs;
    }

    fn add_cache(&mut self, s: CacheStats) {
        let c = &mut self.cache;
        c.hits += s.hits;
        c.misses += s.misses;
        c.bytes_read += s.bytes_read;
        c.bytes_written += s.bytes_written;
    }
}

/// Result of a sampled phase.
#[derive(Debug, Default)]
pub struct SampleOut {
    pub ops: Ops,
    /// Fastest wall seconds of `SampledRequest::run` per point.
    pub best: Best,
    pub layer: SampledLayer,
    /// Digest of each point's last run, keyed by point id.
    pub digests: BTreeMap<String, String>,
}

/// Where a run keeps its checkpoint cache and journal.
#[derive(Debug, Clone, Copy)]
pub enum Store<'a> {
    /// A fresh empty cache and journal directory for every run, made under
    /// this directory and removed after the run.
    FreshPerRun(&'a Path),
    /// One cache directory shared by every run, and optionally one journal
    /// directory.
    Shared {
        cache: &'a Path,
        journal: Option<&'a Path>,
    },
}

/// Runs rounds of the point set through the sampled runner until `budget`
/// is spent.
///
/// # Errors
///
/// A cache or journal directory cannot be created or removed.
pub fn run(
    ctx: Ctx<'_>,
    schedule: &Schedule,
    budget: Budget,
    store: Store<'_>,
    parent: SpanId,
) -> std::io::Result<SampleOut> {
    let mut out = SampleOut::default();
    let start = Instant::now();
    let mut rounds = 0;
    while !budget.done(start, rounds, out.ops.done) {
        let order = schedule.round(&ctx.set.points, rounds);
        let mut result = Ok(());
        ctx.tracer
            .nest("bench.sample_round", parent, "", |round_span| {
                for (i, p) in order.iter().enumerate() {
                    result = match store {
                        Store::FreshPerRun(dir) => {
                            let d = dir.join(format!("run-{rounds}-{i}"));
                            let journal = d.join("journal");
                            std::fs::create_dir_all(&journal)
                                .and_then(|()| {
                                    point(
                                        ctx,
                                        p,
                                        &d.join("cache"),
                                        Some(&journal),
                                        round_span,
                                        &mut out,
                                    )
                                })
                                .and_then(|()| std::fs::remove_dir_all(&d))
                        }
                        Store::Shared { cache, journal } => {
                            point(ctx, p, cache, journal, round_span, &mut out)
                        }
                    };
                    if result.is_err() {
                        break;
                    }
                }
            });
        result?;
        rounds += 1;
    }
    Ok(out)
}

fn point(
    ctx: Ctx<'_>,
    p: &Point,
    cache_dir: &Path,
    journal_dir: Option<&Path>,
    parent: SpanId,
    out: &mut SampleOut,
) -> std::io::Result<()> {
    ctx.tally.attempt();
    let cache = Arc::new(CheckpointCache::open(cache_dir)?);
    let traces = ctx.set.traces(p);
    let mut request = SampledRequest::new(p.cfg, p.kind, ctx.set.spec)
        .trace(&traces.detail)
        .config_label(p.config)
        .cache(Arc::clone(&cache));
    if let Some(dec) = &traces.decoded {
        request = request.decoded(dec);
    }
    if let Some(dir) = journal_dir {
        request = request.journal(dir.join(format!("{}__{}.journal", p.kind.name(), p.config)));
    }
    let t0 = Instant::now();
    let result = ctx
        .tracer
        .time("sampled.run", parent, &p.id(), || request.run());
    let secs = t0.elapsed().as_secs_f64();
    out.layer.add_cache(cache.stats());
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            ctx.tally.fail(&format!("{}: {e}", p.id()));
            return Ok(());
        }
    };
    if r.is_partial() || r.journal_error.is_some() {
        ctx.tally.fail(&format!(
            "{}: partial sampled result ({} failures, journal error {:?})",
            p.id(),
            r.failures.len(),
            r.journal_error
        ));
        return Ok(());
    }
    let d = digest(p, &r.intervals);
    if !ctx
        .tally
        .check(ctx.expected.check_sampled(p, &d, r.intervals.len()))
    {
        return Ok(());
    }
    let full = ctx.expected.get(p).expect("checked above").full_ipc();
    out.ops.record(err_pct(r.weighted_ipc(), full));
    out.best.record(p, secs);
    out.layer.add(&r);
    out.digests.insert(p.id(), d);
    Ok(())
}
