//! Full-detail phase: `Processor::run` over each point, single-threaded.

use ltp_pipeline::{CycleView, Processor, RunResult};
use ltp_workloads::replay_slice;
use std::time::Instant;

use crate::common::{err_pct, Best, Budget, Ctx, Ops, Schedule};
use crate::points::Point;
use crate::tracer::SpanId;

/// Host and simulated-machine counters of the detailed core.
#[derive(Debug, Default, Clone)]
pub struct PipelineLayer {
    pub run_s: f64,
    pub cycles: u64,
    pub insts: u64,
    /// Cycles with no commit, wakeup, release or ROB growth.
    pub idle_cycles: u64,
    pub llc_misses: u64,
    pub mem_accesses: u64,
    pub mem_latency: u64,
    pub parked: u64,
}

/// Result of a detail phase.
#[derive(Debug, Default)]
pub struct DetailOut {
    pub ops: Ops,
    /// Fastest host seconds of `Processor::run` per point.
    pub best: Best,
    pub layer: PipelineLayer,
}

/// Runs rounds of the point set in detail, one point at a time, until
/// `budget` is spent. With a recording tracer each run goes through
/// `run_observed` to count idle cycles; otherwise through the plain `run`.
pub fn run(ctx: Ctx<'_>, schedule: &Schedule, budget: Budget, parent: SpanId) -> DetailOut {
    let mut out = DetailOut::default();
    let start = Instant::now();
    let mut rounds = 0;
    while !budget.done(start, rounds, out.ops.done) {
        let order = schedule.round(&ctx.set.points, rounds);
        ctx.tracer
            .nest("bench.detail_round", parent, "", |round_span| {
                for p in &order {
                    point(ctx, p, round_span, &mut out);
                }
            });
        rounds += 1;
    }
    out
}

fn point(ctx: Ctx<'_>, p: &Point, parent: SpanId, out: &mut DetailOut) {
    ctx.tally.attempt();
    let traces = ctx.set.traces(p);
    let mut cpu = Processor::new(p.cfg);
    cpu.warm_caches(&traces.warm);
    let stream = replay_slice(p.kind.name(), &traces.detail);
    let budget = ctx.set.spec.total_insts;
    let observe = ctx.tracer.enabled();
    let mut idle = 0u64;
    let mut prev_rob = 0usize;
    let t0 = Instant::now();
    let result = ctx.tracer.time("pipeline.run", parent, &p.id(), || {
        if observe {
            cpu.run_observed(stream, budget, |v: &CycleView<'_>| {
                let b = v.bus;
                if b.commits.is_empty()
                    && b.reg_wakeups.is_empty()
                    && b.seq_wakeups.is_empty()
                    && b.releases.is_empty()
                    && v.rob_len <= prev_rob
                {
                    idle += 1;
                }
                prev_rob = v.rob_len;
            })
        } else {
            cpu.run(stream, budget)
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let r: RunResult = match result {
        Ok(r) => r,
        Err(e) => {
            ctx.tally.fail(&format!("{}: {e}", p.id()));
            return;
        }
    };
    if !ctx
        .tally
        .check(ctx.expected.check_full(p, r.cycles, r.instructions))
    {
        return;
    }
    let expect = ctx.expected.get(p).expect("checked above");
    out.ops.record(err_pct(expect.sampled_ipc(), r.ipc()));
    out.best.record(p, secs);
    let l = &mut out.layer;
    l.run_s += secs;
    l.cycles += r.cycles;
    l.insts += r.instructions;
    l.idle_cycles += idle;
    l.llc_misses += r.mem.llc_misses();
    l.mem_accesses += r.mem.accesses;
    l.mem_latency += r.mem.total_latency;
    l.parked += r.ltp.parked.iter().sum::<u64>();
}
