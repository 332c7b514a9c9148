//! Direct timing of the functional fast-forward and the snapshot codec,
//! which the sampled runner calls internally and does not time one by one.

use ltp_pipeline::{FunctionalFastForward, Snapshot};
use std::time::Instant;

use crate::common::Ctx;
use crate::tracer::SpanId;

#[derive(Debug, Default, Clone)]
pub struct ProbeLayer {
    pub ffwd_insts: u64,
    pub ffwd_s: f64,
    pub snapshots: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub bytes: u64,
}

/// For each point: fast-forwards half the trace, captures a checkpoint,
/// encodes and decodes it (the decoded snapshot must re-encode to the same
/// bytes), then fast-forwards the rest.
///
/// # Panics
///
/// Panics if the point set was generated without decoded traces.
pub fn run(ctx: Ctx<'_>, parent: SpanId) -> ProbeLayer {
    let mut l = ProbeLayer::default();
    for p in &ctx.set.points {
        ctx.tally.attempt();
        let id = p.id();
        let traces = ctx.set.traces(p);
        let dec = traces.decoded.as_ref().expect("probes need decoded traces");
        let total = ctx.set.spec.total_insts;
        let mut ff = FunctionalFastForward::new(p.cfg);
        ff.warm_caches(&traces.warm);
        let advance = |ff: &mut FunctionalFastForward, target: u64, l: &mut ProbeLayer| {
            let from = ff.consumed();
            let t0 = Instant::now();
            ctx.tracer
                .time("ffwd.advance", parent, &id, || ff.advance_on(dec, target));
            l.ffwd_s += t0.elapsed().as_secs_f64();
            l.ffwd_insts += target - from;
        };
        advance(&mut ff, total / 2, &mut l);
        let snap = match ff.checkpoint() {
            Ok(s) => s,
            Err(e) => {
                ctx.tally.fail(&format!("{id}: checkpoint: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let bytes = ctx
            .tracer
            .time("snapshot.encode", parent, &id, || snap.to_bytes());
        let t1 = Instant::now();
        let decoded = ctx.tracer.time("snapshot.decode", parent, &id, || {
            Snapshot::from_bytes(&bytes)
        });
        let t2 = Instant::now();
        match decoded {
            Ok(d) if d.to_bytes() == bytes => {}
            Ok(_) => ctx
                .tally
                .fail(&format!("{id}: snapshot does not round-trip")),
            Err(e) => ctx.tally.fail(&format!("{id}: snapshot decode: {e}")),
        }
        l.snapshots += 1;
        l.encode_s += t1.duration_since(t0).as_secs_f64();
        l.decode_s += t2.duration_since(t1).as_secs_f64();
        l.bytes += bytes.len() as u64;
        advance(&mut ff, total, &mut l);
    }
    l
}
