//! Service phase: a closed loop of clients against an in-process
//! `ltp_service::Server`. Each client submits a point job with `POST /jobs`,
//! reads `GET /jobs/:id/results` to the end, and only then sends its next
//! job.

use ltp_experiments::sampled::IntervalMeasurement;
use ltp_service::json::Json;
use ltp_service::{client, Server, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::common::{err_pct, Budget, Ctx, Ops, Schedule};
use crate::expected::digest;
use crate::points::Point;
use crate::tracer::SpanId;

/// A socket read that waits longer than this counts the job as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Client-side and server-side numbers of the service layer.
#[derive(Debug, Default, Clone)]
pub struct ServiceLayer {
    /// `POST /jobs` round trips, in ms.
    pub submit_ms: Vec<f64>,
    /// `GET /jobs/:id` round trips after the stream ended, in ms.
    pub status_ms: Vec<f64>,
    /// Governor queue depth and running sections, polled every millisecond.
    pub governor_queue: Vec<f64>,
    pub governor_running: Vec<f64>,
    /// Server-side handling latency per endpoint from `/metrics`:
    /// `(count, mean µs, p50 µs)`.
    pub server: BTreeMap<String, (u64, f64, f64)>,
}

/// Result of a service phase.
#[derive(Debug, Default)]
pub struct ServiceOut {
    pub ops: Ops,
    /// `POST /jobs` to the end of the result stream, per job, in ms.
    pub latency_ms: Vec<f64>,
    /// `POST /jobs` to the first streamed interval, per job, in ms.
    pub first_ms: Vec<f64>,
    /// Wall seconds of the loop.
    pub wall_s: f64,
    pub layer: ServiceLayer,
}

/// Starts a server on an ephemeral local port whose jobs share the cache in
/// `cache` and journal into `journal`.
///
/// # Errors
///
/// Bind failures.
pub fn start(workers: usize, cache: &Path, journal: &Path) -> io::Result<Server> {
    Server::start(&ServiceConfig {
        bind: "127.0.0.1:0".to_string(),
        workers,
        cache_dir: Some(cache.to_path_buf()),
        journal_dir: Some(journal.to_path_buf()),
        ..ServiceConfig::default()
    })
}

/// Runs `clients` closed-loop clients until `budget` is spent. `refs` holds
/// the digest each point produced in-process; every job's digest must match
/// it and the stored expectation. With a recording tracer the clients also
/// time `GET /jobs/:id` and a poller samples the governor.
pub fn run(
    ctx: Ctx<'_>,
    server: &Server,
    refs: &BTreeMap<String, String>,
    schedule: &Schedule,
    budget: Budget,
    clients: usize,
    parent: SpanId,
) -> ServiceOut {
    let addr = server.addr();
    let points = &ctx.set.points;
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let out = Mutex::new(ServiceOut::default());
    let governor = server.registry().governor();
    let start = Instant::now();
    ctx.tracer
        .nest("bench.service_loop", parent, "", |loop_span| {
            std::thread::scope(|s| {
                let poller = ctx.tracer.enabled().then(|| {
                    s.spawn(|| {
                        let (mut queue, mut running) = (Vec::new(), Vec::new());
                        while !stop.load(Ordering::Relaxed) {
                            queue.push(governor.queue_depth() as f64);
                            running.push(governor.running() as f64);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        (queue, running)
                    })
                });
                let workers: Vec<_> = (0..clients)
                    .map(|_| {
                        s.spawn(|| loop {
                            // Job k starts round k / n; its samples are the
                            // k jobs issued before it.
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if budget.done(start, k / points.len(), k) {
                                break;
                            }
                            let p = schedule.job(points, k);
                            job(ctx, addr, &p, refs, loop_span, &out);
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("client thread");
                }
                stop.store(true, Ordering::Relaxed);
                if let Some(poller) = poller {
                    let (queue, running) = poller.join().expect("poller thread");
                    let mut o = out.lock().expect("ops lock");
                    o.layer.governor_queue = queue;
                    o.layer.governor_running = running;
                }
            });
        });
    let mut out = out.into_inner().expect("ops lock");
    out.wall_s = start.elapsed().as_secs_f64();
    if ctx.tracer.enabled() {
        ctx.tally.attempt();
        match server_latencies(addr) {
            Ok(server) => out.layer.server = server,
            Err(e) => ctx.tally.fail(&format!("GET /metrics: {e}")),
        }
    }
    out
}

fn job(
    ctx: Ctx<'_>,
    addr: SocketAddr,
    p: &Point,
    refs: &BTreeMap<String, String>,
    parent: SpanId,
    out: &Mutex<ServiceOut>,
) {
    ctx.tally.attempt();
    let spec = ctx.set.spec;
    let body = format!(
        "{{\"workload\":\"{}\",\"config\":\"{}\",\"spec\":{{\"total_insts\":{},\"intervals\":{},\"detail_warm\":{},\"detail_measure\":{},\"seed\":{},\"warm_insts\":{}}}}}",
        p.kind.name(),
        p.config,
        spec.total_insts,
        spec.intervals,
        spec.detail_warm,
        spec.detail_measure,
        spec.seed,
        spec.warm_insts
    );
    let id = p.id();
    let t0 = Instant::now();
    let outcome = ctx.tracer.nest("service.job", parent, &id, |job_span| {
        let submitted = ctx.tracer.time("service.submit", job_span, &id, || {
            client::request(addr, "POST", "/jobs", Some(&body))
        });
        let submit_s = t0.elapsed().as_secs_f64();
        let submitted = submitted.map_err(|e| format!("{id}: POST /jobs: {e}"))?;
        if submitted.status != 201 {
            return Err(format!(
                "{id}: POST /jobs answered {}: {}",
                submitted.status,
                String::from_utf8_lossy(&submitted.body)
            ));
        }
        let job_id = Json::parse(submitted.text())
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("{id}: POST /jobs gave no job id"))?;
        let stream = ctx.tracer.time("service.results", job_span, &id, || {
            stream_results(addr, job_id, t0)
        });
        let (text, first_s) = stream.map_err(|e| format!("{id}: GET results: {e}"))?;
        let latency_s = t0.elapsed().as_secs_f64();
        let sampled_ipc = check_stream(ctx, p, refs, &text)?;
        let status_s = if ctx.tracer.enabled() {
            let t1 = Instant::now();
            let status = ctx.tracer.time("service.status", job_span, &id, || {
                client::request(addr, "GET", &format!("/jobs/{job_id}"), None)
            });
            let status = status.map_err(|e| format!("{id}: GET /jobs/{job_id}: {e}"))?;
            let want = &refs[&id];
            let got = Json::parse(status.text())
                .ok()
                .and_then(|v| v.get("digest").and_then(Json::as_str).map(str::to_string));
            if status.status != 200 || got.as_deref() != Some(want.as_str()) {
                return Err(format!(
                    "{id}: GET /jobs/{job_id} digest {got:?}, expected {want}"
                ));
            }
            Some(t1.elapsed().as_secs_f64())
        } else {
            None
        };
        Ok((submit_s, first_s, latency_s, status_s, sampled_ipc))
    });
    match outcome {
        Ok((submit_s, first_s, latency_s, status_s, sampled_ipc)) => {
            let full = ctx.expected.get(p).expect("stream checked").full_ipc();
            let mut o = out.lock().expect("ops lock");
            o.ops.record(err_pct(sampled_ipc, full));
            o.latency_ms.push(latency_s * 1e3);
            o.first_ms.push(first_s * 1e3);
            o.layer.submit_ms.push(submit_s * 1e3);
            if let Some(s) = status_s {
                o.layer.status_ms.push(s * 1e3);
            }
        }
        Err(why) => ctx.tally.fail(&why),
    }
}

/// Checks a result stream: every interval line, then a final `done` summary
/// whose digest, and the digest recomputed from the streamed intervals,
/// equal the in-process reference and the stored expectation. Returns the
/// sampled IPC the stream reports.
fn check_stream(
    ctx: Ctx<'_>,
    p: &Point,
    refs: &BTreeMap<String, String>,
    text: &str,
) -> Result<f64, String> {
    let id = p.id();
    let mut intervals: Vec<IntervalMeasurement> = Vec::new();
    let mut summary: Option<Json> = None;
    for line in text.lines() {
        let v = Json::parse(line).map_err(|e| format!("{id}: bad result line {line:?}: {e}"))?;
        if v.get("final").and_then(Json::as_bool) == Some(true) {
            summary = Some(v);
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{id}: interval line lacks {k}: {line}"))
        };
        intervals.push(IntervalMeasurement {
            index: usize::try_from(field("index")?).map_err(|e| e.to_string())?,
            start: field("start")?,
            instructions: field("instructions")?,
            cycles: field("cycles")?,
            ipc: v.get("ipc").and_then(Json::as_f64).unwrap_or(0.0),
            weight: field("weight")?,
        });
    }
    let summary = summary.ok_or_else(|| format!("{id}: result stream ended without a summary"))?;
    let state = summary.get("state").and_then(Json::as_str).unwrap_or("");
    if state != "done" {
        return Err(format!("{id}: job ended {state}: {}", summary.render()));
    }
    intervals.sort_by_key(|m| m.index);
    let streamed = digest(p, &intervals);
    let reported = summary.get("digest").and_then(Json::as_str).unwrap_or("");
    let want = refs
        .get(&id)
        .ok_or_else(|| format!("{id}: no in-process reference digest"))?;
    if reported != want || streamed != *want {
        return Err(format!(
            "{id}: job digest {reported} (streamed intervals {streamed}), in-process {want}"
        ));
    }
    ctx.expected.check_sampled(p, reported, intervals.len())?;
    let insts: u64 = intervals.iter().map(|m| m.instructions).sum();
    let cycles: u64 = intervals.iter().map(|m| m.cycles).sum();
    Ok(insts as f64 / cycles.max(1) as f64)
}

/// Reads a job's chunked NDJSON result stream to the end. Returns the body
/// and the seconds from `t0` until the first interval line arrived.
fn stream_results(addr: SocketAddr, job_id: u64, t0: Instant) -> io::Result<(String, f64)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    write!(
        stream,
        "GET /jobs/{job_id}/results HTTP/1.1\r\nHost: ltp\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let marker = b"{\"index\"";
    let mut raw = Vec::new();
    let mut first: Option<f64> = None;
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        let from = raw.len().saturating_sub(marker.len());
        raw.extend_from_slice(&buf[..n]);
        if first.is_none() && raw[from..].windows(marker.len()).any(|w| w == marker) {
            first = Some(t0.elapsed().as_secs_f64());
        }
    }
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no response head"))?;
    if !raw.starts_with(b"HTTP/1.1 200") {
        return Err(bad(&String::from_utf8_lossy(&raw[..head_end])));
    }
    let body = dechunk(&raw[head_end + 4..]).ok_or_else(|| bad("malformed chunked body"))?;
    let text = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
    let first = first.ok_or_else(|| bad("no interval was streamed"))?;
    Ok((text, first))
}

/// Decodes a complete chunked body; `None` when it is cut short.
fn dechunk(mut payload: &[u8]) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line_end = payload.windows(2).position(|w| w == b"\r\n")?;
        let size =
            usize::from_str_radix(std::str::from_utf8(&payload[..line_end]).ok()?.trim(), 16)
                .ok()?;
        payload = &payload[line_end + 2..];
        if size == 0 {
            return Some(body);
        }
        body.extend_from_slice(payload.get(..size)?);
        payload = payload.get(size + 2..)?;
    }
}

/// Per-endpoint handling latency the server reports on `/metrics`.
fn server_latencies(addr: SocketAddr) -> Result<BTreeMap<String, (u64, f64, f64)>, String> {
    let r = client::request(addr, "GET", "/metrics", None).map_err(|e| e.to_string())?;
    let v = Json::parse(r.text())?;
    let lat = v.get("latency_us").ok_or("no latency_us in /metrics")?;
    let mut out = BTreeMap::new();
    for ep in ["POST /jobs", "GET /jobs/:id", "GET /jobs/:id/results"] {
        let e = lat.get(ep).ok_or_else(|| format!("/metrics has no {ep}"))?;
        let num = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.insert(
            ep.to_string(),
            (num("count") as u64, num("mean"), num("p50")),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::dechunk;

    #[test]
    fn dechunk_needs_the_terminating_chunk() {
        assert_eq!(
            dechunk(b"3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n").as_deref(),
            Some(&b"abcde"[..])
        );
        assert_eq!(dechunk(b"3\r\nabc\r\n2\r\nde\r\n"), None);
        assert_eq!(dechunk(b"5\r\nabc"), None);
    }
}
