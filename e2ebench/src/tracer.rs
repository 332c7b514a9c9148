//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name (`layer.call`), start, end, parent span and the point or
//! job it served. Spans stay in memory while the benchmark runs and are
//! written out once at the end. A layer's self time is the time its spans
//! cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span identifier; [`ROOT`] means "no parent".
pub type SpanId = u64;
/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub point: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder; a disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        point: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.nest(name, parent, point, |_| f())
    }

    /// Runs `f` inside a span, handing it the span id for child spans; a
    /// disabled tracer hands out [`ROOT`], so children stay top-level.
    pub fn nest<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        point: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let span = Span {
            id,
            parent,
            name,
            point: point.to_string(),
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span list lock").push(span);
        r
    }

    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Self time per layer, in seconds.
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans())
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"point\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.point, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time per layer: each span's duration minus the union of its
/// children's intervals (children on other threads may overlap each other).
#[must_use]
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            point: String::new(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, ROOT, "bench.pass", 0, 1_000),
            // Two parallel children covering [100, 700].
            span(2, 1, "service.job", 100, 600),
            span(3, 1, "service.job", 300, 700),
            span(4, 2, "service.submit", 100, 150),
        ];
        let st = self_seconds(&spans);
        assert!((st["bench"] - 400e-9).abs() < 1e-15);
        assert!((st["service"] - (450e-9 + 400e-9 + 50e-9)).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.nest("bench.pass", ROOT, "p", |id| {
            assert_eq!(id, ROOT);
            t.time("isa.decode", id, "p", || 7)
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
