//! Metric names and units, and the result line.
//!
//! The lists here are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run prints exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], and a test holds both lists equal to the file.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_minsts_per_s", "Minsts/s"),
    ("jobs_per_s", "1/s"),
    ("ipc_err_max_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.trace_s", "s"),
    ("isa.decode_s", "s"),
    ("pipeline.run_s", "s"),
    ("pipeline.cycles", "count"),
    ("pipeline.host_ns_per_cycle", "ns"),
    ("pipeline.idle_cycle_share", "ratio"),
    ("pipeline.ipc", "insts/cycle"),
    ("mem.llc_mpki", "1/kinst"),
    ("mem.avg_latency_cycles", "cycles"),
    ("core.ltp_parked_share", "ratio"),
    ("ffwd.minsts_per_s", "Minsts/s"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("sampled.functional_s", "s"),
    ("sampled.detail_cpu_s", "s"),
    ("sampled.journal_s", "s"),
    ("sampled.aggregate_s", "s"),
    ("sampled.total_s", "s"),
    ("pool.utilisation", "ratio"),
    ("governor.queue_depth_mean", "count"),
    ("governor.running_mean", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"),
    ("cache.bytes_read", "bytes"),
    ("service.job_latency_p50_ms", "ms"),
    ("service.job_latency_p90_ms", "ms"),
    ("service.first_result_p50_ms", "ms"),
    ("service.first_result_p90_ms", "ms"),
    ("service.submit_p50_ms", "ms"),
    ("service.submit_p90_ms", "ms"),
    ("service.status_p50_ms", "ms"),
    ("service.status_p90_ms", "ms"),
    ("service.server_submit_p50_us", "us"),
    ("service.server_submit_mean_us", "us"),
    ("service.server_status_p50_us", "us"),
    ("service.server_status_mean_us", "us"),
    ("service.server_results_p50_us", "us"),
    ("service.server_results_mean_us", "us"),
    ("self.bench_s", "s"),
    ("self.workloads_s", "s"),
    ("self.isa_s", "s"),
    ("self.pipeline_s", "s"),
    ("self.ffwd_s", "s"),
    ("self.snapshot_s", "s"),
    ("self.sampled_s", "s"),
    ("self.service_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// `declared`, in declared order.
    ///
    /// # Errors
    ///
    /// A declared metric is missing or not finite, or an undeclared one was
    /// set.
    pub fn json(&self, declared: &[(&'static str, &'static str)]) -> Result<String, String> {
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut m = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_service::json::Json;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_refuses_missing_and_undeclared_metrics() {
        let declared = [("a_s", "s"), ("b", "count")];
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("a_s", 1.5);
        assert!(r
            .json(&declared)
            .unwrap_err()
            .contains("b was not measured"));
        r.set("b", 2.0);
        let line = r.json(&declared).expect("complete");
        let v = Json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        r.set("c", 1.0);
        assert!(r.json(&declared).is_err());
    }
}
