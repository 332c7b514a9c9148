//! Stored expected outputs per workload seed: the full-detail cycles and
//! committed count, and the sampled digest of every point. Every run compares
//! against them exactly; any difference is a failed operation.

use ltp_experiments::sampled::{
    digest_line, result_digest, IntervalMeasurement, SampleSpec, SampledRequest,
};
use ltp_experiments::SimBuilder;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::points::{Point, DEFAULT_WORKLOAD_SEED, HELD_OUT_WORKLOAD_SEED};

/// Expected outputs of one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    pub full_cycles: u64,
    pub full_insts: u64,
    pub digest: String,
    pub intervals: usize,
    pub sampled_insts: u64,
    pub sampled_cycles: u64,
}

impl Expect {
    #[must_use]
    pub fn full_ipc(&self) -> f64 {
        self.full_insts as f64 / self.full_cycles as f64
    }

    #[must_use]
    pub fn sampled_ipc(&self) -> f64 {
        self.sampled_insts as f64 / self.sampled_cycles as f64
    }
}

/// The expected-output table of one workload seed.
#[derive(Debug, Clone)]
pub struct Expected {
    pub points: BTreeMap<String, Expect>,
}

/// The tables recorded with `--record`, compiled in.
const TABLES: [(u64, &str); 2] = [
    (
        DEFAULT_WORKLOAD_SEED,
        include_str!("../expected/seed-2015.tsv"),
    ),
    (
        HELD_OUT_WORKLOAD_SEED,
        include_str!("../expected/seed-7411.tsv"),
    ),
];

/// The header line pinning the geometry a table was recorded under.
#[must_use]
pub fn spec_line(spec: &SampleSpec) -> String {
    format!(
        "# spec seed={} total_insts={} intervals={} detail_warm={} detail_measure={} warm_insts={}",
        spec.seed,
        spec.total_insts,
        spec.intervals,
        spec.detail_warm,
        spec.detail_measure,
        spec.warm_insts
    )
}

/// Digest of a point's measured intervals, as the CLI, the service and the
/// in-process runner all compute it.
#[must_use]
pub fn digest(p: &Point, intervals: &[IntervalMeasurement]) -> String {
    let mut lines = String::new();
    for m in intervals {
        lines.push_str(&digest_line(p.kind.name(), p.config, m));
    }
    result_digest(&lines)
}

impl Expected {
    /// The compiled-in table for `spec.seed`.
    ///
    /// # Errors
    ///
    /// No table for the seed, or a table recorded under another geometry.
    pub fn for_spec(spec: &SampleSpec) -> Result<Expected, String> {
        let text = TABLES
            .iter()
            .find(|(seed, _)| *seed == spec.seed)
            .map(|(_, t)| *t)
            .ok_or_else(|| {
                format!(
                    "no expected outputs recorded for workload seed {} (recorded: {} and {})",
                    spec.seed, DEFAULT_WORKLOAD_SEED, HELD_OUT_WORKLOAD_SEED
                )
            })?;
        let table = Expected::parse(text)?;
        let want = spec_line(spec);
        if text.lines().next() != Some(want.as_str()) {
            return Err(format!(
                "expected outputs for seed {} were recorded under another geometry; re-record with --record",
                spec.seed
            ));
        }
        Ok(table)
    }

    /// Computes the expected outputs of `points` through the library's own
    /// entry points: `SimBuilder` for full detail and an uncached
    /// `SampledRequest` for the sampled digest.
    ///
    /// # Errors
    ///
    /// A simulation fails or a sampled result is partial.
    pub fn record(spec: SampleSpec, points: &[Point]) -> Result<Expected, String> {
        let mut table = Expected {
            points: BTreeMap::new(),
        };
        for p in points {
            let full = SimBuilder::new(p.cfg, p.kind)
                .seed(spec.seed)
                .warm_insts(spec.warm_insts)
                .detail_insts(spec.total_insts)
                .run()
                .map_err(|e| format!("{}: {e}", p.id()))?;
            let sampled = SampledRequest::new(p.cfg, p.kind, spec)
                .config_label(p.config)
                .run()
                .map_err(|e| format!("{}: {e}", p.id()))?;
            if sampled.is_partial() {
                return Err(format!("{}: partial sampled result", p.id()));
            }
            let e = Expect {
                full_cycles: full.cycles,
                full_insts: full.instructions,
                digest: digest(p, &sampled.intervals),
                intervals: sampled.intervals.len(),
                sampled_insts: sampled.intervals.iter().map(|m| m.instructions).sum(),
                sampled_cycles: sampled.intervals.iter().map(|m| m.cycles).sum(),
            };
            table.points.insert(p.id(), e);
        }
        Ok(table)
    }

    /// Parses a table written by [`Expected::render`].
    ///
    /// # Errors
    ///
    /// Malformed rows.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut points = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad expected row: {line}"))
            };
            if f.len() != 8 {
                return Err(format!("bad expected row: {line}"));
            }
            points.insert(
                format!("{}/{}", f[0], f[1]),
                Expect {
                    full_cycles: num(2)?,
                    full_insts: num(3)?,
                    digest: f[4].to_string(),
                    intervals: usize::try_from(num(5)?).map_err(|e| e.to_string())?,
                    sampled_insts: num(6)?,
                    sampled_cycles: num(7)?,
                },
            );
        }
        Ok(Expected { points })
    }

    #[must_use]
    pub fn render(&self, spec: &SampleSpec) -> String {
        let mut out = spec_line(spec);
        out.push_str(
            "\n# kernel\tconfig\tfull_cycles\tfull_insts\tsampled_digest\tintervals\tsampled_insts\tsampled_cycles\n",
        );
        for (id, e) in &self.points {
            let (kind, config) = id.split_once('/').expect("ids are kernel/config");
            let _ = writeln!(
                out,
                "{kind}\t{config}\t{}\t{}\t{}\t{}\t{}\t{}",
                e.full_cycles,
                e.full_insts,
                e.digest,
                e.intervals,
                e.sampled_insts,
                e.sampled_cycles
            );
        }
        out
    }

    /// The expectation of `p`.
    ///
    /// # Errors
    ///
    /// The table has no row for the point.
    pub fn get(&self, p: &Point) -> Result<&Expect, String> {
        self.points
            .get(&p.id())
            .ok_or_else(|| format!("{}: no expected outputs", p.id()))
    }

    /// Checks a full-detail run's cycles and committed count.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_full(&self, p: &Point, cycles: u64, insts: u64) -> Result<(), String> {
        let e = self.get(p)?;
        if (cycles, insts) == (e.full_cycles, e.full_insts) {
            Ok(())
        } else {
            Err(format!(
                "{}: full detail gave {cycles} cycles / {insts} insts, expected {} / {}",
                p.id(),
                e.full_cycles,
                e.full_insts
            ))
        }
    }

    /// Checks a sampled result's interval count and digest.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_sampled(&self, p: &Point, digest: &str, intervals: usize) -> Result<(), String> {
        let e = self.get(p)?;
        if digest == e.digest && intervals == e.intervals {
            Ok(())
        } else {
            Err(format!(
                "{}: sampled digest {digest} over {intervals} intervals, expected {} over {}",
                p.id(),
                e.digest,
                e.intervals
            ))
        }
    }
}
