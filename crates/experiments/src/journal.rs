//! On-disk run journal for resumable sampled simulation.
//!
//! Each sampled point (one workload × one configuration) records the
//! measurement of every completed interval in a journal file at a path the
//! caller names. A later `--resume` run replays the completed intervals from
//! the journal and re-simulates only the missing ones; per-interval
//! measurements are deterministic, so the resumed aggregate is bit-identical
//! to an uninterrupted run.
//!
//! ## Format
//!
//! A journal is one checkpoint-cache entry ([`crate::cache`]'s envelope: a
//! single checksummed frame holding the entry version, the key and the
//! payload), keyed by the FNV-1a of the run's [`JournalHeader`] and written
//! atomically — temp file, then rename — once the point's interval stream
//! has ended. The payload is a [`JournalEntry`]: the measurements only,
//! never machine state. A damaged, truncated, foreign (another run's header,
//! hence another key) or old-format file does not validate and is a miss:
//! the resumed run simply re-simulates every interval.

use crate::cache::{decode_payload, encode_entry, publish, validate_entry};
use crate::sampled::SampleSpec;
use ltp_pipeline::PipelineConfig;
use ltp_snapshot::{encode_value, fnv1a64, impl_codec};
use std::path::{Path, PathBuf};

/// Version tag of the journal format; bumped on any layout change so stale
/// journals are ignored rather than misread (it is part of the entry key).
pub const JOURNAL_VERSION: u64 = 2;

/// Identifies the run a journal belongs to. A resume only trusts a journal
/// written for a header equal to the resumed run's field for field —
/// including an FNV-1a checksum of the full pipeline configuration, so two
/// configurations sharing a label cannot cross-feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u64,
    /// Workload name.
    pub workload: String,
    /// Configuration label (e.g. `IQ:32+LTP`).
    pub config_label: String,
    /// FNV-1a-64 of the canonically encoded [`PipelineConfig`].
    pub config_fnv: u64,
    /// [`SampleSpec::total_insts`] of the run.
    pub total_insts: u64,
    /// [`SampleSpec::intervals`] of the run.
    pub intervals: u64,
    /// [`SampleSpec::detail_warm`] of the run.
    pub detail_warm: u64,
    /// [`SampleSpec::detail_measure`] of the run.
    pub detail_measure: u64,
    /// [`SampleSpec::seed`] of the run.
    pub seed: u64,
    /// [`SampleSpec::warm_insts`] of the run.
    pub warm_insts: u64,
}

impl_codec!(JournalHeader {
    version,
    workload,
    config_label,
    config_fnv,
    total_insts,
    intervals,
    detail_warm,
    detail_measure,
    seed,
    warm_insts,
});

impl JournalHeader {
    /// The header describing one sampled point.
    #[must_use]
    pub fn for_run(
        spec: &SampleSpec,
        workload: &str,
        config_label: &str,
        cfg: &PipelineConfig,
    ) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            workload: workload.to_string(),
            config_label: config_label.to_string(),
            config_fnv: fnv1a64(&encode_value(cfg)),
            total_insts: spec.total_insts,
            intervals: spec.intervals as u64,
            detail_warm: spec.detail_warm,
            detail_measure: spec.detail_measure,
            seed: spec.seed,
            warm_insts: spec.warm_insts,
        }
    }

    /// The entry key of this run's journal: FNV-1a of the encoded header.
    #[must_use]
    pub fn key(&self) -> u64 {
        fnv1a64(&encode_value(self))
    }
}

/// One completed interval's measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Interval index in trace order.
    pub index: u64,
    /// Trace position (instructions) of the checkpoint.
    pub start: u64,
    /// LPT cost weight (functional LLC misses in the interval).
    pub weight: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Measured cycles.
    pub cycles: u64,
}

impl_codec!(JournalRecord {
    index,
    start,
    weight,
    instructions,
    cycles,
});

/// A journal's payload: every completed interval, in index order, plus the
/// run's reported checkpoint size, so a fully replayed run reports the same
/// [`crate::sampled::SampledResult::checkpoint_bytes`] without capturing a
/// checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalEntry {
    /// Encoded size of the run's first checkpoint in bytes (0 if the run
    /// never captured it).
    pub checkpoint_bytes: u64,
    /// Completed intervals, strictly increasing by index.
    pub records: Vec<JournalRecord>,
}

impl_codec!(JournalEntry {
    checkpoint_bytes,
    records,
});

/// Journal file path for one sampled point inside `dir`; non-path characters
/// in the configuration label are flattened to `_`.
#[must_use]
pub fn journal_path(dir: &Path, workload: &str, config_label: &str) -> PathBuf {
    let sane: String = config_label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!("{workload}__{sane}.journal"))
}

/// Writes `entry` as the journal of the run `header` describes, replacing
/// any previous journal at `path` atomically: a crash mid-write leaves the
/// previous journal (or none) readable, never a torn one.
///
/// # Errors
///
/// Any I/O error creating the directory or publishing the file.
pub fn write_journal(
    path: &Path,
    header: &JournalHeader,
    entry: &JournalEntry,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    publish(path, &encode_entry(&encode_value(entry), header.key()))
}

/// Reads the journal at `path` written for the run `header` describes.
/// A missing file, one that fails the envelope or codec checks, one written
/// for another run, and one whose records are not strictly increasing in
/// index below the run's interval count are all `None`.
#[must_use]
pub fn read_journal(path: &Path, header: &JournalHeader) -> Option<JournalEntry> {
    let bytes = std::fs::read(path).ok()?;
    let payload = validate_entry(&bytes, header.key())?;
    let entry: JournalEntry = decode_payload(&payload).ok()?;
    let ordered = entry.records.windows(2).all(|w| w[0].index < w[1].index)
        && entry
            .records
            .last()
            .is_none_or(|r| r.index < header.intervals);
    ordered.then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SampleSpec {
        SampleSpec {
            total_insts: 240_000,
            intervals: 12,
            detail_warm: 1_000,
            detail_measure: 2_000,
            seed: 2015,
            warm_insts: 4_000,
        }
    }

    fn header() -> JournalHeader {
        JournalHeader::for_run(
            &spec(),
            "indirect_stream",
            "IQ:32",
            &PipelineConfig::limit_study_unlimited(),
        )
    }

    fn record(index: u64) -> JournalRecord {
        JournalRecord {
            index,
            start: index * 20_000,
            weight: 17 + index,
            instructions: 2_000,
            cycles: 3_000 + index,
        }
    }

    fn entry(indices: &[u64]) -> JournalEntry {
        JournalEntry {
            checkpoint_bytes: 41_234,
            records: indices.iter().map(|&i| record(i)).collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltp-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_and_index_order_check() {
        let path = tmp("roundtrip.journal");
        write_journal(&path, &header(), &entry(&[0, 1, 2, 5])).expect("write");
        assert_eq!(read_journal(&path, &header()), Some(entry(&[0, 1, 2, 5])));
        // A rewrite replaces the whole journal.
        write_journal(&path, &header(), &entry(&[3])).expect("rewrite");
        assert_eq!(read_journal(&path, &header()), Some(entry(&[3])));
        // Duplicate, unordered and out-of-range indices are not a journal
        // this runner wrote: the whole file is a miss.
        for bad in [&[0, 0][..], &[2, 1], &[12]] {
            write_journal(&path, &header(), &entry(bad)).expect("write");
            assert_eq!(read_journal(&path, &header()), None, "{bad:?}");
        }
    }

    #[test]
    fn truncated_journal_is_a_miss() {
        let path = tmp("truncated.journal");
        write_journal(&path, &header(), &entry(&[0, 1, 2, 3])).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        for cut in [1, 10, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("truncate");
            assert_eq!(read_journal(&path, &header()), None, "cut {cut}");
        }
    }

    #[test]
    fn corrupted_record_fails_its_checksum() {
        let path = tmp("corrupt.journal");
        write_journal(&path, &header(), &entry(&[0, 1, 2, 3])).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert_eq!(read_journal(&path, &header()), None);
    }

    #[test]
    fn header_mismatch_is_detectable_by_caller() {
        let path = tmp("mismatch.journal");
        write_journal(&path, &header(), &entry(&[0])).expect("write");
        let other = JournalHeader::for_run(
            &spec(),
            "indirect_stream",
            "IQ:32",
            &PipelineConfig::ltp_proposed(),
        );
        // Same label, different configuration: the config checksum differs,
        // so does the key, and the journal does not read back for it.
        assert_ne!(header().config_fnv, other.config_fnv);
        assert_ne!(header().key(), other.key());
        assert_eq!(read_journal(&path, &other), None);
        assert!(read_journal(&path, &header()).is_some());
    }

    #[test]
    fn damaged_header_is_an_error_not_a_panic() {
        let path = tmp("badheader.journal");
        std::fs::write(&path, [0xFFu8; 3]).expect("write");
        assert_eq!(read_journal(&path, &header()), None);
        std::fs::write(&path, []).expect("write");
        assert_eq!(read_journal(&path, &header()), None);
        assert_eq!(
            read_journal(Path::new("/nonexistent/nope.journal"), &header()),
            None
        );
    }

    #[test]
    fn paths_flatten_config_labels() {
        let p = journal_path(Path::new("/tmp/j"), "hash_probe", "IQ:32+LTP");
        assert_eq!(p, Path::new("/tmp/j/hash_probe__IQ_32_LTP.journal"));
    }
}
