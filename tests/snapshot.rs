//! Checkpoint/restore regression tests.
//!
//! The contract under test: capturing a [`Snapshot`] mid-run, serializing it
//! through the versioned binary codec, restoring it in a fresh process-like
//! context and finishing the run is **bit-for-bit** identical to never having
//! stopped. The uninterrupted runs used as references here are themselves
//! pinned by `tests/golden_stats.rs` (24 golden fingerprints), so these tests
//! transitively pin checkpoint/restore to the seed simulator's behaviour.

use ltp_core::{ClassifierKind, LtpConfig, LtpMode};
use ltp_experiments::runner::{limit_study_config, RunOptions};
use ltp_experiments::SimBuilder;
use ltp_mem::{Cache, CacheConfig};
use ltp_pipeline::{PipelineConfig, RunResult, Snapshot};
use ltp_snapshot::{encode_value, Codec, Reader, SnapError};
use ltp_workloads::{replay_slice, WorkloadKind};
use proptest::prelude::*;

// A guard against OOM-scale allocations while decoding hostile snapshot
// bytes: the tracking allocator records the largest single allocation
// request ever made by this test binary. The counting shim needs `unsafe
// impl GlobalAlloc`; the workspace otherwise denies unsafe code, so the
// exemption is scoped to this module (same pattern as
// `tests/hot_loop_alloc.rs`).
#[allow(unsafe_code)]
mod peak_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Largest single allocation request seen so far, in bytes.
    pub static PEAK_REQUEST: AtomicUsize = AtomicUsize::new(0);

    fn record(size: usize) {
        PEAK_REQUEST.fetch_max(size, Ordering::Relaxed);
    }

    pub struct PeakAlloc;

    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;

/// The golden-run options (`tests/golden_stats.rs`).
fn opts() -> RunOptions {
    RunOptions {
        detail_insts: 6_000,
        warm_insts: 4_000,
        seed: 2015,
    }
}

/// The full stable fingerprint of a run (superset of the golden-stats one:
/// adds memory and branch statistics so divergence anywhere shows up).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "cycles={} insts={} parked={} rel_io={} rel_ooo={} forced={} iqw={} iqi={} rfr={} rfw={} \
         llc={} loads={} stores={} mem_acc={} mem_lat={} bmr={:.9} ltp_occ={:.6} ltp_peak={} \
         iq_occ={:.6} regs_occ={:.6} rob_occ={:.6} out_occ={:.6}",
        r.cycles,
        r.instructions,
        r.ltp.total_parked(),
        r.ltp.released_in_order,
        r.ltp.released_out_of_order,
        r.ltp.force_released,
        r.activity.iq_writes,
        r.activity.iq_issues,
        r.activity.rf_reads,
        r.activity.rf_writes,
        r.llc_miss_loads,
        r.loads,
        r.stores,
        r.mem.accesses,
        r.mem.total_latency,
        r.branch_mispredict_rate,
        r.occupancy.ltp.mean(),
        r.occupancy.ltp.peak(),
        r.occupancy.iq.mean(),
        r.occupancy.regs.mean(),
        r.occupancy.rob.mean(),
        r.occupancy.outstanding_misses.mean(),
    )
}

/// The realistic (UIT-classified) machine of the golden suite.
fn realistic(mode: LtpMode) -> PipelineConfig {
    match mode {
        LtpMode::Off => PipelineConfig::small_no_ltp(),
        m => {
            let ltp = LtpConfig {
                mode: m,
                ..LtpConfig::nu_only_128x4()
            };
            PipelineConfig::ltp_proposed().with_ltp(ltp)
        }
    }
}

/// Runs one golden point uninterrupted, then again with a mid-run
/// checkpoint → serialize → deserialize → resume, and asserts identical
/// fingerprints.
fn assert_restore_equivalent(kind: WorkloadKind, cfg: PipelineConfig, checkpoint_at: u64) {
    let o = opts();
    let builder = SimBuilder::new(cfg, kind).options(&o);
    let detail = builder.detail_trace();

    let full = builder.run_on(&detail).expect("uninterrupted run");

    let mut cpu = builder.build();
    let snap = cpu
        .run_to_snapshot(replay_slice(kind.name(), &detail), checkpoint_at)
        .expect("checkpoint");
    drop(cpu); // the rest of the run uses only the serialized state

    let bytes = snap.to_bytes();
    let restored = Snapshot::from_bytes(&bytes).expect("decode");
    assert_eq!(restored.to_bytes(), bytes, "canonical snapshot bytes");
    let resumed = restored
        .resume()
        .run(replay_slice(kind.name(), &detail), o.detail_insts)
        .expect("resumed run");

    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&full),
        "restore diverged: {} checkpoint@{checkpoint_at}",
        kind.name()
    );
}

#[test]
fn restore_is_bit_for_bit_on_the_uit_path() {
    for mode in [LtpMode::Off, LtpMode::NonUrgentOnly, LtpMode::Both] {
        for kind in [WorkloadKind::IndirectStream, WorkloadKind::GatherFp] {
            assert_restore_equivalent(kind, realistic(mode), 3_000);
        }
    }
}

#[test]
fn restore_is_bit_for_bit_on_the_oracle_path() {
    // Oracle classifier state (the analysed per-seq classes) rides inside
    // the snapshot, so the resumed run needs no re-attachment.
    for mode in [LtpMode::NonUrgentOnly, LtpMode::Both] {
        assert_restore_equivalent(
            WorkloadKind::MixedPhases,
            limit_study_config(mode).with_iq(32),
            2_500,
        );
    }
}

#[test]
fn restore_is_bit_for_bit_for_sweep_classifiers() {
    // Random classifier: the xorshift stream position must resume exactly.
    let cfg = PipelineConfig::ltp_proposed().with_classifier(ClassifierKind::Random {
        non_urgent_percent: 50,
        seed: 0x5eed,
    });
    assert_restore_equivalent(WorkloadKind::HashProbe, cfg, 1_777);
}

#[test]
fn checkpoint_near_the_end_still_matches() {
    // A checkpoint in the drain phase (past most of the trace).
    assert_restore_equivalent(
        WorkloadKind::IndirectStream,
        realistic(LtpMode::NonUrgentOnly),
        5_900,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Round-trip property over real machine states: a checkpoint taken at a
    /// random commit count of a random golden workload/mode encodes
    /// canonically (encode ∘ decode ∘ encode = encode) and resumes to the
    /// uninterrupted run's fingerprint.
    #[test]
    fn snapshot_roundtrip_at_random_checkpoints(
        raw_point in 0u64..4_000,
        mode_idx in 0usize..3,
        kind_idx in 0usize..3,
    ) {
        let mode = [LtpMode::Off, LtpMode::NonUrgentOnly, LtpMode::Both][mode_idx];
        let kind = [
            WorkloadKind::IndirectStream,
            WorkloadKind::MixedPhases,
            WorkloadKind::GatherFp,
        ][kind_idx];
        // Keep the proptest cases cheap: short runs, early checkpoints.
        let o = RunOptions {
            detail_insts: 4_500,
            warm_insts: 1_000,
            seed: 2015,
        };
        let builder = SimBuilder::new(realistic(mode), kind).options(&o);
        let detail = builder.detail_trace();
        let full = builder.run_on(&detail).expect("uninterrupted run");

        let mut cpu = builder.build();
        let snap = cpu
            .run_to_snapshot(replay_slice(kind.name(), &detail), 500 + raw_point)
            .expect("checkpoint");
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(decoded.to_bytes(), bytes, "non-canonical bytes");
        let resumed = decoded
            .resume()
            .run(replay_slice(kind.name(), &detail), o.detail_insts)
            .expect("resumed run");
        prop_assert_eq!(fingerprint(&resumed), fingerprint(&full));
    }
}

/// One valid encoded snapshot, captured once and shared by every mutation
/// case (capturing it is the expensive part).
fn valid_snapshot_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let o = RunOptions {
            detail_insts: 4_500,
            warm_insts: 1_000,
            seed: 2015,
        };
        let builder =
            SimBuilder::new(realistic(LtpMode::Both), WorkloadKind::IndirectStream).options(&o);
        let detail = builder.detail_trace();
        let mut cpu = builder.build();
        cpu.run_to_snapshot(replay_slice("indirect_stream", &detail), 2_000)
            .expect("checkpoint")
            .to_bytes()
    })
}

/// Decoding hostile bytes must fail *gracefully*: a typed error (or, for
/// mutations the checksums cannot distinguish from valid data, a decoded
/// snapshot) — never a panic, and never an allocation sized by attacker-
/// controlled length fields. The 64 MiB ceiling is ~300× a real encoding,
/// far below what a length-lying varint (terabytes) would request, and
/// comfortably above every legitimate allocation this test binary makes.
const ALLOC_CEILING: usize = 64 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single byte overwritten anywhere in a valid encoding (covers header,
    /// length prefixes, payload and checksum bytes).
    #[test]
    fn mutated_snapshot_bytes_never_panic_or_overallocate(
        pos_seed in 0usize..1 << 30,
        byte in 0u32..256,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte as u8;
        let _ = Snapshot::from_bytes(&bytes);
        prop_assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }

    /// Truncation to an arbitrary prefix (a torn write): every cut point
    /// must produce a typed error, not a panic or an overallocation.
    #[test]
    fn truncated_snapshot_bytes_never_panic_or_overallocate(len_seed in 0usize..1 << 30) {
        let bytes = valid_snapshot_bytes();
        let len = len_seed % bytes.len();
        prop_assert!(Snapshot::from_bytes(&bytes[..len]).is_err(), "truncated decode succeeded");
        prop_assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }

    /// A burst of 0xFF bytes spliced over the encoding — the worst case for
    /// LEB128 length fields, which this turns into huge claimed lengths.
    #[test]
    fn length_lying_snapshot_bytes_never_panic_or_overallocate(
        pos_seed in 0usize..1 << 30,
        burst in 1usize..16,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        let end = (pos + burst).min(bytes.len());
        bytes[pos..end].fill(0xFF);
        let _ = Snapshot::from_bytes(&bytes);
        prop_assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }
}

// --- the flat cache's codec -------------------------------------------------

/// A `ways`-way cache of `2^sets_log2` sets driven through `ops` — (address
/// seed, operation) pairs over a footprint four times its capacity, so sets
/// fill, conflict, evict and get invalidated.
fn warmed_cache(ways: usize, sets_log2: u32, ops: &[(u64, u8)]) -> Cache {
    let sets = 1u64 << sets_log2;
    let mut cache = Cache::new(CacheConfig {
        size_bytes: 64 * ways as u64 * sets,
        line_bytes: 64,
        ways,
        latency: 1,
        tag_to_data: 0,
    });
    let footprint = 4 * ways as u64 * sets;
    for &(seed, op) in ops {
        let addr = (seed % footprint) * 64;
        match op {
            0 => drop(cache.access(addr, false)),
            1 => drop(cache.access(addr, true)),
            2 => drop(cache.fill(addr, false, false)),
            3 => drop(cache.fill(addr, true, seed & 1 == 1)),
            _ => drop(cache.invalidate(addr)),
        }
    }
    cache
}

/// Decodes one whole cache encoding; trailing bytes are an error.
fn decode_cache(bytes: &[u8]) -> Result<Cache, SnapError> {
    let mut r = Reader::new(bytes);
    let cache = Cache::read(&mut r)?;
    match r.remaining() {
        0 => Ok(cache),
        n => Err(SnapError::TrailingBytes(n)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → decode → encode of a randomly warmed cache is byte-identical
    /// for both set layouts (64 ways takes the dense one), and the decoded
    /// cache goes on to evict exactly what the original does.
    #[test]
    fn warmed_cache_roundtrip_is_byte_identical(
        ways_idx in 0usize..6,
        sets_log2 in 0u32..7,
        ops in prop::collection::vec((any::<u64>(), 0u8..5), 0..600),
    ) {
        let ways = [1, 2, 4, 8, 16, 64][ways_idx];
        let mut cache = warmed_cache(ways, sets_log2, &ops);
        let bytes = encode_value(&cache);
        let mut decoded = decode_cache(&bytes).expect("decode");
        prop_assert_eq!(encode_value(&decoded), bytes);
        prop_assert_eq!(decoded.resident_lines(), cache.resident_lines());
        for &(seed, _) in ops.iter().take(64) {
            let addr = seed % (1 << 20) * 64;
            prop_assert_eq!(decoded.fill(addr, false, false), cache.fill(addr, false, false));
        }
        prop_assert_eq!(decoded.stats(), cache.stats());
    }
}

/// Byte offsets inside a sparse cache encoding: the set-count varint's span,
/// each set's bitmap span, and the first line-flags byte.
struct CacheLayout {
    count: (usize, usize),
    bitmaps: Vec<(usize, usize, u64)>,
    first_flags: usize,
}

fn sparse_layout(cache: &Cache, bytes: &[u8]) -> CacheLayout {
    let start = encode_value(cache.config()).len();
    let mut r = Reader::new(&bytes[start..]);
    let at = |r: &Reader<'_>| bytes.len() - r.remaining();
    let sets = r.varint().expect("set count");
    let count = (start, at(&r));
    let mut bitmaps = Vec::new();
    let mut first_flags = None;
    for _ in 0..sets {
        let from = at(&r);
        let bitmap = r.varint().expect("bitmap");
        bitmaps.push((from, at(&r), bitmap));
        for _ in 0..bitmap.count_ones() {
            r.varint().expect("tag");
            first_flags.get_or_insert(at(&r));
            r.byte().expect("flags");
            r.varint().expect("lru");
        }
    }
    CacheLayout {
        count,
        bitmaps,
        first_flags: first_flags.expect("a warmed cache has a resident line"),
    }
}

/// `bytes` with `span` replaced by `v` as a LEB128 varint.
fn splice_varint(bytes: &[u8], span: (usize, usize), v: u64) -> Vec<u8> {
    let mut w = ltp_snapshot::Writer::new();
    w.varint(v);
    [&bytes[..span.0], &w.into_bytes()[..], &bytes[span.1..]].concat()
}

/// Decoding a cache whose set count, way bitmap, way count or flags byte is
/// corrupt returns an error — no panic, and no allocation sized by the lie.
#[test]
fn corrupt_cache_fields_are_errors() {
    let ops: Vec<(u64, u8)> = (0..400u64)
        .map(|i| (i * 2_654_435_761, (i % 5) as u8))
        .collect();
    let cache = warmed_cache(4, 4, &ops);
    let bytes = encode_value(&cache);
    let layout = sparse_layout(&cache, &bytes);
    let mut corrupt: Vec<(String, Vec<u8>)> = Vec::new();
    for n in [0, 15, 17, 1 << 20, 1 << 40, u64::MAX] {
        corrupt.push((
            format!("set count {n}"),
            splice_varint(&bytes, layout.count, n),
        ));
    }
    for (s, &(from, to, bitmap)) in layout.bitmaps.iter().enumerate() {
        for bad in [bitmap | 1 << 4, 1 << 63] {
            corrupt.push((
                format!("set {s} bitmap {bad:#x}"),
                splice_varint(&bytes, (from, to), bad),
            ));
        }
    }
    for flags in 8..=255u8 {
        let mut b = bytes.clone();
        b[layout.first_flags] = flags;
        corrupt.push((format!("flags {flags:#x}"), b));
    }

    // The dense layout's per-set way count.
    let dense = warmed_cache(64, 1, &ops);
    let dense_bytes = encode_value(&dense);
    let way_count_at = encode_value(dense.config()).len() + 1;
    assert_eq!(dense_bytes[way_count_at], 64, "first set's way count");
    for ways in [0, 63, 65, 1 << 40] {
        corrupt.push((
            format!("dense way count {ways}"),
            splice_varint(&dense_bytes, (way_count_at, way_count_at + 1), ways),
        ));
    }

    assert!(decode_cache(&bytes).is_ok() && decode_cache(&dense_bytes).is_ok());
    for (what, b) in &corrupt {
        assert!(decode_cache(b).is_err(), "{what} decoded");
        assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "{what}: an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }
}
