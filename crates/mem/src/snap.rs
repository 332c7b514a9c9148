//! Snapshot codec implementations for the memory hierarchy.
//!
//! Ordered state (cache ways, DRAM banks, free lists) is encoded verbatim:
//! e.g. the order of lines inside a cache set decides which invalid way a
//! fill picks, so canonicalising it would change timing. Only the MSHR hash
//! map is sorted (its iteration order is behaviourally irrelevant — every
//! ordered decision in `MshrFile` breaks ties explicitly).

use crate::cache::{Cache, CacheStats};
use crate::config::{CacheConfig, DramConfig, MemoryConfig, PrefetcherConfig};
use crate::dram::DramModel;
use crate::hierarchy::{MemoryHierarchy, MemoryStats};
use crate::hitmiss::HitMissPredictor;
use crate::mshr::MshrFile;
use crate::prefetcher::StridePrefetcher;
use ltp_snapshot::{impl_codec, Codec, Reader, SnapError, Writer};

impl_codec!(CacheConfig {
    size_bytes,
    line_bytes,
    ways,
    latency,
    tag_to_data,
});
impl_codec!(DramConfig {
    banks,
    row_hit_latency,
    row_miss_latency,
    bank_busy,
    row_bytes,
});
impl_codec!(PrefetcherConfig {
    enabled,
    degree,
    table_entries,
    confidence_threshold,
});
impl_codec!(MemoryConfig {
    l1d,
    l2,
    l3,
    dram,
    prefetcher,
    mshrs,
});

impl_codec!(CacheStats {
    hits,
    misses,
    prefetch_fills,
    prefetch_hits,
    writebacks,
});

impl Codec for Cache {
    fn write(&self, w: &mut Writer) {
        self.config().write(w);
        self.snap_write_sets(w);
        self.snap_lru_clock().write(w);
        self.stats().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = CacheConfig::read(r)?;
        let mut cache = Cache::snap_read_sets(r, cfg)?;
        cache.snap_restore_counters(u64::read(r)?, CacheStats::read(r)?);
        Ok(cache)
    }
}

impl Codec for MshrFile {
    fn write(&self, w: &mut Writer) {
        let p = self.snap_parts();
        p.capacity.write(w);
        p.outstanding.write(w);
        p.peak_occupancy.write(w);
        p.total_allocations.write(w);
        p.total_merges.write(w);
        p.full_stall_cycles.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        // Any capacity value is safe to restore: it is only compared against
        // the live occupancy (the limit study legitimately stores
        // `usize::MAX` for its unlimited file), and the constructor clamps
        // the hash-map pre-size it derives from it, so a corrupted value
        // cannot turn into a giant allocation.
        let capacity = usize::read(r)?;
        Ok(MshrFile::from_snap_parts(crate::mshr::MshrSnap {
            capacity,
            outstanding: Codec::read(r)?,
            peak_occupancy: usize::read(r)?,
            total_allocations: u64::read(r)?,
            total_merges: u64::read(r)?,
            full_stall_cycles: u64::read(r)?,
        }))
    }
}

impl_codec!(crate::dram::DramStats {
    row_hits,
    row_misses,
    queue_cycles,
});

impl Codec for DramModel {
    fn write(&self, w: &mut Writer) {
        let (cfg, banks, stats) = self.snap_parts();
        cfg.write(w);
        banks.write(w);
        stats.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = DramConfig::read(r)?;
        let banks: Vec<(Option<u64>, u64)> = Codec::read(r)?;
        let stats = crate::dram::DramStats::read(r)?;
        DramModel::from_snap_parts(cfg, banks, stats)
    }
}

impl Codec for StridePrefetcher {
    fn write(&self, w: &mut Writer) {
        let (cfg, table, issued) = self.snap_parts();
        cfg.write(w);
        table.write(w);
        issued.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = PrefetcherConfig::read(r)?;
        let table: Vec<crate::prefetcher::StrideSnap> = Codec::read(r)?;
        let issued = u64::read(r)?;
        StridePrefetcher::from_snap_parts(cfg, table, issued)
    }
}

impl_codec!(crate::prefetcher::StrideSnap {
    pc_tag,
    last_addr,
    stride,
    confidence,
    valid,
});

impl Codec for HitMissPredictor {
    fn write(&self, w: &mut Writer) {
        let p = self.snap_parts();
        // The same bytes as the `Vec<u8>` codec (length, then each byte),
        // in one bulk copy per table.
        for table in [&p.history, &p.counters] {
            w.varint(table.len() as u64);
            w.bytes(table);
        }
        p.predictions.write(w);
        p.correct.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        HitMissPredictor::from_snap_parts(crate::hitmiss::HitMissSnap {
            history: Codec::read(r)?,
            counters: Codec::read(r)?,
            predictions: u64::read(r)?,
            correct: u64::read(r)?,
        })
    }
}

impl_codec!(MemoryStats {
    accesses,
    served_by,
    total_latency,
    prefetches_issued,
});

impl Codec for MemoryHierarchy {
    fn write(&self, w: &mut Writer) {
        // Borrow, don't clone: a clone of every cache set costs more than
        // the encode itself.
        let p = self.snap_parts_ref();
        p.cfg.write(w);
        p.l1d.write(w);
        p.l2.write(w);
        p.l3.write(w);
        p.dram.write(w);
        p.mshrs.write(w);
        p.prefetcher.write(w);
        p.stats.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        MemoryHierarchy::from_snap_parts(crate::hierarchy::HierarchySnap {
            cfg: MemoryConfig::read(r)?,
            l1d: Cache::read(r)?,
            l2: Cache::read(r)?,
            l3: Cache::read(r)?,
            dram: DramModel::read(r)?,
            mshrs: MshrFile::read(r)?,
            prefetcher: StridePrefetcher::read(r)?,
            stats: MemoryStats::read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, MemoryRequest};
    use ltp_isa::Pc;
    use ltp_snapshot::encode_value;

    /// Round-trips a hierarchy with non-trivial state and proves the restored
    /// copy answers the *next* accesses with identical timing.
    #[test]
    fn hierarchy_roundtrip_preserves_timing() {
        let mut m = MemoryHierarchy::new(MemoryConfig::micro2015_baseline());
        let mut now = 0;
        for i in 0..600u64 {
            let addr = if i % 7 == 0 {
                0x40_0000 + (i / 7) * 64 // streaming (trains the prefetcher)
            } else {
                0x90_0000 + (i * 2657) % 65_536 // scattered
            };
            let kind = if i % 5 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let r = m.access(
                now,
                &MemoryRequest::new(Pc(0x100 + (i % 13) * 4), addr, kind),
            );
            now = r.request_cycle + 3;
        }

        let bytes = encode_value(&m);
        let mut reader = Reader::new(&bytes);
        let mut restored = MemoryHierarchy::read(&mut reader).expect("decode");
        assert_eq!(reader.remaining(), 0);
        assert_eq!(encode_value(&restored), bytes, "canonical bytes");

        for i in 0..300u64 {
            let req = MemoryRequest::new(
                Pc(0x100 + (i % 13) * 4),
                0x90_0000 + (i * 4099) % 65_536,
                AccessKind::Load,
            );
            let a = m.access(now + i * 5, &req);
            let b = restored.access(now + i * 5, &req);
            assert_eq!(a, b, "divergence at access {i}");
        }
        assert_eq!(m.stats().accesses, restored.stats().accesses);
        assert_eq!(m.cache_stats(), restored.cache_stats());
    }

    #[test]
    fn hitmiss_predictor_roundtrip() {
        let mut p = HitMissPredictor::default_sized();
        for i in 0..200u64 {
            let pc = Pc(0x40 + (i % 17) * 4);
            let _ = p.predict_miss(pc);
            p.update(pc, i % 3 == 0);
        }
        let bytes = encode_value(&p);
        let mut r = Reader::new(&bytes);
        let mut back = HitMissPredictor::read(&mut r).expect("decode");
        for i in 0..50u64 {
            let pc = Pc(0x40 + (i % 23) * 4);
            assert_eq!(p.predict_miss(pc), back.predict_miss(pc));
        }
    }
}
