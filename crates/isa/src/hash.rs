//! A fast hasher for the simulator's integer-keyed tables.
//!
//! The timing model keeps a few maps keyed by sequence numbers, PCs and line
//! addresses (LTP ticket owners, issue-queue waiters on parked producers,
//! MSHR lines, ...). Their keys are simulator-generated, never adversarial,
//! and the maps are touched on every completed instruction or memory access,
//! so the standard library's DoS-resistant SipHash is pure overhead there.
//! [`IntHasher`] replaces it with one splitmix64 finalisation per key.
//! Iteration order is unspecified either way; no simulator decision depends
//! on it (snapshot encodings sort hash containers by key).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A splitmix64-finalising hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = (self.0 ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed with [`IntHasher`].
pub type IntHashSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // Line addresses are multiples of 64: the low bits of the hash (the
        // bucket index) must still vary.
        let buckets: HashSet<u64> = (0..256u64)
            .map(|i| {
                let mut h = IntHasher::default();
                h.write_u64(i * 64);
                h.finish() & 0xff
            })
            .collect();
        assert!(buckets.len() > 128, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: IntHashMap<u64, u32> = IntHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(7 * 4096)), Some(&7));
        assert_eq!(m.remove(&0), Some(0));
        assert!(!m.contains_key(&0));
    }
}
