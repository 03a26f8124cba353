//! Hash maps keyed by simulator-assigned integers.
//!
//! Every map in the simulator is keyed by an id the simulator hands out
//! itself: TLP, packet, request and rendezvous ids, and node indices. No
//! input can choose keys that collide, so std's randomly seeded SipHash
//! only costs time on the event-level hot path. [`IdMap`] hashes with one
//! rotate, xor and multiply per integer written, the scheme of rustc's
//! `FxHasher`. No output depends on map order: the simulator never
//! iterates these maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-assigned integers (see the module docs).
/// Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Odd multiplier with well-spread bits (`FxHasher`'s 64-bit constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplicative hasher for integer keys. Deterministic and unkeyed, so
/// never use it for keys taken from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// Every key in the simulator hashes as `u32`s and `u64`s; other writes
/// fall back to `write`, eight bytes per multiply.
impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_and_unkeyed() {
        assert_eq!(hash_of(42u64), 42u64.wrapping_mul(SEED));
        assert_eq!(hash_of((3u32, 7u32)), hash_of((3u32, 7u32)));
        assert_ne!(hash_of((3u32, 7u32)), hash_of((7u32, 3u32)));
    }

    #[test]
    fn sequential_ids_fill_distinct_low_buckets() {
        // hashbrown picks the bucket from the low bits: an odd multiplier
        // is a bijection on them, so a run of fresh ids never collides.
        let mask = (1u64 << 10) - 1;
        let mut buckets: Vec<u64> = (0..1024u64).map(|i| hash_of(i) & mask).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn map_round_trips_and_byte_keys_hash() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(i << 48 | i, i as u32);
        }
        assert!((0..1000u64).all(|i| m[&(i << 48 | i)] == i as u32));
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefghj"));
    }
}
