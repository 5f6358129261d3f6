//! A deterministic hasher for maps keyed by simulator-generated ids.
//!
//! The std `HashMap`/`HashSet` default to `RandomState`: SipHash-1-3 with
//! keys drawn from process entropy, chosen to resist hash flooding by
//! adversarial input.  The simulator's maps are keyed by ids it generates
//! itself (pages, transactions, lockable items), so that protection buys
//! nothing, while SipHash costs tens of nanoseconds per lookup on the hot
//! path and the per-map random keys make table growth — and with it the
//! allocation count of a run — vary from run to run.
//!
//! [`IdHasher`] instead folds every written word through the splitmix64
//! finalizer [`mix64`], the same mixer the RNG seeds with.  It is fixed
//! (no per-map or per-process seed), so a run's hash-table layout is a pure
//! function of its inputs, and its avalanche spreads structured ids —
//! multiples of large powers of two, descending log page ids — over every
//! bucket bit hashbrown uses.
//!
//! Use [`IdMap`] / [`IdSet`] for every map the simulator keys by its own
//! ids; `IdMap::default()` replaces `HashMap::new()`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::mix64;

/// Hashes integer ids by mixing each written word with [`mix64`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = mix64(self.state ^ word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Other input is folded eight bytes at a time (little-endian, the last
    /// word zero-padded), so a narrow integer hashes like the same value
    /// written as a `u64`.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IdHasher`]: stateless,
/// so every map built with it hashes identically.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by simulator-generated ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of simulator-generated ids, hashed with [`IdHasher`].
pub type IdSet<T> = HashSet<T, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn output_is_pinned() {
        // One word hashes to mix64 of the word; the values are fixed across
        // runs, processes and platforms.
        assert_eq!(hash_of(0u64), mix64(0));
        assert_eq!(hash_of(0u64), 0xe220_a839_7b1d_cdaf);
        assert_eq!(hash_of(1u64), 0x910a_2dec_8902_5cc1);
        assert_eq!(hash_of(1u64 << 20), 0x3354_8c24_002a_1c2d);
        assert_eq!(hash_of(u64::MAX), 0xe4d9_7177_1b65_2c20);
        // Narrow integers hash like the same value as a u64.
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
    }

    #[test]
    fn every_word_of_a_compound_key_counts() {
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        assert_ne!(hash_of((0u64, 5u64)), hash_of(5u64));
        // The byte-string fallback is deterministic and position-sensitive.
        assert_eq!(hash_of("page"), hash_of("page"));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    #[test]
    fn multiples_of_two_to_the_twenty_spread_over_buckets() {
        // Keys sharing their low 20 bits would all land in one bucket under
        // an identity hash; hashbrown indexes buckets with the low bits and
        // tags with the top 7, so both ends must vary.
        const BUCKETS: u64 = 1 << 10;
        const KEYS: u64 = 4 * BUCKETS;
        let mut low = vec![0u32; BUCKETS as usize];
        let mut tags = [0u32; 128];
        for k in 0..KEYS {
            let h = hash_of(k << 20);
            low[(h % BUCKETS) as usize] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        let used = low.iter().filter(|&&n| n > 0).count() as u64;
        assert!(
            used > BUCKETS * 9 / 10,
            "only {used} of {BUCKETS} buckets used"
        );
        let fullest = *low.iter().max().expect("buckets");
        assert!(fullest <= 16, "{fullest} keys share one bucket");
        assert!(tags.iter().all(|&n| n > 0), "some 7-bit tags never occur");
    }

    #[test]
    fn maps_and_sets_work_through_the_aliases() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        let mut s: IdSet<u64> = IdSet::default();
        for k in 0..1_000u64 {
            m.insert(k << 20, k);
            s.insert(u64::MAX - k);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&(999 << 20)), Some(&999));
        assert!(s.contains(&(u64::MAX - 3)));
        assert!(!s.contains(&3));
    }
}
