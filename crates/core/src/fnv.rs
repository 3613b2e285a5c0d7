//! The one hasher of the engine's small fixed-size map keys.
//!
//! The request path probes several maps per acquisition — RAG owner and
//! lock nodes, outer-position links, per-owner routes, pointer-keyed
//! position lookups, the runtime's thread-local route and site caches. Their
//! keys are one or two machine words (ids, addresses), where the default
//! SipHash costs more than the probe itself. FNV-1a folded a word at a
//! time is a handful of multiplies and is deterministic across runs. It is
//! not DoS-resistant, which is fine: none of these maps holds
//! attacker-chosen keys.

use crate::callstack::{fnv1a, FNV_OFFSET, FNV_PRIME};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a hasher: byte-wise over arbitrary bytes, one multiply per word for
/// integer writes.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl FnvHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // Fold the high half down: hash tables index by the low bits, which
        // a single multiply leaves dependent on the low bits of the key only.
        self.0 ^ (self.0 >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.word(i as u64);
    }
}

/// Builder of [`FnvHasher`]s, for `HashMap::with_hasher` and friends.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed through [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockId, OwnerId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FnvBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_owner_kinds() {
        assert_eq!(hash_of(LockId::new(7)), hash_of(LockId::new(7)));
        assert_ne!(hash_of(LockId::new(7)), hash_of(LockId::new(8)));
        assert_ne!(hash_of(OwnerId::thread(1)), hash_of(OwnerId::task(1)));
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        let buckets: std::collections::HashSet<u64> =
            (0..64u64).map(|i| hash_of(LockId::new(i)) & 63).collect();
        assert!(
            buckets.len() > 32,
            "only {} of 64 buckets used",
            buckets.len()
        );
    }
}
