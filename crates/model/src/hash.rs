//! Seeded fold-multiply hashing, shared by every hash table on the crawler's
//! per-record and per-batch paths.
//!
//! The keys hashed here come from crawled pages: value strings, source
//! record keys and value-id pairs. Crawled pages are untrusted, so every
//! hasher starts from a random seed and mixes each 8-byte word in with one
//! 64×64→128-bit multiply folded back to 64 bits (`mix`). A page cannot
//! choose keys that collide without knowing the seed, and regular key
//! families (ids in sequence, packed pairs, multiples of a power of two)
//! spread over both the low bits a table indexes with and the top bits that
//! std's SwissTable keeps as control bytes.
//!
//! There are two entry points over the one mixer:
//!
//! * [`crate::ValueInterner`] hashes `(attribute, string)` pairs with `mix`
//!   and `fold_bytes` under a seed it stores in its packed image, because
//!   its own probe table keeps the hashes;
//! * [`SeededState`] is the [`BuildHasher`] behind the std maps and sets on
//!   the crawler's hot loops (`G_local` edge upkeep, the MMMI batch
//!   recompute, the conjunctive co-occurrence index). Each instance draws
//!   its own seed.
//!
//! Hash values are not stable across seeds, so no result may depend on a
//! hash value or on a map's iteration order.

use std::hash::{BuildHasher, Hasher};

/// Multiplier of the per-word fold (the 64-bit FxHash constant). Not
/// cryptographic — chosen for throughput on short identifier-like keys.
const FOLD_MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fibonacci-hashing multiplier: 2^64 divided by the golden ratio.
pub(crate) const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes one 8-byte word into the hash state: a full 64×64→128-bit multiply
/// folded back to 64 bits by XOR-ing its halves. Unlike a plain
/// multiply-xor step, flipping input bits changes the output by an amount
/// that depends on the (seeded) state, so there is no fixed bit difference
/// between two keys that collides under every seed.
#[inline]
pub(crate) fn mix(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * u128::from(FOLD_MUL);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Folds `bytes` into `state` eight bytes per [`mix`], zero-padding a
/// trailing partial word. The padding makes `"a"` and `"a\0"` fold alike, so
/// callers mix the length in first.
#[inline]
pub(crate) fn fold_bytes(mut state: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        state = mix(state, word);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = [0u8; 8];
        word[..rem.len()].copy_from_slice(rem);
        state = mix(state, u64::from_le_bytes(word));
    }
    state
}

/// A fresh random hash seed, drawn from the standard library's per-process
/// random keys (each `RandomState` also differs from the last one built).
pub(crate) fn random_seed() -> u64 {
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(0);
    hasher.finish()
}

/// A [`BuildHasher`] for std's `HashMap` and `HashSet` that hashes with the
/// fold-multiply mixer from a seed of its own. `Default` draws a fresh
/// random seed; `Clone` keeps it, so a clone hashes every key the same way.
#[derive(Debug, Clone)]
pub struct SeededState {
    seed: u64,
}

impl Default for SeededState {
    fn default() -> Self {
        SeededState { seed: random_seed() }
    }
}

impl BuildHasher for SeededState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// The streaming hasher built by [`SeededState`]: one fold-multiply per
/// `u32` or `u64` written, and one per eight bytes of a byte string (other
/// integers arrive through `write`).
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.state = fold_bytes(mix(self.state, bytes.len() as u64), bytes);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix(self.state, i);
    }

    /// The state times 2^64 divided by the golden ratio (Fibonacci
    /// hashing). The folded state's top bits barely move between keys that
    /// differ only in their low bits: the fold multiplier is 2^64/π, and its
    /// multiples nearly repeat every 355 steps. The Fibonacci multiply
    /// spreads every bit of the state into the top bits that SwissTable
    /// keeps as control bytes, and keeps the low bits a bijection of the
    /// state's low bits. Being a bijection, it adds no collision.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.wrapping_mul(FIB_MUL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys per family: four per bucket of a 2^12-bucket table on average.
    const KEYS: u64 = 1 << 14;
    const BUCKETS: usize = 1 << 12;
    /// Most keys any one of the 2^12 buckets may take. A uniform hash puts
    /// Poisson(4) keys in each; over 300 seeds its fullest bucket held at
    /// most 19. Without the Fibonacci finish, the top 12 bits of three
    /// families here put 26 keys in one bucket, and a family that collapses
    /// onto a few bits of the hash fills buckets by the hundreds.
    const MAX_BUCKET_LOAD: usize = 24;
    /// Most keys any one of the 128 values of the top 7 bits (SwissTable's
    /// control tag) may take: twice the uniform mean of 2^14 / 128 = 128.
    const MAX_TAG_LOAD: usize = 256;

    fn max_load(hashes: &[u64], bucket_of: impl Fn(u64) -> usize, buckets: usize) -> usize {
        let mut load = vec![0usize; buckets];
        for &h in hashes {
            load[bucket_of(h)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// Asserts that one key family spreads under several seeds, over the low
    /// bits (the bucket index) and the top 7 bits (the control tag).
    fn assert_spreads<K: std::hash::Hash>(family: &str, keys: impl Fn(u64) -> K) {
        for seed in 0..8u64 {
            let state = SeededState { seed: mix(seed, 0x5eed) };
            let hashes: Vec<u64> = (0..KEYS).map(|i| state.hash_one(keys(i))).collect();
            let low = max_load(&hashes, |h| (h as usize) & (BUCKETS - 1), BUCKETS);
            assert!(
                low <= MAX_BUCKET_LOAD,
                "{family}: low bits put {low} keys in one of {BUCKETS} buckets (seed {seed})"
            );
            let high = max_load(&hashes, |h| (h >> 52) as usize, BUCKETS);
            assert!(
                high <= MAX_BUCKET_LOAD,
                "{family}: top 12 bits put {high} keys in one of {BUCKETS} buckets (seed {seed})"
            );
            let tag = max_load(&hashes, |h| (h >> 57) as usize, 128);
            assert!(
                tag <= MAX_TAG_LOAD,
                "{family}: {tag} keys share one of 128 control tags (seed {seed})"
            );
        }
    }

    #[test]
    fn structured_key_families_spread_over_index_and_tag_bits() {
        assert_spreads("k << 32", |k| k << 32);
        assert_spreads("hub edge (7 << 32) | b", |b| (7u64 << 32) | b);
        assert_spreads("sequential", |k| k);
        assert_spreads("multiples of 2^20", |k| k << 20);
        assert_spreads("(u32, u32) with the first fixed", |b| (7u32, b as u32));
        assert_spreads("(u32, u32) with the second fixed", |a| (a as u32, 7u32));
    }

    #[test]
    fn each_state_draws_its_own_seed() {
        let (a, b) = (SeededState::default(), SeededState::default());
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(a.hash_one((1u32, 2u32)), b.hash_one((1u32, 2u32)));
        let c = a.clone();
        assert_eq!(a.hash_one(42u64), c.hash_one(42u64), "a clone keeps the seed");
    }

    #[test]
    fn byte_writes_distinguish_length_from_zero_padding() {
        let state = SeededState::default();
        assert_ne!(state.hash_one(b"a".as_slice()), state.hash_one(b"a\0".as_slice()));
        let mut a = state.build_hasher();
        a.write(b"a");
        let mut b = state.build_hasher();
        b.write(b"a\0");
        assert_ne!(a.finish(), b.finish());
    }
}
