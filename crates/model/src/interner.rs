//! Attribute-qualified string interning.
//!
//! Every distinct attribute value — e.g. `(Actor, "Hanks, Tom")` — is interned
//! once and referred to by a compact [`ValueId`] everywhere else (table,
//! graph, server postings, crawler frontier). Values are qualified by their
//! attribute, so `(Title, "Alien")` and `(Keyword, "Alien")` are distinct
//! vertices, matching Definition 2.1's distinct attribute value set `DAV`.
//!
//! The interner is built for the per-page hot path: all value bytes live in
//! one arena `String` (one `(offset, len)` span per value instead of one heap
//! allocation per value), every value's hash is stored so rehashing on table
//! growth never touches the strings, and the lookup table is a flat
//! open-addressing array probed with that same stored hash. Each string is
//! hashed exactly once per sighting, whether it comes through
//! [`ValueInterner::intern`], [`ValueInterner::get`] or the batch
//! [`ValueInterner::intern_page`].
//!
//! Interned strings come from crawled pages, and crawled pages are untrusted.
//! Each interner draws a random seed when it is created and hashes with the
//! shared seeded mixer of [`crate::hash`], so a page cannot pick keys that
//! collide without knowing that seed. Probing then starts from
//! the hash's high bits (Fibonacci hashing), so keys that differ only in a
//! few bytes still land far apart. Together they keep interning linear-time
//! on regular-looking and hostile key sets alike;
//! [`ValueInterner::max_probe_len`] reports the longest probe the table has
//! needed. The seed travels in the packed image, so a reloaded interner
//! resolves every id it held. Ids never depend on the seed: they are
//! assigned in insertion order.

use crate::hash::{fold_bytes, mix, random_seed, FIB_MUL};
use std::fmt;

/// Identifier of an attribute (column) in the universal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

/// Identifier of a distinct attribute value (a vertex of the AVG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Seeded hash of an `(attribute, string)` pair, folding eight bytes per
/// multiply. The length and attribute open the state, so the zero padding of
/// a trailing partial word never makes `"a"` and `"a\0"` collide.
#[inline]
fn value_hash(seed: u64, attr: AttrId, value: &str) -> u64 {
    let bytes = value.as_bytes();
    fold_bytes(mix(seed, ((bytes.len() as u64) << 16) | u64::from(attr.0)), bytes)
}

/// The slot a probe for `hash` starts at, in a table of `slots` slots (a
/// power of two, at least 2): Fibonacci hashing, which takes the top
/// `log2(slots)` bits of `hash * FIB_MUL`, so every bit of the hash moves
/// the start.
#[inline]
fn home_slot(hash: u64, slots: usize) -> usize {
    (hash.wrapping_mul(FIB_MUL) >> (64 - slots.trailing_zeros())) as usize
}

/// Vacant-slot sentinel in the open-addressing table. `u32::MAX` can never be
/// a live id because `intern` panics before the id space reaches it.
const EMPTY_SLOT: u32 = u32::MAX;

/// Interner mapping `(attribute, string)` pairs to dense [`ValueId`]s.
///
/// Storage is a single byte arena plus parallel per-id columns (span, attr,
/// hash); lookups probe a flat power-of-two open-addressing table with
/// stored hashes, so probing with a borrowed `&str` never allocates and
/// growth never rehashes a string.
#[derive(Debug, Clone)]
pub struct ValueInterner {
    /// All value bytes, concatenated in insertion order.
    arena: String,
    /// `(offset, len)` into `arena`, one per [`ValueId`].
    spans: Vec<(u32, u32)>,
    /// Owning attribute, one per [`ValueId`].
    attrs: Vec<AttrId>,
    /// Stored seeded hash, one per [`ValueId`].
    hashes: Vec<u64>,
    /// Open-addressing table of id indices (power-of-two length, linear
    /// probing from [`home_slot`], [`EMPTY_SLOT`] = vacant). Empty until the
    /// first intern; only ever replaced whole, by [`ValueInterner::rebuild_slots`].
    slots: Box<[u32]>,
    /// One past the highest attribute slot seen, for keyword scans.
    num_attrs: u32,
    /// Slots examined by the longest probe that placed an id in `slots`.
    max_probe: u32,
    /// This interner's hash seed, drawn once at creation.
    seed: u64,
}

impl Default for ValueInterner {
    fn default() -> Self {
        Self::with_seed(random_seed())
    }
}

impl ValueInterner {
    /// Creates an empty interner with a fresh random hash seed.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_seed(seed: u64) -> Self {
        ValueInterner {
            arena: String::new(),
            spans: Vec::new(),
            attrs: Vec::new(),
            hashes: Vec::new(),
            slots: Box::default(),
            num_attrs: 0,
            max_probe: 0,
            seed,
        }
    }

    /// Interns `(attr, value)`, returning the existing id when already known.
    /// The one hash drives both the lookup probe and, on a miss, the
    /// insertion.
    pub fn intern(&mut self, attr: AttrId, value: &str) -> ValueId {
        let hash = value_hash(self.seed, attr, value);
        if self.slots.is_empty() || (self.spans.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow_slots();
        }
        let mask = self.slots.len() - 1;
        let mut probe = home_slot(hash, self.slots.len());
        let mut examined = 1;
        loop {
            let slot = self.slots[probe];
            if slot == EMPTY_SLOT {
                let id = ValueId(
                    u32::try_from(self.spans.len()).expect("more than u32::MAX distinct values"),
                );
                let offset = u32::try_from(self.arena.len()).expect("arena exceeds u32 offsets");
                let len = u32::try_from(value.len()).expect("value exceeds u32 length");
                self.arena.push_str(value);
                self.spans.push((offset, len));
                self.attrs.push(attr);
                self.hashes.push(hash);
                self.slots[probe] = id.0;
                self.num_attrs = self.num_attrs.max(u32::from(attr.0) + 1);
                self.max_probe = self.max_probe.max(examined);
                return id;
            }
            let idx = slot as usize;
            if self.hashes[idx] == hash && self.attrs[idx] == attr && self.span_str(idx) == value {
                return ValueId(slot);
            }
            probe = (probe + 1) & mask;
            examined += 1;
        }
    }

    /// Looks up an already-interned value without inserting.
    pub fn get(&self, attr: AttrId, value: &str) -> Option<ValueId> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = value_hash(self.seed, attr, value);
        let mask = self.slots.len() - 1;
        let mut probe = home_slot(hash, self.slots.len());
        loop {
            let slot = self.slots[probe];
            if slot == EMPTY_SLOT {
                return None;
            }
            let idx = slot as usize;
            if self.hashes[idx] == hash && self.attrs[idx] == attr && self.span_str(idx) == value {
                return Some(ValueId(slot));
            }
            probe = (probe + 1) & mask;
        }
    }

    /// Batch-interns one page's `(attr, value)` fields, appending the
    /// resulting ids to `out` in field order. Each field string is hashed
    /// exactly once, with the hash reused across the table probe and any
    /// insertion — the entry point the Ingestor stage uses so page ingestion
    /// never double-hashes or allocates for already-known values.
    pub fn intern_page<'a, I>(&mut self, fields: I, out: &mut Vec<ValueId>)
    where
        I: IntoIterator<Item = (AttrId, &'a str)>,
    {
        for (attr, value) in fields {
            out.push(self.intern(attr, value));
        }
    }

    /// Looks up a bare string across all attributes (the keyword-interface
    /// view of Section 2.2's "fading schema"): returns every value id whose
    /// string equals `value`, regardless of attribute.
    pub fn get_keyword(&self, value: &str) -> Vec<ValueId> {
        (0..self.num_attrs).filter_map(|a| self.get(AttrId(a as u16), value)).collect()
    }

    /// The string form of a value.
    pub fn value_str(&self, id: ValueId) -> &str {
        self.span_str(id.index())
    }

    /// The attribute a value belongs to.
    pub fn attr_of(&self, id: ValueId) -> AttrId {
        self.attrs[id.index()]
    }

    /// Number of distinct attribute values interned so far (|DAV|).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The most slots any probe has examined to place an id in the current
    /// table: 1 when every id sits at its home slot, 0 when empty. Tracked on
    /// every insert and recomputed on every table rebuild. Looking up an
    /// interned value retraces its placement, so it examines at most this
    /// many slots.
    pub fn max_probe_len(&self) -> usize {
        self.max_probe as usize
    }

    /// Iterates all interned ids in insertion order.
    pub fn iter_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.spans.len() as u32).map(ValueId)
    }

    /// All value ids belonging to `attr` (linear scan; intended for analysis,
    /// not hot paths).
    pub fn ids_of_attr(&self, attr: AttrId) -> Vec<ValueId> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == attr)
            .map(|(i, _)| ValueId(i as u32))
            .collect()
    }

    #[inline]
    fn span_str(&self, idx: usize) -> &str {
        let (offset, len) = self.spans[idx];
        &self.arena[offset as usize..(offset + len) as usize]
    }

    /// Doubles the slot table (min 16) and re-places every id from its stored
    /// hash — growth never re-reads, let alone rehashes, the arena.
    fn grow_slots(&mut self) {
        self.rebuild_slots((self.slots.len() * 2).max(16));
    }

    /// Rebuilds the probe table at exactly `new_len` slots (a power of two)
    /// from the stored hash column.
    fn rebuild_slots(&mut self, new_len: usize) {
        self.slots = vec![EMPTY_SLOT; new_len].into_boxed_slice();
        let mask = new_len - 1;
        let mut max_probe = 0;
        for (idx, &hash) in self.hashes.iter().enumerate() {
            let mut probe = home_slot(hash, new_len);
            let mut examined = 1;
            while self.slots[probe] != EMPTY_SLOT {
                probe = (probe + 1) & mask;
                examined += 1;
            }
            self.slots[probe] = idx as u32;
            max_probe = max_probe.max(examined);
        }
        self.max_probe = max_probe;
    }
}

/// Magic header of the packed interner image. Version 2 carries the hash
/// seed; version 1 images hashed without one and cannot be reloaded.
const SPILL_MAGIC: &[u8; 8] = b"DWCINTR2";

/// Bytes before the arena: magic, seed, attribute count, value count, arena
/// length.
const SPILL_HEADER: usize = 8 + 8 + 4 + 8 + 8;

impl ValueInterner {
    /// Serializes the interner to a packed byte image: the hash seed, arena
    /// bytes and the span-length / attribute / **stored hash** columns, with
    /// an FNV-1a checksum trailer. Because the seed and hashes travel with
    /// the image, [`ValueInterner::from_packed_bytes`] rebuilds the probe
    /// table without ever rehashing a string — spilling and reloading a
    /// multi-million value interner costs one sequential pass each way.
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let n = self.spans.len();
        let mut out = Vec::with_capacity(SPILL_HEADER + self.arena.len() + n * 14 + 8);
        out.extend_from_slice(SPILL_MAGIC);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.num_attrs.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(self.arena.len() as u64).to_le_bytes());
        out.extend_from_slice(self.arena.as_bytes());
        for &(_, len) in &self.spans {
            out.extend_from_slice(&len.to_le_bytes());
        }
        for &attr in &self.attrs {
            out.extend_from_slice(&attr.0.to_le_bytes());
        }
        for &hash in &self.hashes {
            out.extend_from_slice(&hash.to_le_bytes());
        }
        let sum = crate::packed::fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Reloads a packed image produced by [`ValueInterner::to_packed_bytes`].
    /// Ids, strings, attributes, hashes and the seed come back identical;
    /// the probe table is re-placed from the stored hashes (no string is
    /// rehashed).
    pub fn from_packed_bytes(bytes: &[u8]) -> Result<Self, crate::packed::PackedError> {
        use crate::packed::PackedError;
        if bytes.len() < SPILL_HEADER + 8 {
            return Err(PackedError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if crate::packed::fnv1a64(payload) != sum {
            return Err(PackedError::Checksum);
        }
        if &payload[..8] != SPILL_MAGIC {
            return Err(PackedError::Magic);
        }
        let seed = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let num_attrs = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
        let count = u64::from_le_bytes(payload[20..28].try_into().expect("8 bytes")) as usize;
        let arena_len = u64::from_le_bytes(payload[28..36].try_into().expect("8 bytes")) as usize;
        let body = &payload[SPILL_HEADER..];
        let need = arena_len
            .checked_add(count.checked_mul(14).ok_or(PackedError::Layout)?)
            .ok_or(PackedError::Layout)?;
        if body.len() != need {
            return Err(PackedError::Truncated);
        }
        let (arena_bytes, cols) = body.split_at(arena_len);
        let arena = String::from_utf8(arena_bytes.to_vec()).map_err(|_| PackedError::Utf8)?;
        let (len_col, cols) = cols.split_at(count * 4);
        let (attr_col, hash_col) = cols.split_at(count * 2);
        let mut spans = Vec::with_capacity(count);
        let mut offset = 0u64;
        for c in len_col.chunks_exact(4) {
            let len = u32::from_le_bytes(c.try_into().expect("4 bytes"));
            let start = u32::try_from(offset).map_err(|_| PackedError::Layout)?;
            spans.push((start, len));
            offset += u64::from(len);
        }
        if offset != arena_len as u64 {
            return Err(PackedError::Layout);
        }
        // Span boundaries must fall on UTF-8 character boundaries.
        if spans.iter().any(|&(s, _)| !arena.is_char_boundary(s as usize)) {
            return Err(PackedError::Layout);
        }
        let attrs: Vec<AttrId> = attr_col
            .chunks_exact(2)
            .map(|c| AttrId(u16::from_le_bytes(c.try_into().expect("2 bytes"))))
            .collect();
        let hashes: Vec<u64> = hash_col
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let mut it =
            ValueInterner { arena, spans, attrs, hashes, num_attrs, ..Self::with_seed(seed) };
        if count > 0 {
            let mut slots_len = 16usize;
            while (count + 1) * 8 > slots_len * 7 {
                slots_len *= 2;
            }
            it.rebuild_slots(slots_len);
        }
        Ok(it)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut it = ValueInterner::new();
        let a = it.intern(AttrId(0), "Hanks, Tom");
        let b = it.intern(AttrId(0), "Hanks, Tom");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn same_string_different_attr_is_distinct() {
        let mut it = ValueInterner::new();
        let a = it.intern(AttrId(0), "Alien");
        let b = it.intern(AttrId(1), "Alien");
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn roundtrip_string_and_attr() {
        let mut it = ValueInterner::new();
        let id = it.intern(AttrId(3), "IBM");
        assert_eq!(it.value_str(id), "IBM");
        assert_eq!(it.attr_of(id), AttrId(3));
    }

    #[test]
    fn get_does_not_insert() {
        let mut it = ValueInterner::new();
        assert_eq!(it.get(AttrId(0), "x"), None);
        let id = it.intern(AttrId(0), "x");
        assert_eq!(it.get(AttrId(0), "x"), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut it = ValueInterner::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| it.intern(AttrId(0), s)).collect();
        assert_eq!(ids, vec![ValueId(0), ValueId(1), ValueId(2)]);
        assert_eq!(it.iter_ids().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn ids_of_attr_filters() {
        let mut it = ValueInterner::new();
        it.intern(AttrId(0), "x");
        let b = it.intern(AttrId(1), "y");
        it.intern(AttrId(0), "z");
        assert_eq!(it.ids_of_attr(AttrId(1)), vec![b]);
    }

    #[test]
    fn intern_page_batches_in_field_order() {
        let mut it = ValueInterner::new();
        let mut out = Vec::new();
        it.intern_page(vec![(AttrId(0), "x"), (AttrId(1), "y"), (AttrId(0), "x")], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2], "repeat sightings reuse the id");
        assert_ne!(out[0], out[1]);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn keyword_lookup_spans_attributes() {
        let mut it = ValueInterner::new();
        let a = it.intern(AttrId(0), "Alien");
        let b = it.intern(AttrId(2), "Alien");
        it.intern(AttrId(1), "Aliens");
        assert_eq!(it.get_keyword("Alien"), vec![a, b]);
        assert!(it.get_keyword("Predator").is_empty());
    }

    #[test]
    fn survives_growth_across_many_values() {
        let mut it = ValueInterner::new();
        let ids: Vec<_> =
            (0..1000).map(|i| it.intern(AttrId((i % 5) as u16), &format!("val-{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(it.value_str(id), format!("val-{i}"));
            assert_eq!(it.attr_of(id), AttrId((i % 5) as u16));
            assert_eq!(it.get(AttrId((i % 5) as u16), &format!("val-{i}")), Some(id));
        }
        assert_eq!(it.len(), 1000);
    }

    #[test]
    fn packed_spill_round_trips_without_rehashing() {
        let mut it = ValueInterner::new();
        let ids: Vec<_> =
            (0..500).map(|i| it.intern(AttrId((i % 7) as u16), &format!("value-{i}-αβ"))).collect();
        let bytes = it.to_packed_bytes();
        let back = ValueInterner::from_packed_bytes(&bytes).unwrap();
        assert_eq!(back.len(), it.len());
        assert_eq!(back.seed, it.seed, "the seed travels with the image");
        assert_eq!(back.hashes, it.hashes, "hash column is preserved verbatim");
        assert_eq!(back.max_probe_len(), it.max_probe_len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(back.value_str(id), it.value_str(id));
            assert_eq!(back.attr_of(id), it.attr_of(id));
            assert_eq!(
                back.get(AttrId((i % 7) as u16), &format!("value-{i}-αβ")),
                Some(id),
                "probe table rebuilt from stored hashes resolves every id"
            );
        }
        // The reloaded interner keeps assigning ids exactly where the
        // original would.
        let mut a = it.clone();
        let mut b = back;
        assert_eq!(a.intern(AttrId(1), "brand new"), b.intern(AttrId(1), "brand new"));
    }

    #[test]
    fn packed_spill_rejects_corruption() {
        use crate::packed::PackedError;
        let mut it = ValueInterner::new();
        it.intern(AttrId(0), "x");
        let bytes = it.to_packed_bytes();
        assert!(matches!(
            ValueInterner::from_packed_bytes(&bytes[..5]),
            Err(PackedError::Truncated)
        ));
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(ValueInterner::from_packed_bytes(&flipped), Err(PackedError::Checksum)));
        // An image under another magic (e.g. the unseeded version 1) is
        // refused rather than probed with the wrong hash.
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old[..8].copy_from_slice(b"DWCINTR1");
        let sum = crate::packed::fnv1a64(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(ValueInterner::from_packed_bytes(&old), Err(PackedError::Magic)));
        let empty = ValueInterner::new().to_packed_bytes();
        let back = ValueInterner::from_packed_bytes(&empty).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn hash_distinguishes_length_from_zero_padding() {
        // The trailing partial word is zero-padded, so the length must be
        // mixed in to keep "a" and "a\0" distinct.
        let seed = random_seed();
        assert_ne!(value_hash(seed, AttrId(0), "a"), value_hash(seed, AttrId(0), "a\0"));
        assert_ne!(value_hash(seed, AttrId(0), ""), value_hash(seed, AttrId(0), "\0"));
    }

    #[test]
    fn each_interner_draws_its_own_seed() {
        let (a, b) = (ValueInterner::new(), ValueInterner::new());
        assert_ne!(a.seed, b.seed);
        assert_ne!(
            value_hash(a.seed, AttrId(0), "Attr_1"),
            value_hash(b.seed, AttrId(0), "Attr_1")
        );
    }

    #[test]
    fn max_probe_len_tracks_inserts_and_rebuilds() {
        let mut it = ValueInterner::new();
        assert_eq!(it.max_probe_len(), 0);
        it.intern(AttrId(0), "x");
        assert_eq!(it.max_probe_len(), 1, "the first id sits at its home slot");
        for i in 0..5_000 {
            it.intern(AttrId(1), &format!("Actor_{i}"));
        }
        let tracked = it.max_probe_len();
        it.rebuild_slots(it.slots.len());
        assert_eq!(it.max_probe_len(), tracked, "a rebuild in place re-places ids identically");
    }

    /// Keys that share their first two bytes share the low bits of a
    /// multiply-based hash, so a probe started from the low bits would put
    /// them all in one run.
    #[test]
    fn shared_prefix_keys_do_not_cluster() {
        let mut it = ValueInterner::new();
        for i in 0..1u32 << 16 {
            it.intern(AttrId(0), &format!("Ab{i:06x}"));
        }
        assert_eq!(it.len(), 1 << 16);
        // At this table's half load the longest probe is typically ~30 slots
        // (under 50 in 300 seeded runs); clustered keys would need ~2^15.
        let probe = it.max_probe_len();
        assert!(probe <= 128, "2^16 shared-prefix keys needed a {probe}-slot probe");
    }

    /// Two-word keys built to collide in the full 64-bit hash under one
    /// fixed seed: the second word is solved so the state entering the last
    /// fold is the same for every key.
    #[test]
    fn keys_colliding_under_one_seed_do_not_cluster_under_another() {
        const FIXED: u64 = 0x0123_4567_89ab_cdef;
        const TARGET: u64 = 0x2a2a_2a2a_2a2a_2a2a;
        const KEYS: usize = 2_048;
        let attr = AttrId(0);
        let mut keys = Vec::with_capacity(KEYS);
        let opening = mix(FIXED, (16 << 16) | u64::from(attr.0));
        for i in 0u64.. {
            let first = format!("{i:08}");
            let word = u64::from_le_bytes(first.as_bytes().try_into().unwrap());
            let second = mix(opening, word) ^ TARGET;
            // The solved word must be ASCII so the key is a valid string.
            if second & 0x8080_8080_8080_8080 == 0 {
                let tail = String::from_utf8(second.to_le_bytes().to_vec()).unwrap();
                keys.push(first + &tail);
                if keys.len() == KEYS {
                    break;
                }
            }
        }
        let collided = value_hash(FIXED, attr, &keys[0]);
        assert!(keys.iter().all(|k| value_hash(FIXED, attr, k) == collided));

        let mut fixed = ValueInterner::with_seed(FIXED);
        for k in &keys[..256] {
            fixed.intern(attr, k);
        }
        assert_eq!(fixed.max_probe_len(), 256, "under the fixed seed they form one run");

        let mut it = ValueInterner::new();
        for k in &keys {
            it.intern(attr, k);
        }
        assert_eq!(it.len(), KEYS);
        let probe = it.max_probe_len();
        assert!(probe <= 64, "{KEYS} keys colliding under another seed needed {probe} slots");
        assert!(keys.iter().enumerate().all(|(i, k)| it.get(attr, k) == Some(ValueId(i as u32))));
    }
}
