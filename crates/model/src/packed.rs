//! Packed value encoding: offset-indexed list arenas.
//!
//! The crawler's local database and the out-of-core segment layer both store
//! millions of short `ValueId` lists. One heap allocation per list (the
//! obvious `Vec<Box<[T]>>`) costs 16–32 bytes of allocator overhead per
//! record and scatters the lists across the heap; [`PackedLists`] instead
//! packs every element into one flat arena with a parallel column of
//! end offsets — the same encoding `dwc-store` writes to disk, kept here so
//! the resident and paged representations are literally the same bytes.

use std::fmt;

/// FNV-1a 64-bit hash over a byte slice — the framing checksum used by the
/// interner spill format, the crawl checkpoint format, and the frame log.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A growable collection of variable-length lists packed into one arena.
///
/// List `i` spans `data[offsets[i-1] .. offsets[i]]` (with `offsets[-1]`
/// implicitly `0`): two `Vec`s total, regardless of how many lists are
/// stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLists<T> {
    /// End offset of each list in `data`.
    offsets: Vec<u64>,
    /// All elements, concatenated in insertion order.
    data: Vec<T>,
}

// Manual impl: an empty collection needs no `T: Default`.
impl<T> Default for PackedLists<T> {
    fn default() -> Self {
        PackedLists { offsets: Vec::new(), data: Vec::new() }
    }
}

impl<T: Copy> PackedLists<T> {
    /// An empty collection.
    pub fn new() -> Self {
        PackedLists { offsets: Vec::new(), data: Vec::new() }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether no lists have been pushed.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Total elements across all lists.
    pub fn total_elems(&self) -> usize {
        self.data.len()
    }

    /// Appends one list, returning its index.
    pub fn push(&mut self, elems: &[T]) -> usize {
        self.data.extend_from_slice(elems);
        self.offsets.push(self.data.len() as u64);
        self.offsets.len() - 1
    }

    /// The elements of list `i`.
    pub fn get(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.offsets[i - 1] as usize };
        &self.data[start..self.offsets[i] as usize]
    }

    /// Iterates all lists in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Iterates lists `start..len()` — the "what arrived since the last
    /// snapshot" view the state journal uses.
    pub fn iter_since(&self, start: usize) -> impl Iterator<Item = &[T]> + '_ {
        (start.min(self.len())..self.len()).map(move |i| self.get(i))
    }

    /// Heap bytes held by the arena and offset columns (capacity, not just
    /// length — this is the number RSS accounting sees).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.data.capacity() * std::mem::size_of::<T>()
    }
}

/// Errors decoding a packed byte image (interner spill, segment metadata).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedError {
    /// The image ended before its declared contents.
    Truncated,
    /// The magic header did not match.
    Magic,
    /// The trailing checksum did not match the payload.
    Checksum,
    /// String data was not valid UTF-8.
    Utf8,
    /// Internal lengths were inconsistent.
    Layout,
}

impl fmt::Display for PackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedError::Truncated => write!(f, "packed image truncated"),
            PackedError::Magic => write!(f, "packed image has wrong magic header"),
            PackedError::Checksum => write!(f, "packed image failed its checksum"),
            PackedError::Utf8 => write!(f, "packed image holds invalid UTF-8"),
            PackedError::Layout => write!(f, "packed image layout is inconsistent"),
        }
    }
}

impl std::error::Error for PackedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trips() {
        let mut p: PackedLists<u32> = PackedLists::new();
        assert!(p.is_empty());
        assert_eq!(p.push(&[1, 2, 3]), 0);
        assert_eq!(p.push(&[]), 1);
        assert_eq!(p.push(&[9]), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.total_elems(), 4);
        assert_eq!(p.get(0), &[1, 2, 3]);
        assert_eq!(p.get(1), &[] as &[u32]);
        assert_eq!(p.get(2), &[9]);
        let all: Vec<&[u32]> = p.iter().collect();
        assert_eq!(all, vec![&[1u32, 2, 3][..], &[][..], &[9][..]]);
    }

    #[test]
    fn iter_since_yields_the_suffix() {
        let mut p: PackedLists<u8> = PackedLists::new();
        p.push(&[1]);
        p.push(&[2, 2]);
        p.push(&[3]);
        let tail: Vec<&[u8]> = p.iter_since(1).collect();
        assert_eq!(tail, vec![&[2u8, 2][..], &[3][..]]);
        assert_eq!(p.iter_since(7).count(), 0);
    }

    #[test]
    fn heap_bytes_tracks_capacity() {
        let mut p: PackedLists<u32> = PackedLists::new();
        assert_eq!(p.heap_bytes(), 0);
        p.push(&[1, 2, 3, 4]);
        assert!(p.heap_bytes() >= 4 * 4 + 8);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
