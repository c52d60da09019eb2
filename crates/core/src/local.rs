//! `DB_local`: the crawler's local copy of the harvested database.
//!
//! Stores every harvested record (deduplicated by the source's record key),
//! and maintains incrementally the statistics the selection policies need:
//!
//! * `num(q, DB_local)` — per-value local match counts (Definition 2.5's
//!   harvest-rate numerator, equation 4.1's numerator),
//! * the local attribute-value graph's **exact degrees** (the greedy
//!   link-based policy of §3.2 ranks candidates by degree in `G_local`),
//! * the record list itself, over which the MMMI policy's batch
//!   mutual-information recomputation iterates (§3.3).

use dwc_model::hash::SeededState;
use dwc_model::{PackedLists, ValueId};
use std::collections::HashSet;

/// The crawler's local database and statistics table.
///
/// Records are held in a [`PackedLists`] arena (one flat allocation plus an
/// offset column) rather than one boxed slice per record: at paper scale the
/// per-record allocator overhead dominated the record bytes themselves.
///
/// The key and edge sets hash with [`SeededState`]: every harvested record
/// adds its whole clique of edges, so these sets take millions of inserts
/// per crawl, and each set's random seed keeps source keys and value ids
/// from colliding on purpose.
#[derive(Debug, Default)]
pub struct LocalDb {
    seen_keys: HashSet<u64, SeededState>,
    /// Source keys in insertion order, parallel to `records`.
    keys: Vec<u64>,
    records: PackedLists<ValueId>,
    value_count: Vec<u32>,
    degree: Vec<u32>,
    /// Packed undirected edge keys `(min << 32) | max` of `G_local`.
    edges: HashSet<u64, SeededState>,
}

impl LocalDb {
    /// An empty local database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of harvested records (`|DB_local|`).
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Whether the record with this source key has been harvested already.
    pub fn contains_key(&self, key: u64) -> bool {
        self.seen_keys.contains(&key)
    }

    /// `num(q, DB_local)`: local records containing `v`.
    #[inline]
    pub fn count(&self, v: ValueId) -> u32 {
        self.value_count.get(v.index()).copied().unwrap_or(0)
    }

    /// Degree of `v` in the local attribute-value graph `G_local`.
    #[inline]
    pub fn degree(&self, v: ValueId) -> u32 {
        self.degree.get(v.index()).copied().unwrap_or(0)
    }

    /// Number of distinct edges in `G_local`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The harvested records (sorted, deduplicated value-id sets).
    pub fn records(&self) -> impl Iterator<Item = &[ValueId]> {
        self.records.iter()
    }

    /// Records inserted at or after index `start` (records are append-only,
    /// so `start = previous num_records()` iterates exactly the new ones).
    pub fn records_since(&self, start: usize) -> impl Iterator<Item = &[ValueId]> {
        self.records.iter_since(start)
    }

    /// `(source key, values)` pairs in insertion order (checkpointing).
    pub fn iter_keyed(&self) -> impl Iterator<Item = (u64, &[ValueId])> {
        self.keys.iter().copied().zip(self.records.iter())
    }

    /// `(source key, values)` pairs inserted at or after index `start` — the
    /// incremental flavor of [`LocalDb::iter_keyed`] the state journal uses
    /// to frame only what a delta added.
    pub fn keyed_since(&self, start: usize) -> impl Iterator<Item = (u64, &[ValueId])> {
        let start = start.min(self.keys.len());
        self.keys[start..].iter().copied().zip(self.records.iter_since(start))
    }

    /// Heap bytes held by the record arena, the key/statistics columns and
    /// the key and edge sets (capacity-based, matching what RSS accounting
    /// sees). A set slot costs its `u64` entry plus one control byte.
    pub fn heap_bytes(&self) -> usize {
        let set_slot = std::mem::size_of::<u64>() + 1;
        self.records.heap_bytes()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + self.value_count.capacity() * std::mem::size_of::<u32>()
            + self.degree.capacity() * std::mem::size_of::<u32>()
            + (self.seen_keys.capacity() + self.edges.capacity()) * set_slot
    }

    /// Inserts a record if its key is new. `values` are crawler-vocabulary
    /// ids. Returns `true` when the record was new (a *harvested* record in
    /// the paper's sense; duplicates are the waste the policies minimize).
    pub fn insert(&mut self, key: u64, mut values: Vec<ValueId>) -> bool {
        if !self.seen_keys.insert(key) {
            return false;
        }
        values.sort_unstable();
        values.dedup();
        let max_idx = values.last().map_or(0, |v| v.index());
        if max_idx >= self.value_count.len() {
            self.value_count.resize(max_idx + 1, 0);
            self.degree.resize(max_idx + 1, 0);
        }
        for &v in &values {
            self.value_count[v.index()] += 1;
        }
        // Update exact local-graph degrees: each new clique edge bumps both
        // endpoints.
        for (i, &a) in values.iter().enumerate() {
            for &b in &values[i + 1..] {
                let packed = (u64::from(a.0) << 32) | u64::from(b.0);
                if self.edges.insert(packed) {
                    self.degree[a.index()] += 1;
                    self.degree[b.index()] += 1;
                }
            }
        }
        self.keys.push(key);
        self.records.push(&values);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> ValueId {
        ValueId(x)
    }

    #[test]
    fn insert_dedups_by_key() {
        let mut db = LocalDb::new();
        assert!(db.insert(1, vec![v(0), v(1)]));
        assert!(!db.insert(1, vec![v(0), v(1)]));
        assert_eq!(db.num_records(), 1);
        assert!(db.contains_key(1));
        assert!(!db.contains_key(2));
    }

    #[test]
    fn counts_accumulate() {
        let mut db = LocalDb::new();
        db.insert(1, vec![v(0), v(1)]);
        db.insert(2, vec![v(0), v(2)]);
        assert_eq!(db.count(v(0)), 2);
        assert_eq!(db.count(v(1)), 1);
        assert_eq!(db.count(v(9)), 0);
    }

    #[test]
    fn degrees_match_local_graph() {
        let mut db = LocalDb::new();
        // Two records sharing v0: G_local = triangle-ish.
        db.insert(1, vec![v(0), v(1)]);
        db.insert(2, vec![v(0), v(2)]);
        assert_eq!(db.degree(v(0)), 2);
        assert_eq!(db.degree(v(1)), 1);
        assert_eq!(db.degree(v(2)), 1);
        assert_eq!(db.num_edges(), 2);
        // Re-observing the same edge through another record adds nothing.
        db.insert(3, vec![v(0), v(1)]);
        assert!(!db.insert(3, vec![v(0), v(1)]));
        assert_eq!(db.degree(v(0)), 2);
        assert_eq!(db.num_edges(), 2);
    }

    #[test]
    fn record_values_dedup_within_record() {
        let mut db = LocalDb::new();
        db.insert(7, vec![v(3), v(3), v(1)]);
        assert_eq!(db.count(v(3)), 1);
        let rec: Vec<_> = db.records().next().unwrap().to_vec();
        assert_eq!(rec, vec![v(1), v(3)]);
    }

    #[test]
    fn clique_edges_from_larger_record() {
        let mut db = LocalDb::new();
        db.insert(1, vec![v(0), v(1), v(2), v(3)]);
        assert_eq!(db.num_edges(), 6, "C(4,2) clique edges");
        for i in 0..4 {
            assert_eq!(db.degree(v(i)), 3);
        }
    }

    #[test]
    fn keyed_since_yields_the_new_tail() {
        let mut db = LocalDb::new();
        db.insert(10, vec![v(0)]);
        let mark = db.num_records();
        db.insert(11, vec![v(2), v(1)]);
        let tail: Vec<(u64, Vec<ValueId>)> =
            db.keyed_since(mark).map(|(k, r)| (k, r.to_vec())).collect();
        assert_eq!(tail, vec![(11, vec![v(1), v(2)])]);
        assert_eq!(db.keyed_since(99).count(), 0);
        assert!(db.heap_bytes() > 0);
    }

    #[test]
    fn empty_record_is_counted_but_harmless() {
        let mut db = LocalDb::new();
        assert!(db.insert(5, vec![]));
        assert_eq!(db.num_records(), 1);
        assert_eq!(db.num_edges(), 0);
    }

    #[test]
    fn heap_bytes_counts_the_edge_set() {
        let mut db = LocalDb::new();
        db.insert(0, vec![v(0), v(1)]);
        let mut last = db.heap_bytes();
        let mut grew = 0;
        // Each record is 8 new values plus v0: a 9-clique of 36 new edges,
        // so the edge set outgrows the columns many times over.
        for key in 1..200u32 {
            let values: Vec<ValueId> = (0..8).map(|i| v(key * 8 + i)).chain([v(0)]).collect();
            db.insert(u64::from(key), values);
            let now = db.heap_bytes();
            assert!(now >= last, "heap_bytes shrank from {last} to {now}");
            grew += usize::from(now > last);
            last = now;
        }
        let set_slot = std::mem::size_of::<u64>() + 1;
        assert!(db.num_edges() > 7_000);
        assert!(last >= db.num_edges() * set_slot, "{last} bytes for {} edges", db.num_edges());
        assert!(grew > 10, "heap_bytes grew on only {grew} of 199 inserts");
    }

    mod parity {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// A value id: mostly from a small pool, so records share values and
        /// edges, sometimes anywhere below 2^20.
        fn value() -> impl Strategy<Value = u32> {
            prop_oneof![0u32..24, 0u32..24, 0u32..(1 << 20)]
        }

        /// A record stream: keys from a small pool (so some repeat), records
        /// of 0–9 values (so some are empty and some repeat a value).
        fn stream() -> impl Strategy<Value = Vec<(u64, Vec<u32>)>> {
            prop::collection::vec((0u64..48, prop::collection::vec(value(), 0..10)), 0..60)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Counts, degrees and the edge total match a reference built
            /// from ordered sets.
            #[test]
            fn local_db_matches_an_ordered_set_reference(records in stream()) {
                let mut db = LocalDb::new();
                let mut keys = BTreeSet::new();
                let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
                let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
                for (key, values) in &records {
                    let new = keys.insert(*key);
                    prop_assert_eq!(db.insert(*key, values.iter().map(|&x| v(x)).collect()), new);
                    if !new {
                        continue;
                    }
                    let distinct: BTreeSet<u32> = values.iter().copied().collect();
                    for &a in &distinct {
                        *counts.entry(a).or_insert(0) += 1;
                        for &b in distinct.range(a + 1..) {
                            edges.insert((a, b));
                        }
                    }
                }
                let mut degrees: BTreeMap<u32, u32> = BTreeMap::new();
                for &(a, b) in &edges {
                    *degrees.entry(a).or_insert(0) += 1;
                    *degrees.entry(b).or_insert(0) += 1;
                }
                prop_assert_eq!(db.num_records(), keys.len());
                prop_assert_eq!(db.num_edges(), edges.len());
                let probes = records.iter().flat_map(|(_, vs)| vs.iter().copied()).chain([1 << 20]);
                for x in probes {
                    prop_assert_eq!(db.count(v(x)), counts.get(&x).copied().unwrap_or(0));
                    prop_assert_eq!(db.degree(v(x)), degrees.get(&x).copied().unwrap_or(0));
                }
                for &key in &keys {
                    prop_assert!(db.contains_key(key));
                }
            }
        }
    }
}
