//! The one fault schedule behind both injection layers.
//!
//! A [`Schedule`] maps 1-based indices to fault kinds. Two decorators
//! execute one:
//!
//! * [`crate::fault::FaultPlanSource`] counts **requests** — a
//!   [`crate::FaultPlan`] is a `Schedule<FaultKind>`;
//! * the [`crate::serve::Connection`] / [`crate::serve::ClientPool`] chaos
//!   wire counts **wire frames** — a [`crate::ChaosPlan`] is a
//!   `Schedule<ChaosKind>`.
//!
//! Either way the decorator arms the schedule ([`Armed`]): one shared atomic
//! cursor hands out indices, so clones of a decorator (a supervisor's handle
//! and its worker's, a pool's connections) walk one stream, and per-variant
//! counters record what fired ([`Tally`]). When a schedule makes a run fail,
//! [`shrink_plan`] ddmin-shrinks it to a minimal failing subset.

use std::collections::BTreeMap;
use std::mem::{discriminant, Discriminant};
use std::sync::atomic::{AtomicU64, Ordering};

/// `splitmix64` — the one tiny generator behind every seeded schedule in the
/// engine: fault and chaos schedules, service latency sampling, and retry
/// jitter. Stateless form: mixes its input with the golden-ratio increment,
/// so independent streams decorrelate by salting the input.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden-ratio increment that steps a splitmix64 stream; indices are
/// multiplied by it before mixing so consecutive indices land in
/// uncorrelated parts of the sequence.
pub(crate) const SPLITMIX_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic map from 1-based indices to fault kinds. Indices not named
/// by the schedule run clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule<K> {
    events: BTreeMap<u64, K>,
}

impl<K> Default for Schedule<K> {
    fn default() -> Self {
        Schedule { events: BTreeMap::new() }
    }
}

impl<K: Copy> Schedule<K> {
    /// An empty schedule: nothing faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at 1-based `index`, replacing any event already there.
    pub fn at(mut self, index: u64, kind: K) -> Self {
        assert!(index > 0, "schedule indices are 1-based");
        self.events.insert(index, kind);
        self
    }

    /// A reproducible schedule over indices `1..=horizon`: index `i` faults
    /// when `splitmix64(seed + i·STEP) ≤ rate·u64::MAX`, and the faulting
    /// indices take `kinds` in turn (the n-th gets `kinds[n % len]`), so the
    /// kind list never moves *which* indices fault. No kinds, no faults.
    ///
    /// # Panics
    ///
    /// If `rate` is NaN or outside `[0, 1]`.
    pub fn seeded(seed: u64, horizon: u64, rate: f64, kinds: &[K]) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must lie in [0, 1], got {rate}");
        let threshold = (rate * u64::MAX as f64) as u64;
        let mut schedule = Self::new();
        if kinds.is_empty() || rate == 0.0 {
            return schedule;
        }
        for i in 1..=horizon {
            if splitmix64(seed.wrapping_add(i.wrapping_mul(SPLITMIX_STEP))) <= threshold {
                let kind = kinds[schedule.events.len() % kinds.len()];
                schedule.events.insert(i, kind);
            }
        }
        schedule
    }

    /// The kind scheduled at `index`, if any.
    pub fn get(&self, index: u64) -> Option<K> {
        self.events.get(&index).copied()
    }

    /// Iterates `(index, kind)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, K)> + '_ {
        self.events.iter().map(|(&i, &k)| (i, k))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule keeping only the events at `indices` — the shrinking
    /// primitive.
    pub fn restricted_to(&self, indices: &[u64]) -> Self {
        let mut sub = self.clone();
        sub.events.retain(|i, _| indices.contains(i));
        sub
    }
}

/// Delta-debugging (ddmin) shrink: given a schedule that makes `fails` return
/// `true`, finds a subset of its events that still fails but from which no
/// single event can be removed without the failure vanishing (1-minimality).
/// `fails` is re-run on candidate sub-schedules, so it should be a full
/// deterministic reproduction of the failing run.
///
/// Returns the schedule unchanged when it no longer fails (non-reproducible
/// failure) — shrinking only ever preserves a real failure.
pub fn shrink_plan<K: Copy, F: FnMut(&Schedule<K>) -> bool>(
    plan: &Schedule<K>,
    mut fails: F,
) -> Schedule<K> {
    if !fails(plan) {
        return plan.clone();
    }
    let mut indices: Vec<u64> = plan.events.keys().copied().collect();
    let mut chunks = 2usize;
    while indices.len() > 1 {
        let chunk_len = indices.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < indices.len() {
            let end = (start + chunk_len).min(indices.len());
            // Try deleting indices[start..end] — the complement must still fail.
            let complement: Vec<u64> =
                indices[..start].iter().chain(indices[end..].iter()).copied().collect();
            if !complement.is_empty() && fails(&plan.restricted_to(&complement)) {
                indices = complement;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunks >= indices.len() {
                break;
            }
            chunks = (chunks * 2).min(indices.len());
        }
    }
    plan.restricted_to(&indices)
}

/// A schedule being executed: the schedule, the shared cursor that hands out
/// indices, and one fired-event counter per kind variant the schedule names.
/// Decorators share one `Armed` (behind an `Arc`) across their clones.
///
/// `T` is whatever else the decorator applies to the kinds it executes —
/// the chaos wire's stall and reorder delays ([`crate::ChaosState`]); the
/// request-level decorator carries nothing.
#[derive(Debug)]
pub struct Armed<K, T = ()> {
    schedule: Schedule<K>,
    cursor: AtomicU64,
    fired: Box<[(Discriminant<K>, AtomicU64)]>,
    pub(crate) extra: T,
}

impl<K: Copy, T: Default> Armed<K, T> {
    /// Arms `schedule`: cursor at zero, nothing fired yet.
    pub fn new(schedule: Schedule<K>) -> Self {
        let mut fired: Vec<(Discriminant<K>, AtomicU64)> = Vec::new();
        for (_, kind) in schedule.iter() {
            if !fired.iter().any(|(d, _)| *d == discriminant(&kind)) {
                fired.push((discriminant(&kind), AtomicU64::new(0)));
            }
        }
        Armed { schedule, cursor: AtomicU64::new(0), fired: fired.into(), extra: T::default() }
    }
}

impl<K: Copy, T> Armed<K, T> {
    /// The schedule being executed.
    pub(crate) fn schedule(&self) -> &Schedule<K> {
        &self.schedule
    }

    /// Allocates the next 1-based index and returns it with its scheduled
    /// kind, counting the kind as fired. Every call consumes an index,
    /// faulted or not.
    pub(crate) fn next(&self) -> (u64, Option<K>) {
        let index = self.cursor.fetch_add(1, Ordering::Relaxed) + 1;
        let kind = self.schedule.get(index);
        if let Some(fired) = kind.and_then(|k| self.counter(k)) {
            fired.fetch_add(1, Ordering::Relaxed);
        }
        (index, kind)
    }

    /// Indices handed out so far, across all clones of the decorator.
    pub fn seen(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// How many events of `kind`'s variant have fired (payloads ignored:
    /// every stall is a stall).
    pub fn count(&self, kind: K) -> u64 {
        self.counter(kind).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of the fired-event counters.
    pub fn tally(&self) -> Tally<K> {
        Tally { counts: self.fired.iter().map(|(d, c)| (*d, c.load(Ordering::Relaxed))).collect() }
    }

    fn counter(&self, kind: K) -> Option<&AtomicU64> {
        self.fired.iter().find(|(d, _)| *d == discriminant(&kind)).map(|(_, c)| c)
    }
}

/// Fired-event counts of an [`Armed`] schedule, by kind variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally<K> {
    counts: Box<[(Discriminant<K>, u64)]>,
}

impl<K> Tally<K> {
    /// Events of `kind`'s variant that fired (payloads ignored).
    pub fn count(&self, kind: K) -> u64 {
        self.counts.iter().find(|(d, _)| *d == discriminant(&kind)).map_or(0, |(_, n)| *n)
    }

    /// Events fired across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosKind, ChaosPlan, FaultKind, FaultPlan};

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let kinds = [FaultKind::Transient, FaultKind::Corrupt];
        let a = FaultPlan::seeded(42, 1000, 0.2, &kinds);
        assert_eq!(a, FaultPlan::seeded(42, 1000, 0.2, &kinds), "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(43, 1000, 0.2, &kinds), "different seed, different plan");
        let n = a.len() as f64;
        assert!((100.0..400.0).contains(&n), "rate 0.2 over 1000 ≈ 200 events, got {n}");
        assert!(FaultPlan::seeded(1, 100, 0.0, &kinds).is_empty());
        assert!(FaultPlan::seeded(1, 100, 0.5, &[]).is_empty());
        assert_eq!(ChaosPlan::seeded(42, 1000, 1.0, &[ChaosKind::Drop]).len(), 1000);
    }

    #[test]
    fn kinds_cycle_without_moving_indices() {
        let one = ChaosPlan::seeded(7, 500, 0.2, &[ChaosKind::Drop]);
        let two = ChaosPlan::seeded(7, 500, 0.2, &[ChaosKind::Drop, ChaosKind::Stall]);
        assert_eq!(
            one.iter().map(|(i, _)| i).collect::<Vec<_>>(),
            two.iter().map(|(i, _)| i).collect::<Vec<_>>(),
            "the kind list must not shift which indices fault"
        );
        let kinds: Vec<ChaosKind> = two.iter().map(|(_, k)| k).take(4).collect();
        assert_eq!(kinds, [ChaosKind::Drop, ChaosKind::Stall, ChaosKind::Drop, ChaosKind::Stall]);
    }

    #[test]
    #[should_panic(expected = "fault rate must lie in [0, 1]")]
    fn seeded_rejects_a_rate_above_one() {
        let _ = FaultPlan::seeded(1, 10, 1.5, &[FaultKind::Transient]);
    }

    #[test]
    #[should_panic(expected = "fault rate must lie in [0, 1]")]
    fn seeded_rejects_a_nan_rate() {
        let _ = ChaosPlan::seeded(1, 10, f64::NAN, &[ChaosKind::Drop]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn index_zero_is_rejected() {
        let _ = ChaosPlan::new().at(0, ChaosKind::Drop);
    }

    /// Pins the exact fault indices of the stall schedules the parity suites
    /// and BENCH-7 run, as the per-type generators produced them before they
    /// were merged into [`Schedule::seeded`].
    #[test]
    fn seeded_indices_are_pinned() {
        let stalls = FaultPlan::seeded(1, 600, 0.08, &[FaultKind::Stall { rounds: 3 }]);
        let indices: Vec<u64> = stalls.iter().map(|(i, _)| i).collect();
        assert_eq!(
            indices,
            [
                20, 25, 28, 61, 66, 67, 98, 107, 133, 135, 137, 160, 169, 172, 175, 189, 204, 207,
                216, 218, 221, 231, 265, 266, 283, 290, 307, 319, 335, 340, 342, 350, 371, 389,
                392, 412, 418, 429, 473, 477, 479, 481, 512, 524, 548, 565, 566, 567, 576, 583
            ]
        );
        assert!(stalls.iter().all(|(_, k)| k == FaultKind::Stall { rounds: 3 }));
        // BENCH-7 (`crates/bench/benches/chaos.rs`): seed 11, rate 0.025,
        // quick-mode horizon 4 clients × 150 requests × 4 frames.
        let bench7 = ChaosPlan::seeded(11, 2400, 0.025, &[ChaosKind::Stall]);
        let frames: Vec<u64> = bench7.iter().map(|(i, _)| i).collect();
        assert_eq!(
            frames,
            [
                41, 69, 123, 154, 190, 196, 229, 249, 322, 344, 461, 477, 513, 519, 654, 692, 881,
                882, 966, 1005, 1056, 1075, 1113, 1115, 1181, 1301, 1390, 1392, 1473, 1482, 1510,
                1512, 1525, 1557, 1589, 1597, 1657, 1659, 1685, 1690, 1692, 1810, 1850, 1887, 1959,
                1968, 2057, 2063, 2122, 2146, 2192, 2196, 2201, 2203, 2234, 2283, 2359, 2398
            ]
        );
    }

    #[test]
    fn armed_schedules_count_fired_variants() {
        let armed: Armed<FaultKind> = Armed::new(
            FaultPlan::new()
                .at(2, FaultKind::Stall { rounds: 1 })
                .at(3, FaultKind::Stall { rounds: 9 })
                .at(4, FaultKind::Transient),
        );
        assert_eq!(armed.next(), (1, None));
        assert_eq!(armed.next(), (2, Some(FaultKind::Stall { rounds: 1 })));
        assert_eq!(armed.next(), (3, Some(FaultKind::Stall { rounds: 9 })));
        assert_eq!(armed.seen(), 3);
        let tally = armed.tally();
        assert_eq!(tally.count(FaultKind::Stall { rounds: 0 }), 2, "payloads are ignored");
        assert_eq!(tally.count(FaultKind::Transient), 0, "index 4 not reached yet");
        assert_eq!(tally.count(FaultKind::Panic), 0, "unscheduled kinds count zero");
        assert_eq!(tally.total(), 2);
        assert_eq!(armed.count(FaultKind::Stall { rounds: 5 }), 2);
    }

    /// One seeded plan per instantiation, for the ddmin shrink tests.
    fn shrink_inputs() -> (ChaosPlan, FaultPlan) {
        let chaos = ChaosPlan::seeded(11, 400, 0.15, &[ChaosKind::Drop, ChaosKind::Stall]);
        let fault = FaultPlan::seeded(
            11,
            400,
            0.15,
            &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Panic],
        );
        assert!(chaos.len() > 10 && fault.len() > 10, "need non-trivial plans to shrink");
        (chaos, fault)
    }

    fn isolates_culprit<K: Copy + PartialEq + std::fmt::Debug>(plan: &Schedule<K>) {
        let culprit = plan.iter().nth(plan.len() / 2).unwrap().0;
        // "Fails" iff the culprit's event is present.
        let shrunk = shrink_plan(plan, |p| p.get(culprit).is_some());
        assert_eq!(shrunk, plan.restricted_to(&[culprit]));
    }

    fn keeps_pair<K: Copy + PartialEq + std::fmt::Debug>(plan: &Schedule<K>) {
        let (a, b) = (plan.iter().nth(2).unwrap().0, plan.iter().nth(plan.len() - 2).unwrap().0);
        // The failure needs *both* events.
        let shrunk = shrink_plan(plan, |p| p.get(a).is_some() && p.get(b).is_some());
        assert_eq!(shrunk, plan.restricted_to(&[a, b]));
    }

    #[test]
    fn shrink_finds_the_single_culprit_fault() {
        let (chaos, fault) = shrink_inputs();
        isolates_culprit(&chaos);
        isolates_culprit(&fault);
    }

    #[test]
    fn shrink_keeps_interacting_pairs_together() {
        let (chaos, fault) = shrink_inputs();
        keeps_pair(&chaos);
        keeps_pair(&fault);
        let plan =
            ChaosPlan::new().drop_at(3).drop_at(8).stall_at(21).crash_at(34).duplicate_at(55);
        assert_eq!(
            shrink_plan(&plan, |p| p.get(8).is_some() && p.get(34).is_some()).to_spec(),
            "8:drop,34:crash"
        );
    }

    #[test]
    fn shrink_returns_nonreproducible_plans_untouched() {
        let (chaos, fault) = shrink_inputs();
        assert_eq!(shrink_plan(&chaos, |_| false), chaos);
        assert_eq!(shrink_plan(&fault, |_| false), fault);
    }
}
