//! Deterministic transient-fault injection.
//!
//! A production hidden-web crawler faces throttling, timeouts and 5xx
//! responses. The paper's cost model only counts communication rounds, so a
//! failed round still costs one round. [`FaultPolicy`] lets tests and
//! benchmarks inject failures deterministically (no randomness → reproducible
//! assertions) and verify the crawler's retry logic leaves the harvested
//! database unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic schedule of transient failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Fail every `n`-th request (1-based). `None` disables injection.
    pub fail_every: Option<u64>,
    /// Maximum number of failures to inject (`None` = unbounded).
    pub max_faults: Option<u64>,
}

impl FaultPolicy {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail every `n`-th request.
    pub fn every(n: u64) -> Self {
        assert!(n > 0, "fault period must be positive");
        FaultPolicy { fail_every: Some(n), max_faults: None }
    }

    /// Caps the total number of injected faults.
    pub fn up_to(mut self, max: u64) -> Self {
        self.max_faults = Some(max);
        self
    }
}

/// Thread-safe fault-injection ledger.
///
/// [`FaultPolicy`] is a pure schedule; `FaultState` holds the mutable side —
/// how many faults have actually been injected — behind an atomic so a shared
/// server can decide fault outcomes from `&self`. The `max_faults` budget is
/// claimed with a compare-and-swap loop, so even under concurrent probing the
/// cap is exact: never one fault more than allowed.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    injected: AtomicU64,
}

impl FaultState {
    /// A fresh ledger with zero injected faults.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of faults injected so far.
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Zeroes the ledger (between experiment runs).
    pub(crate) fn reset(&self) {
        self.injected.store(0, Ordering::Relaxed);
    }

    /// Decides whether request number `request_no` (1-based) fails under
    /// `policy`, atomically claiming one unit of the fault budget when it
    /// does. Returns `true` exactly when the caller must report a transient
    /// failure.
    pub(crate) fn try_inject(&self, policy: &FaultPolicy, request_no: u64) -> bool {
        let Some(n) = policy.fail_every else { return false };
        if !request_no.is_multiple_of(n) {
            return false;
        }
        match policy.max_faults {
            None => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(max) => self
                .injected
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| (f < max).then_some(f + 1))
                .is_ok(),
        }
    }
}

impl Clone for FaultState {
    fn clone(&self) -> Self {
        FaultState { injected: AtomicU64::new(self.injected()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let (p, s) = (FaultPolicy::none(), FaultState::new());
        assert!((1..100).all(|i| !s.try_inject(&p, i)));
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn every_third_fails() {
        let (p, s) = (FaultPolicy::every(3), FaultState::new());
        let fails: Vec<u64> = (1..=9).filter(|&i| s.try_inject(&p, i)).collect();
        assert_eq!(fails, vec![3, 6, 9]);
    }

    #[test]
    fn max_faults_caps_injection() {
        let (p, s) = (FaultPolicy::every(2).up_to(2), FaultState::new());
        assert!(s.try_inject(&p, 2));
        assert!(s.try_inject(&p, 4));
        assert!(!s.try_inject(&p, 6), "budget exhausted");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = FaultPolicy::every(0);
    }

    #[test]
    fn state_tracks_and_caps_injection() {
        let p = FaultPolicy::every(2).up_to(2);
        let s = FaultState::new();
        assert!(!s.try_inject(&p, 1));
        assert!(s.try_inject(&p, 2));
        assert!(s.try_inject(&p, 4));
        assert!(!s.try_inject(&p, 6), "budget exhausted");
        assert_eq!(s.injected(), 2);
        s.reset();
        assert_eq!(s.injected(), 0);
        assert!(s.try_inject(&p, 2), "budget refreshed after reset");
    }

    #[test]
    fn state_cap_is_exact_under_contention() {
        let p = FaultPolicy::every(1).up_to(100);
        let s = FaultState::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (s, p) = (&s, &p);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        s.try_inject(p, t * 1000 + i + 1);
                    }
                });
            }
        });
        assert_eq!(s.injected(), 100, "CAS loop must never overshoot the cap");
    }
}
