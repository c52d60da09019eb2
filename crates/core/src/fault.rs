//! Seeded, deterministic multi-kind fault injection at the request level —
//! the harness the fault-tolerance layer is tested against.
//!
//! A production crawler faces bursts of throttling, requests that stall and
//! waste wall-clock rounds, result pages that arrive truncated, and faults
//! severe enough to kill the worker process outright. A [`FaultPlan`] places
//! any mix of these at exact request numbers — by hand or from a seed
//! ([`Schedule::seeded`]) — so every recovery path (retry, requeue,
//! checkpoint resume, supervisor restart, circuit breaker) can be exercised
//! deterministically and asserted on.
//!
//! A plan is *pure schedule*; [`FaultPlanSource`] is the [`DataSource`]
//! decorator that executes it. Its armed state (the request cursor and the
//! fired-fault counters) lives behind an `Arc`, so clones of one
//! `FaultPlanSource` share a single schedule position — exactly what a fleet
//! supervisor needs to hold a handle to the same faulty source its worker
//! crawls (and to keep the schedule advancing across worker restarts instead
//! of replaying the same fault forever).

use crate::extract::ExtractedPageRef;
use crate::schedule::{Armed, Schedule, Tally};
use crate::source::{CrawlError, DataSource, SourceRequest, SourceResponse};
use dwc_server::InterfaceSpec;
use std::sync::Arc;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A plain transient failure (throttle / 5xx): the round is billed, a
    /// retry may succeed.
    Transient,
    /// A stalled request: billed as one round plus `rounds` extra elapsed
    /// rounds of waiting (surfaced as [`CrawlError::Stalled`]).
    Stall {
        /// Extra elapsed rounds wasted waiting for the response.
        rounds: u64,
    },
    /// The result page is truncated in flight, and the Result Extractor
    /// rejects a page cut before its closing tag (surfaced as
    /// [`CrawlError::CorruptPage`]). The request *does* reach the source and
    /// is billed there.
    Corrupt,
    /// A worker-killing panic — models a crash of the crawling process
    /// itself. Only a supervisor ([`crate::fleet::run_fleet_supervised`])
    /// survives this; the fault fires exactly once per scheduled index.
    Panic,
}

/// A deterministic schedule mapping 1-based request numbers to faults.
///
/// Build one by placing events explicitly ([`at`](Schedule::at),
/// [`burst`](Self::burst), [`panic_at`](Self::panic_at) …) or generate a
/// reproducible mix from a seed ([`seeded`](Schedule::seeded)). Requests not
/// named by the plan succeed normally.
pub type FaultPlan = Schedule<FaultKind>;

impl FaultPlan {
    /// Schedules a plain transient failure at `request_no`.
    pub fn transient_at(self, request_no: u64) -> Self {
        self.at(request_no, FaultKind::Transient)
    }

    /// Schedules a burst of `len` consecutive transient failures starting at
    /// request `start` — the pattern that trips a circuit breaker.
    pub fn burst(self, start: u64, len: u64) -> Self {
        (start..start + len).fold(self, |plan, n| plan.transient_at(n))
    }

    /// Schedules a stall of `rounds` extra elapsed rounds at `request_no`.
    pub fn stall_at(self, request_no: u64, rounds: u64) -> Self {
        self.at(request_no, FaultKind::Stall { rounds })
    }

    /// Schedules a truncated/corrupt result page at `request_no`.
    pub fn corrupt_at(self, request_no: u64) -> Self {
        self.at(request_no, FaultKind::Corrupt)
    }

    /// Schedules a worker-killing panic at `request_no`.
    pub fn panic_at(self, request_no: u64) -> Self {
        self.at(request_no, FaultKind::Panic)
    }
}

/// A [`DataSource`] decorator executing a [`FaultPlan`].
///
/// Request numbering is global across clones: the schedule position lives in
/// a shared `Arc`, so a supervisor's handle and its worker's handle count the
/// same stream of requests. Billing mirrors reality: transient, stall, and
/// panic faults consume the request *before* it reaches the inner source
/// (billed here), while a corrupt page *was* served (billed by the inner
/// source, merely mangled in flight).
#[derive(Debug)]
pub struct FaultPlanSource<S> {
    inner: S,
    armed: Arc<Armed<FaultKind>>,
}

impl<S: Clone> Clone for FaultPlanSource<S> {
    fn clone(&self) -> Self {
        FaultPlanSource { inner: self.inner.clone(), armed: Arc::clone(&self.armed) }
    }
}

impl<S: DataSource> FaultPlanSource<S> {
    /// Wraps `inner`, failing requests per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultPlanSource { inner, armed: Arc::new(Armed::new(plan)) }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The schedule being executed.
    pub fn plan(&self) -> &FaultPlan {
        self.armed.schedule()
    }

    /// Requests seen so far (served or faulted), across all clones.
    pub fn requests_seen(&self) -> u64 {
        self.armed.seen()
    }

    /// Faults fired so far, by kind, across all clones.
    pub fn tally(&self) -> Tally<FaultKind> {
        self.armed.tally()
    }
}

impl<S: DataSource> DataSource for FaultPlanSource<S> {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        match self.armed.next() {
            (_, None) => self.inner.respond(request, visit),
            (_, Some(FaultKind::Transient)) => Err(CrawlError::Transient),
            (_, Some(FaultKind::Stall { rounds })) => {
                Err(CrawlError::Stalled { wasted_rounds: rounds })
            }
            // The inner request executes (and is billed there), but the page
            // arrives cut short and the caller's visitor never runs.
            (_, Some(FaultKind::Corrupt)) => {
                self.inner.respond(request, &mut |_| {})?;
                Err(CrawlError::CorruptPage)
            }
            (request_no, Some(FaultKind::Panic)) => {
                panic!("injected fault: worker-killing panic at request {request_no}")
            }
        }
    }

    fn interface(&self) -> &InterfaceSpec {
        self.inner.interface()
    }

    /// Inner rounds plus every fired fault that consumed its request before
    /// it reached the inner source — all but the corrupt pages.
    fn rounds_used(&self) -> u64 {
        let fired = self.armed.tally();
        self.inner.rounds_used() + fired.total() - fired.count(FaultKind::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractedPage;
    use crate::source::ProberMode;
    use dwc_model::fixtures::figure1_table;
    use dwc_server::{Query, WebDbServer};

    fn server() -> WebDbServer {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        WebDbServer::new(t, spec)
    }

    fn a2() -> Query {
        Query::ByString { attr: "A".into(), value: "a2".into() }
    }

    /// Fetches one page as an owned value through the `respond` envelope.
    fn query_page<S: DataSource>(
        s: &S,
        query: &Query,
        page: usize,
        prober: ProberMode,
    ) -> Result<ExtractedPage, CrawlError> {
        let mut owned = None;
        s.respond(&SourceRequest::new(query, page, prober), &mut |view| {
            owned = Some(view.to_owned_page())
        })?;
        Ok(owned.expect("respond visits exactly once on success"))
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::new().burst(3, 2).stall_at(7, 5).corrupt_at(9).panic_at(11);
        assert_eq!(plan.get(3), Some(FaultKind::Transient));
        assert_eq!(plan.get(4), Some(FaultKind::Transient));
        assert_eq!(plan.get(5), None);
        assert_eq!(plan.get(7), Some(FaultKind::Stall { rounds: 5 }));
        assert_eq!(plan.get(9), Some(FaultKind::Corrupt));
        assert_eq!(plan.get(11), Some(FaultKind::Panic));
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn each_kind_surfaces_as_its_error() {
        let s = FaultPlanSource::new(
            server(),
            FaultPlan::new().transient_at(1).stall_at(2, 7).corrupt_at(3),
        );
        assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::Transient));
        assert_eq!(
            query_page(&s, &a2(), 0, ProberMode::InProcess),
            Err(CrawlError::Stalled { wasted_rounds: 7 })
        );
        assert_eq!(query_page(&s, &a2(), 0, ProberMode::InProcess), Err(CrawlError::CorruptPage));
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
        let tally = s.tally();
        for kind in [FaultKind::Transient, FaultKind::Stall { rounds: 7 }, FaultKind::Corrupt] {
            assert_eq!(tally.count(kind), 1, "{kind:?}");
        }
        assert_eq!(tally.count(FaultKind::Panic), 0);
        assert_eq!(tally.total(), 3);
    }

    #[test]
    fn billing_splits_absorbed_and_served_faults() {
        // Request 1 transient (absorbed: billed by wrapper), request 2
        // corrupt (served: billed by inner), request 3 clean.
        let s = FaultPlanSource::new(server(), FaultPlan::new().transient_at(1).corrupt_at(2));
        let _ = query_page(&s, &a2(), 0, ProberMode::InProcess);
        let _ = query_page(&s, &a2(), 0, ProberMode::InProcess);
        let _ = query_page(&s, &a2(), 0, ProberMode::InProcess);
        assert_eq!(s.inner().rounds_used(), 2, "corrupt + clean reached the server");
        assert_eq!(DataSource::rounds_used(&s), 3, "every request is billed exactly once");
    }

    #[test]
    fn clones_share_the_schedule_position() {
        let s =
            FaultPlanSource::new(std::sync::Arc::new(server()), FaultPlan::new().transient_at(2));
        let s2 = s.clone();
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
        assert_eq!(
            query_page(&s2, &a2(), 0, ProberMode::InProcess),
            Err(CrawlError::Transient),
            "the clone's request is number 2 in the shared stream"
        );
        assert_eq!(s.requests_seen(), 2);
        assert_eq!(s.tally().count(FaultKind::Transient), 1);
    }

    #[test]
    fn panic_fault_panics_once_then_schedule_moves_on() {
        let s = FaultPlanSource::new(std::sync::Arc::new(server()), FaultPlan::new().panic_at(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = query_page(&s, &a2(), 0, ProberMode::InProcess);
        }));
        assert!(caught.is_err(), "the scheduled panic must fire");
        assert_eq!(s.tally().count(FaultKind::Panic), 1);
        // The stream advanced past the panic: the next request succeeds.
        assert!(query_page(&s, &a2(), 0, ProberMode::InProcess).is_ok());
    }
}
