//! Outside-in probes: decorators over the program's public seams.
//!
//! Each probe forwards every call to the value it wraps and, when given a
//! [`Tracer`], records a span around it. None of them changes what the
//! wrapped value computes, so a traced crawl returns the same
//! `CrawlReport` as an untraced one (see `tests/traced_parity.rs`).
//!
//! | probe | seam | spans |
//! |---|---|---|
//! | [`ClientProbe`] | `DataSource` the crawler calls | `client.respond`, `ingestor.visit` |
//! | [`ServerProbe`] | `DataSource` behind the service (or in-process) | `server.respond`, `server.visit` |
//! | [`PolicyProbe`] | `SelectionPolicy` | `policy.select`, `policy.update` |
//! | [`PagerProbe`] | `SegmentPager` | `store.read_page`, `store.append` |

use crate::trace::Tracer;
use dwc_core::extract::ExtractedPageRef;
use dwc_core::state::{CrawlState, QueryOutcome};
use dwc_core::{CrawlError, DataSource, SelectionPolicy, SourceRequest, SourceResponse};
use dwc_model::ValueId;
use dwc_server::{InterfaceSpec, Query};
use dwc_store::{SegmentId, SegmentPager};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the client-side probes of one run observed, shared by every
/// [`ClientProbe`] of the run (one per fleet job).
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Per-request latency in nanoseconds: the whole `respond` call, which
    /// includes the crawler's own `visit` (ingest) of the page.
    latencies_ns: Mutex<Vec<u64>>,
    /// Records the source returned, summed over pages.
    pub records_returned: AtomicU64,
    /// Failed requests the crawler did not re-submit: its retries gave up.
    pub gave_up: AtomicU64,
}

impl ClientStats {
    /// Takes the latency samples recorded so far.
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.latencies_ns.lock().expect("latency lock"))
    }
}

/// The crawler-facing `DataSource` decorator. Always records the request
/// latency sample and the retry bookkeeping; records spans when traced.
pub struct ClientProbe<S> {
    inner: S,
    tracer: Option<Arc<Tracer>>,
    stats: Arc<ClientStats>,
    /// The last failed request, until the crawler either re-submits it
    /// (a retry) or moves on (it gave up).
    pending_failure: Mutex<Option<(Query, usize)>>,
}

impl<S> ClientProbe<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Option<Arc<Tracer>>, stats: Arc<ClientStats>) -> Self {
        ClientProbe { inner, tracer, stats, pending_failure: Mutex::new(None) }
    }

    /// Settles the last failure against the request now being made.
    fn settle_pending(&self, next_query: &Query, next_page: usize) {
        let mut pending = self.pending_failure.lock().expect("pending-failure lock");
        if let Some((query, page)) = pending.take() {
            if !(*next_query == query && next_page == page) {
                self.stats.gave_up.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<S> Drop for ClientProbe<S> {
    fn drop(&mut self) {
        // A failure still pending when the crawl ends was never retried.
        if let Ok(pending) = self.pending_failure.get_mut() {
            if pending.take().is_some() {
                self.stats.gave_up.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<S: DataSource> DataSource for ClientProbe<S> {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        self.settle_pending(request.query, request.page_index);
        let tracer = self.tracer.as_deref();
        let mut returned = 0u64;
        let start = Instant::now();
        let result = {
            let _span = tracer.map(|t| t.request("client.respond"));
            self.inner.respond(request, &mut |page| {
                returned = page.records.len() as u64;
                let _span = tracer.map(|t| t.span("ingestor.visit"));
                visit(page);
            })
        };
        let latency_ns = start.elapsed().as_nanos() as u64;
        self.stats.latencies_ns.lock().expect("latency lock").push(latency_ns);
        self.stats.records_returned.fetch_add(returned, Ordering::Relaxed);
        if result.is_err() {
            *self.pending_failure.lock().expect("pending-failure lock") =
                Some((request.query.clone(), request.page_index));
        }
        result
    }

    fn interface(&self) -> &InterfaceSpec {
        self.inner.interface()
    }

    fn rounds_used(&self) -> u64 {
        self.inner.rounds_used()
    }
}

/// The source-side `DataSource` decorator: wraps the server handed to
/// `SourceService::start` (or called in-process). Its `visit` callback is
/// the service's wire encoding, or the client's callback in-process.
pub struct ServerProbe<S> {
    inner: S,
    tracer: Option<Arc<Tracer>>,
}

impl<S> ServerProbe<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Option<Arc<Tracer>>) -> Self {
        ServerProbe { inner, tracer }
    }
}

impl<S: DataSource> DataSource for ServerProbe<S> {
    fn respond(
        &self,
        request: &SourceRequest<'_>,
        visit: &mut dyn FnMut(&ExtractedPageRef<'_>),
    ) -> Result<SourceResponse, CrawlError> {
        let Some(tracer) = self.tracer.as_deref() else {
            return self.inner.respond(request, visit);
        };
        let _span = tracer.remote("server.respond");
        self.inner.respond(request, &mut |page| {
            let _span = tracer.span("server.visit");
            visit(page);
        })
    }

    fn interface(&self) -> &InterfaceSpec {
        self.inner.interface()
    }

    fn rounds_used(&self) -> u64 {
        self.inner.rounds_used()
    }
}

/// The `SelectionPolicy` decorator.
pub struct PolicyProbe {
    inner: Box<dyn SelectionPolicy>,
    tracer: Arc<Tracer>,
}

impl PolicyProbe {
    /// Wraps `inner` when traced; returns it unchanged otherwise.
    pub fn wrap(
        inner: Box<dyn SelectionPolicy>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Box<dyn SelectionPolicy> {
        match tracer {
            Some(t) => Box::new(PolicyProbe { inner, tracer: Arc::clone(t) }),
            None => inner,
        }
    }
}

impl SelectionPolicy for PolicyProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, state: &mut CrawlState) {
        self.inner.init(state);
    }

    fn on_discovered(&mut self, state: &CrawlState, v: ValueId) {
        let _span = self.tracer.span("policy.update");
        self.inner.on_discovered(state, v);
    }

    fn resume(&mut self, state: &mut CrawlState) {
        self.inner.resume(state);
    }

    fn on_query_done(&mut self, state: &CrawlState, v: ValueId, outcome: &QueryOutcome) {
        let _span = self.tracer.span("policy.update");
        self.inner.on_query_done(state, v, outcome);
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        let _span = self.tracer.span("policy.select");
        self.inner.select(state)
    }
}

/// The `SegmentPager` decorator.
pub struct PagerProbe<P> {
    inner: P,
    tracer: Option<Arc<Tracer>>,
}

impl<P> PagerProbe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, tracer: Option<Arc<Tracer>>) -> Self {
        PagerProbe { inner, tracer }
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for PagerProbe<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagerProbe").field("inner", &self.inner).finish_non_exhaustive()
    }
}

impl<P: SegmentPager> SegmentPager for PagerProbe<P> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_segments(&self) -> u32 {
        self.inner.num_segments()
    }

    fn segment_len(&self, seg: SegmentId) -> u64 {
        self.inner.segment_len(seg)
    }

    fn create_segment(&mut self) -> io::Result<SegmentId> {
        self.inner.create_segment()
    }

    fn append(&mut self, seg: SegmentId, bytes: &[u8]) -> io::Result<u64> {
        let _span = self.tracer.as_deref().map(|t| t.span("store.append"));
        self.inner.append(seg, bytes)
    }

    fn read_page(&self, seg: SegmentId, page_no: u32, buf: &mut [u8]) -> io::Result<usize> {
        let _span = self.tracer.as_deref().map(|t| t.span("store.read_page"));
        self.inner.read_page(seg, page_no, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}
