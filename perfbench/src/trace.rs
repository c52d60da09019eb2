//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and a request id. Spans are
//! opened by the probes in [`crate::probe`] around calls into the program's
//! public seams, kept in memory while the workload runs, and written out
//! once it ends. A layer's self time is its spans' duration minus the part
//! covered by their child spans.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (never 0).
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// The page request this span belongs to, or 0 outside any request.
    pub request: u64,
    /// Small per-thread number, in order of first use.
    pub thread: u64,
    /// Layer-qualified name, such as `policy.select`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans of this thread, innermost last: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_request: AtomicU64,
    /// The phase's root span: parent of spans opened on a thread that has
    /// no open span of its own (fleet pool workers).
    root: AtomicU64,
    /// The client request span currently waiting on a service worker, with
    /// its request id. A service-side span opened on a thread with no open
    /// span adopts it as parent, which links the two halves of a request
    /// across the queue. Exact for one client in a closed loop.
    inflight: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// How a new span finds its parent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Under the thread's innermost open span, else under the root.
    Local,
    /// Like `Local`, but starts a new request id.
    Request,
    /// Under the thread's innermost open span, else under the in-flight
    /// client request.
    Remote,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            root: AtomicU64::new(0),
            inflight: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, link: Link) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let top = STACK.with(|s| s.borrow().last().copied());
        let (parent, mut request) = match (top, link) {
            (Some(top), _) => top,
            (None, Link::Remote) => *self.inflight.lock().expect("tracer inflight lock"),
            (None, _) => (self.root.load(Ordering::Relaxed), 0),
        };
        if link == Link::Request {
            request = self.next_request.fetch_add(1, Ordering::Relaxed);
        }
        STACK.with(|s| s.borrow_mut().push((id, request)));
        let thread = THREAD.with(|t| *t);
        SpanGuard { tracer: self, id, parent, request, thread, name, start_ns: self.now_ns() }
    }

    /// Opens the root span of a measured phase.
    pub fn root(&self, name: &'static str) -> SpanGuard<'_> {
        let guard = self.open(name, Link::Local);
        self.root.store(guard.id, Ordering::Relaxed);
        guard
    }

    /// Opens a span under the current one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, Link::Local)
    }

    /// Opens a client-side page-request span with a fresh request id and
    /// publishes it as the in-flight request.
    pub fn request(&self, name: &'static str) -> SpanGuard<'_> {
        let guard = self.open(name, Link::Request);
        *self.inflight.lock().expect("tracer inflight lock") = (guard.id, guard.request);
        guard
    }

    /// Opens a service-side span, linked to the in-flight client request
    /// when the thread has no open span.
    pub fn remote(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, Link::Remote)
    }

    /// Drops every recorded span (the set-up before a phase is not traced).
    pub fn clear(&self) {
        self.spans.lock().expect("tracer span lock").clear();
    }

    /// Takes the recorded spans, sorted by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("tracer span lock"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; recorded when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    request: u64,
    thread: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == self.id) {
                stack.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            thread: self.thread,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
    /// Every span's duration, nanoseconds, in start order.
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Per-name totals and self times over `spans`.
pub fn analyze(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let d = s.duration_ns();
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += d;
        e.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        e.durations_ns.push(d);
    }
    out
}

/// Writes spans as CSV: `id,parent,request,thread,name,start_ns,end_ns`.
pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,request,thread,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id, s.parent, s.request, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        {
            let _root = t.root("root");
            {
                let _child = t.span("child");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let by = analyze(&spans);
        let (root, child) = (&by["root"], &by["child"]);
        assert_eq!(root.self_ns + child.total_ns, root.total_ns);
        assert!(child.self_ns == child.total_ns && child.total_ns >= 5_000_000);
        let child_span = spans.iter().find(|s| s.name == "child").expect("child span");
        let root_span = spans.iter().find(|s| s.name == "root").expect("root span");
        assert_eq!(child_span.parent, root_span.id);
    }

    #[test]
    fn remote_spans_join_the_inflight_request() {
        let t = Tracer::new();
        {
            let _req = t.request("client");
            std::thread::scope(|scope| {
                scope.spawn(|| drop(t.remote("server")));
            });
        }
        let spans = t.take();
        let client = spans.iter().find(|s| s.name == "client").expect("client span");
        let server = spans.iter().find(|s| s.name == "server").expect("server span");
        assert_eq!(server.parent, client.id);
        assert_eq!(server.request, client.request);
        assert_ne!(server.thread, client.thread);
    }
}
