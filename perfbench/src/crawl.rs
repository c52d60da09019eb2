//! The two single-crawl workloads.
//!
//! * `crawl` — GL over a resident 100k-record IMDB source, in-process
//!   prober, page size 10, no result cap, to 90% coverage. Few queries with
//!   hundreds of pages each: the crawler's ingestor carries the load.
//! * `crawl-capped` — GL+MMMI over a 20k-record IMDB source packed into
//!   file-backed segments behind a 2 MiB buffer pool, result cap 40, wire
//!   prober through a one-worker `SourceService` and one `Connection`, with
//!   a state journal, to 95% coverage. Thousands of short queries: planner
//!   `select`, render and parse, transport, pool and journal carry the load.

use crate::probe::{ClientProbe, ClientStats, PagerProbe, PolicyProbe, ServerProbe};
use crate::trace::Tracer;
use crate::{cfg, ensure, io, ratio, Counters, Sample, Scratch, Workload};
use dwc_core::policy::MmmiConfig;
use dwc_core::{
    CrawlConfig, CrawlReport, Crawler, DataSource, PolicyKind, ProberMode, SelectionPolicy,
    ServeConfig, SourceService, StopReason,
};
use dwc_datagen::Preset;
use dwc_server::{InterfaceSpec, WebDbServer};
use dwc_store::{FilePager, SegmentTable, DEFAULT_PAGE_SIZE};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Buffer pool of `crawl-capped`: smaller than the crawl's working set, so
/// the pool misses and evicts.
const CAPPED_POOL_BYTES: usize = 2 << 20;

/// Seed values every single crawl starts from.
const SEEDS: [(&str, &str); 2] = [("Language", "Language_0"), ("Actor", "Actor_0")];

/// One of the two single-crawl workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleCrawl {
    /// `crawl-capped` when set, `crawl` otherwise.
    pub capped: bool,
    /// Fraction of the IMDB preset's 400k records.
    pub scale: f64,
}

impl SingleCrawl {
    /// The `crawl` workload: 100k records.
    pub const CRAWL: SingleCrawl = SingleCrawl { capped: false, scale: 0.25 };
    /// The `crawl-capped` workload: 20k records.
    pub const CAPPED: SingleCrawl = SingleCrawl { capped: true, scale: 0.05 };

    fn target_coverage(self) -> f64 {
        if self.capped {
            0.95
        } else {
            0.9
        }
    }

    fn policy(self) -> PolicyKind {
        if self.capped {
            PolicyKind::Mmmi(MmmiConfig::default())
        } else {
            PolicyKind::GreedyLink
        }
    }

    /// The crawl configuration; `journal` is set on `crawl-capped` only.
    fn config(self, records: usize, journal: Option<PathBuf>) -> Result<CrawlConfig, String> {
        let mut b = CrawlConfig::builder()
            .target_coverage(self.target_coverage())
            .known_target_size(records)
            .prober(if self.capped { ProberMode::Wire } else { ProberMode::InProcess });
        if let Some(path) = journal {
            b = b.journal_path(path);
        }
        cfg(b.build())
    }
}

/// A built source for one measured crawl.
pub struct CrawlInput {
    /// The server (resident for `crawl`, paged for `crawl-capped`).
    server: Arc<WebDbServer>,
    /// Records in the source (the coverage denominator).
    records: usize,
    segments: Option<PathBuf>,
}

impl Workload for SingleCrawl {
    type Input = CrawlInput;

    fn headline(&self) -> &'static [(&'static str, &'static str, &'static str)] {
        &[
            ("pages_per_s", "crawl.pages_per_s", "1/s"),
            ("rounds_to_target", "crawl.rounds_to_target", "count"),
            ("records_per_round", "crawl.records_per_round", "ratio"),
            ("request_p50_us", "latency_p50_us", "us"),
            ("request_p90_us", "latency_p90_us", "us"),
            ("request_p99_us", "latency_p99_us", "us"),
            ("request_samples", "latency_samples", "count"),
        ]
    }

    fn setup(
        &self,
        seed: u64,
        scratch: &Scratch,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<CrawlInput, String> {
        let table = Preset::Imdb.table(self.scale, seed);
        let records = table.num_records();
        let interface = InterfaceSpec::permissive(table.schema(), 10);
        if !self.capped {
            let server = WebDbServer::new(table, interface).with_page_cache(0);
            return Ok(CrawlInput { server: Arc::new(server), records, segments: None });
        }
        let dir = scratch.fresh("segments");
        let pager = PagerProbe::new(
            io("open segment dir", FilePager::open(&dir, DEFAULT_PAGE_SIZE))?,
            tracer.cloned(),
        );
        let segments = io(
            "pack segments",
            SegmentTable::from_table(&table, Box::new(pager), CAPPED_POOL_BYTES),
        )?;
        let server = WebDbServer::paged(Arc::new(segments), interface.with_result_cap(40))
            .with_page_cache(0);
        Ok(CrawlInput { server: Arc::new(server), records, segments: Some(dir) })
    }

    fn measure(
        &self,
        input: CrawlInput,
        scratch: &Scratch,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Sample, String> {
        let stats = Arc::new(ClientStats::default());
        let policy = PolicyProbe::wrap(self.policy().build(), tracer);
        let server = ServerProbe::new(Arc::clone(&input.server), tracer.cloned());
        let journal = self.capped.then(|| scratch.fresh("journal"));
        let config = self.config(input.records, journal.clone())?;
        let mut counters = Counters::new();
        // The pack in `setup` scans through the pool too.
        let pool_before = input.server.segment_table().map(|s| s.pool_stats()).unwrap_or_default();

        let (report, wall_s, rounds_used) = if self.capped {
            let service = SourceService::start(
                Arc::new(server),
                cfg(ServeConfig::builder().workers(1).build())?,
            );
            let client = ClientProbe::new(service.connect(), tracer.cloned(), Arc::clone(&stats));
            let (report, wall_s) = crawl(&client, policy, config, tracer);
            let rounds_used = client.rounds_used();
            // Shutdown blocks while a connection is alive.
            drop(client);
            let service = service.shutdown();
            ensure(service.completed == report.rounds, || {
                format!(
                    "service completed {} requests for {} rounds",
                    service.completed, report.rounds
                )
            })?;
            ensure(service.shed == 0 && service.cancelled == 0, || {
                format!(
                    "service shed {} and cancelled {} requests",
                    service.shed, service.cancelled
                )
            })?;
            counters.insert("serve.mean_queue_depth", service.mean_queue_depth);
            counters.insert("serve.shed", service.shed as f64);
            let journal = journal.expect("crawl-capped journals");
            let bytes = io("stat journal", std::fs::metadata(&journal))?.len();
            counters.insert("journal.bytes_per_query", ratio(bytes as f64, report.queries as f64));
            io("remove journal", std::fs::remove_file(&journal))?;
            (report, wall_s, rounds_used)
        } else {
            let client = ClientProbe::new(server, tracer.cloned(), Arc::clone(&stats));
            let (report, wall_s) = crawl(&client, policy, config, tracer);
            (report, wall_s, client.rounds_used())
        };

        ensure(report.stop == StopReason::CoverageReached, || {
            format!("crawl stopped with {:?} before its coverage target", report.stop)
        })?;
        ensure(report.rounds == rounds_used, || {
            format!("crawl billed {} rounds but the source counted {rounds_used}", report.rounds)
        })?;

        let cache = input.server.page_cache();
        counters.insert(
            "server.page_cache_hit_rate",
            ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        );
        if let Some(segments) = input.server.segment_table() {
            let now = segments.pool_stats();
            let (hits, misses) = (now.hits - pool_before.hits, now.misses - pool_before.misses);
            counters.insert("store.pool_hits", hits as f64);
            counters.insert("store.pool_misses", misses as f64);
            counters.insert("store.pool_evictions", (now.evictions - pool_before.evictions) as f64);
            counters.insert("store.pool_hit_rate", ratio(hits as f64, (hits + misses) as f64));
        }
        let gave_up = stats.gave_up.load(Ordering::Relaxed);
        let returned = stats.records_returned.load(Ordering::Relaxed);
        crawl_counters(&mut counters, &report, wall_s, returned, gave_up);
        counters.insert("crawl.rounds_to_target", report.rounds as f64);

        let sample = Sample {
            wall_s,
            records: report.records,
            attempted: report.rounds,
            failed: gave_up,
            latencies_ns: stats.take_latencies(),
            counters,
            reports: vec![report],
        };
        // The table holds its segment files open until the server drops.
        let CrawlInput { server, segments, .. } = input;
        drop(server);
        if let Some(dir) = segments {
            io("remove segments", std::fs::remove_dir_all(dir))?;
        }
        Ok(sample)
    }
}

/// Counters every crawl workload reports from its reports and probes.
pub(crate) fn crawl_counters(
    counters: &mut Counters,
    report: &CrawlReport,
    wall_s: f64,
    returned: u64,
    gave_up: u64,
) {
    counters.insert("crawl.pages_per_s", ratio(report.rounds as f64, wall_s));
    counters.insert("crawl.records_per_round", ratio(report.records as f64, report.rounds as f64));
    counters.insert("crawl.error_rate", ratio(gave_up as f64, report.rounds as f64));
    counters.insert("ingestor.records_returned", returned as f64);
    counters.insert("ingestor.records_new", report.records as f64);
    counters.insert("ingestor.new_ratio", ratio(report.records as f64, returned as f64));
    counters.insert("executor.retries", report.transient_failures as f64);
    counters.insert("executor.aborted_queries", report.aborted_queries as f64);
    counters.insert("executor.gave_up", gave_up as f64);
}

/// Runs one crawl from [`SEEDS`] to its stop condition, timing it.
fn crawl<S: DataSource>(
    source: &S,
    policy: Box<dyn SelectionPolicy>,
    config: CrawlConfig,
    tracer: Option<&Arc<Tracer>>,
) -> (CrawlReport, f64) {
    let _root = tracer.map(|t| t.root("crawl"));
    let start = Instant::now();
    let mut crawler = Crawler::new(source, policy, config);
    for (attr, value) in SEEDS {
        crawler.add_seed(attr, value);
    }
    let report = crawler.run();
    (report, start.elapsed().as_secs_f64())
}
