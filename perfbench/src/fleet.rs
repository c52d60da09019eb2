//! The `fleet` workload: eight GL jobs with distinct seeds share one
//! resident 100k-record IMDB server (result cap 40, wire prober, a
//! 4,096-entry page cache, a transient fault on every 50th request) and run
//! on the work-stealing pool with 2 workers for 40k rounds in total. The
//! only workload whose jobs share work: it loads the scheduler, the render
//! cache and the executor's retries.
//!
//! `FleetJob` takes a `PolicyKind`, not a policy object, so no
//! [`crate::probe::PolicyProbe`] can wrap a fleet job's policy: `policy.*`
//! is not measured on this workload.

use crate::crawl::crawl_counters;
use crate::probe::{ClientProbe, ClientStats, ServerProbe};
use crate::trace::Tracer;
use crate::{cfg, ensure, ratio, Counters, Sample, Scratch, Workload};
use dwc_core::{
    run_fleet, CrawlConfig, CrawlReport, FleetConfig, FleetJob, PolicyKind, ProberMode,
};
use dwc_datagen::Preset;
use dwc_server::{FaultPolicy, InterfaceSpec, WebDbServer};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Jobs in the fleet.
const JOBS: usize = 8;

/// The `fleet` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fleet {
    /// Fraction of the IMDB preset's 400k records.
    pub scale: f64,
    /// Rounds the whole fleet may spend.
    pub total_rounds: u64,
    /// Pool worker threads. With one, the jobs' reports repeat exactly.
    pub workers: usize,
}

/// The source of one fleet run, as each job sees it.
type FleetSource = ClientProbe<Arc<ServerProbe<Arc<WebDbServer>>>>;

impl Fleet {
    /// The `fleet` workload: 100k records, 40k rounds, 2 workers.
    pub const FLEET: Fleet = Fleet { scale: 0.25, total_rounds: 40_000, workers: 2 };

    /// The fleet's jobs over `server`, all probed into `stats`.
    fn jobs(
        server: &Arc<WebDbServer>,
        tracer: Option<&Arc<Tracer>>,
        stats: &Arc<ClientStats>,
    ) -> Result<Vec<FleetJob<FleetSource>>, String> {
        let shared = Arc::new(ServerProbe::new(Arc::clone(server), tracer.cloned()));
        (0..JOBS)
            .map(|i| {
                Ok(FleetJob {
                    source: ClientProbe::new(
                        Arc::clone(&shared),
                        tracer.cloned(),
                        Arc::clone(stats),
                    ),
                    policy: PolicyKind::GreedyLink,
                    seeds: vec![
                        ("Language".to_string(), format!("Language_{i}")),
                        ("Actor".to_string(), format!("Actor_{i}")),
                    ],
                    config: cfg(CrawlConfig::builder().prober(ProberMode::Wire).build())?,
                    resume: None,
                    tenant: None,
                })
            })
            .collect()
    }

    /// The fleet configuration.
    fn config(&self) -> Result<FleetConfig, String> {
        cfg(FleetConfig::builder().total_rounds(self.total_rounds).workers(self.workers).build())
    }
}

impl Workload for Fleet {
    type Input = Arc<WebDbServer>;

    fn headline(&self) -> &'static [(&'static str, &'static str, &'static str)] {
        // No coverage target: the fleet spends its round budget.
        &[
            ("pages_per_s", "crawl.pages_per_s", "1/s"),
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
        _scratch: &Scratch,
        _tracer: Option<&Arc<Tracer>>,
    ) -> Result<Arc<WebDbServer>, String> {
        let table = Preset::Imdb.table(self.scale, seed);
        let interface = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
        Ok(Arc::new(
            WebDbServer::new(table, interface)
                .with_page_cache(4096)
                .with_faults(FaultPolicy::every(50)),
        ))
    }

    fn measure(
        &self,
        server: Arc<WebDbServer>,
        _scratch: &Scratch,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Sample, String> {
        let stats = Arc::new(ClientStats::default());
        let jobs = Fleet::jobs(&server, tracer, &stats)?;
        let config = self.config()?;
        let (report, wall_s) = {
            let _root = tracer.map(|t| t.root("fleet"));
            let start = Instant::now();
            let report = run_fleet(jobs, config);
            (report, start.elapsed().as_secs_f64())
        };

        let rounds: u64 = report.sources.iter().map(|r| r.rounds).sum();
        let billed = server.rounds_used();
        ensure(rounds == billed, || {
            format!("fleet jobs billed {rounds} rounds but the shared server counted {billed}")
        })?;
        let failures: u64 = report.sources.iter().map(|r| r.transient_failures).sum();
        let injected = server.faults_injected();
        ensure(failures == injected, || {
            format!("jobs saw {failures} transient failures but the server injected {injected}")
        })?;
        let elapsed: u64 = report.sources.iter().map(CrawlReport::elapsed_rounds).sum();
        ensure(elapsed == report.total_rounds, || {
            format!(
                "jobs spent {elapsed} elapsed rounds, the fleet counted {}",
                report.total_rounds
            )
        })?;

        // The fleet as one crawl: its jobs' reports summed.
        let total = CrawlReport {
            queries: report.sources.iter().map(|r| r.queries).sum(),
            rounds,
            records: report.total_records(),
            aborted_queries: report.sources.iter().map(|r| r.aborted_queries).sum(),
            transient_failures: failures,
            ..report.sources[0].clone()
        };
        let gave_up = stats.gave_up.load(Ordering::Relaxed);
        let returned = stats.records_returned.load(Ordering::Relaxed);
        let mut counters = Counters::new();
        crawl_counters(&mut counters, &total, wall_s, returned, gave_up);
        let cache = server.page_cache();
        counters.insert(
            "server.page_cache_hit_rate",
            ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        );
        let sched = &report.scheduler;
        counters.insert("sched.slices", sched.slices_completed as f64);
        counters.insert("sched.steals", sched.steals as f64);
        let per_worker = &sched.per_worker_slices;
        let mean = per_worker.iter().sum::<u64>() as f64 / per_worker.len().max(1) as f64;
        let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
        counters.insert("sched.worker_slice_imbalance", ratio(max, mean));

        Ok(Sample {
            wall_s,
            records: total.records,
            attempted: rounds,
            failed: gave_up,
            latencies_ns: stats.take_latencies(),
            counters,
            reports: if self.workers == 1 { report.sources } else { Vec::new() },
        })
    }

    fn parallelism(&self) -> usize {
        self.workers
    }
}
