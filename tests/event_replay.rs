//! Event-stream replay acceptance: a crawl's report IS a fold over its
//! event stream.
//!
//! Every test attaches a sink to a crawl, runs it, and checks that
//! `replay_report` over the recorded stream reproduces the exact
//! `CrawlReport` the crawl returned — under clean runs, under every
//! non-lethal kind of the `DWC_FAULT_KIND` matrix, across the JSONL
//! serialization round trip (`dwc crawl --events` fidelity), through the
//! checkpoint/resume path (late-attached sinks get a snapshot event), with
//! a state journal that fails, and property-tested across seeded fault
//! plans.

use deep_web_crawler::core::config::CrawlConfigBuilder;
use deep_web_crawler::core::metrics::replay_report;
use deep_web_crawler::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The fault-matrix source: big enough that crawls span many queries, so
/// faults interleave with pagination, retries, and requeues.
fn imdb_server(seed: u64) -> Arc<WebDbServer> {
    let table = Preset::Imdb.table(0.002, seed);
    let spec = InterfaceSpec::permissive(table.schema(), 10).with_result_cap(40);
    Arc::new(WebDbServer::new(table, spec))
}

/// Runs one crawl over a fault-plan-wrapped source with a sink attached
/// before the first event, returning the report and the recorded stream.
fn run_with_sink(plan: FaultPlan, data_seed: u64) -> (CrawlReport, Vec<CrawlEvent>) {
    run_configured(plan, data_seed, CrawlConfig::builder())
}

/// [`run_with_sink`] with extra settings on the crawl configuration.
fn run_configured(
    plan: FaultPlan,
    data_seed: u64,
    config: CrawlConfigBuilder,
) -> (CrawlReport, Vec<CrawlEvent>) {
    let source = FaultPlanSource::new(imdb_server(data_seed), plan);
    let config = config.max_requeues(20).max_retries(4).build().unwrap();
    let mut crawler = Crawler::new(source, PolicyKind::GreedyLink.build(), config);
    assert!(crawler.add_seed("Language", "Language_0"));
    let sink = MemorySink::new();
    crawler.add_sink(Box::new(sink.clone()));
    let report = crawler.run();
    (report, sink.collected())
}

/// The non-lethal cells of the fault matrix (a `panic` plan kills the
/// crawling thread itself; its parity story is the resume-path test below).
fn matrix_plan(kind: &str, seed: u64) -> FaultPlan {
    match kind {
        "burst" => FaultPlan::new().burst(8 + seed % 13, 40),
        "stall" => FaultPlan::seeded(seed, 600, 0.08, &[FaultKind::Stall { rounds: 3 }]),
        "corrupt" => FaultPlan::seeded(seed, 600, 0.10, &[FaultKind::Corrupt]),
        _ => FaultPlan::seeded(
            seed,
            600,
            0.08,
            &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Corrupt],
        ),
    }
}

/// Replay parity across the fault matrix. `DWC_FAULT_KIND`/`DWC_FAULT_SEED`
/// narrow the sweep to one CI matrix cell; unset, every kind runs.
#[test]
fn replay_matches_report_across_the_fault_matrix() {
    let seed: u64 = std::env::var("DWC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let kinds: Vec<String> = match std::env::var("DWC_FAULT_KIND") {
        // The panic cell exercises the resume path; here it degrades to the
        // mixed plan so every matrix cell still checks stream parity.
        Ok(kind) if kind != "panic" => vec![kind],
        _ => ["burst", "stall", "corrupt", "mixed"].iter().map(|s| s.to_string()).collect(),
    };
    for kind in kinds {
        let (report, events) = run_with_sink(matrix_plan(&kind, seed), 17);
        assert!(
            matches!(events.last(), Some(CrawlEvent::CrawlFinished { .. })),
            "kind {kind}: the stream must end with the verdict"
        );
        assert_eq!(
            replay_report(&events),
            Some(report),
            "kind {kind} seed {seed}: replayed report diverged"
        );
    }
}

/// JSONL fidelity: the exact byte format `dwc crawl --events` writes — one
/// `to_json` line per event — parses back into a stream that replays to the
/// same report.
#[test]
fn jsonl_round_trip_replays_to_the_same_report() {
    let (report, events) = run_with_sink(matrix_plan("mixed", 3), 17);
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let parsed: Vec<CrawlEvent> = jsonl
        .lines()
        .map(|line| {
            CrawlEvent::from_json(line).unwrap_or_else(|| panic!("unparseable line {line:?}"))
        })
        .collect();
    assert_eq!(parsed, events, "serialization must be lossless");
    assert_eq!(replay_report(&parsed), Some(report));
}

/// Resume-path parity: a sink attached to a *resumed* crawler first receives
/// a snapshot event carrying the checkpointed totals, so its stream still
/// replays to the exact final report.
#[test]
fn late_attached_sink_on_a_resumed_crawl_replays_exactly() {
    let server = imdb_server(17);
    let config = CrawlConfig::builder().build().unwrap();
    let mut first = Crawler::new(Arc::clone(&server), PolicyKind::GreedyLink.build(), config);
    assert!(first.add_seed("Language", "Language_0"));
    for _ in 0..5 {
        first.step().unwrap();
    }
    let text = first.checkpoint().to_text();
    drop(first);

    let cp = Checkpoint::from_text(&text).unwrap();
    let config = CrawlConfig::builder().build().unwrap();
    let mut resumed = Crawler::resume(server, PolicyKind::GreedyLink.build(), &cp, config);
    let sink = MemorySink::new();
    resumed.add_sink(Box::new(sink.clone()));
    let report = resumed.run();
    let events = sink.collected();
    assert!(
        matches!(events.first(), Some(CrawlEvent::CrawlResumed { .. })),
        "a late sink must be seeded with the snapshot event"
    );
    assert_eq!(replay_report(&events), Some(report));
}

/// Cache-hit parity: two wire-mode crawls sharing one server overlap on the
/// render cache; the second crawl's `PageCacheHit` events must fold into the
/// report's `page_cache_hits` exactly, and its stream must still replay.
#[test]
fn page_cache_hits_survive_replay() {
    let server = imdb_server(17);
    let run = |server: &Arc<WebDbServer>| {
        let config =
            CrawlConfig::builder().prober(ProberMode::Wire).max_rounds(200).build().unwrap();
        let mut crawler = Crawler::new(Arc::clone(server), PolicyKind::GreedyLink.build(), config);
        assert!(crawler.add_seed("Language", "Language_0"));
        let sink = MemorySink::new();
        crawler.add_sink(Box::new(sink.clone()));
        (crawler.run(), sink.collected())
    };
    let (first_report, first_events) = run(&server);
    assert_eq!(first_report.page_cache_hits, 0, "a cold cache renders every page");
    assert_eq!(replay_report(&first_events), Some(first_report));

    // The second "fleet worker" re-issues the same greedy query sequence and
    // rides the first worker's rendered pages.
    let (report, events) = run(&server);
    assert!(report.page_cache_hits > 0, "overlapping crawls must hit the cache");
    assert_eq!(report.page_cache_hits, server.page_cache().hits());
    let hit_events = events.iter().filter(|e| matches!(e, CrawlEvent::PageCacheHit)).count() as u64;
    assert_eq!(report.page_cache_hits, hit_events, "report is a fold over the stream");
    assert_eq!(replay_report(&events), Some(report));
}

/// Journal-failure parity: a journal that cannot be created, or whose
/// writes all fail, surfaces as one `JournalFailed` event that folds into
/// `journal_failures`. The crawl carries on unjournaled to the report an
/// unjournaled crawl returns, and the stream still replays exactly.
#[test]
fn journal_failures_are_reported_and_replay() {
    // No file can be created under a device node.
    let mut paths = vec!["/dev/null/journal"];
    if cfg!(target_os = "linux") {
        // Linux's `/dev/full` opens fine but refuses every write.
        paths.push("/dev/full");
    }
    let (clean, _) = run_with_sink(FaultPlan::new(), 17);
    assert_eq!(clean.journal_failures, 0);
    for path in paths {
        let config = CrawlConfig::builder().journal_path(path);
        let (report, events) = run_configured(FaultPlan::new(), 17, config);
        let failed = events.iter().filter(|e| matches!(e, CrawlEvent::JournalFailed)).count();
        assert_eq!(failed, 1, "{path}: the first failure stops journaling");
        assert_eq!(report.journal_failures, 1, "{path}: report is a fold over the stream");
        assert_eq!(replay_report(&events), Some(report.clone()), "{path}: replay diverged");
        assert_eq!(CrawlReport { journal_failures: 0, ..report }, clean, "{path}: crawl diverged");
    }
}

proptest! {
    // Whole crawls per case are expensive; a dozen seeded fault plans cover
    // plenty of interleavings of faults, retries, stalls, and requeues.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded fault plan, the recorded stream replays to the exact
    /// report the crawl returned.
    #[test]
    fn replay_parity_holds_for_seeded_fault_plans(
        seed in 0u64..1000,
        fault_prob in 0.0f64..0.12,
    ) {
        let plan = FaultPlan::seeded(
            seed,
            500,
            fault_prob,
            &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Corrupt],
        );
        let (report, events) = run_with_sink(plan, 7);
        prop_assert_eq!(replay_report(&events), Some(report));
    }
}
