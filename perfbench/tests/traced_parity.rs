//! Tracing observes and never steers: for each crawl workload's
//! configuration, a crawl through the probes with a tracer attached returns
//! the same `CrawlReport`s as the same crawl untraced. Sources are scaled
//! down so the suite stays quick; everything else is the workload's own.

use perfbench::crawl::SingleCrawl;
use perfbench::fleet::Fleet;
use perfbench::trace::{analyze, Tracer};
use perfbench::{Scratch, Workload};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> Scratch {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("traced-parity-{tag}"));
    Scratch::create(&dir).expect("scratch dir")
}

/// Measures `workload` untraced, then traced; returns the traced spans
/// after checking both runs' reports are equal.
fn assert_traced_matches<W: Workload>(workload: &W, tag: &str) -> Vec<perfbench::trace::Span> {
    let scratch = scratch(tag);
    let seed = 7;
    let plain = workload
        .measure(workload.setup(seed, &scratch, None).expect("setup"), &scratch, None)
        .expect("untraced step");
    let tracer = Arc::new(Tracer::new());
    let input = workload.setup(seed, &scratch, Some(&tracer)).expect("traced setup");
    tracer.clear();
    let traced = workload.measure(input, &scratch, Some(&tracer)).expect("traced step");
    assert!(!plain.reports.is_empty(), "{tag}: the step must report its crawls");
    assert_eq!(plain.reports, traced.reports, "{tag}: tracing changed a crawl report");
    tracer.take()
}

#[test]
fn traced_crawl_matches_untraced() {
    let spans = assert_traced_matches(&SingleCrawl { scale: 0.01, ..SingleCrawl::CRAWL }, "crawl");
    let by = analyze(&spans);
    for name in ["crawl", "client.respond", "server.respond", "ingestor.visit", "policy.select"] {
        assert!(by.contains_key(name), "crawl: no {name} span");
    }
}

#[test]
fn traced_capped_crawl_matches_untraced() {
    let spans =
        assert_traced_matches(&SingleCrawl { scale: 0.005, ..SingleCrawl::CAPPED }, "crawl-capped");
    let by = analyze(&spans);
    for name in ["server.respond", "server.visit", "store.read_page", "policy.update"] {
        assert!(by.contains_key(name), "crawl-capped: no {name} span");
    }
    // The service-side half of each request joins its client span.
    let client: std::collections::HashMap<u64, u64> =
        spans.iter().filter(|s| s.name == "client.respond").map(|s| (s.id, s.request)).collect();
    for s in spans.iter().filter(|s| s.name == "server.respond") {
        assert_eq!(client.get(&s.parent), Some(&s.request), "orphan server span {s:?}");
    }
}

#[test]
fn traced_fleet_matches_untraced() {
    // One worker: the jobs' interleaving, and so every report, repeats.
    let fleet = Fleet { scale: 0.01, total_rounds: 2_000, workers: 1 };
    let spans = assert_traced_matches(&fleet, "fleet");
    assert!(spans.iter().any(|s| s.name == "client.respond"));
}
