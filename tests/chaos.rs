//! Chaos suite: seeded lossy-wire schedules against the serving tier.
//!
//! Every schedule is a [`ChaosPlan`] — an exact map from wire-frame index to
//! fault — interposed between a crawler and a [`SourceService`]. The matrix
//! sweeps all eight [`ChaosKind`]s across enough seeds for ≥1,000 schedules
//! and checks four invariants on every one:
//!
//! 1. **Absorption** — the crawl report is bit-identical to the fault-free
//!    baseline (exactly-once request ids + client retransmission hide every
//!    recoverable fault below the `DataSource` seam). `Halt` is the one
//!    unrecoverable kind: there the crawl may end early but must never
//!    harvest records the baseline didn't.
//! 2. **Billing conservation** — `rounds_used` equals `executed + shed +
//!    cancelled + retransmitted`, cross-checked between the connection's
//!    atomic counters and the folded event stream.
//! 3. **Replay parity** — the [`ServiceReport`] folded live equals the one
//!    replayed from the recorded event stream.
//! 4. **Determinism** — re-running the same seed reproduces the same crawl
//!    report and the same service counters.
//!
//! A failing schedule is ddmin-shrunk ([`shrink_plan`]) to a 1-minimal fault
//! set, written to `target/chaos/` (CI uploads it as an artifact), and
//! printed as a reproducible `dwc chaos --chaos-plan …` invocation.
//!
//! CI selects one kind per job via `DWC_CHAOS_KIND` and offsets seeds via
//! `DWC_CHAOS_SEED`; unset, the full 8 × 125 matrix runs.

use deep_web_crawler::core::replay_service_report;
use deep_web_crawler::model::fixtures::figure1_table;
use deep_web_crawler::model::{AttrId, AttrSpec, Schema, UniversalTable};
use deep_web_crawler::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Seeds per chaos kind: 8 kinds × 125 = 1,000 schedules when the matrix
/// is not filtered down to one kind.
const SEEDS_PER_KIND: u64 = 125;

fn figure1_server() -> Arc<WebDbServer> {
    let table = figure1_table();
    let spec = InterfaceSpec::permissive(table.schema(), 2);
    Arc::new(WebDbServer::new(table, spec))
}

fn crawl_config() -> CrawlConfig {
    CrawlConfig::builder().max_rounds(400).prober(ProberMode::Wire).build().unwrap()
}

fn run_crawl<S: DataSource>(source: S) -> CrawlReport {
    let mut crawler = Crawler::new(source, PolicyKind::GreedyLink.build(), crawl_config());
    crawler.add_seed("A", "a2");
    crawler.run()
}

/// Everything one chaos crawl produced, for invariant checking.
struct ChaosRun {
    report: CrawlReport,
    service: ServiceReport,
    replayed: ServiceReport,
    inner_rounds: u64,
    conn_rounds: u64,
    tally: Tally<ChaosKind>,
}

fn run_chaos(plan: &ChaosPlan) -> ChaosRun {
    let inner = figure1_server();
    let service = SourceService::start(Arc::clone(&inner), ServeConfig::default());
    let sink = MemorySink::new();
    service.add_sink(Box::new(sink.clone()));
    // Sub-millisecond stall/reorder keeps 1,000 schedules fast while still
    // exercising the delayed-execution paths.
    let chaos = Arc::new(
        ChaosState::new(plan.clone())
            .stall_for(Duration::from_micros(200))
            .reorder_for(Duration::from_micros(100)),
    );
    let conn = service.connect().with_chaos(Arc::clone(&chaos));
    let report = run_crawl(conn.clone());
    // Chaos duplicates enqueued alongside the crawl's final request may
    // still be draining when its reply lands; wait until every admitted
    // request is accounted for before reading the billing counters.
    loop {
        let r = service.service_report();
        if r.enqueued == r.completed + r.cancelled {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let conn_rounds = conn.rounds_used();
    drop(conn);
    let service_report = service.shutdown();
    ChaosRun {
        report,
        service: service_report,
        replayed: replay_service_report(&sink.collected()),
        inner_rounds: inner.rounds_used(),
        conn_rounds,
        tally: chaos.tally(),
    }
}

/// The counter half of a [`ServiceReport`] — everything that must be
/// deterministic across same-seed runs (latencies are wall-clock and are
/// not).
fn counters(r: &ServiceReport) -> [u64; 10] {
    [
        r.enqueued,
        r.completed,
        r.shed,
        r.cancelled,
        r.frames_dropped,
        r.retransmitted,
        r.hedged,
        r.restarts,
        r.breaker_trips,
        r.breaker_recoveries,
    ]
}

/// Runs `plan` and returns a description of the first violated invariant,
/// or `None` when all hold. This is also the oracle handed to
/// [`shrink_plan`].
fn violation(plan: &ChaosPlan, baseline: &CrawlReport) -> Option<String> {
    let run = run_chaos(plan);
    if run.replayed != run.service {
        return Some(format!(
            "replay parity broken: live {:?} != replayed {:?}",
            run.service, run.replayed
        ));
    }
    let billed =
        run.inner_rounds + run.service.shed + run.service.cancelled + run.service.retransmitted;
    if run.conn_rounds != billed {
        return Some(format!(
            "billing conservation broken: rounds_used {} != executed {} + shed {} + \
             cancelled {} + retransmitted {}",
            run.conn_rounds,
            run.inner_rounds,
            run.service.shed,
            run.service.cancelled,
            run.service.retransmitted
        ));
    }
    let halts = plan.iter().any(|(_, k)| k == ChaosKind::Halt);
    if halts {
        if run.report.records > baseline.records {
            return Some(format!(
                "halted crawl harvested {} records, more than the baseline's {}",
                run.report.records, baseline.records
            ));
        }
    } else if run.report != *baseline {
        return Some(format!(
            "crawl report diverged from the fault-free baseline under a recoverable plan: \
             {} records / {} rounds / {} queries vs baseline {} / {} / {}",
            run.report.records,
            run.report.rounds,
            run.report.queries,
            baseline.records,
            baseline.rounds,
            baseline.queries
        ));
    }
    None
}

/// Shrinks a failing plan, writes the artifact CI uploads, and panics with
/// a copy-pasteable reproduction.
fn report_failure(kind: ChaosKind, seed: u64, plan: &ChaosPlan, why: &str, baseline: &CrawlReport) {
    let shrunk = shrink_plan(plan, |p| violation(p, baseline).is_some());
    let spec = shrunk.to_spec();
    let dir = std::path::Path::new("target/chaos");
    let _ = std::fs::create_dir_all(dir);
    let artifact = dir.join(format!("shrunk-{kind}-{seed}.txt"));
    let _ = std::fs::write(
        &artifact,
        format!(
            "kind: {kind}\nseed: {seed}\nviolation: {why}\nfull plan: {}\nshrunk plan: {spec}\n\
             repro: dwc chaos --chaos-plan \"{spec}\"\n",
            plan.to_spec()
        ),
    );
    panic!(
        "chaos schedule {kind}/{seed} violated an invariant: {why}\n\
         shrunk to {} fault(s): {spec}\n\
         reproduce with: dwc chaos --chaos-plan \"{spec}\"\n\
         (also written to {})",
        shrunk.len(),
        artifact.display()
    );
}

fn matrix_kinds() -> Vec<ChaosKind> {
    match std::env::var("DWC_CHAOS_KIND") {
        Ok(token) => {
            let kind = ChaosKind::parse(&token)
                .unwrap_or_else(|| panic!("unknown DWC_CHAOS_KIND {token:?}"));
            vec![kind]
        }
        Err(_) => ChaosKind::ALL.to_vec(),
    }
}

fn seed_base() -> u64 {
    std::env::var("DWC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// The tentpole matrix: ≥1,000 seeded schedules (8 kinds × 125 seeds, or
/// 125 for the CI-selected kind), every invariant checked on each, with a
/// determinism double-run on a stride of cells.
#[test]
fn seeded_chaos_matrix_holds_every_invariant() {
    let baseline = run_crawl(&*figure1_server());
    assert!(baseline.records > 0, "the baseline crawl must harvest something");
    let base = seed_base();
    for kind in matrix_kinds() {
        for i in 0..SEEDS_PER_KIND {
            let seed = base + i;
            let plan = ChaosPlan::seeded(seed, 48, 0.2, &[kind]);
            if let Some(why) = violation(&plan, &baseline) {
                report_failure(kind, seed, &plan, &why, &baseline);
            }
            if i % 8 == 0 {
                // Determinism: the same seed must reproduce the same crawl
                // report and the same service counters.
                let a = run_chaos(&plan);
                let b = run_chaos(&plan);
                assert_eq!(a.report, b.report, "{kind}/{seed}: crawl report not deterministic");
                assert_eq!(
                    counters(&a.service),
                    counters(&b.service),
                    "{kind}/{seed}: service counters not deterministic"
                );
                assert_eq!(a.tally, b.tally, "{kind}/{seed}: chaos tally not deterministic");
            }
        }
    }
}

/// Mixed-kind schedules (the pool drawn from all eight kinds at once) stress
/// fault interactions the single-kind matrix cannot.
#[test]
fn mixed_kind_schedules_hold_every_invariant() {
    let baseline = run_crawl(&*figure1_server());
    let base = seed_base();
    for i in 0..64 {
        let seed = 10_000 + base + i;
        let plan = ChaosPlan::seeded(seed, 48, 0.25, &ChaosKind::ALL);
        if let Some(why) = violation(&plan, &baseline) {
            report_failure(ChaosKind::Drop, seed, &plan, &why, &baseline);
        }
    }
}

/// The shrinker turned loose on a real failure: a plan that genuinely
/// violates absorption (a halt) shrinks to exactly the halt fault.
#[test]
fn shrinking_a_halting_plan_isolates_the_halt() {
    let baseline = run_crawl(&*figure1_server());
    // Pad a halt with harmless recoverable faults; the crawl ends early, so
    // the report diverges (fewer records) — `violation` flags nothing for
    // halts unless records exceed baseline, so use report divergence
    // directly as the failing predicate here.
    let plan = ChaosPlan::new().stall_at(1).duplicate_at(3).halt_at(5).corrupt_at(7);
    let fails = |p: &ChaosPlan| run_chaos(p).report != baseline;
    assert!(fails(&plan), "a mid-crawl halt must change the crawl report");
    let shrunk = shrink_plan(&plan, fails);
    assert_eq!(shrunk.len(), 1, "only the halt matters: {}", shrunk.to_spec());
    assert_eq!(shrunk.get(5), Some(ChaosKind::Halt));
}

// ---------------------------------------------------------------------------
// Crash-at-every-frame recovery (satellite: checkpoint-resume parity)
// ---------------------------------------------------------------------------

/// Runs the protocol crawl stepping with a checkpoint before every step,
/// killing the service at wire frame `halt_at`. If the kill landed
/// mid-crawl, resumes from the last pre-kill checkpoint against a fresh
/// in-process source and returns that report; otherwise returns the
/// completed report.
fn crawl_killed_at(server: Arc<WebDbServer>, halt_at: u64) -> CrawlReport {
    let service = SourceService::start(Arc::clone(&server), ServeConfig::default());
    let chaos = Arc::new(ChaosState::new(ChaosPlan::new().halt_at(halt_at)));
    let conn = service.connect().with_chaos(Arc::clone(&chaos));
    let mut crawler = Crawler::new(conn, PolicyKind::Bfs.build(), CrawlConfig::default());
    crawler.add_seed("A", "a2");
    let mut last_cp = crawler.checkpoint();
    loop {
        if chaos.is_halted() {
            // The service died mid-crawl. Steps that observed the dead
            // service polluted the crawler's state (failed queries), so the
            // crawler is discarded; the last checkpoint taken *before* the
            // kill is the recovery point.
            drop(crawler);
            let fresh = figure1_server();
            let resumed =
                Crawler::resume(&*fresh, PolicyKind::Bfs.build(), &last_cp, CrawlConfig::default());
            return resumed.run();
        }
        last_cp = crawler.checkpoint();
        if crawler.step().is_none() {
            return crawler.into_report(StopReason::FrontierExhausted);
        }
    }
}

/// Killing the service at *every* frame index of the reference run, one at
/// a time, always recovers to the uninterrupted report via
/// checkpoint-resume.
#[test]
fn service_killed_at_every_frame_recovers_to_the_uninterrupted_report() {
    let baseline = {
        let server = figure1_server();
        let mut crawler = Crawler::new(&*server, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", "a2");
        crawler.run()
    };
    // Count the reference run's wire frames with a no-fault chaos wire.
    let frames = {
        let server = figure1_server();
        let service = SourceService::start(Arc::clone(&server), ServeConfig::default());
        let chaos = Arc::new(ChaosState::new(ChaosPlan::new()));
        let conn = service.connect().with_chaos(Arc::clone(&chaos));
        let report = run_protocol_bfs(conn);
        assert_eq!(report.records, baseline.records, "fault-free protocol parity");
        chaos.seen()
    };
    assert!(frames >= 4, "the reference crawl must actually use the wire");
    for halt_at in 1..=frames {
        let report = crawl_killed_at(figure1_server(), halt_at);
        assert_eq!(
            report.records, baseline.records,
            "kill at frame {halt_at}/{frames}: resumed crawl lost or duplicated records"
        );
        assert_eq!(
            report.queries, baseline.queries,
            "kill at frame {halt_at}/{frames}: resumed crawl issued a different query set"
        );
        assert_eq!(
            report.rounds, baseline.rounds,
            "kill at frame {halt_at}/{frames}: BFS resume must be cost-exact"
        );
    }
}

fn run_protocol_bfs<S: DataSource>(source: S) -> CrawlReport {
    let mut crawler = Crawler::new(source, PolicyKind::Bfs.build(), CrawlConfig::default());
    crawler.add_seed("A", "a2");
    crawler.run()
}

/// A random record: 2–5 `(attr, value-index)` fields over 3 attributes.
fn record_strategy() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..3, 0u8..10), 2..=5)
}

fn table_from(records: &[Vec<(u16, u8)>]) -> UniversalTable {
    let schema = Schema::new(vec![
        AttrSpec::queriable("A"),
        AttrSpec::queriable("B"),
        AttrSpec::queriable("C"),
    ]);
    let mut t = UniversalTable::new(schema);
    for rec in records {
        let fields: Vec<(AttrId, String)> =
            rec.iter().map(|&(a, v)| (AttrId(a), format!("v{v}"))).collect();
        t.push_record_strs(fields.iter().map(|(a, s)| (*a, s.as_str())));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint-resume recovery holds on random databases too, with the
    /// kill frame drawn across the whole schedule.
    #[test]
    fn service_crash_recovery_on_random_databases(
        records in prop::collection::vec(record_strategy(), 1..20),
        halt_at in 1u64..60,
        seed_val in 0u8..8,
    ) {
        let table = table_from(&records);
        let seed = format!("v{seed_val}");
        let make_server = || {
            let spec = InterfaceSpec::permissive(table.schema(), 3);
            Arc::new(WebDbServer::new(table.clone(), spec))
        };
        let baseline = {
            let server = make_server();
            let mut c = Crawler::new(&*server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("A", &seed);
            c.run()
        };

        let service = SourceService::start(make_server(), ServeConfig::default());
        let chaos = Arc::new(ChaosState::new(ChaosPlan::new().halt_at(halt_at)));
        let conn = service.connect().with_chaos(Arc::clone(&chaos));
        let mut crawler = Crawler::new(conn, PolicyKind::Bfs.build(), CrawlConfig::default());
        crawler.add_seed("A", &seed);
        let mut last_cp = crawler.checkpoint();
        let report = loop {
            if chaos.is_halted() {
                drop(crawler);
                let fresh = make_server();
                let resumed = Crawler::resume(
                    &*fresh,
                    PolicyKind::Bfs.build(),
                    &last_cp,
                    CrawlConfig::default(),
                );
                break resumed.run();
            }
            last_cp = crawler.checkpoint();
            if crawler.step().is_none() {
                break crawler.into_report(StopReason::FrontierExhausted);
            }
        };
        prop_assert_eq!(report.records, baseline.records);
        prop_assert_eq!(report.queries, baseline.queries);
        prop_assert_eq!(report.rounds, baseline.rounds, "BFS resume is cost-exact");
    }
}

/// `dwc chaos` refuses a chaos rate outside [0, 1], or NaN, with a message
/// and exit status 1, instead of clamping it or drawing an empty plan.
#[test]
fn cli_rejects_out_of_range_chaos_rates() {
    let dir = std::env::temp_dir().join(format!("dwc-chaos-rate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("figure1.csv");
    std::fs::write(&csv, deep_web_crawler::datagen::loader::to_csv(&figure1_table())).unwrap();
    for rate in ["1.5", "nan", "-0.1"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dwc"))
            .arg("chaos")
            .arg(&csv)
            .args(["--seed-value", "A=a2", "--chaos-rate", rate])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--chaos-rate {rate} must fail: {stderr}");
        assert!(stderr.contains("--chaos-rate must be a number in [0, 1]"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
