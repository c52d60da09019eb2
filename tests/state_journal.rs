//! The state journal as the crawl's only durable state.
//!
//! * **Bounded size** — a long journaled crawl with no other persistence
//!   compacts as it goes: the file never exceeds twice its base frame plus
//!   one delta frame.
//! * **Durable resume** — `Crawler::resume` compacts the resumed state into
//!   the journal before it returns, so a crash before the first resumed
//!   query still recovers it.

use deep_web_crawler::prelude::*;
use deep_web_crawler::store::FrameLog;
use std::path::{Path, PathBuf};

fn scratch_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwc-state-journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("crawl.jnl")
}

fn server() -> WebDbServer {
    let table = Preset::Dblp.table(0.002, 3);
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    WebDbServer::new(table, spec)
}

/// Bytes of the base frame and of the largest delta frame in the journal
/// file at `path` (each frame carries a 12-byte header).
fn frame_sizes(path: &Path) -> (u64, u64) {
    let replay = FrameLog::replay(path).expect("replay journal");
    let size = |f: &Vec<u8>| 12 + f.len() as u64;
    let base = size(replay.frames.first().expect("base frame"));
    (base, replay.frames[1..].iter().map(size).max().unwrap_or(0))
}

#[test]
fn long_journaled_crawl_stays_within_twice_its_base() {
    let path = scratch_journal("bounded");
    let config = CrawlConfig::builder().journal_path(&path).build().unwrap();
    let source = server();
    let mut crawler = Crawler::new(&source, PolicyKind::GreedyLink.build(), config);
    assert!(crawler.add_seed("Author", "Author_5"));
    let mut steps = 0u64;
    while crawler.step().is_some() {
        steps += 1;
        let len = std::fs::metadata(&path).unwrap().len();
        let (base, delta) = frame_sizes(&path);
        assert!(len <= 2 * base + delta, "step {steps}: {len} B over base {base} B");
    }
    assert!(steps > 1000, "a long crawl: {steps} queries");
    assert!(crawler.checkpoints_written() >= 2, "the journal must compact as it grows");
    let report = crawler.into_report(StopReason::FrontierExhausted);
    assert_eq!(report.journal_failures + report.checkpoint_failures, 0);
    let rec = StateJournal::recover(&path).unwrap().expect("journal state");
    assert_eq!(rec.checkpoint.records.len() as u64, report.records);
    assert_eq!((rec.checkpoint.rounds, rec.checkpoint.queries), (report.rounds, report.queries));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn resume_is_durable_before_the_first_step() {
    let path = scratch_journal("resume");
    let source = server();
    let mut crawler = Crawler::new(&source, PolicyKind::GreedyLink.build(), CrawlConfig::default());
    assert!(crawler.add_seed("Author", "Author_5"));
    for _ in 0..20 {
        crawler.step().expect("frontier left");
    }
    let cp = crawler.checkpoint();
    drop(crawler);

    // An older journal at the path must give way to the resumed state.
    let config = CrawlConfig::builder().journal_path(&path).build().unwrap();
    let mut older = Crawler::new(&source, PolicyKind::GreedyLink.build(), config.clone());
    assert!(older.add_seed("Author", "Author_5"));
    older.step().expect("frontier left");
    drop(older);

    let resumed = Crawler::resume(&source, PolicyKind::GreedyLink.build(), &cp, config);
    let rec = StateJournal::recover(&path).unwrap().expect("resumed state is durable");
    assert_eq!(rec.checkpoint, cp, "recovery must return the resumed checkpoint");
    assert_eq!(rec.deltas_applied, 0);
    drop(resumed);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
