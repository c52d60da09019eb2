//! `dwc resume` end to end: a crawl stopped by its round budget and resumed
//! from its state journal finishes exactly like an uninterrupted crawl —
//! same records, same queries, same rounds (Def. 2.3) — because the journal
//! holds every completed query and nothing is issued twice.

use std::path::{Path, PathBuf};
use std::process::Command;

const DWC: &str = env!("CARGO_BIN_EXE_dwc");
const SEED: &str = "Author=Author_5";

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `dwc` in `dir`, requires success, and returns its stdout.
fn dwc(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(DWC).args(args).current_dir(dir).output().expect("run dwc");
    assert!(out.status.success(), "dwc {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `records`, `queries` and `rounds` lines of a crawl report.
fn totals(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| ["records", "queries", "rounds"].iter().any(|k| l.starts_with(k)))
        .collect()
}

#[test]
fn resumed_journal_crawl_matches_the_uninterrupted_crawl() {
    let dir = scratch_dir("resume");
    dwc(&dir, &["generate", "dblp", "--scale", "0.002", "--seed", "3", "--out", "d.csv"]);
    let full = dwc(&dir, &["crawl", "d.csv", "--seed-value", SEED, "--trace", "t.csv"]);
    assert_eq!(totals(&full).len(), 3, "report lines: {full}");

    // Stop the journaled crawl exactly at the query boundary where the
    // uninterrupted crawl had harvested half its records.
    let trace = std::fs::read_to_string(dir.join("t.csv")).unwrap();
    let points: Vec<Vec<u64>> =
        trace.lines().skip(1).map(|l| l.split(',').map(|f| f.parse().unwrap()).collect()).collect();
    let total = points.last().unwrap()[2];
    let half = points.iter().find(|p| 2 * p[2] >= total).unwrap();
    let budget = half[0].to_string();
    let stopped = dwc(
        &dir,
        &["crawl", "d.csv", "--seed-value", SEED, "--journal", "j.jnl", "--budget", &budget],
    );
    assert_ne!(totals(&stopped), totals(&full), "the budget must stop the crawl early");

    let resumed = dwc(&dir, &["resume", "d.csv", "--journal", "j.jnl"]);
    assert_eq!(totals(&resumed), totals(&full), "resume must finish like the uninterrupted crawl");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_needs_a_journal_with_state() {
    let dir = scratch_dir("no-journal");
    dwc(&dir, &["generate", "dblp", "--scale", "0.002", "--out", "d.csv"]);
    for args in [&["resume", "d.csv"][..], &["resume", "d.csv", "--journal", "missing.jnl"]] {
        let out = Command::new(DWC).args(args).current_dir(&dir).output().expect("run dwc");
        assert!(!out.status.success(), "dwc {args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("journal"), "dwc {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
