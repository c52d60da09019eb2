//! The wire hot path, end to end: render → parse → ingest, seed path vs
//! zero-copy path.
//!
//! Three simulated fleet workers (REPS) issue the same query workload
//! against one server, the overlap the shared page cache exists for. The
//! *seed path* is the pipeline as originally shipped: `page_to_xml`
//! allocates a fresh document per request, `parse_page` materializes owned
//! strings per field, and the ingestor interns each string through the
//! scalar path. The *zero-copy path* is this PR: `rendered_page` serves
//! repeat requests from the epoch-invalidated page cache, `parse_page_ref`
//! slices the shared buffer with `Cow` fields, and `ingest_page` batches
//! every string through the hash-once interner.
//!
//! Setup asserts the two paths harvest identical state; the timing gate
//! asserts the zero-copy path is at least [`REQUIRED_SPEEDUP`]× faster and
//! writes the measured numbers to `BENCH_4.json` at the repo root, so a
//! regression fails `cargo bench` (and CI's bench gate) loudly.

use criterion::{criterion_group, criterion_main, Criterion};
use dwc_core::stage::Ingestor;
use dwc_core::state::CrawlState;
use dwc_core::{DataSource, ProberMode, SourceRequest};
use dwc_model::{AttrId, AttrSpec, Schema, UniversalTable};
use dwc_server::{InterfaceSpec, Query, WebDbServer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Overlapping fleet workers re-issuing the same workload (cache hit rate
/// approaches `(REPS - 1) / REPS` on the zero-copy path).
const REPS: usize = 6;

/// The gate: the zero-copy path must beat the seed path by at least this
/// factor on the identical workload.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

const WORDS: [&str; 16] = [
    "amber", "basalt", "cinder", "delta", "ember", "fjord", "garnet", "harbor", "indigo",
    "juniper", "krypton", "lagoon", "meridian", "nimbus", "obsidian", "pewter",
];

fn word(state: &mut u64) -> &'static str {
    // splitmix64 step: deterministic, no `rand` needed in a bench binary.
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    WORDS[(z ^ (z >> 31)) as usize % WORDS.len()]
}

/// A catalog-shaped table with web-data-sized strings: unique long titles,
/// medium-cardinality authors (the query workload), low-cardinality
/// categories, and a publisher field whose `&` exercises the escape path.
fn bench_table(records: usize) -> UniversalTable {
    let schema = Schema::new(vec![
        AttrSpec::queriable("Title"),
        AttrSpec::queriable("Author"),
        AttrSpec::queriable("Category"),
        AttrSpec::queriable("Publisher"),
    ]);
    let mut t = UniversalTable::new(schema);
    let mut s = 0x1234_5678u64;
    for i in 0..records {
        let title = format!(
            "The {} {} of the {} {}: a field guide, volume {}",
            word(&mut s),
            word(&mut s),
            word(&mut s),
            word(&mut s),
            i
        );
        let author = format!("{} {} {}", word(&mut s), word(&mut s), i % (records / 12).max(1));
        let category = format!("{} studies", word(&mut s));
        let publisher = format!("{} & {} press", word(&mut s), word(&mut s));
        t.push_record_strs([
            (AttrId(0), title.as_str()),
            (AttrId(1), author.as_str()),
            (AttrId(2), category.as_str()),
            (AttrId(3), publisher.as_str()),
        ]);
    }
    t
}

/// The query workload: attribute values matching a handful of records each —
/// enough to paginate, small enough to keep the full bench under a second.
fn workload(table: &UniversalTable) -> Vec<Query> {
    let take = if quick_mode() { 12 } else { 48 };
    table
        .interner()
        .iter_ids()
        .filter(|&v| {
            let n = table.count_matches(v);
            (5..=40).contains(&n)
        })
        .map(|v| {
            let attr = table.interner().attr_of(v);
            Query::ByString {
                attr: table.schema().attr(attr).name.clone(),
                value: table.interner().value_str(v).to_owned(),
            }
        })
        .take(take)
        .collect()
}

fn fresh_state(server: &WebDbServer) -> CrawlState {
    let iface = WebDbServer::interface(server);
    let names = iface.attr_names.clone();
    let queriable: Vec<bool> =
        (0..names.len()).map(|i| iface.is_queriable(dwc_model::AttrId(i as u16))).collect();
    CrawlState::new(names, queriable, iface.page_size)
}

/// The seed path: owned wire pages (each response copied out of the borrowed
/// view with allocation per field) ingested record by record.
fn run_seed_path(server: &WebDbServer, queries: &[Query]) -> (u64, usize) {
    let mut state = fresh_state(server);
    let mut ingestor = Ingestor::new(false);
    let (mut touched, mut newly) = (Vec::new(), Vec::new());
    let mut records = 0u64;
    for _ in 0..REPS {
        for q in queries {
            let mut page_index = 0usize;
            loop {
                let mut owned = None;
                server
                    .respond(&SourceRequest::new(q, page_index, ProberMode::Wire), &mut |view| {
                        owned = Some(view.to_owned_page());
                    })
                    .expect("workload queries are valid");
                let page = owned.expect("respond visits on success");
                for rec in &page.records {
                    records += u64::from(ingestor.ingest_record(
                        &mut state,
                        rec,
                        &mut touched,
                        &mut newly,
                    ));
                }
                if !page.has_more {
                    break;
                }
                page_index += 1;
            }
        }
    }
    (records, state.vocab.len())
}

/// The zero-copy path: cached renders, borrowed parses, batch interning.
fn run_zero_copy_path(server: &WebDbServer, queries: &[Query]) -> (u64, usize) {
    let mut state = fresh_state(server);
    let mut ingestor = Ingestor::new(false);
    let (mut touched, mut newly) = (Vec::new(), Vec::new());
    let mut records = 0u64;
    for _ in 0..REPS {
        for q in queries {
            let mut page_index = 0usize;
            loop {
                let mut has_more = false;
                server
                    .respond(&SourceRequest::new(q, page_index, ProberMode::Wire), &mut |view| {
                        has_more = view.has_more;
                        records +=
                            ingestor.ingest_page(&mut state, view, &mut touched, &mut newly).new;
                    })
                    .expect("workload queries are valid");
                if !has_more {
                    break;
                }
                page_index += 1;
            }
        }
    }
    (records, state.vocab.len())
}

fn bench_pipeline(c: &mut Criterion) {
    let records = if quick_mode() { 1500 } else { 5000 };
    let table = bench_table(records);
    let queries = workload(&table);
    assert!(!queries.is_empty(), "workload must not be empty");
    let spec = InterfaceSpec::permissive(table.schema(), 10);
    let seed_server = WebDbServer::new(table.clone(), spec.clone());
    let zc_server = WebDbServer::new(table.clone(), spec);

    // Correctness first: both paths must harvest identical state.
    let seed_out = run_seed_path(&seed_server, &queries);
    let zc_out = run_zero_copy_path(&zc_server, &queries);
    assert_eq!(seed_out, zc_out, "the two pipelines must harvest identical (records, vocab)");
    assert!(zc_server.page_cache().hits() > 0, "overlapping reps must hit the page cache");

    // The timing gate (warm caches on both sides; the seed path has none).
    let passes = if quick_mode() { 3 } else { 10 };
    let start = Instant::now();
    for _ in 0..passes {
        black_box(run_seed_path(&seed_server, &queries));
    }
    let seed_elapsed = start.elapsed();
    let start = Instant::now();
    for _ in 0..passes {
        black_box(run_zero_copy_path(&zc_server, &queries));
    }
    let zc_elapsed = start.elapsed();
    let speedup = seed_elapsed.as_secs_f64() / zc_elapsed.as_secs_f64().max(1e-12);

    let hits = zc_server.page_cache().hits();
    let misses = zc_server.page_cache().misses();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"mode\": \"{}\",\n  \"queries\": {},\n  \
         \"fleet_reps\": {},\n  \"timed_passes\": {},\n  \"seed_path_ns_per_pass\": {:.0},\n  \
         \"zero_copy_ns_per_pass\": {:.0},\n  \"speedup\": {:.2},\n  \
         \"required_speedup\": {:.1},\n  \"page_cache_hits\": {},\n  \
         \"page_cache_misses\": {},\n  \"page_cache_hit_rate\": {:.3}\n}}\n",
        if quick_mode() { "quick" } else { "full" },
        queries.len(),
        REPS,
        passes,
        seed_elapsed.as_nanos() as f64 / passes as f64,
        zc_elapsed.as_nanos() as f64 / passes as f64,
        speedup,
        REQUIRED_SPEEDUP,
        hits,
        misses,
        hit_rate,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_4.json");
    std::fs::write(&out, &json).expect("write BENCH_4.json");
    println!("pipeline speedup {speedup:.2}x (gate {REQUIRED_SPEEDUP:.1}x) -> {}", out.display());
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "zero-copy wire pipeline must be at least {REQUIRED_SPEEDUP}x faster than the seed \
         path, measured {speedup:.2}x ({seed_elapsed:?} vs {zc_elapsed:?})"
    );

    // Criterion numbers for the record (the gate above already enforced).
    let mut group = c.benchmark_group("wire_pipeline");
    group.sample_size(10);
    group.bench_function("seed_owned", |b| {
        b.iter(|| black_box(run_seed_path(&seed_server, &queries)))
    });
    group.bench_function("zero_copy_cached", |b| {
        b.iter(|| black_box(run_zero_copy_path(&zc_server, &queries)))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
