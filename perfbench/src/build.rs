//! The `build` workload: the IMDB model's records pushed through
//! `SegmentTableBuilder` into a file-backed pager with a 32 MiB build
//! budget, first the first 100k records, then all 400k. The write path
//! beside `crawl-capped`'s reads: it loads the value interner and pager
//! appends at two scales, so superlinear growth shows as
//! `build.cost_growth` above 1. It skips the crawler entirely.
//!
//! `setup` generates the 400k records into memory, so the measured step
//! times the builder alone.

use crate::probe::PagerProbe;
use crate::trace::Tracer;
use crate::{ensure, io, ratio, Counters, Sample, Scratch, Workload};
use dwc_datagen::Preset;
use dwc_model::{AttrId, Schema, ValueId};
use dwc_store::{FilePager, SegmentTableBuilder, DEFAULT_PAGE_SIZE};
use std::sync::Arc;
use std::time::Instant;

/// Records of the small pass.
const SMALL: usize = 100_000;
/// Records of the large pass.
const LARGE: usize = 400_000;
/// RAM allowance for one postings bucket while building.
const BUILD_BUDGET: usize = 32 << 20;
/// Buffer pool of the finished table.
const POOL_BYTES: usize = 8 << 20;

/// The `build` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Build;

/// Generated records, packed: field `i` is `(attrs[i], text[ends[i-1]..ends[i]])`.
pub struct Records {
    schema: Schema,
    attrs: Vec<u16>,
    ends: Vec<u32>,
    text: String,
    /// Field count at the end of each record.
    record_ends: Vec<u32>,
    /// Distinct `(attribute, value)` pairs in the first `n + 1` records:
    /// the postings a table of those records must hold.
    postings: Vec<u64>,
    generate_s: f64,
}

impl Records {
    /// Generates `n` records of the IMDB model from `seed`.
    fn generate(n: usize, seed: u64) -> Records {
        let model = Preset::Imdb.model(1.0);
        let start = Instant::now();
        let mut r = Records {
            schema: model.schema(),
            attrs: Vec::new(),
            ends: Vec::new(),
            text: String::new(),
            record_ends: Vec::with_capacity(n),
            postings: Vec::with_capacity(n),
            generate_s: 0.0,
        };
        let mut postings = 0u64;
        model.generate_with(n, seed, |_, fields| {
            for (attr, s) in fields {
                r.attrs.push(attr.0);
                r.text.push_str(s);
                r.ends.push(u32::try_from(r.text.len()).expect("record text under 4 GiB"));
            }
            r.record_ends.push(r.attrs.len() as u32);
            // The builder keeps one posting per distinct field of a record.
            let distinct = (0..fields.len()).filter(|&i| !fields[..i].contains(&fields[i])).count();
            postings += distinct as u64;
            r.postings.push(postings);
        });
        r.generate_s = start.elapsed().as_secs_f64();
        r
    }

    /// Fields of record `i`.
    fn record(&self, i: usize) -> impl Iterator<Item = (AttrId, &str)> {
        let lo = if i == 0 { 0 } else { self.record_ends[i - 1] as usize };
        let hi = self.record_ends[i] as usize;
        (lo..hi).map(move |f| {
            let start = if f == 0 { 0 } else { self.ends[f - 1] as usize };
            (AttrId(self.attrs[f]), &self.text[start..self.ends[f] as usize])
        })
    }
}

/// What one build pass measured.
struct Pass {
    wall_s: f64,
    latencies_ns: Vec<u64>,
    /// Bytes appended to the pager: every segment's length.
    storage_bytes: u64,
    pool: dwc_store::PoolStats,
}

fn build_pass(
    records: &Records,
    n: usize,
    scratch: &Scratch,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Pass, String> {
    let dir = scratch.fresh("build");
    let pager = PagerProbe::new(
        io("open segment dir", FilePager::open(&dir, DEFAULT_PAGE_SIZE))?,
        tracer.cloned(),
    );
    let mut latencies_ns = Vec::with_capacity(n);
    let start = Instant::now();
    let mut builder =
        io("start build", SegmentTableBuilder::new(records.schema.clone(), Box::new(pager)))?
            .with_build_budget(BUILD_BUDGET);
    for i in 0..n {
        let pushed = Instant::now();
        let _span = tracer.map(|t| t.span("build.push"));
        io("push record", builder.push_record_strs(records.record(i)))?;
        latencies_ns.push(pushed.elapsed().as_nanos() as u64);
    }
    let table = {
        let _span = tracer.map(|t| t.span("build.finish"));
        io("finish build", builder.finish(POOL_BYTES))?
    };
    let wall_s = start.elapsed().as_secs_f64();
    // Before the checks below, which read through the pool too.
    let pool = table.pool_stats();

    ensure(table.num_records() == n as u64, || {
        format!("built table holds {} records, {n} were pushed", table.num_records())
    })?;
    let postings: u64 =
        (0..table.num_distinct_values()).map(|v| table.match_count(ValueId(v as u32)) as u64).sum();
    let expected = records.postings[n - 1];
    ensure(postings == expected, || {
        format!("built table holds {postings} postings, {expected} distinct fields were pushed")
    })?;
    let pass = Pass { wall_s, latencies_ns, storage_bytes: table.storage_bytes(), pool };
    drop(table);
    io("remove segments", std::fs::remove_dir_all(&dir))?;
    Ok(pass)
}

impl Workload for Build {
    type Input = Records;

    fn headline(&self) -> &'static [(&'static str, &'static str, &'static str)] {
        &[
            ("build_records_per_s", "records_per_s", "records/s"),
            ("build_cost_growth", "build.cost_growth", "ratio"),
            ("push_p50_us", "latency_p50_us", "us"),
            ("push_p90_us", "latency_p90_us", "us"),
            ("push_p99_us", "latency_p99_us", "us"),
            ("push_samples", "latency_samples", "count"),
        ]
    }

    fn setup(
        &self,
        seed: u64,
        _scratch: &Scratch,
        _tracer: Option<&Arc<Tracer>>,
    ) -> Result<Records, String> {
        Ok(Records::generate(LARGE, seed))
    }

    fn measure(
        &self,
        records: Records,
        scratch: &Scratch,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Sample, String> {
        let (small, large) = {
            let _root = tracer.map(|t| t.root("build"));
            (
                build_pass(&records, SMALL, scratch, tracer)?,
                build_pass(&records, LARGE, scratch, tracer)?,
            )
        };
        let small_us = small.wall_s * 1e6 / SMALL as f64;
        let large_us = large.wall_s * 1e6 / LARGE as f64;
        let mut counters = Counters::new();
        counters.insert("build.small_us_per_record", small_us);
        counters.insert("build.large_us_per_record", large_us);
        counters.insert("build.cost_growth", large_us / small_us);
        counters.insert("build.bytes_per_record", large.storage_bytes as f64 / LARGE as f64);
        counters.insert("build.generate_s", records.generate_s);
        counters.insert("store.append_bytes", large.storage_bytes as f64);
        counters.insert("store.pool_hits", large.pool.hits as f64);
        counters.insert("store.pool_misses", large.pool.misses as f64);
        counters.insert("store.pool_evictions", large.pool.evictions as f64);
        counters.insert(
            "store.pool_hit_rate",
            ratio(large.pool.hits as f64, (large.pool.hits + large.pool.misses) as f64),
        );
        Ok(Sample {
            wall_s: large.wall_s,
            records: LARGE as u64,
            attempted: (SMALL + LARGE) as u64,
            failed: 0,
            latencies_ns: large.latencies_ns,
            counters,
            reports: Vec::new(),
        })
    }

    fn min_steps(&self) -> usize {
        1
    }
}
