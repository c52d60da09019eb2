//! The repository benchmark: four closed-loop workloads over the crawler,
//! its serving tier, its fleet scheduler and its segment store.
//!
//! Every workload is a pair of steps. `setup` generates the workload's
//! inputs from the seed and builds what the measured step needs (index or
//! segments); `measure` runs the measured step once and checks its
//! outputs. The run loops here repeat both until the run length is reached,
//! then report end-to-end metrics (untraced run) or per-layer metrics
//! (traced run, see [`trace`] and [`probe`]).

pub mod build;
pub mod crawl;
pub mod fleet;
pub mod probe;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["crawl", "crawl-capped", "fleet", "build"];

/// End-to-end metrics `(name, unit)`: every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("records_per_s", "records/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A workload that does
/// not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("policy.select_s", "s"),
    ("policy.select_calls", "count"),
    ("policy.select_p99_us", "us"),
    ("policy.update_s", "s"),
    ("policy.update_calls", "count"),
    ("ingestor.busy_s", "s"),
    ("ingestor.records_returned", "count"),
    ("ingestor.records_new", "count"),
    ("ingestor.new_ratio", "ratio"),
    ("server.respond_s", "s"),
    ("server.respond_p99_us", "us"),
    ("server.page_cache_hit_rate", "ratio"),
    ("serve.overhead_s", "s"),
    ("serve.mean_queue_depth", "count"),
    ("serve.shed", "count"),
    ("store.pool_hits", "count"),
    ("store.pool_misses", "count"),
    ("store.pool_evictions", "count"),
    ("store.pool_hit_rate", "ratio"),
    ("store.read_page_s", "s"),
    ("store.append_s", "s"),
    ("store.append_bytes", "bytes"),
    ("build.push_s", "s"),
    ("build.finish_s", "s"),
    ("build.generate_s", "s"),
    ("build.bytes_per_record", "bytes"),
    ("build.cost_growth", "ratio"),
    ("build.small_us_per_record", "us"),
    ("build.large_us_per_record", "us"),
    ("crawler.self_s", "s"),
    ("executor.retries", "count"),
    ("executor.aborted_queries", "count"),
    ("executor.gave_up", "count"),
    ("journal.bytes_per_query", "bytes"),
    ("sched.slices", "count"),
    ("sched.steals", "count"),
    ("sched.worker_slice_imbalance", "ratio"),
    ("fleet.source_busy_s", "s"),
    ("crawl.rounds_to_target", "count"),
    ("crawl.pages_per_s", "1/s"),
    ("crawl.records_per_round", "ratio"),
    ("crawl.error_rate", "ratio"),
    ("trace.phase_s", "s"),
    ("trace.untraced_phase_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Named values a measured step reports beside its timings.
pub type Counters = BTreeMap<&'static str, f64>;

/// What one measured step produced.
#[derive(Debug, Default)]
pub struct Sample {
    /// Wall time of the measured step, seconds.
    pub wall_s: f64,
    /// Records harvested (crawls) or built (build).
    pub records: u64,
    /// Operations attempted: page requests, or records pushed.
    pub attempted: u64,
    /// Operations that still failed after the program's own retries.
    pub failed: u64,
    /// Raw per-operation latency samples, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Workload-specific counters, keyed by their metric names.
    pub counters: Counters,
    /// Crawl reports that must repeat exactly whenever one seed is
    /// measured (empty where thread interleaving decides the outcome).
    pub reports: Vec<dwc_core::CrawlReport>,
}

/// A benchmark workload.
pub trait Workload {
    /// What `setup` builds for one measured step.
    type Input;

    /// Generates inputs from `seed` and builds the structures the measured
    /// step needs. A tracer passed here only records; the run loop clears it
    /// before the measured step.
    fn setup(
        &self,
        seed: u64,
        scratch: &Scratch,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Self::Input, String>;

    /// Runs the measured step once and checks its outputs.
    fn measure(
        &self,
        input: Self::Input,
        scratch: &Scratch,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Sample, String>;

    /// Measured steps per run at least, however long they take.
    fn min_steps(&self) -> usize {
        2
    }

    /// The workload's headline figures, `(label, source, unit)`: `source`
    /// names an end-to-end metric, a counter, `latency_p99_us`,
    /// `latency_samples` or `error_rate`.
    fn headline(&self) -> &'static [(&'static str, &'static str, &'static str)];

    /// Threads that run the measured step's work side by side; layer shares
    /// are of the phase's wall time times this.
    fn parallelism(&self) -> usize {
        1
    }
}

/// A fresh per-run directory for segments and journals, removed when
/// dropped (also while unwinding from a panic).
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Creates `dir` empty.
    pub fn create(dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", dir.display()))?;
        Ok(Scratch { dir: dir.to_path_buf(), next: AtomicU64::new(0) })
    }

    /// A path under the scratch dir not handed out before.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One named metric value.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run of one workload reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted over the run's measured steps.
    pub attempted: u64,
    /// Operations that still failed after the program's own retries.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before it.
    pub lines: Vec<String>,
}

/// Seconds elapsed while `f` ran, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Resets this process's peak resident set size to its current one
/// (`clear_refs` mode 5), so the next [`peak_rss_mib`] covers only what runs
/// in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-ups timed per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

/// Runs `workload` untraced for `seconds` and reports its end-to-end
/// metrics. Fails on any failed output check.
pub fn run_untraced<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let (mut setups, mut samples, mut peaks) = (Vec::new(), Vec::<Sample>::new(), Vec::new());
    while samples.len() < workload.min_steps() || start.elapsed().as_secs_f64() < seconds {
        // Each step's own peak: the allocator's state after earlier steps
        // makes a single whole-process peak bimodal.
        reset_peak_rss()?;
        let (input, setup_s) = timed(|| workload.setup(seed, scratch, None));
        setups.push(setup_s);
        let sample = workload.measure(input?, scratch, None)?;
        peaks.push(peak_rss_mib()?);
        check_repeats(samples.first(), &sample)?;
        samples.push(sample);
    }
    while setups.len() < MIN_SETUPS {
        let (input, setup_s) = timed(|| workload.setup(seed, scratch, None));
        drop(input?);
        setups.push(setup_s);
    }

    let mut latencies: Vec<u64> =
        samples.iter().flat_map(|s| s.latencies_ns.iter().copied()).collect();
    latencies.sort_unstable();
    let latency_us = |q: f64| stats::percentile_sorted(&latencies, q).map(|ns| ns as f64 / 1e3);
    let (Some(p50), Some(p90), Some(p99)) = (latency_us(0.5), latency_us(0.9), latency_us(0.99))
    else {
        return Err("no latency samples".to_string());
    };
    let records_per_s = stats::median(
        &samples.iter().map(|s| ratio(s.records as f64, s.wall_s)).collect::<Vec<_>>(),
    );
    let values = [records_per_s, p50, p90, stats::median(&setups), stats::median(&peaks)];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();

    // Every figure a headline can name: the metrics above, the p99 with its
    // sample count, and each counter's median over the steps.
    let mut figures: Counters = metrics.iter().map(|m| (m.name, m.value)).collect();
    figures.insert("latency_p99_us", p99);
    figures.insert("latency_samples", latencies.len() as f64);
    for &name in samples[0].counters.keys() {
        let vals: Vec<f64> = samples.iter().filter_map(|s| s.counters.get(name).copied()).collect();
        figures.insert(name, stats::median(&vals));
    }
    let attempted = samples.iter().map(|s| s.attempted).sum();
    let failed = samples.iter().map(|s| s.failed).sum();
    figures.insert("error_rate", ratio(failed as f64, attempted as f64));

    let walls: Vec<String> = samples.iter().map(|s| format!("{:.3}", s.wall_s)).collect();
    let setup_walls: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    let peak_mibs: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
    let mut lines = vec![
        format!("measured steps (s): {}", walls.join(" ")),
        format!("set-ups (s): {}", setup_walls.join(" ")),
        format!("peak RSS per step (MiB): {}", peak_mibs.join(" ")),
        "headline:".to_string(),
    ];
    let common = [
        ("setup_s", "setup_s", "s"),
        ("peak_rss_mib", "peak_rss_mib", "MiB"),
        ("error_rate", "error_rate", "ratio"),
    ];
    for &(label, source, unit) in workload.headline().iter().chain(&common) {
        let value = figures.get(source).copied().unwrap_or(f64::NAN);
        lines.push(format!("  {label:<26} {value} {unit}"));
    }
    lines.push("counters (median over steps):".to_string());
    for name in samples[0].counters.keys() {
        lines.push(format!("  {name:<26} {}", figures[name]));
    }
    Ok(Outcome { attempted, failed, metrics, lines })
}

/// Runs `workload` alternately untraced and traced for `seconds` and
/// reports per-layer metrics of the last traced step, with the tracing
/// overhead over all pairs. Spans of the last traced step are written to
/// `spans_csv`.
pub fn run_traced<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    spans_csv: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    while last.is_none() || start.elapsed().as_secs_f64() < seconds {
        let plain = workload.measure(workload.setup(seed, scratch, None)?, scratch, None)?;
        let tracer = Arc::new(Tracer::new());
        let input = workload.setup(seed, scratch, Some(&tracer))?;
        tracer.clear();
        let traced = workload.measure(input, scratch, Some(&tracer))?;
        check_repeats(Some(&plain), &traced)?;
        untraced_s += plain.wall_s;
        traced_s += traced.wall_s;
        last = Some((plain, traced, tracer.take()));
    }
    let (plain, traced, spans) = last.expect("at least one traced step");
    trace::write_csv(&spans, spans_csv)
        .map_err(|e| format!("cannot write spans to {}: {e}", spans_csv.display()))?;

    let mut values = layer_times(&spans);
    values.extend(traced.counters.iter().map(|(k, v)| (*k, *v)));
    // The rate comes from the untraced step of the pair; tracing slows it.
    if let Some(v) = plain.counters.get("crawl.pages_per_s") {
        values.insert("crawl.pages_per_s", *v);
    }
    values.insert("trace.untraced_phase_s", plain.wall_s);
    values.insert("trace.overhead_ratio", ratio(traced_s, untraced_s));

    let mut lines = vec![format!("{} spans written to {}", spans.len(), spans_csv.display())];
    let threads = workload.parallelism();
    lines.push(format!("self time by span name (last traced step), share of {threads} x phase:"));
    let phase = values.get("trace.phase_s").copied().unwrap_or(0.0) * threads as f64;
    for (name, s) in trace::analyze(&spans) {
        lines.push(format!(
            "  {name:<18} n={:<8} total={:.4}s self={:.4}s share={:.1}%",
            s.count,
            s.total_s(),
            s.self_s(),
            100.0 * ratio(s.self_s(), phase)
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, value: values.get(name).copied().unwrap_or(0.0), unit })
        .collect();
    Ok(Outcome { attempted: traced.attempted, failed: traced.failed, metrics, lines })
}

/// Layer times from the spans of one traced step.
fn layer_times(spans: &[trace::Span]) -> Counters {
    let by = trace::analyze(spans);
    let get = |name: &str| by.get(name).cloned().unwrap_or_default();
    let p99_us = |name: &str| {
        stats::percentile(&get(name).durations_ns, 0.99).map_or(0.0, |ns| ns as f64 / 1e3)
    };
    let mut out = Counters::new();
    out.insert("policy.select_s", get("policy.select").total_s());
    out.insert("policy.select_calls", get("policy.select").count as f64);
    out.insert("policy.select_p99_us", p99_us("policy.select"));
    out.insert("policy.update_s", get("policy.update").total_s());
    out.insert("policy.update_calls", get("policy.update").count as f64);
    out.insert("ingestor.busy_s", get("ingestor.visit").total_s());
    out.insert("server.respond_s", get("server.respond").self_s());
    out.insert("server.respond_p99_us", p99_us("server.respond"));
    out.insert("serve.overhead_s", get("client.respond").self_s() + get("server.visit").self_s());
    out.insert("store.read_page_s", get("store.read_page").total_s());
    out.insert("store.append_s", get("store.append").total_s());
    out.insert("build.push_s", get("build.push").total_s());
    out.insert("build.finish_s", get("build.finish").total_s());
    // A single crawl runs on one thread, so its root's self time is the
    // crawler's own glue. Fleet workers overlap, so theirs is not.
    out.insert("crawler.self_s", get("crawl").self_s());
    if by.contains_key("fleet") {
        out.insert("fleet.source_busy_s", get("client.respond").total_s());
    }
    let phase = ["crawl", "fleet", "build"].iter().map(|n| get(n).total_s()).sum::<f64>();
    out.insert("trace.phase_s", phase);
    out.insert("trace.spans", spans.len() as f64);
    out
}

/// Deterministic workloads must produce the same crawl reports every time
/// one seed is measured.
fn check_repeats(first: Option<&Sample>, next: &Sample) -> Result<(), String> {
    match first {
        Some(first) if first.reports != next.reports => Err(format!(
            "crawl reports differ between steps of one seed: {:?} vs {:?} rounds",
            first.reports.iter().map(|r| r.rounds).collect::<Vec<_>>(),
            next.reports.iter().map(|r| r.rounds).collect::<Vec<_>>(),
        )),
        _ => Ok(()),
    }
}

/// Converts a builder error into the benchmark's error string.
pub(crate) fn cfg<T, E: std::fmt::Debug>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("invalid configuration: {e:?}"))
}

/// Converts an I/O error into the benchmark's error string.
pub(crate) fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Fails with `msg` unless `ok`.
pub(crate) fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}
