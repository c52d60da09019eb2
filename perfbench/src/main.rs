//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--scratch DIR] [--spans-dir DIR]
//! ```
//!
//! Prints human-readable lines, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed output check prints `"correct": false` and exits with 1.

use perfbench::build::Build;
use perfbench::crawl::SingleCrawl;
use perfbench::fleet::Fleet;
use perfbench::{run_traced, run_untraced, Metric, Outcome, Scratch, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_tmp/run"),
        spans_dir: PathBuf::from(".bench_build/perfbench-spans"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(value),
            "--spans-dir" => args.spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(args)
}

fn run<W: Workload>(w: &W, args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    if args.trace {
        let csv = args.spans_dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        run_traced(w, args.seed, args.seconds, scratch, &csv)
    } else {
        run_untraced(w, args.seed, args.seconds, scratch)
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = Scratch::create(&args.scratch).and_then(|scratch| match args.workload.as_str() {
        "crawl" => run(&SingleCrawl::CRAWL, &args, &scratch),
        "crawl-capped" => run(&SingleCrawl::CAPPED, &args, &scratch),
        "fleet" => run(&Fleet::FLEET, &args, &scratch),
        _ => run(&Build, &args, &scratch),
    });
    let outcome = match result {
        Ok(o) if o.metrics.iter().all(|m| m.value.is_finite()) => o,
        Ok(_) => {
            eprintln!("perfbench: a metric is not a finite number");
            println!("{}", json_line(false, 1, 1, &[]));
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("perfbench: check failed on {} seed {}: {e}", args.workload, args.seed);
            println!("{}", json_line(false, 1, 1, &[]));
            return ExitCode::from(1);
        }
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    println!("# {} seed {} ({mode}, {} s)", args.workload, args.seed, args.seconds);
    for line in &outcome.lines {
        println!("  {line}");
    }
    for m in &outcome.metrics {
        println!("  {:<28} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(true, outcome.attempted.max(1), outcome.failed, &outcome.metrics));
    ExitCode::SUCCESS
}
