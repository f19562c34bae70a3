//! End-to-end and per-layer benchmark of the rshare block store.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mirror-hot|ec-degraded|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run records spans around
//! every call into a layer and the JSON carries the per-layer metrics
//! instead. Earlier lines are a human-readable report: host and config
//! stamp, every metric with its sample count, the per-change adaptivity
//! table and, when traced, the span summary.

mod gen;
mod harness;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::{median, median_f64, tail, Samples};
use workloads::Finished;

/// The end-to-end metrics in the result line, as listed under
/// `end_to_end` in `BENCHMARK.json`. The report prints the others too
/// (`degraded_read_p50_us`, `degraded_read_p99_us`, `repair_blocks_per_s`,
/// `membership_change_s`, `scrape_p50_ms`): they are dominated by
/// memory-bound scans whose run-to-run spread on a shared 2-core VM
/// (0.19–0.54 of the median over ten runs) is wider than any regression
/// bound the result line may carry.
const GUARDED: [&str; 8] = [
    "setup_s",
    "ops_per_s",
    "read_p50_us",
    "read_p99_us",
    "write_p50_us",
    "write_p99_us",
    "moved_per_fair_min",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median and tail of a latency sample, in `scale` units of a nanosecond,
/// with a report line naming the quantile actually used.
fn latency(
    name: &str,
    s: &Samples,
    scale: f64,
    unit: &'static str,
    out: &mut Vec<(String, f64, &'static str)>,
    report: &mut String,
    problems: &mut Vec<String>,
) {
    let sorted = s.sorted();
    let p50 = median(&sorted).map_or(0.0, |v| v as f64 / scale);
    out.push((format!("{name}_p50_{unit}"), p50, unit));
    match tail(&sorted, 0.99) {
        Some((p, v)) => {
            out.push((format!("{name}_p99_{unit}"), v as f64 / scale, unit));
            let _ = writeln!(
                report,
                "# {name}: n={} p50={p50:.3}{unit} p{:.2}={:.3}{unit}",
                sorted.len(),
                p * 100.0,
                v as f64 / scale
            );
        }
        None => {
            problems.push(format!("{name}: {} samples support no tail", sorted.len()));
            out.push((format!("{name}_p99_{unit}"), 0.0, unit));
        }
    }
}

fn end_to_end(
    f: &Finished,
    report: &mut String,
    problems: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    let e = &f.env;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    m.push(("setup_s".into(), median_f64(&f.setup_s), "s"));
    let ops = (e.reads.len() + e.writes.len() + e.degraded_reads.len()) as f64;
    let busy_ns = e.reads.sum_ns() + e.writes.sum_ns() + e.degraded_reads.sum_ns();
    m.push((
        "ops_per_s".into(),
        ops / (busy_ns.max(1) as f64 * 1e-9),
        "1/s",
    ));
    latency("read", &e.reads, 1e3, "us", &mut m, report, problems);
    latency("write", &e.writes, 1e3, "us", &mut m, report, problems);
    latency(
        "degraded_read",
        &e.degraded_reads,
        1e3,
        "us",
        &mut m,
        report,
        problems,
    );
    let _ = writeln!(
        report,
        "# repair: n={} calls {:?}",
        e.repair_rates.len(),
        e.repair_rates.iter().map(|r| *r as u64).collect::<Vec<_>>()
    );
    m.push((
        "repair_blocks_per_s".into(),
        median_f64(&e.repair_rates),
        "1/s",
    ));
    m.push(("membership_change_s".into(), e.change_ns as f64 * 1e-9, "s"));
    m.push((
        "moved_per_fair_min".into(),
        if e.fair_min > 0.0 {
            e.moved as f64 / e.fair_min
        } else {
            0.0
        },
        "ratio",
    ));
    let scrapes = e.scrapes.sorted();
    let _ = writeln!(
        report,
        "# scrape: n={} {:?}",
        scrapes.len(),
        scrapes.iter().map(|v| v / 1_000_000).collect::<Vec<_>>()
    );
    m.push((
        "scrape_p50_ms".into(),
        median(&scrapes).map_or(0.0, |v| v as f64 * 1e-6),
        "ms",
    ));
    m.push(("peak_rss_mb".into(), peak_rss_mb(), "MiB"));
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
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
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# host: cores={cores} gf256_kernel={}",
        rshare_erasure::gf256::kernel_tier().name()
    );
    let mut f = match workloads::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# config: workload={} seed={} seconds={} trace={} {} client_threads=1 loop=closed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        f.env.cfg.describe()
    );
    let setups: Vec<String> = f.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("# setup runs (s): {}", setups.join(" "));
    if !f.env.changes.is_empty() {
        println!("# change        devices  engine      planned    moved   fair_min  ratio   secs");
        for r in &f.env.changes {
            println!(
                "# {:<12} {:>3}->{:<3} {:>4}->{:<4} {:>9} {:>8} {:>10.0} {:>6.2} {:>6.3}",
                r.label,
                r.devices_before,
                r.devices_after,
                r.engine_before,
                r.engine_after,
                r.planned,
                r.moved,
                r.fair_min,
                if r.fair_min > 0.0 {
                    r.moved as f64 / r.fair_min
                } else {
                    0.0
                },
                r.secs
            );
        }
    }
    if let Some((runs, err, wrong)) = f.probe {
        println!(
            "# degraded-write probe (outside the tally): {runs} write_blocks runs touching a failed device, {err} returned Err, {wrong} reads of their blocks then differed from the last acknowledged value"
        );
    }
    let mut report = String::new();
    let mut problems = std::mem::take(&mut f.env.problems);
    let e2e = end_to_end(&f, &mut report, &mut problems);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let per_layer = f.env.per_layer();
        problems.append(&mut f.env.problems);
        println!("# spans: name count total_ms self_ms");
        for (name, (count, total, own)) in f.env.tracer.summary() {
            println!(
                "#   {name} {count} {:.3} {:.3}",
                total as f64 * 1e-6,
                own as f64 * 1e-6
            );
        }
        per_layer
            .into_iter()
            .map(|(k, (v, u))| (k.to_string(), v, u))
            .collect()
    } else {
        e2e.iter()
            .filter(|(name, _, _)| GUARDED.contains(&name.as_str()))
            .cloned()
            .collect()
    };
    print!("{report}");
    for (name, value, unit) in &e2e {
        println!("# e2e {name} = {value} {unit}");
    }
    let t = f.env.tally;
    println!(
        "# failed_op_frac = {} ({} of {} ops)  wrong_reads = {}",
        t.failed_frac(),
        t.failed,
        t.attempted,
        t.wrong_reads
    );
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        problems.push("a metric is not a finite number".into());
    }
    let metrics: Vec<(String, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    for p in &problems {
        println!("# check failed: {p}");
    }
    let correct = problems.is_empty() && t.wrong_reads == 0;
    println!("{}", json(correct, t.attempted.max(1), t.failed, &metrics));
    ExitCode::SUCCESS
}
