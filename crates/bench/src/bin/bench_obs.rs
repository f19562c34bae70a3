//! Observability report: instrumentation overhead and live fairness.
//!
//! Two measurements on the `rshare-obs` wiring:
//!
//! 1. **Instrumentation overhead** — cached-read throughput of the same
//!    cluster with metrics on vs off. The instrumented path adds a few
//!    relaxed atomic increments and one monotonic clock read per block
//!    read; the acceptance bar is < 5% overhead.
//! 2. **Live fairness** — a 100-device heterogeneous cluster after one
//!    million block placements: `fairness_report().max_deviation` is the
//!    paper's Lemma 3.1 number, measured on the *stored* distribution
//!    the health surface reports (bar: ≤ 2%).
//!
//! A third, smaller cell times `export_prometheus` renders, so scrape
//! cost is on record too. Prints tables and writes `BENCH_obs.json`
//! in the unified `{name, unit, value, baseline?}` record schema (CI
//! smoke-checks that the file parses). Pass `--quick` to shrink the
//! workload for CI; the report shape is identical.

use std::hint::black_box;
use std::time::Instant;

use rshare_bench::{f, pct, print_table, records_json, section, Record};
use rshare_obs::Metric;
use rshare_vds::{Redundancy, StorageCluster};

/// Timing repetitions per cell; the best (minimum) time is reported.
const REPS: usize = 5;

/// Devices in the overhead cluster — matches `bench_e2e`'s read cell so
/// the two reports stay comparable.
const DEVICES: u64 = 48;

/// Devices in the fairness cluster (the experiment's 100-device claim).
const FAIRNESS_DEVICES: u64 = 100;

/// Best-of-[`REPS`] wall-clock time of `run`.
fn time_best<F: FnMut()>(mut run: F) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

fn read_cluster(metrics: bool, block_size: usize) -> StorageCluster {
    let mut b = StorageCluster::builder()
        .block_size(block_size)
        .redundancy(Redundancy::Mirror { copies: 3 })
        .metrics(metrics);
    for id in 0..DEVICES {
        b = b.device(id, 1_000_000 + id * 10_000);
    }
    b.build().expect("valid cluster")
}

/// Cached-read throughput (blocks/s), metrics on vs off, plus the export
/// render rate of the instrumented cluster.
///
/// The two clusters are built, written and warmed *before* any timing,
/// and the timed repetitions alternate between them — measuring one
/// configuration to completion first bakes allocator and page-cache
/// warm-up into whichever ran first and can dwarf the few atomic
/// increments under measurement.
fn bench_overhead(quick: bool) -> (f64, f64, f64) {
    let working_set: u64 = if quick { 512 } else { 4_096 };
    let rounds: u64 = if quick { 4 } else { 8 };
    let block_size = 4_096;
    let lbas: Vec<u64> = (0..working_set).collect();
    let data = vec![0xA5u8; block_size];
    let mut clusters: Vec<StorageCluster> = [false, true]
        .into_iter()
        .map(|metrics| {
            let mut c = read_cluster(metrics, block_size);
            for &lba in &lbas {
                c.write_block(lba, &data).expect("write");
            }
            c
        })
        .collect();
    let mut buf = vec![0u8; block_size];
    for c in &clusters {
        for &lba in &lbas {
            c.read_block_into(lba, &mut buf).expect("warm-up read");
        }
    }

    let mut best = [u128::MAX; 2];
    for _ in 0..REPS {
        for (slot, c) in clusters.iter().enumerate() {
            let start = Instant::now();
            for _ in 0..rounds {
                for &lba in &lbas {
                    c.read_block_into(black_box(lba), &mut buf).expect("read");
                    black_box(&buf);
                }
            }
            best[slot] = best[slot].min(start.elapsed().as_nanos());
        }
    }
    let rate = |ns: u128| (working_set * rounds) as f64 / (ns as f64 / 1e9);

    // Sanity: "metrics on" must actually be instrumenting.
    let instrumented = clusters.pop().expect("two clusters");
    let registry = instrumented.metrics_registry().expect("metrics on");
    match registry.get("reads_total") {
        Some(Metric::Counter(reads)) => {
            assert!(reads.get() >= working_set * rounds, "reads were counted")
        }
        other => panic!("expected reads_total counter, found {other:?}"),
    }
    let renders: u64 = if quick { 32 } else { 256 };
    let elapsed = time_best(|| {
        for _ in 0..renders {
            black_box(instrumented.export_prometheus());
        }
    });
    let export_rate = renders as f64 / (elapsed as f64 / 1e9);
    (rate(best[1]), rate(best[0]), export_rate)
}

/// Writes `blocks` blocks onto a 100-device heterogeneous cluster and
/// returns the live fairness report's `(max, mean-absolute)` deviation.
fn bench_fairness(blocks: u64) -> (f64, f64) {
    let mut b = StorageCluster::builder()
        .block_size(16)
        .redundancy(Redundancy::Mirror { copies: 2 });
    for id in 0..FAIRNESS_DEVICES {
        b = b.device(id, 40_000 + id * 300);
    }
    let mut c = b.build().expect("valid cluster");
    let data = [0x3Cu8; 16];
    for lba in 0..blocks {
        c.write_block(lba, &data).expect("write");
    }
    let report = c.fairness_report();
    assert_eq!(report.devices.len(), FAIRNESS_DEVICES as usize);
    assert_eq!(report.total_used, 2 * blocks);
    let mean_abs = report
        .devices
        .iter()
        .map(|d| d.deviation.abs())
        .sum::<f64>()
        / report.devices.len() as f64;
    (report.max_deviation, mean_abs)
}

/// Hand-rolled JSON (no serde in the dependency set).
fn to_json(records: &[Record], quick: bool, blocks: u64, overhead: f64, max_dev: f64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"quick\": {quick}, \"reps\": {REPS}, \"devices\": {DEVICES}, \"fairness_devices\": {FAIRNESS_DEVICES}, \"fairness_blocks\": {blocks}}},\n"
    ));
    s.push_str(&records_json(records));
    s.push_str(",\n");
    s.push_str(&format!(
        "  \"summary\": {{\"metrics_overhead_pct\": {:.2}, \"fairness_max_deviation\": {:.5}}}\n",
        overhead * 100.0,
        max_dev
    ));
    s.push('}');
    s.push('\n');
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    section(&format!(
        "Observability — instrumentation overhead + live fairness{}",
        if quick { " (quick mode)" } else { "" }
    ));

    let (on_rate, off_rate, export_rate) = bench_overhead(quick);
    let overhead = (off_rate - on_rate) / off_rate;
    let blocks: u64 = if quick { 100_000 } else { 1_000_000 };
    let (max_dev, mean_dev) = bench_fairness(blocks);

    print_table(
        &["measure", "value", "baseline", "bar"],
        &[
            vec![
                "cached reads, metrics on".into(),
                format!("{:.3} Mblocks/s", on_rate / 1e6),
                format!("{:.3} Mblocks/s off", off_rate / 1e6),
                "-".into(),
            ],
            vec![
                "instrumentation overhead".into(),
                pct(overhead),
                "-".into(),
                "< 5%".into(),
            ],
            vec![
                "export_prometheus".into(),
                format!("{:.1} renders/s", export_rate),
                "-".into(),
                "-".into(),
            ],
            vec![
                format!("fairness max deviation ({blocks} blocks)"),
                pct(max_dev),
                format!("{} mean", pct(mean_dev)),
                "<= 2%".into(),
            ],
        ],
    );
    println!(
        "\noverhead {} (bar 5%), fairness max deviation {} (bar 2%)",
        pct(overhead),
        f(max_dev)
    );

    let records = vec![
        Record::with_baseline("cached_read_metrics_on", "blocks_per_s", on_rate, off_rate),
        Record::new("cached_read_metrics_off", "blocks_per_s", off_rate),
        Record::with_baseline("metrics_overhead", "percent", overhead * 100.0, 5.0),
        Record::new("export_render", "renders_per_s", export_rate),
        Record::with_baseline("fairness_max_deviation", "ratio", max_dev, 0.02),
        Record::new("fairness_mean_abs_deviation", "ratio", mean_dev),
    ];
    let json = to_json(&records, quick, blocks, overhead, max_dev);
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json ({} records)", records.len());
}
