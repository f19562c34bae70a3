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
//! in the unified record schema (CI smoke-checks that the file parses).
//! Each of [`OVERHEAD_REPS`] repetitions alternates short metrics-off
//! and metrics-on laps and yields one overhead; the record
//! carries their median and quartiles, and the verdict against the 5% bar
//! is `met` when the upper quartile is below it, `exceeded` when the lower
//! quartile reaches it, and `unresolved` when the bar lies between them.
//! Pass `--quick` to shrink the workload for CI; the report shape is
//! identical.

use std::hint::black_box;

use rshare_bench::{
    f, pct, per_s, print_table, records_json, section, time_each, time_reps, Record,
};
use rshare_obs::Metric;
use rshare_vds::{Redundancy, StorageCluster};

/// Timed repetitions per record.
const REPS: usize = 5;

/// Repetitions of the overhead measurement: enough for its quartiles to
/// bound a spread that a single ratio of medians hides.
const OVERHEAD_REPS: usize = 15;

/// Reads per timed lap of the overhead measurement: short laps, taken
/// in turn with metrics off and on, put both configurations under the
/// same host load.
const LAP_READS: usize = 256;

/// The instrumentation overhead bar, as a fraction of the metrics-off
/// read rate.
const OVERHEAD_BAR: f64 = 0.05;

/// Devices in the overhead cluster — matches `bench_e2e`'s read cell so
/// the two reports stay comparable.
const DEVICES: u64 = 48;

/// Devices in the fairness cluster (the experiment's 100-device claim).
const FAIRNESS_DEVICES: u64 = 100;

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

/// Cached-read throughput samples (blocks/s), metrics on and off, the
/// overhead of each repetition (`1 − on/off` of its two rates), plus
/// export render rate samples of the instrumented cluster.
///
/// The two clusters are built, written and warmed *before* any timing,
/// and each repetition alternates between them every [`LAP_READS`]
/// reads, swapping which goes first — measuring one configuration to
/// completion first bakes allocator and page-cache warm-up and host drift
/// into whichever ran first and can dwarf the few atomic increments under
/// measurement.
fn bench_overhead(quick: bool) -> [Vec<f64>; 4] {
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

    let [off, on] = time_reps(OVERHEAD_REPS, |lap| {
        for (lap_no, chunk) in (0..rounds).flat_map(|_| lbas.chunks(LAP_READS)).enumerate() {
            for step in 0..2 {
                let series = (lap_no + step) % 2;
                let c = &clusters[series];
                lap.time(series, || {
                    for &lba in chunk {
                        c.read_block_into(black_box(lba), &mut buf).expect("read");
                        black_box(&buf);
                    }
                });
            }
        }
    });
    let overhead: Vec<f64> = on
        .iter()
        .zip(&off)
        .map(|(on, off)| 1.0 - off / on)
        .collect();

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
    let renders_ns = time_each(REPS, || {
        for _ in 0..renders {
            black_box(instrumented.export_prometheus());
        }
    });
    let reads = working_set * rounds;
    [
        per_s(reads, &on),
        per_s(reads, &off),
        overhead,
        per_s(renders, &renders_ns),
    ]
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

/// The overhead's verdict against [`OVERHEAD_BAR`]: `met` when its
/// upper quartile is below the bar, `exceeded` when its lower quartile
/// reaches it, and `unresolved` when the bar lies between the two, where
/// one run cannot tell which side the overhead is on.
fn verdict(overhead: &Record) -> &'static str {
    let bar = OVERHEAD_BAR * 100.0;
    if overhead.p75 < bar {
        "met"
    } else if overhead.p25 >= bar {
        "exceeded"
    } else {
        "unresolved"
    }
}

/// Hand-rolled JSON (no serde in the dependency set).
fn to_json(
    records: &[Record],
    quick: bool,
    blocks: u64,
    overhead: &Record,
    max_dev: f64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"quick\": {quick}, \"reps\": {REPS}, \"overhead_reps\": {OVERHEAD_REPS}, \"devices\": {DEVICES}, \"fairness_devices\": {FAIRNESS_DEVICES}, \"fairness_blocks\": {blocks}}},\n"
    ));
    s.push_str(&records_json(records));
    s.push_str(",\n");
    s.push_str(&format!(
        "  \"summary\": {{\"metrics_overhead_pct\": {:.2}, \"metrics_overhead_p25_pct\": {:.2}, \"metrics_overhead_p75_pct\": {:.2}, \"metrics_overhead_verdict\": \"{}\", \"fairness_max_deviation\": {:.5}}}\n",
        overhead.median, overhead.p25, overhead.p75, verdict(overhead), max_dev
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

    let [on, off, overhead, export] = bench_overhead(quick);
    let on = Record::from_samples("cached_read_metrics_on", "blocks_per_s", &on);
    let off = Record::from_samples("cached_read_metrics_off", "blocks_per_s", &off);
    let percent: Vec<f64> = overhead.iter().map(|o| o * 100.0).collect();
    let overhead = Record::from_samples("metrics_overhead", "percent", &percent)
        .baseline(OVERHEAD_BAR * 100.0);
    let export = Record::from_samples("export_render", "renders_per_s", &export);
    let (on_rate, off_rate, export_rate) = (on.median, off.median, export.median);
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
                format!("{:.2}%", overhead.median),
                format!("p25 {:.2}%, p75 {:.2}%", overhead.p25, overhead.p75),
                "5%".into(),
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
        "\noverhead {:.2}% (p25 {:.2}%, p75 {:.2}%, bar 5%: {}), fairness max deviation {} (bar 2%)",
        overhead.median,
        overhead.p25,
        overhead.p75,
        verdict(&overhead),
        f(max_dev)
    );

    let records = vec![
        on.baseline(off_rate),
        off,
        overhead.clone(),
        export,
        Record::new("fairness_max_deviation", "ratio", max_dev).baseline(0.02),
        Record::new("fairness_mean_abs_deviation", "ratio", mean_dev),
    ];
    let json = to_json(&records, quick, blocks, &overhead, max_dev);
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json ({} records)", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_needs_both_quartiles_on_one_side_of_the_bar() {
        let verdict_of = |samples: &[f64]| verdict(&Record::from_samples("o", "percent", samples));
        assert_eq!(verdict_of(&[1.0, 2.0, 3.0, 4.0, 4.9]), "met");
        assert_eq!(verdict_of(&[5.0, 5.0, 6.0, 8.0, 9.0]), "exceeded");
        assert_eq!(verdict_of(&[1.0, 3.0, 4.0, 6.0, 9.0]), "unresolved");
    }
}
