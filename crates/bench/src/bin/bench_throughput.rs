//! Placement cost report: the scan's throughput curve and the paper's
//! time-efficiency comparison (Table T-C, §3.3).
//!
//! Three measurements, each timed over [`REPS`] repetitions:
//!
//! 1. **Scan throughput** — placements per second of per-ball
//!    [`RedundantShare`] `place_into` for k ∈ {2, 3, 4} and
//!    n ∈ {16, 256, 4096} (`placements_scalar_n{n}_k{k}`). Every first
//!    write and every migrated block pays this scan.
//! 2. **Per-ball cost** — nanoseconds per `place_into` of every strategy
//!    on 8 heterogeneous bins at k = 3 (LinMirror at k = 2), and of the
//!    O(n) scan against the O(k) [`FastRedundantShare`] by n at k = 3 and
//!    by k at n = 64 (`place_<strategy>_n{n}_k{k}`).
//! 3. **Construction** — nanoseconds per `new` of both by n at k = 3
//!    (`build_<strategy>_n{n}_k3`, n ∈ {8, 64, 256, 1024}): what the O(k)
//!    queries cost up front.
//!
//! Prints a table and writes the records to `BENCH_throughput.json` (CI
//! smoke-checks that the file parses). Pass `--quick` to shrink the
//! workload ~8× (CI smoke mode); the numbers get noisier but the report
//! shape is identical.

use std::hint::black_box;

use rshare_bench::{f, print_table, records_json, section, time_each, Record};
use rshare_core::{
    BinSet, FastRedundantShare, LinMirror, PlacementStrategy, RedundantShare, SystematicPps,
    TrivialReplication,
};
use rshare_rush::{RushP, SubCluster};

/// Timed repetitions per record.
const REPS: usize = 5;

fn heterogeneous(n: usize) -> BinSet {
    BinSet::from_capacities((0..n as u64).map(|i| 500_000 + i * 100_000)).expect("valid bins")
}

/// Balls per repetition: the O(n) scan means fewer balls at large n keep
/// the total runtime bounded while each repetition still runs for tens
/// of milliseconds.
fn balls_for(n: usize, quick: bool) -> Vec<u64> {
    let full: u64 = match n {
        0..=31 => 400_000,
        32..=1023 => 100_000,
        _ => 24_576,
    };
    let count = if quick { (full / 8).max(4_096) } else { full };
    (0..count).map(|b| b.wrapping_mul(0x9E37)).collect()
}

/// Nanoseconds per `place_into` of `strat` over `balls`, one sample per
/// repetition.
fn ns_per_place<P: PlacementStrategy + ?Sized>(strat: &P, balls: &[u64]) -> Vec<f64> {
    let mut group = Vec::with_capacity(strat.replication());
    let ns = time_each(REPS, || {
        for &ball in balls {
            strat.place_into(black_box(ball), &mut group);
            black_box(&group);
        }
    });
    ns.iter().map(|ns| ns / balls.len() as f64).collect()
}

/// Nanoseconds per call of `build`, over enough calls per repetition
/// (fewer at large n) to last milliseconds.
fn ns_per_build<T>(n: usize, quick: bool, build: impl Fn() -> T) -> Vec<f64> {
    let builds = (16_384 / n / if quick { 8 } else { 1 }).max(8);
    let ns = time_each(REPS, || {
        for _ in 0..builds {
            black_box(build());
        }
    });
    ns.iter().map(|ns| ns / builds as f64).collect()
}

/// Scan throughput (measurement 1).
fn scan_throughput(quick: bool) -> Vec<Record> {
    let mut records = Vec::new();
    for k in [2usize, 3, 4] {
        for n in [16usize, 256, 4096] {
            let strat = RedundantShare::new(&heterogeneous(n), k).expect("valid strategy");
            let rates: Vec<f64> = ns_per_place(&strat, &balls_for(n, quick))
                .iter()
                .map(|ns| 1e9 / ns)
                .collect();
            let name = format!("placements_scalar_n{n}_k{k}");
            records.push(Record::from_samples(name, "placements_per_s", &rates));
        }
    }
    records
}

/// Per-ball cost of every strategy, then the scan and the O(k) variant
/// by n and by k (measurement 2).
fn placement_cost(quick: bool) -> Vec<Record> {
    let bins = heterogeneous(8);
    let balls = balls_for(8, quick);
    let rush = RushP::new(
        (0..8).map(|i| SubCluster::new(1, 500_000.0 + f64::from(i) * 100_000.0).expect("valid")),
        3,
    )
    .expect("valid strategy");
    let strategies: Vec<(&str, Box<dyn PlacementStrategy>)> = vec![
        (
            "trivial",
            Box::new(TrivialReplication::new(&bins, 3).expect("valid strategy")),
        ),
        (
            "systematic_pps",
            Box::new(SystematicPps::new(&bins, 3).expect("valid strategy")),
        ),
        ("rush_p", Box::new(rush)),
        (
            "linmirror",
            Box::new(LinMirror::new(&bins).expect("valid strategy")),
        ),
    ];
    let mut records: Vec<Record> = strategies
        .iter()
        .map(|(name, strat)| {
            let k = strat.replication();
            let name = format!("place_{name}_n8_k{k}");
            Record::from_samples(name, "ns", &ns_per_place(&**strat, &balls))
        })
        .collect();
    let sweep = [8usize, 32, 128, 512].map(|n| (n, 3)).into_iter();
    for (n, k) in sweep.chain([1usize, 2, 4, 8].map(|k| (64, k))) {
        let bins = heterogeneous(n);
        let balls = balls_for(n, quick);
        let scan = RedundantShare::new(&bins, k).expect("valid strategy");
        let fast = FastRedundantShare::new(&bins, k).expect("valid strategy");
        for (name, ns) in [
            ("redundant_share", ns_per_place(&scan, &balls)),
            ("fast_redundant_share", ns_per_place(&fast, &balls)),
        ] {
            let name = format!("place_{name}_n{n}_k{k}");
            records.push(Record::from_samples(name, "ns", &ns));
        }
    }
    records
}

/// Construction cost of the scan and the O(k) variant (measurement 3).
fn construction(quick: bool) -> Vec<Record> {
    let mut records = Vec::new();
    for n in [8usize, 64, 256, 1024] {
        let bins = heterogeneous(n);
        for (name, ns) in [
            (
                "redundant_share",
                ns_per_build(n, quick, || RedundantShare::new(&bins, 3)),
            ),
            (
                "fast_redundant_share",
                ns_per_build(n, quick, || FastRedundantShare::new(&bins, 3)),
            ),
        ] {
            let name = format!("build_{name}_n{n}_k3");
            records.push(Record::from_samples(name, "ns", &ns));
        }
    }
    records
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    section(&format!(
        "Placement cost — scan throughput, per-ball cost, construction{}",
        if quick { " (quick mode)" } else { "" }
    ));

    let mut records = scan_throughput(quick);
    records.extend(placement_cost(quick));
    records.extend(construction(quick));

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let iqr = format!("{}–{}", f(r.p25), f(r.p75));
            vec![r.name.clone(), r.unit.to_string(), f(r.median), iqr]
        })
        .collect();
    print_table(&["record", "unit", "median", "p25–p75"], &rows);

    let json = format!(
        "{{\n  \"config\": {{\"quick\": {quick}, \"reps\": {REPS}}},\n{}\n}}\n",
        records_json(&records)
    );
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("\nwrote BENCH_throughput.json ({} records)", records.len());
}
