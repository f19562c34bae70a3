//! Placement-engine throughput report: scalar vs batch.
//!
//! Measures end-to-end placement throughput (placements per second) of the
//! two query paths over [`RedundantShare`] — per-ball `place_into` and
//! flat `place_batch_into` — for k ∈ {2, 3, 4} and n ∈ {16, 256, 4096},
//! prints a table, and writes the
//! raw numbers to `BENCH_throughput.json` for machine consumption (CI
//! smoke-checks that the file parses).
//!
//! Pass `--quick` to shrink the workload ~8× (CI smoke mode); the numbers
//! get noisier but the report shape is identical.

use std::hint::black_box;
use std::time::Instant;

use rshare_bench::{f, print_table, records_json, section, Record};
use rshare_core::{BinId, BinSet, PlacementStrategy, RedundantShare};

/// Timing repetitions per cell; the best (minimum) time is reported.
const REPS: usize = 3;

struct Cell {
    n: usize,
    k: usize,
    mode: &'static str,
    balls: usize,
    elapsed_ns: u128,
}

impl Cell {
    fn placements_per_s(&self) -> f64 {
        self.balls as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

fn heterogeneous(n: usize) -> BinSet {
    BinSet::from_capacities((0..n as u64).map(|i| 500_000 + i * 100_000)).expect("valid bins")
}

/// Workload size per configuration: the O(n) scan means fewer balls at
/// large n keep the total runtime bounded while each cell still runs for
/// tens of milliseconds.
fn balls_for(n: usize, quick: bool) -> usize {
    let full = match n {
        0..=31 => 400_000,
        32..=1023 => 100_000,
        _ => 24_576,
    };
    if quick {
        (full / 8).max(4_096)
    } else {
        full
    }
}

/// Best-of-[`REPS`] wall-clock time of `run`, which must consume the whole
/// ball set once per call.
fn time_best<F: FnMut()>(mut run: F) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

fn measure(n: usize, k: usize, quick: bool) -> Vec<Cell> {
    let strat = RedundantShare::new(&heterogeneous(n), k).expect("valid strategy");
    let count = balls_for(n, quick);
    let balls: Vec<u64> = (0..count as u64).map(|b| b.wrapping_mul(0x9E37)).collect();
    let mut out: Vec<BinId> = Vec::with_capacity(count * k);
    let mut cells = Vec::new();

    let scalar = time_best(|| {
        let mut group = Vec::with_capacity(k);
        for &ball in &balls {
            strat.place_into(black_box(ball), &mut group);
            black_box(&group);
        }
    });
    cells.push(Cell {
        n,
        k,
        mode: "scalar",
        balls: count,
        elapsed_ns: scalar,
    });

    let batch = time_best(|| {
        strat.place_batch_into(black_box(&balls), &mut out);
        black_box(&out);
    });
    cells.push(Cell {
        n,
        k,
        mode: "batch",
        balls: count,
        elapsed_ns: batch,
    });
    cells
}

/// Hand-rolled JSON (no serde in the dependency set): the report is flat
/// enough that string assembly stays readable.
fn to_json(cells: &[Cell], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"quick\": {quick}, \"reps\": {REPS}}},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"n\": {}, \"k\": {}, \"mode\": \"{}\", \"balls\": {}, \"elapsed_ns\": {}, \"placements_per_s\": {:.1}}}{}\n",
            c.n,
            c.k,
            c.mode,
            c.balls,
            c.elapsed_ns,
            c.placements_per_s(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&records_json(&records(cells)));
    s.push_str("\n}\n");
    s
}

/// The unified cross-binary records: one throughput entry per cell, the
/// scalar path of the same `(n, k)` as the baseline.
fn records(cells: &[Cell]) -> Vec<Record> {
    cells
        .iter()
        .map(|c| {
            let name = format!("placements_{}_n{}_k{}", c.mode, c.n, c.k);
            let scalar = cells
                .iter()
                .find(|s| s.n == c.n && s.k == c.k && s.mode == "scalar")
                .expect("scalar cell present");
            if c.mode == "scalar" {
                Record::new(name, "placements_per_s", c.placements_per_s())
            } else {
                Record::with_baseline(
                    name,
                    "placements_per_s",
                    c.placements_per_s(),
                    scalar.placements_per_s(),
                )
            }
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    section(&format!(
        "Placement throughput — scalar vs batch{}",
        if quick { " (quick mode)" } else { "" }
    ));

    let mut cells = Vec::new();
    for k in [2usize, 3, 4] {
        for n in [16usize, 256, 4096] {
            cells.extend(measure(n, k, quick));
        }
    }

    let mut rows = Vec::new();
    for chunk in cells.chunks(2) {
        let (scalar, batch) = (&chunk[0], &chunk[1]);
        rows.push(vec![
            scalar.n.to_string(),
            scalar.k.to_string(),
            format!("{:.2}", scalar.placements_per_s() / 1e6),
            format!("{:.2}", batch.placements_per_s() / 1e6),
            f(batch.placements_per_s() / scalar.placements_per_s()),
        ]);
    }
    print_table(&["n", "k", "scalar M/s", "batch M/s", "batch x"], &rows);

    let json = to_json(&cells, quick);
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!(
        "\nwrote BENCH_throughput.json ({} result rows)",
        cells.len()
    );
}
