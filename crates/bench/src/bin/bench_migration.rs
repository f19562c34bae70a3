//! Adaptivity report: migration drain throughput and measured competitive
//! ratios.
//!
//! Three measurements on the rebalance engine:
//!
//! 1. **Migration drain** — blocks/s to drain a lazy single-device add
//!    through `migrate_batch` ("planned": batched diffing,
//!    skip-unchanged).
//! 2. **Eager add and the reads after it** — blocks/s of one eager
//!    `add_device` on the same cluster, and the mean cost of the first
//!    [`READS_AFTER_ADD`] uniform reads after it (whether the migration
//!    left the placement cache current).
//! 3. **Competitive ratios** — planned moves over the fair minimum for
//!    adding/removing the largest and smallest device, on an 8-device
//!    heterogeneous cluster and on the 96-device drain cluster, against
//!    the paper's proven 2–4 bound (measured ≈1.5 for adds, ≈2.5 for
//!    removals in the paper's experiments); and on the same 96 devices
//!    under RS(4, 2), where a failure and rebuild is planned too, against
//!    Lemma 3.5's k² = 36. Each row is held to its scheme's bound.
//!
//! Prints tables and writes the raw numbers to `BENCH_migration.json`
//! (CI smoke-checks that the file parses). Pass `--smoke` (or `--quick`)
//! to shrink the workload for CI; the report shape is identical.

use std::hint::black_box;

use rshare_bench::{f, per_s, print_table, records_json, section, time_reps, Record};
use rshare_erasure::gf256;
use rshare_vds::{MigrationPlan, Redundancy, StorageCluster};

/// Timed repetitions per record, each on a freshly built cluster.
const REPS: usize = 5;

/// Devices in the drain cluster; every placement the drain diffs runs the
/// O(n) scan over all of them.
const DEVICES: u64 = 96;

/// Blocks drained per `migrate_batch` call: the incremental-call cadence
/// of a background migrator.
const BUDGET: u64 = 2_048;

const BLOCK_SIZE: usize = 64;

struct Cell {
    bench: &'static str,
    mode: &'static str,
    items: u64,
    record: Record,
}

impl Cell {
    /// A cell of `items` over each sample of `ns`, recorded as a rate.
    fn new(bench: &'static str, mode: &'static str, items: u64, ns: &[f64]) -> Self {
        let rates = per_s(items, ns);
        let record = Record::from_samples(format!("{bench}_{mode}"), "blocks_per_s", &rates);
        Self {
            bench,
            mode,
            items,
            record,
        }
    }

    fn per_s(&self) -> f64 {
        self.record.median
    }
}

/// A redundancy scheme's name in the summary, and the proven competitive
/// bound its rows are held to.
type Scheme = (&'static str, f64);

/// 2-way mirroring, held to Lemma 3.2's bound of 4.
const MIRROR2: Scheme = ("mirror2", 4.0);

/// RS(4, 2), held to Lemma 3.5's k² = 36 (k = 6 shards).
const RS42: Scheme = ("rs42", 36.0);

/// A measured competitive-ratio row.
struct Ratio {
    change: String,
    /// The redundancy scheme, as the summary names it.
    scheme: &'static str,
    ratio: f64,
    /// The proven bound the ratio is held to.
    bound: f64,
    moved_fraction: f64,
    fair_min_shards: f64,
    moves: usize,
    blocks_planned: u64,
    blocks_total: u64,
}

fn drain_cluster(blocks: u64) -> StorageCluster {
    cluster_96(Redundancy::Mirror { copies: 2 }, blocks)
}

/// The 96 drain devices under `redundancy`, holding `blocks` blocks.
fn cluster_96(redundancy: Redundancy, blocks: u64) -> StorageCluster {
    let mut b = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(redundancy);
    for id in 0..DEVICES {
        b = b.device(id, 40_000 + id * 500);
    }
    let mut c = b.build().expect("valid cluster");
    let data = vec![0x5Au8; BLOCK_SIZE];
    for lba in 0..blocks {
        c.write_block(lba, &data).expect("write");
    }
    c
}

/// Capacity of the lazily added device in the drain benchmark. Small on
/// purpose — incremental expansion — so most pending blocks are
/// *unchanged* and the drain measures how cheaply the planner's bulk diff
/// can verify and skip a block.
const DRAIN_ADD_CAPACITY: u64 = 4_000;

/// Uniform reads timed after the eager add.
const READS_AFTER_ADD: u64 = 100_000;

/// Domain separator for the read-address stream.
const READ_DOMAIN: u64 = 0x5245_4144_4146_5452; // "READAFTR"

/// Blocks/s of an eager small-device add (the same change the drain
/// benchmark makes lazily), then ns per uniform `read_block_into` over the
/// first [`READS_AFTER_ADD`] reads after it, one sample per fresh cluster.
fn bench_eager_add(blocks: u64, cells: &mut Vec<Cell>) -> Record {
    let mut buf = vec![0u8; BLOCK_SIZE];
    let [add, reads] = time_reps(REPS, |lap| {
        let mut c = drain_cluster(blocks);
        lap.time(0, || {
            black_box(c.add_device(DEVICES, DRAIN_ADD_CAPACITY).expect("add"))
        });
        lap.time(1, || {
            for i in 0..READS_AFTER_ADD {
                let lba = rshare_hash::stable_hash2(i, READ_DOMAIN) % blocks;
                c.read_block_into(lba, &mut buf).expect("read");
                black_box(&buf);
            }
        });
    });
    cells.push(Cell::new("migration_add", "eager", blocks, &add));
    let per_read: Vec<f64> = reads.iter().map(|ns| ns / READS_AFTER_ADD as f64).collect();
    Record::from_samples("read_after_add_ns", "ns", &per_read)
}

/// Blocks/s to drain a lazy small-device add, one sample per fresh
/// cluster; set-up is not timed.
fn bench_drain(blocks: u64, cells: &mut Vec<Cell>) {
    let [ns] = time_reps(REPS, |lap| {
        let mut c = drain_cluster(blocks);
        let pending = c
            .add_device_lazy(DEVICES, DRAIN_ADD_CAPACITY)
            .expect("lazy add");
        assert_eq!(pending, blocks);
        lap.time(0, || {
            while c.pending_blocks() > 0 {
                black_box(c.migrate_batch(BUDGET).expect("migrate_batch"));
            }
        });
    });
    cells.push(Cell::new("migration_drain", "planned", blocks, &ns));
}

/// `c`'s largest device: the highest capacity, ties to the highest id.
fn largest(c: &StorageCluster) -> u64 {
    let cap = |id: u64| c.device(id).expect("listed device").capacity_blocks();
    let ids = c.device_ids();
    *ids.iter()
        .max_by_key(|&&id| (cap(id), id))
        .expect("non-empty")
}

/// Measured competitive ratios for single-device churn on `c`: add/remove
/// of its largest and smallest device. Row names end in `suffix`.
fn competitive(c: &StorageCluster, suffix: &str, scheme: Scheme) -> Vec<Ratio> {
    let cap = |id: u64| c.device(id).expect("listed device").capacity_blocks();
    let ids = c.device_ids();
    let largest = largest(c);
    let smallest = *ids
        .iter()
        .min_by_key(|&&id| (cap(id), id))
        .expect("non-empty");
    let new_id = ids.last().expect("non-empty") + 1;
    let row =
        |change: &str, plan: MigrationPlan| ratio_row(format!("{change}{suffix}"), scheme, &plan);
    vec![
        row(
            "add_largest",
            c.plan_add_device(new_id, cap(largest)).expect("plan"),
        ),
        row(
            "add_smallest",
            c.plan_add_device(new_id, cap(smallest)).expect("plan"),
        ),
        row(
            "remove_largest",
            c.plan_remove_device(largest).expect("plan"),
        ),
        row(
            "remove_smallest",
            c.plan_remove_device(smallest).expect("plan"),
        ),
    ]
}

/// The competitive ratio of rebuilding `c` after its largest device
/// fails: the rebuild's plan over the shards the device held.
fn rebuild_ratio(mut c: StorageCluster, suffix: &str, scheme: Scheme) -> Ratio {
    c.fail_device(largest(&c)).expect("listed device");
    let plan = c.plan_rebuild().expect("plan");
    ratio_row(format!("rebuild_largest{suffix}"), scheme, &plan)
}

/// One competitive-ratio row of `plan`.
fn ratio_row(change: String, (scheme, bound): Scheme, plan: &MigrationPlan) -> Ratio {
    Ratio {
        change,
        scheme,
        ratio: plan.competitive_ratio(),
        bound,
        moved_fraction: plan.moved_fraction(),
        fair_min_shards: plan.fair_min_shards,
        moves: plan.moves.len(),
        blocks_planned: plan.blocks_planned,
        blocks_total: plan.blocks_total,
    }
}

/// The 8-device heterogeneous cluster of the competitive-ratio table.
fn small_cluster(blocks: u64) -> StorageCluster {
    let caps: [u64; 8] = [5_000, 7_000, 8_000, 9_000, 11_000, 13_000, 16_000, 19_000];
    let mut b = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 });
    for (id, &cap) in caps.iter().enumerate() {
        b = b.device(id as u64, cap * 4);
    }
    let mut c = b.build().expect("valid cluster");
    let data = vec![0x96u8; BLOCK_SIZE];
    for lba in 0..blocks {
        c.write_block(lba, &data).expect("write");
    }
    c
}

/// Hand-rolled JSON (no serde in the dependency set).
fn to_json(
    cells: &[Cell],
    read_after_add: &Record,
    ratios: &[Ratio],
    smoke: bool,
    blocks: u64,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"smoke\": {smoke}, \"reps\": {REPS}, \"devices\": {DEVICES}, \"blocks\": {blocks}, \"budget\": {BUDGET}, \"reads_after_add\": {READS_AFTER_ADD}, \"host\": {{\"cores\": {cores}, \"gf256_kernel\": \"{}\"}}}},\n",
        gf256::kernel_tier().name()
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"mode\": \"{}\", \"items\": {}, \"unit\": \"blocks\", \"per_s\": {:.1}}}{}\n",
            c.bench,
            c.mode,
            c.items,
            c.per_s(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"competitive\": [\n");
    for (i, r) in ratios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"change\": \"{}\", \"ratio\": {:.3}, \"bound\": {:.1}, \"moved_fraction\": {:.5}, \"fair_min_shards\": {:.1}, \"moves\": {}, \"blocks_planned\": {}, \"blocks_total\": {}}}{}\n",
            r.change,
            r.ratio,
            r.bound,
            r.moved_fraction,
            r.fair_min_shards,
            r.moves,
            r.blocks_planned,
            r.blocks_total,
            if i + 1 == ratios.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&records_json(&records(cells, read_after_add, ratios)));
    s.push_str(",\n");
    let schemes: Vec<String> = summary(ratios)
        .iter()
        .map(|(scheme, max, bound)| {
            format!("{{\"scheme\": \"{scheme}\", \"max_competitive_ratio\": {max:.3}, \"paper_bound\": {bound:.1}}}")
        })
        .collect();
    s.push_str(&format!(
        "  \"summary\": {{\"schemes\": [{}]}}\n",
        schemes.join(", ")
    ));
    s.push('}');
    s.push('\n');
    s
}

/// Per scheme, in first-row order: its largest competitive ratio and its
/// bound.
fn summary(ratios: &[Ratio]) -> Vec<(&'static str, f64, f64)> {
    let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
    for r in ratios {
        match out.iter_mut().find(|(scheme, ..)| *scheme == r.scheme) {
            Some((_, max, _)) => *max = max.max(r.ratio),
            None => out.push((r.scheme, r.ratio, r.bound)),
        }
    }
    out
}

/// The unified cross-binary records: one throughput entry per cell, the
/// mean read cost after the eager add, plus one ratio entry per
/// membership change measured against its scheme's proven bound.
fn records(cells: &[Cell], read_after_add: &Record, ratios: &[Ratio]) -> Vec<Record> {
    let mut out: Vec<Record> = cells.iter().map(|c| c.record.clone()).collect();
    out.push(read_after_add.clone());
    out.extend(ratios.iter().map(|r| {
        Record::new(format!("competitive_ratio_{}", r.change), "ratio", r.ratio).baseline(r.bound)
    }));
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let blocks: u64 = if smoke { 12_000 } else { 120_000 };
    section(&format!(
        "Adaptivity — batched migration + competitive ratios{}",
        if smoke { " (smoke mode)" } else { "" }
    ));

    let mut cells = Vec::new();
    bench_drain(blocks, &mut cells);
    let read_after_add = bench_eager_add(blocks, &mut cells);
    let mut ratios = competitive(&small_cluster(blocks.min(24_000)), "", MIRROR2);
    ratios.extend(competitive(&drain_cluster(blocks), "_96dev", MIRROR2));
    let rs = cluster_96(Redundancy::ReedSolomon { data: 4, parity: 2 }, blocks);
    ratios.extend(competitive(&rs, "_rs42_96dev", RS42));
    ratios.push(rebuild_ratio(rs, "_rs42_96dev", RS42));

    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            c.bench.to_string(),
            c.mode.to_string(),
            c.items.to_string(),
            format!("{:.3} Mblock/s", c.per_s() / 1e6),
        ]);
    }
    print_table(&["bench", "mode", "items", "rate"], &rows);
    println!(
        "first {READS_AFTER_ADD} uniform reads after the eager add: {} ns/read",
        f(read_after_add.median)
    );

    println!();
    let mut rows = Vec::new();
    for r in &ratios {
        rows.push(vec![
            r.change.clone(),
            f(r.ratio),
            f(r.bound),
            f(r.moved_fraction),
            format!("{}/{}", r.blocks_planned, r.blocks_total),
        ]);
    }
    print_table(
        &[
            "change",
            "competitive ratio",
            "bound",
            "moved fraction",
            "blocks planned",
        ],
        &rows,
    );

    println!();
    for (scheme, max, bound) in summary(&ratios) {
        println!("{scheme}: max ratio {} (paper bound {})", f(max), f(bound));
    }

    let json = to_json(&cells, &read_after_add, &ratios, smoke, blocks);
    std::fs::write("BENCH_migration.json", &json).expect("write BENCH_migration.json");
    println!(
        "wrote BENCH_migration.json ({} result rows, {} ratio rows)",
        cells.len(),
        ratios.len()
    );
}
