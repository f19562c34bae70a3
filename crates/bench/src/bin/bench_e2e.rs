//! End-to-end I/O path report: placement lookups, erasure kernels and the
//! fused stripe pipeline.
//!
//! Seven measurements on the fast path a block read/write traverses, each
//! over [`REPS`] timed repetitions, and one of the memory a stored block
//! costs:
//!
//! 1. **Placement lookups** — `placement_into` throughput on a repeated
//!    working set: cached (stored blocks, answered from their block-table
//!    rows) vs uncached (never-written addresses, whose lookups run the
//!    Redundant Share scan and store nothing).
//! 2. **Block reads** — a `read_block_into` loop over a stored working
//!    set (`block_read_cached`), and `read_block_into` in random order
//!    over a churn-sized cluster (`block_read_random`: 524,288 2-way-mirror
//!    blocks of 64 B on 60 devices of 20,000–50,000 shards, metrics off),
//!    where the block table and the shard store no longer fit in cache. On
//!    the same cluster, one `degraded_block_count()` walk over every row
//!    (`degraded_scan_rows`). And `read_block_into` in random order over
//!    perfbench's ec-degraded cluster shape (`block_read_ec_random`:
//!    RS(4, 2), 4 KiB blocks, 96 devices of capacity weights 1–4, 65,536
//!    stored blocks), where each read copies four 1 KiB data shards out
//!    of the shard store. On the same cluster with one device failed,
//!    `read_block_into` in random order over the blocks that held a data
//!    shard there (`block_read_ec_degraded`), so every read is degraded:
//!    it fetches the five surviving shards and decodes the lost one.
//! 3. **Reed–Solomon encode** — MB/s of each GF(256) kernel tier (GFNI,
//!    AVX2 SIMD, flat-table) vs the byte-wise log/exp reference on 64 KiB
//!    shards: `encode` for the CPU's tier (the `gfni` row),
//!    `mul_rows_with` over the generator's parity rows for the `simd` and
//!    `table` rows. Each tier's rep encodes enough data to last tens of
//!    milliseconds, so timer noise stays small against it.
//! 4. **Reed–Solomon reconstruct** — `decode` rate of RS(4, 2) on 1 KiB
//!    shards with one data shard, one data and one parity shard, or one
//!    parity shard lost, into preallocated buffers from borrowed
//!    survivors: the decode inside degraded reads and repair, as the
//!    cluster runs it. Beside them, encode and two-loss decode of every
//!    code on 4 KiB shards (`code_encode_<code>`,
//!    `code_reconstruct2_<code>`): XOR parity, EVENODD, RDP, RS(4, 2) and
//!    LRC.
//! 5. **Stripe writes** — the fused `write_blocks` batch pipeline vs a
//!    `write_block` loop over the same overwrite working set. And first
//!    writes of the churn-sized cluster of item 2, from empty, in
//!    1,024-block `write_blocks` batches (`write_blocks_first`, blocks per
//!    second), the path perfbench's `churn` set-up takes.
//! 6. **Repair** — fused `repair()` (scan → gather → reconstruct → store
//!    only the missing shards) vs the oracle-free per-block recipe: read
//!    every block (degraded reads reconstruct) and write it back. Both
//!    sides discover the damage themselves; rates are per damaged block.
//! 7. **Cold and hot writes** — nanoseconds per call of overwrites:
//!    random 16-block `write_blocks` runs on perfbench's ec-degraded
//!    cluster shape (`write_run16_cold`: RS(4, 2), 4 KiB blocks, 96
//!    devices of capacity weights 1–4, 65,536 stored blocks, written in
//!    address order, so a run's blocks sit side by side in the shard
//!    store) and random single-block writes on the same cluster
//!    (`write_block_ec_cold`: one block's six shards side by side, the
//!    next block's far away), which splits the two layout effects apart;
//!    and random single-block `write_block` calls on its mirror-hot shape
//!    (`write_block_cold`: 3-way mirror, 512 B blocks, 48 devices, 262,144
//!    stored blocks), whose destination slots are out of cache; and
//!    single-block `write_block` calls cycling over a 4,096-block hot set
//!    of the mirror-hot cluster (`write_block_hot`). Payloads are filled
//!    outside the timed region.
//! 8. **Per-block memory** — the `VmRSS` growth of building a 524,288-block
//!    2-way-mirror cluster of 64 B blocks on 60 devices (perfbench's
//!    `churn` set-up), measured in a fresh child process, per stored block
//!    (→ `bytes_per_block`: its shards in the device store plus its
//!    block-table row) and per stored shard (→ `store_bytes_per_shard`,
//!    the same growth over `k` times as many shards).
//!
//! Prints tables and writes the raw numbers to `BENCH_e2e.json` (CI
//! smoke-checks that the file parses); each timed record carries its
//! median and quartiles, and the `summary` speedups are ratios of medians.
//! Pass `--quick` to shrink the workload for CI; the report shape is
//! identical.

use std::hint::black_box;

use rshare_bench::{f, per_s, print_table, records_json, section, time_each, time_reps, Record};
use rshare_erasure::gf256::KernelTier;
use rshare_erasure::{gf256, ArrayCode, ErasureCode, MatrixCode, ReedSolomon};
use rshare_vds::{Redundancy, StorageCluster};

/// Timed repetitions per record.
const REPS: usize = 5;

/// Devices in the benchmark cluster; an uncached lookup pays the full
/// O(n) Algorithm-4 scan over them, as a small real deployment would.
const DEVICES: u64 = 48;

struct Cell {
    bench: &'static str,
    mode: &'static str,
    items: u64,
    unit: &'static str,
    /// `items` per second, one sample per repetition, as record
    /// `{bench}_{mode}`.
    record: Record,
}

impl Cell {
    /// A cell of `items` over each sample of `ns`.
    fn new(
        bench: &'static str,
        mode: &'static str,
        items: u64,
        unit: &'static str,
        ns: &[f64],
    ) -> Self {
        let rate_unit = match unit {
            "lookups" => "lookups_per_s",
            "blocks" => "blocks_per_s",
            "reconstructs" => "reconstructs_per_s",
            _ => "bytes_per_s",
        };
        let record = Record::from_samples(format!("{bench}_{mode}"), rate_unit, &per_s(items, ns));
        Self {
            bench,
            mode,
            items,
            unit,
            record,
        }
    }

    /// The median rate.
    fn per_s(&self) -> f64 {
        self.record.median
    }
}

/// Two bodies timed as an interleaved pair: each repetition times `a` then
/// `b` back to back, so a machine-load phase longer than one repetition
/// hits both sides equally. Each timed run is preceded by an untimed run
/// of the same body — the comparison is steady-state, and the alternation
/// would otherwise let each side evict the other's working set between
/// repetitions.
fn time_pair(mut a: impl FnMut(), mut b: impl FnMut()) -> [Vec<f64>; 2] {
    time_reps(REPS, |lap| {
        a();
        lap.time(0, &mut a);
        b();
        lap.time(1, &mut b);
    })
}

fn cluster(block_size: usize) -> StorageCluster {
    let mut b = StorageCluster::builder()
        .block_size(block_size)
        .redundancy(Redundancy::Mirror { copies: 3 });
    for id in 0..DEVICES {
        b = b.device(id, 1_000_000 + id * 10_000);
    }
    b.build().expect("valid cluster")
}

/// Blocks, copies and devices of the per-block memory probe.
const MEM_BLOCKS: u64 = 524_288;
const MEM_COPIES: usize = 2;
const MEM_DEVICES: u64 = 60;

/// The child-process flag that runs one memory probe.
const MEM_PROBE_FLAG: &str = "--memory-probe";

/// This process's resident set size in bytes (`VmRSS`).
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kib * 1024
}

/// Builds the probe cluster ([`stored_cluster`]). Returns the `VmRSS`
/// growth over the build and the number of blocks stored.
fn memory_probe() -> (u64, u64) {
    let before = vm_rss_bytes();
    let c = stored_cluster(
        Redundancy::Mirror { copies: MEM_COPIES },
        64,
        MEM_DEVICES,
        MEM_BLOCKS,
    );
    let grown = vm_rss_bytes().saturating_sub(before);
    black_box(&c);
    (grown, c.block_count())
}

/// Runs [`memory_probe`] in a fresh child process, so it inherits none of
/// the timing benches' freed-but-resident heap.
fn memory_probe_child() -> (u64, u64) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .arg(MEM_PROBE_FLAG)
        .output()
        .expect("spawn memory probe");
    assert!(out.status.success(), "memory probe failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 probe output");
    let mut fields = text
        .split_whitespace()
        .map(|v| v.parse::<u64>().expect("number"));
    let grown = fields.next().expect("rss growth");
    let blocks = fields.next().expect("blocks stored");
    (grown, blocks)
}

/// Bytes per stored block and per stored shard.
struct Memory {
    bytes_per_block: f64,
    store_bytes_per_shard: f64,
}

fn bench_memory() -> Memory {
    let (grown, blocks) = memory_probe_child();
    assert_eq!(blocks, MEM_BLOCKS, "every block stored");
    Memory {
        bytes_per_block: grown as f64 / blocks as f64,
        store_bytes_per_shard: grown as f64 / (blocks * MEM_COPIES as u64) as f64,
    }
}

/// Placement-lookup throughput over `working_set` addresses, `rounds`
/// passes: the stored blocks `0..working_set` (cached) and as many
/// never-written addresses above them (uncached), on one cluster.
fn bench_placement(quick: bool, cells: &mut Vec<Cell>) {
    let working_set: u64 = if quick { 1_024 } else { 8_192 };
    let rounds: u64 = if quick { 8 } else { 24 };
    let lookups = working_set * rounds;
    let mut out = Vec::new();
    let mut c = cluster(64);
    for lba in 0..working_set {
        c.write_block(lba, &[0u8; 64]).expect("write");
    }
    for (mode, first) in [("uncached", working_set), ("cached", 0)] {
        // Warm: one untimed pass over the addresses.
        for lba in first..first + working_set {
            c.placement_into(lba, &mut out);
        }
        let ns = time_each(REPS, || {
            for _ in 0..rounds {
                for lba in first..first + working_set {
                    c.placement_into(black_box(lba), &mut out);
                    black_box(&out);
                }
            }
        });
        cells.push(Cell::new("placement_lookup", mode, lookups, "lookups", &ns));
    }
}

/// End-to-end block-read throughput over a repeated working set: one
/// `read_block_into` per block into a reused buffer.
fn bench_reads(quick: bool, cells: &mut Vec<Cell>) {
    let working_set: u64 = if quick { 512 } else { 4_096 };
    let rounds: u64 = if quick { 4 } else { 8 };
    let block_size = 4_096;
    let lbas: Vec<u64> = (0..working_set).collect();
    let mut c = cluster(block_size);
    let data = vec![0xABu8; block_size];
    for &lba in &lbas {
        c.write_block(lba, &data).expect("write");
    }
    let mut buf = vec![0u8; block_size];
    let ns = time_each(REPS, || {
        for _ in 0..rounds {
            for &lba in &lbas {
                c.read_block_into(black_box(lba), &mut buf).expect("read");
                black_box(&buf);
            }
        }
    });
    cells.push(Cell::new(
        "block_read",
        "cached",
        working_set * rounds,
        "blocks",
        &ns,
    ));
}

/// An empty churn-sized cluster: 2-way mirror, 64 B blocks,
/// [`MEM_DEVICES`] devices of 20,000–50,000 shards, metrics off.
fn churn_cluster() -> StorageCluster {
    let mut b = StorageCluster::builder()
        .block_size(64)
        .redundancy(Redundancy::Mirror { copies: MEM_COPIES })
        .metrics(false);
    for id in 0..MEM_DEVICES {
        b = b.device(id, 20_000 + 10_000 * (id % 4));
    }
    b.build().expect("valid cluster")
}

/// Blocks `0..blocks` of a churn-sized cluster ([`MEM_BLOCKS`], or 1/16
/// of them under `--quick`) and their payloads, block `lba` filled with
/// the byte `lba as u8`.
fn churn_blocks(quick: bool) -> (Vec<u64>, Vec<u8>) {
    let blocks: u64 = if quick { MEM_BLOCKS / 16 } else { MEM_BLOCKS };
    let lbas: Vec<u64> = (0..blocks).collect();
    let data = lbas.iter().flat_map(|&lba| [lba as u8; 64]).collect();
    (lbas, data)
}

/// Writes `lbas` into `c` as first writes, in 1,024-block `write_blocks`
/// batches.
fn write_first(c: &mut StorageCluster, lbas: &[u64], data: &[u8]) {
    for (chunk, data) in lbas.chunks(1024).zip(data.chunks(1024 * 64)) {
        c.write_blocks(chunk, data).expect("write");
    }
}

/// First writes into an empty churn-sized cluster ([`churn_cluster`],
/// [`churn_blocks`]) in 1,024-block batches (`write_blocks_first`, blocks
/// per second): placement, row inserts and fresh slots, perfbench's
/// `churn` set-up. Each repetition builds its empty cluster untimed.
fn bench_first_writes(quick: bool, cells: &mut Vec<Cell>) {
    let (lbas, data) = churn_blocks(quick);
    let [ns] = time_reps(REPS, |lap| {
        let mut c = churn_cluster();
        lap.time(0, || write_first(&mut c, &lbas, &data));
        assert_eq!(c.block_count(), lbas.len() as u64);
    });
    cells.push(Cell::new(
        "write_blocks",
        "first",
        lbas.len() as u64,
        "blocks",
        &ns,
    ));
}

/// `read_block_into` in random order over a churn-sized cluster
/// ([`churn_cluster`], [`churn_blocks`]). Then one
/// `degraded_block_count()` walk over the same rows.
fn bench_random_reads(quick: bool, cells: &mut Vec<Cell>) {
    const DOMAIN: u64 = 0x5241_4e44_5245_4144; // "RANDREAD"
    let reads: u64 = if quick { 1 << 16 } else { 1 << 20 };
    let mut c = churn_cluster();
    let (lbas, data) = churn_blocks(quick);
    write_first(&mut c, &lbas, &data);
    let blocks = lbas.len() as u64;
    let order: Vec<u64> = (0..reads)
        .map(|i| rshare_hash::stable_hash2(i, DOMAIN) % blocks)
        .collect();
    let mut buf = [0u8; 64];
    let ns = time_each(REPS, || {
        for &lba in &order {
            c.read_block_into(black_box(lba), &mut buf).expect("read");
            black_box(&buf);
        }
    });
    cells.push(Cell::new("block_read", "random", reads, "blocks", &ns));
    let ns = time_each(REPS, || {
        assert_eq!(black_box(c.degraded_block_count()), 0);
    });
    cells.push(Cell::new("degraded_scan", "rows", blocks, "blocks", &ns));
}

/// `read_block_into` in random order over perfbench's ec-degraded cluster
/// shape (module docs, item 2), built by [`stored_cluster`] with metrics
/// on as perfbench builds it, healthy (`ec_random`) and then with one
/// device failed, over the blocks that held a data shard on it
/// (`ec_degraded`); 1/16 of the blocks and reads under `--quick`.
fn bench_ec_random_reads(quick: bool, cells: &mut Vec<Cell>) {
    const DOMAIN: u64 = 0x4543_5241_4e44_5244; // "ECRANDRD"
    /// The device failed for `ec_degraded`: one of capacity weight 4.
    const EC_FAILED: u64 = 3;
    let scale = if quick { 16 } else { 1 };
    let blocks: u64 = 65_536 / scale;
    let reads: u64 = (1 << 17) / scale;
    let mut c = stored_cluster(
        Redundancy::ReedSolomon { data: 4, parity: 2 },
        4096,
        96,
        blocks,
    );
    let mut buf = vec![0u8; 4096];
    let mut time_reads = |c: &StorageCluster, mode, lbas: &[u64], reads: u64| {
        let order: Vec<u64> = (0..reads)
            .map(|i| lbas[(rshare_hash::stable_hash2(i, DOMAIN) % lbas.len() as u64) as usize])
            .collect();
        c.read_block_into(order[0], &mut buf).expect("read");
        assert_eq!(buf, vec![order[0] as u8; 4096], "stored block reads back");
        let ns = time_each(REPS, || {
            for &lba in &order {
                c.read_block_into(black_box(lba), &mut buf).expect("read");
                black_box(&buf);
            }
        });
        cells.push(Cell::new("block_read", mode, reads, "blocks", &ns));
    };
    let lbas: Vec<u64> = (0..blocks).collect();
    time_reads(&c, "ec_random", &lbas, reads);
    let held: Vec<u64> = lbas
        .into_iter()
        .filter(|&lba| c.placement(lba)[..4].contains(&EC_FAILED))
        .collect();
    c.fail_device(EC_FAILED).expect("device exists");
    time_reads(&c, "ec_degraded", &held, reads / 4);
}

/// A Reed–Solomon cluster for the write/repair pipeline benches; erasure
/// coding (rather than mirroring) so every write exercises the GF(256)
/// encode path.
fn rs_cluster(block_size: usize) -> StorageCluster {
    let mut b = StorageCluster::builder()
        .block_size(block_size)
        .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 });
    for id in 0..DEVICES {
        b = b.device(id, 1_000_000 + id * 10_000);
    }
    b.build().expect("valid cluster")
}

/// RS(8, 4) parity generation over 64 KiB shards: `encode` on the CPU's
/// tier (the `gfni` row; on a CPU without GFNI it measures the AVX2 or
/// table fallback), the pshufb and table bodies through `mul_rows_with`
/// over the generator's parity rows (the `simd` and `table` rows), and
/// the byte-wise log/exp reference. The `gfni` and `simd` rows encode 16
/// times as much data per rep as the others, so a rep lasts tens of
/// milliseconds at the 4–7 GB/s of an AVX2 core (the slower rows pass
/// that at the base count).
fn bench_rs_encode(quick: bool, cells: &mut Vec<Cell>) {
    const DATA: usize = 8;
    const PARITY: usize = 4;
    const SHARD: usize = 64 * 1024;
    let encodes: usize = if quick { 8 } else { 48 };
    let simd_encodes = 16 * encodes;
    let code = ReedSolomon::new(DATA, PARITY).expect("valid code");
    let data: Vec<Vec<u8>> = (0..DATA)
        .map(|i| (0..SHARD).map(|j| (i * 83 + j * 7) as u8).collect())
        .collect();
    let mut shards: Vec<Vec<u8>> = data.clone();
    shards.extend(std::iter::repeat_with(|| vec![0u8; SHARD]).take(PARITY));
    let data_bytes = |encodes: usize| (DATA * SHARD * encodes) as u64;
    let rows = &code.generator().as_slice()[DATA * DATA..];

    // Sanity: the production kernel matches the byte-wise reference
    // before timing (the other rows are checked against it below).
    code.encode(&mut shards).expect("encode");
    for (row_idx, got) in shards.iter().enumerate().skip(DATA) {
        let row = code.generator().row(row_idx);
        let mut want = vec![0u8; SHARD];
        for (j, shard) in data.iter().enumerate() {
            gf256::mul_acc_bytewise(&mut want, shard, row[j]);
        }
        assert_eq!(*got, want, "kernel mismatch on parity {row_idx}");
    }

    let ns = time_each(REPS, || {
        for _ in 0..simd_encodes {
            code.encode(black_box(&mut shards)).expect("encode");
        }
        black_box(&shards);
    });
    cells.push(Cell::new(
        "rs_encode",
        "gfni",
        data_bytes(simd_encodes),
        "bytes",
        &ns,
    ));
    let mut parity = vec![vec![0u8; SHARD]; PARITY];
    for (tier, n) in [
        (KernelTier::Simd, simd_encodes),
        (KernelTier::Table, encodes),
    ] {
        parity.iter_mut().for_each(|p| p.fill(0));
        let ns = time_each(REPS, || {
            for _ in 0..n {
                gf256::mul_rows_with(tier, black_box(&mut parity), &data, rows);
            }
            black_box(&parity);
        });
        assert_eq!(
            parity[..],
            shards[DATA..],
            "{} kernel mismatch",
            tier.name()
        );
        cells.push(Cell::new(
            "rs_encode",
            tier.name(),
            data_bytes(n),
            "bytes",
            &ns,
        ));
    }

    let ns = time_each(REPS, || {
        for _ in 0..encodes {
            for (p, out) in parity.iter_mut().enumerate() {
                out.fill(0);
                let row = code.generator().row(DATA + p);
                for (j, shard) in data.iter().enumerate() {
                    gf256::mul_acc_bytewise(black_box(out), black_box(shard), row[j]);
                }
            }
        }
        black_box(&parity);
    });
    cells.push(Cell::new(
        "rs_encode",
        "bytewise",
        data_bytes(encodes),
        "bytes",
        &ns,
    ));
}

/// `ReedSolomon` RS(4, 2) `decode` on 1 KiB shards (the shard size of
/// perfbench's ec-degraded workload), in three loss patterns: one data
/// shard (`data`), one data and one parity shard (`data_parity`), and one
/// parity shard (`parity`). The survivors are borrowed and the lost
/// shards decode into buffers allocated once, as a degraded read decodes
/// into its read buffer and a repair into its chunk buffer, so the timed
/// work is the decode alone.
fn bench_rs_reconstruct(quick: bool, cells: &mut Vec<Cell>) {
    const DATA: usize = 4;
    const PARITY: usize = 2;
    const SHARD: usize = 1024;
    let reconstructs: u64 = if quick { 2_000 } else { 20_000 };
    let code = ReedSolomon::new(DATA, PARITY).expect("valid code");
    let mut full: Vec<Vec<u8>> = (0..DATA + PARITY)
        .map(|i| (0..SHARD).map(|j| (i * 89 + j * 5) as u8).collect())
        .collect();
    code.encode(&mut full).expect("encode");
    for (mode, lost) in [
        ("data", &[1][..]),
        ("data_parity", &[1, 4][..]),
        ("parity", &[4][..]),
    ] {
        let shards = survivors(&full, lost);
        let mut bufs = vec![vec![0u8; SHARD]; lost.len()];
        let mut outs = wanted(lost, &mut bufs);
        let mut run = || {
            for _ in 0..reconstructs {
                code.decode(black_box(&shards), black_box(&mut outs))
                    .expect("decode");
            }
        };
        run();
        let ns = time_each(REPS, &mut run);
        // Sanity: the last decode restored the lost shards.
        let restored = lost.iter().zip(&bufs).all(|(&i, got)| *got == full[i]);
        assert!(restored, "{mode}: decode restored wrong bytes");
        cells.push(Cell::new(
            "rs_reconstruct",
            mode,
            reconstructs,
            "reconstructs",
            &ns,
        ));
    }
}

/// The shards of `full` with those of `lost` missing, borrowed.
fn survivors<'a>(full: &'a [Vec<u8>], lost: &[usize]) -> Vec<Option<&'a [u8]>> {
    let present = |(i, s): (usize, &'a Vec<u8>)| (!lost.contains(&i)).then_some(s.as_slice());
    full.iter().enumerate().map(present).collect()
}

/// `decode`'s list of the shards `lost`, each into its buffer of `bufs`.
fn wanted<'a>(lost: &[usize], bufs: &'a mut [Vec<u8>]) -> Vec<(usize, &'a mut [u8])> {
    let bufs = bufs.iter_mut().map(Vec::as_mut_slice);
    lost.iter().copied().zip(bufs).collect()
}

/// Encode and two-loss decode of every code the store can place, on
/// 4 KiB shards (rounded up to the code's symbol multiple), in data bytes
/// per second: XOR parity (d = 4; it tolerates one loss, so it has no
/// reconstruct row), EVENODD and RDP (p = 5), RS(4, 2) and LRC (two local
/// groups of two, two global parities). The decode loses shards 0 and 2,
/// borrows the survivors and writes into buffers allocated once.
/// A repetition processes 64 MiB of data (8 MiB under `--quick`).
fn bench_codes(quick: bool, cells: &mut Vec<Cell>) {
    const SHARD: usize = 4096;
    let codes: [(&'static str, Box<dyn ErasureCode>); 5] = [
        (
            "xor_parity_d4",
            Box::new(MatrixCode::xor_parity(4).expect("valid code")),
        ),
        (
            "evenodd_p5",
            Box::new(ArrayCode::evenodd(5).expect("valid code")),
        ),
        ("rdp_p5", Box::new(ArrayCode::rdp(5).expect("valid code"))),
        (
            "reed_solomon_4_2",
            Box::new(ReedSolomon::new(4, 2).expect("valid code")),
        ),
        (
            "lrc_2x2_g2",
            Box::new(MatrixCode::local_reconstruction(2, 2, 2).expect("valid code")),
        ),
    ];
    for (name, code) in codes {
        let len = SHARD.div_ceil(code.shard_multiple()) * code.shard_multiple();
        let mut shards: Vec<Vec<u8>> = (0..code.total_shards())
            .map(|i| (0..len).map(|j| (i * 131 + j * 7) as u8).collect())
            .collect();
        let data_bytes = (code.data_shards() * len) as u64;
        let calls = (64 << 20) / data_bytes / if quick { 8 } else { 1 };
        let ns = time_each(REPS, || {
            for _ in 0..calls {
                code.encode(black_box(&mut shards)).expect("encode");
            }
        });
        cells.push(Cell::new(
            "code_encode",
            name,
            calls * data_bytes,
            "bytes",
            &ns,
        ));
        if code.tolerated_erasures() < 2 {
            continue;
        }
        let present = survivors(&shards, &[0, 2]);
        let mut bufs = vec![vec![0u8; len]; 2];
        let mut outs = wanted(&[0, 2], &mut bufs);
        let ns = time_each(REPS, || {
            for _ in 0..calls {
                code.decode(black_box(&present), black_box(&mut outs))
                    .expect("decode");
            }
        });
        let restored = bufs[0] == shards[0] && bufs[1] == shards[2];
        assert!(restored, "{name}: decode restored wrong bytes");
        cells.push(Cell::new(
            "code_reconstruct2",
            name,
            calls * data_bytes,
            "bytes",
            &ns,
        ));
    }
}

/// Steady-state stripe writes over an RS(4, 2) cluster: the fused
/// `write_blocks` pipeline (hoisted encode scratch, device-side buffer
/// reuse) vs calling `write_block` once per block. The working set is
/// pre-written so every timed round is an overwrite — the allocation
/// pattern the fused path eliminates. Blocks are the canonical 4 KiB
/// (matching the repair bench), so the per-block copy/alloc savings are
/// measured at a realistic shard size rather than being drowned by
/// fixed per-block bookkeeping. The 4,096-block working set (24 MiB of
/// shards) stays in cache, so neither side pays the cold-slot misses that
/// `write_run16_cold` measures.
fn bench_stripe_writes(quick: bool, cells: &mut Vec<Cell>) {
    let working_set: u64 = if quick { 512 } else { 4_096 };
    let rounds: u64 = if quick { 2 } else { 4 };
    let block_size = 4_096;
    let lbas: Vec<u64> = (0..working_set).collect();
    let mut data = Vec::with_capacity(lbas.len() * block_size);
    for &lba in &lbas {
        data.extend((0..block_size).map(|i| (lba as usize * 37 + i * 11) as u8));
    }
    let mut c_loop = rs_cluster(block_size);
    c_loop.write_blocks(&lbas, &data).expect("pre-write");
    let mut c_fused = rs_cluster(block_size);
    c_fused.write_blocks(&lbas, &data).expect("pre-write");
    let [loop_ns, fused_ns] = time_pair(
        || {
            for _ in 0..rounds {
                for (&lba, chunk) in lbas.iter().zip(data.chunks_exact(block_size)) {
                    c_loop
                        .write_block(black_box(lba), black_box(chunk))
                        .expect("write");
                }
            }
        },
        || {
            for _ in 0..rounds {
                c_fused
                    .write_blocks(black_box(&lbas), black_box(&data))
                    .expect("write");
            }
        },
    );
    for (mode, ns) in [("loop", loop_ns), ("fused", fused_ns)] {
        cells.push(Cell::new(
            "stripe_write",
            mode,
            working_set * rounds,
            "blocks",
            &ns,
        ));
    }
}

/// Degraded-stripe repair on an RS(4, 2) cluster: one data shard is lost
/// from every fourth block, then full redundancy is restored either by
/// the fused `repair()` pipeline (damage walk over the rows → gather →
/// reconstruct → store only the missing shard) or by the per-block
/// recipe available without a batch API: no damage oracle exists outside
/// the cluster, so the loop reads *every* block (degraded reads
/// reconstruct transparently) and writes it back. Rates are per damaged
/// block — both modes restore the same set. Loss injection runs inside
/// the timed region for both modes and clears one row word and releases
/// its slot — negligible next to reconstruction.
fn bench_repair(quick: bool, cells: &mut Vec<Cell>) {
    let working_set: u64 = if quick { 512 } else { 2_048 };
    let damage_stride: u64 = 4;
    let block_size = 4_096;
    let lbas: Vec<u64> = (0..working_set).collect();
    let mut data = Vec::with_capacity(lbas.len() * block_size);
    for &lba in &lbas {
        data.extend((0..block_size).map(|i| (lba as usize * 59 + i * 3) as u8));
    }
    let damaged = working_set.div_ceil(damage_stride);
    let mut c_loop = rs_cluster(block_size);
    c_loop.write_blocks(&lbas, &data).expect("pre-write");
    let mut c_fused = rs_cluster(block_size);
    c_fused.write_blocks(&lbas, &data).expect("pre-write");
    let [loop_ns, fused_ns] = time_pair(
        || {
            for lba in (0..working_set).step_by(damage_stride as usize) {
                assert!(c_loop.inject_shard_loss(black_box(lba), 0), "loss injected");
            }
            for lba in 0..working_set {
                let block = c_loop.read_block(black_box(lba)).expect("degraded read");
                c_loop.write_block(lba, &block).expect("rewrite");
            }
        },
        || {
            for lba in (0..working_set).step_by(damage_stride as usize) {
                assert!(
                    c_fused.inject_shard_loss(black_box(lba), 0),
                    "loss injected"
                );
            }
            black_box(c_fused.repair().expect("repair"));
        },
    );
    for (mode, ns) in [("loop", loop_ns), ("fused", fused_ns)] {
        cells.push(Cell::new("repair", mode, damaged, "blocks", &ns));
    }
}

/// A cluster shaped like a perfbench workload's: `devices` devices of
/// capacity weights `1 + id % 4`, twice the fair share of `blocks` groups,
/// with every block written once, in batches of 1,024.
fn stored_cluster(
    redundancy: Redundancy,
    block_size: usize,
    devices: u64,
    blocks: u64,
) -> StorageCluster {
    const CHUNK: u64 = 1024;
    let weight = |id: u64| 1 + id % 4;
    let weight_sum: u64 = (0..devices).map(weight).sum();
    let unit = (2 * blocks * redundancy.total_shards() as u64).div_ceil(weight_sum);
    let mut b = StorageCluster::builder()
        .block_size(block_size)
        .redundancy(redundancy);
    for id in 0..devices {
        b = b.device(id, weight(id) * unit);
    }
    let mut c = b.build().expect("valid cluster");
    let mut data = vec![0u8; CHUNK as usize * block_size];
    let mut lbas = Vec::with_capacity(CHUNK as usize);
    for start in (0..blocks).step_by(CHUNK as usize) {
        lbas.clear();
        lbas.extend(start..(start + CHUNK).min(blocks));
        for (&lba, block) in lbas.iter().zip(data.chunks_exact_mut(block_size)) {
            block.fill(lba as u8);
        }
        c.write_blocks(&lbas, &data[..lbas.len() * block_size])
            .expect("write");
    }
    c
}

/// Mean nanoseconds per call of `write_blocks` over `calls` runs of `run`
/// consecutive stored blocks (wrapping), the run of call `i` (counted
/// across repetitions) starting at block `start(i)`, one sample per
/// repetition. Each call's payload is filled before its timer starts, so
/// only the write is timed.
fn ns_per_write(
    c: &mut StorageCluster,
    run: u64,
    calls: u64,
    start: impl Fn(u64) -> u64,
) -> Vec<f64> {
    let blocks = c.block_count();
    let mut lbas = Vec::with_capacity(run as usize);
    let mut data = vec![0u8; run as usize * c.block_size()];
    let mut i = 0u64;
    let [ns] = time_reps(REPS, |lap| {
        for _ in 0..calls {
            let first = start(i);
            lbas.clear();
            lbas.extend((0..run).map(|j| (first + j) % blocks));
            data.fill(i as u8);
            i += 1;
            lap.time(0, || {
                c.write_blocks(black_box(&lbas), black_box(&data))
                    .expect("write")
            });
        }
    });
    ns.iter().map(|ns| ns / calls as f64).collect()
}

/// Overwrites whose destination slots are cold or hot (module docs, item
/// 7): random 16-block and single-block RS(4, 2) writes and random
/// single-block 3-way-mirror writes, each on a cluster far larger than the
/// cache (1/16 of it under `--quick`), then single-block writes cycling
/// over `HOT_SET` blocks of the mirror cluster.
fn bench_overwrites(quick: bool, calls: &mut Vec<Record>) {
    const DOMAIN: u64 = 0x434f_4c44_5752_4954; // "COLDWRIT"
    /// Blocks in the hot set `write_block_hot` cycles over.
    const HOT_SET: u64 = 4_096;
    let scale = if quick { 16 } else { 1 };
    let random = |blocks: u64| move |i: u64| rshare_hash::stable_hash2(i, DOMAIN) % blocks;
    let blocks = 65_536 / scale;
    let mut c = stored_cluster(
        Redundancy::ReedSolomon { data: 4, parity: 2 },
        4096,
        96,
        blocks,
    );
    let ns = ns_per_write(&mut c, 16, 4_096 / scale, random(blocks));
    calls.push(Record::from_samples("write_run16_cold", "ns_per_call", &ns));
    let ns = ns_per_write(&mut c, 1, 65_536 / scale, random(blocks));
    calls.push(Record::from_samples(
        "write_block_ec_cold",
        "ns_per_call",
        &ns,
    ));
    drop(c);
    let blocks = 262_144 / scale;
    let mut c = stored_cluster(Redundancy::Mirror { copies: 3 }, 512, 48, blocks);
    let ns = ns_per_write(&mut c, 1, 65_536 / scale, random(blocks));
    calls.push(Record::from_samples("write_block_cold", "ns_per_call", &ns));
    let hot = random(blocks);
    let ns = ns_per_write(&mut c, 1, 65_536 / scale, |i| hot(i % HOT_SET));
    calls.push(Record::from_samples("write_block_hot", "ns_per_call", &ns));
}

fn speedup(cells: &[Cell], bench: &str, fast: &str, slow: &str) -> f64 {
    let rate = |mode: &str| {
        cells
            .iter()
            .find(|c| c.bench == bench && c.mode == mode)
            .expect("cell present")
            .per_s()
    };
    rate(fast) / rate(slow)
}

/// Hand-rolled JSON (no serde in the dependency set).
fn to_json(cells: &[Cell], calls: &[Record], memory: &Memory, quick: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"quick\": {quick}, \"reps\": {REPS}, \"devices\": {DEVICES}, \"host\": {{\"cores\": {cores}, \"gf256_kernel\": \"{}\"}}, \"memory_probe\": {{\"blocks\": {MEM_BLOCKS}, \"copies\": {MEM_COPIES}, \"block_size\": 64, \"devices\": {MEM_DEVICES}}}}},\n",
        gf256::kernel_tier().name()
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"mode\": \"{}\", \"items\": {}, \"unit\": \"{}\", \"per_s\": {:.1}}}{}\n",
            c.bench,
            c.mode,
            c.items,
            c.unit,
            c.per_s(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    let mut records = records(cells);
    records.extend_from_slice(calls);
    records.push(Record::new(
        "store_bytes_per_shard",
        "bytes",
        memory.store_bytes_per_shard,
    ));
    records.push(Record::new(
        "bytes_per_block",
        "bytes",
        memory.bytes_per_block,
    ));
    s.push_str(&records_json(&records));
    s.push_str(",\n");
    s.push_str(&format!(
        "  \"summary\": {{\"cached_lookup_speedup\": {:.2}, \"table_encode_speedup\": {:.2}, \"simd_encode_speedup\": {:.2}, \"gfni_encode_speedup\": {:.2}, \"fused_write_speedup\": {:.2}, \"fused_repair_speedup\": {:.2}}}\n",
        speedup(cells, "placement_lookup", "cached", "uncached"),
        speedup(cells, "rs_encode", "table", "bytewise"),
        speedup(cells, "rs_encode", "simd", "table"),
        speedup(cells, "rs_encode", "gfni", "simd"),
        speedup(cells, "stripe_write", "fused", "loop"),
        speedup(cells, "repair", "fused", "loop"),
    ));
    s.push('}');
    s.push('\n');
    s
}

/// The unified cross-binary records: one throughput entry per cell, the
/// slow variant of the same benchmark as the baseline. The fused-pipeline
/// cells are renamed to the loop they replace (`write_blocks_fused` vs
/// `write_block_loop`, `repair_fused` vs `repair_block_loop`); the kernel
/// tiers baseline against the flat-table tier they supersede.
fn records(cells: &[Cell]) -> Vec<Record> {
    cells
        .iter()
        .map(|c| {
            let (name, slow) = match (c.bench, c.mode) {
                ("stripe_write", "fused") => (Some("write_blocks_fused"), Some("loop")),
                ("stripe_write", "loop") => (Some("write_block_loop"), None),
                ("repair", "fused") => (Some("repair_fused"), Some("loop")),
                ("repair", "loop") => (Some("repair_block_loop"), None),
                ("placement_lookup", "cached") => (None, Some("uncached")),
                (_, "gfni") => (None, Some("simd")),
                (_, "simd") => (None, Some("table")),
                (_, "table") => (None, Some("bytewise")),
                _ => (None, None),
            };
            let mut record = c.record.clone();
            if let Some(name) = name {
                record.name = name.to_string();
            }
            match slow {
                Some(slow_mode) => {
                    let base = cells
                        .iter()
                        .find(|s| s.bench == c.bench && s.mode == slow_mode)
                        .expect("baseline cell present");
                    record.baseline(base.per_s())
                }
                None => record,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == MEM_PROBE_FLAG) {
        let (grown, blocks) = memory_probe();
        println!("{grown} {blocks}");
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    section(&format!(
        "End-to-end I/O path — placement lookups + erasure kernels{}",
        if quick { " (quick mode)" } else { "" }
    ));

    let mut cells = Vec::new();
    bench_placement(quick, &mut cells);
    bench_reads(quick, &mut cells);
    bench_random_reads(quick, &mut cells);
    bench_first_writes(quick, &mut cells);
    bench_ec_random_reads(quick, &mut cells);
    bench_rs_encode(quick, &mut cells);
    bench_rs_reconstruct(quick, &mut cells);
    bench_codes(quick, &mut cells);
    bench_stripe_writes(quick, &mut cells);
    bench_repair(quick, &mut cells);
    let mut calls = Vec::new();
    bench_overwrites(quick, &mut calls);
    let memory = bench_memory();

    let mut rows = Vec::new();
    for c in &cells {
        let rate = match c.unit {
            "bytes" => format!("{:.1} MB/s", c.per_s() / 1e6),
            _ => format!("{:.3} M{}/s", c.per_s() / 1e6, &c.unit[..c.unit.len() - 1]),
        };
        rows.push(vec![
            c.bench.to_string(),
            c.mode.to_string(),
            c.items.to_string(),
            rate,
        ]);
    }
    print_table(&["bench", "mode", "items", "rate"], &rows);
    for c in &calls {
        println!("{}: {} ns per call", c.name, f(c.median));
    }

    println!(
        "\nspeedups: cached lookups {}x, table encode {}x, \
         simd over table {}x, gfni over simd {}x, fused writes {}x, fused repair {}x",
        f(speedup(&cells, "placement_lookup", "cached", "uncached")),
        f(speedup(&cells, "rs_encode", "table", "bytewise")),
        f(speedup(&cells, "rs_encode", "simd", "table")),
        f(speedup(&cells, "rs_encode", "gfni", "simd")),
        f(speedup(&cells, "stripe_write", "fused", "loop")),
        f(speedup(&cells, "repair", "fused", "loop")),
    );

    println!(
        "memory ({MEM_BLOCKS} blocks, {MEM_COPIES}-way mirror, 64 B, {MEM_DEVICES} devices): \
         {} B per stored block, {} B per stored shard",
        f(memory.bytes_per_block),
        f(memory.store_bytes_per_shard),
    );

    let json = to_json(&cells, &calls, &memory, quick);
    std::fs::write("BENCH_e2e.json", &json).expect("write BENCH_e2e.json");
    println!("wrote BENCH_e2e.json ({} result rows)", cells.len());
}
