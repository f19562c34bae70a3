//! The three workloads. Each is one process, one client thread and a
//! closed loop; every input is drawn from the seed before it is issued.
//! Every workload injects shard losses and repairs them, and fails a
//! device and runs `rebuild()`, so each reports the same end-to-end
//! metrics; what differs is which layer does most of the work.

use std::time::{Duration, Instant};

use rshare_vds::{Redundancy, VdsError};

use crate::gen::{Op, Rng, Zipf};
use crate::harness::{Change, Config, Env};

/// A finished workload: the environment holding every measurement, the
/// set-up times, and the degraded-write probe's counts where one ran.
pub struct Finished {
    pub env: Env,
    pub setup_s: Vec<f64>,
    pub probe: Option<(u64, u64, u64)>,
}

pub const NAMES: [&str; 3] = ["mirror-hot", "ec-degraded", "churn"];

/// Requests every steady slice issues even when its repair round and
/// scrape overran the slice (short runs).
const SLICE_MIN_OPS: u64 = 4096;

/// Blocks a repair round damages, one shard each.
const DAMAGED_PER_ROUND: usize = 64;

/// Requests per churn burst for each second of `--seconds`: 13 bursts of
/// this size take roughly the run length on a 2-core x86-64 host.
const BURST_OPS_PER_S: f64 = 20_000.0;

/// Heterogeneous capacities: weights 1–4 by device id, scaled so the
/// cluster is half full once every block is stored.
fn capacities(devices: usize, shards: usize) -> Vec<u64> {
    let weight_sum: u64 = (0..devices as u64).map(weight).sum();
    let unit = (2 * shards as u64).div_ceil(weight_sum);
    (0..devices as u64).map(|id| weight(id) * unit).collect()
}

fn weight(id: u64) -> u64 {
    1 + id % 4
}

fn secs(t: f64) -> Duration {
    Duration::from_secs_f64(t)
}

/// `count` requests: a `read_frac` share of reads, the rest writes (runs
/// when `runs`), block indices drawn by `pick`. Writes skip fenced blocks.
fn ops(
    env: &Env,
    rng: &mut Rng,
    count: usize,
    read_frac: f64,
    runs: bool,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let read = rng.unit() < read_frac;
            loop {
                let i = pick(rng);
                if read {
                    break Op::Read(i as u32);
                }
                if runs && !env.run_fenced(i) {
                    break Op::WriteRun(i as u32);
                }
                if !runs && !env.fenced[i] {
                    break Op::Write(i as u32);
                }
            }
        })
        .collect()
}

/// Reads the blocks a failure or injected loss degraded (half the
/// requests) among uniform requests, so degraded reads are sampled.
fn degraded_mix(env: &Env, rng: &mut Rng, count: usize, read_frac: f64, runs: bool) -> Vec<Op> {
    let hit = env.degraded_blocks();
    let n = env.blocks() as u64;
    let mut targeted = 0usize;
    ops(env, rng, count, read_frac, runs, |r| {
        if !hit.is_empty() && r.below(2) == 0 {
            targeted += 1;
            hit[targeted % hit.len()] as usize
        } else {
            r.below(n) as usize
        }
    })
}

/// Damages `DAMAGED_PER_ROUND` blocks, reads each twice among `uniform`
/// other reads (degraded reads), then repairs.
fn repair_round(env: &mut Env, rng: &mut Rng, uniform: usize) {
    env.damage(DAMAGED_PER_ROUND, rng);
    let mut reads: Vec<Op> = env
        .damaged()
        .iter()
        .flat_map(|&i| [Op::Read(i), Op::Read(i)])
        .collect();
    let n = env.blocks() as u64;
    reads.extend((0..uniform).map(|_| Op::Read(rng.below(n) as u32)));
    let len = reads.len() as u64;
    env.run_ops(&reads, Instant::now(), len, 0);
    env.repair();
}

/// The steady part of a run: `slices` equal slices filling `secs`, each a
/// repair round, a scrape, then requests from `ops` until the slice ends.
/// Spreading every kind of measurement over the whole window keeps them
/// all exposed to the same host conditions.
fn steady_slices(env: &mut Env, rng: &mut Rng, ops: &[Op], secs_total: f64, slices: u32) {
    env.measuring = true;
    let start = Instant::now();
    for k in 1..=slices {
        repair_round(env, rng, 256);
        env.scrape();
        let end = start + secs(secs_total * f64::from(k) / f64::from(slices));
        env.run_ops(ops, end, SLICE_MIN_OPS, 0);
    }
}

/// For each device: fail it, run `secs` of requests (at least `min_ops`)
/// aimed half at the blocks it held, then `rebuild()`.
#[allow(clippy::too_many_arguments)]
fn fail_cycles(
    env: &mut Env,
    rng: &mut Rng,
    devices: &[u64],
    secs_each: f64,
    min_ops: u64,
    read_frac: f64,
    runs: bool,
    scrape_every: u64,
) {
    for &id in devices {
        let fair_min = env.fail(id);
        let during = degraded_mix(env, rng, 1 << 16, read_frac, runs);
        env.run_ops(
            &during,
            Instant::now() + secs(secs_each),
            min_ops,
            scrape_every,
        );
        env.scrape();
        env.change(Change::Rebuild { fair_min });
    }
}

pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Finished, VdsError> {
    match name {
        "mirror-hot" => mirror_hot(seed, seconds, trace),
        "ec-degraded" => ec_degraded(seed, seconds, trace),
        "churn" => churn(seed, seconds, trace),
        _ => unreachable!("workload names are checked by the caller"),
    }
}

/// Mirroring with 3 copies on 48 devices, 512 B blocks, Zipf(0.99) reads
/// and writes over 262,144 blocks: per-request overhead dominates.
fn mirror_hot(seed: u64, t: f64, trace: bool) -> Result<Finished, VdsError> {
    let blocks = 262_144;
    let cfg = Config {
        redundancy: Redundancy::Mirror { copies: 3 },
        block_size: 512,
        blocks,
        capacities: capacities(48, blocks * 3),
        run_len: 1,
    };
    let (mut env, setup_s) = Env::new(cfg, seed, trace)?;
    let mut rng = Rng::new(seed ^ 0x40_7E);
    let zipf = Zipf::new(blocks, 0.99);
    let main = ops(&env, &mut rng, 1 << 20, 0.9, false, |r| zipf.sample(r));
    env.run_ops(&main, Instant::now() + secs(0.05 * t), 0, 0);
    steady_slices(&mut env, &mut rng, &main, 0.7 * t, 6);
    fail_cycles(
        &mut env,
        &mut rng,
        &[10, 21, 33],
        0.05 * t,
        8_000,
        1.0,
        false,
        0,
    );
    env.measuring = false;
    env.audit();
    Ok(Finished {
        env,
        setup_s,
        probe: None,
    })
}

/// RS(4,2) on 96 devices, 4 KiB blocks, 65,536 blocks, uniform access:
/// reads beside 16-block writes, then injected losses and repairs, then a
/// failed device with reads and writes continuing until `rebuild()`.
fn ec_degraded(seed: u64, t: f64, trace: bool) -> Result<Finished, VdsError> {
    let blocks = 65_536;
    let cfg = Config {
        redundancy: Redundancy::ReedSolomon { data: 4, parity: 2 },
        block_size: 4096,
        blocks,
        capacities: capacities(96, blocks * 6),
        run_len: 16,
    };
    let (mut env, setup_s) = Env::new(cfg, seed, trace)?;
    let mut rng = Rng::new(seed ^ 0xEC_DE);
    let n = blocks as u64;
    // Half reads, half 16-block writes.
    let main = ops(&env, &mut rng, 1 << 18, 0.5, true, |r| r.below(n) as usize);
    env.run_ops(&main, Instant::now() + secs(0.05 * t), 0, 0);
    // Phases 1 and 2, interleaved: requests, and periodically injected
    // shard losses, degraded reads and repair.
    steady_slices(&mut env, &mut rng, &main, 0.55 * t, 8);
    // Phase 3: a device fails; reads and writes continue until rebuild()
    // (three times). Writes go to stripes the failed device does not
    // hold: a write that touches it returns `Err` (see the probe below).
    fail_cycles(
        &mut env,
        &mut rng,
        &[41, 58, 70],
        0.08 * t,
        4_000,
        0.5,
        true,
        2048,
    );
    env.measuring = false;
    env.audit();
    let probe = env.degraded_write_probe(77, 32, &mut rng);
    Ok(Finished {
        env,
        setup_s,
        probe: Some(probe),
    })
}

/// Mirroring with 2 copies, 64 B blocks, 524,288 blocks on 60 devices:
/// devices are added one at a time to 68 (crossing the 64-device engine
/// switch), two are removed, one fails and is rebuilt. After every change
/// a burst of uniform requests meets the freshly invalidated cache.
fn churn(seed: u64, t: f64, trace: bool) -> Result<Finished, VdsError> {
    let blocks = 524_288;
    let cfg = Config {
        redundancy: Redundancy::Mirror { copies: 2 },
        block_size: 64,
        blocks,
        capacities: capacities(60, blocks * 2),
        run_len: 1,
    };
    let unit = cfg.capacities[0];
    let (mut env, setup_s) = Env::new(cfg, seed, trace)?;
    let mut rng = Rng::new(seed ^ 0xC4_0E);
    let n = blocks as u64;
    // Bursts are a fixed number of requests (scaled by the run length),
    // not a fixed time: the cache state every later step meets must not
    // depend on how fast the host happened to be.
    let burst_ops = (t * BURST_OPS_PER_S) as u64;
    let burst = |env: &mut Env, rng: &mut Rng, degraded: bool| {
        let list = if degraded {
            degraded_mix(env, rng, 1 << 17, 0.9, false)
        } else {
            ops(env, rng, 1 << 17, 0.9, false, |r| r.below(n) as usize)
        };
        env.run_ops(&list, Instant::now(), burst_ops, 0);
        env.scrape();
    };
    env.measuring = true;
    // Repair rounds follow every third change, spread over the run.
    for id in 60..68 {
        env.change(Change::Add {
            id,
            capacity: weight(id) * unit,
        });
        burst(&mut env, &mut rng, false);
        if id % 3 == 1 {
            repair_round(&mut env, &mut rng, 256);
        }
    }
    for id in [5, 22] {
        env.change(Change::Remove { id });
        burst(&mut env, &mut rng, false);
    }
    repair_round(&mut env, &mut rng, 256);
    let fair_min = env.fail(37);
    burst(&mut env, &mut rng, true);
    env.change(Change::Rebuild { fair_min });
    burst(&mut env, &mut rng, false);
    repair_round(&mut env, &mut rng, 256);
    env.measuring = false;
    env.audit();
    Ok(Finished {
        env,
        setup_s,
        probe: None,
    })
}
