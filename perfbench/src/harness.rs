//! One client thread driving a `StorageCluster` in a closed loop: each
//! request is issued when the previous one has returned. Every call into
//! the cluster is timed, every read is checked against the model of each
//! block's last acknowledged value, and in the traced run every call is
//! also recorded as a span.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rshare_obs::{Counter, Metric};
use rshare_vds::{DeviceState, Redundancy, StorageCluster, VdsError};

use crate::gen::{block_addresses, fill_block, Op, Rng};
use crate::replay::{self, CoreTiming};
use crate::stats::{Outcome, Samples, Tally};
use crate::trace::Tracer;

/// The shape of a workload's cluster.
pub struct Config {
    pub redundancy: Redundancy,
    pub block_size: usize,
    pub blocks: usize,
    /// Device capacities in shard blocks; device `i` gets id `i`.
    pub capacities: Vec<u64>,
    /// Blocks per `write_blocks` call of [`Op::WriteRun`].
    pub run_len: usize,
}

impl Config {
    pub fn shards(&self) -> usize {
        self.redundancy.total_shards()
    }

    /// Shards a read needs: every copy is a candidate under mirroring,
    /// only the data shards under erasure coding.
    pub fn read_shards(&self) -> usize {
        match self.redundancy {
            Redundancy::ReedSolomon { data, .. } => data,
            _ => self.shards(),
        }
    }

    pub fn describe(&self) -> String {
        let scheme = match self.redundancy {
            Redundancy::Mirror { copies } => format!("mirror-{copies}"),
            Redundancy::ReedSolomon { data, parity } => format!("rs-{data}+{parity}"),
            other => format!("{other:?}"),
        };
        format!(
            "redundancy={scheme} block_size={} blocks={} devices={}",
            self.block_size,
            self.blocks,
            self.capacities.len()
        )
    }
}

/// Builds the cluster and preloads every block at version 0. Returns the
/// cluster and the set-up time: the build plus the `write_blocks` calls,
/// not the generation of their contents.
pub fn set_up(
    cfg: &Config,
    seed: u64,
    lbas: &[u64],
) -> Result<(StorageCluster, Duration), VdsError> {
    const CHUNK: usize = 1024;
    let start = Instant::now();
    let mut builder = StorageCluster::builder()
        .block_size(cfg.block_size)
        .redundancy(cfg.redundancy);
    for (id, &cap) in cfg.capacities.iter().enumerate() {
        builder = builder.device(id as u64, cap);
    }
    let mut cluster = builder.build()?;
    let mut spent = start.elapsed();
    let mut data = vec![0u8; CHUNK * cfg.block_size];
    for chunk in lbas.chunks(CHUNK) {
        for (&lba, block) in chunk.iter().zip(data.chunks_exact_mut(cfg.block_size)) {
            fill_block(seed, lba, 0, block);
        }
        let start = Instant::now();
        cluster.write_blocks(chunk, &data[..chunk.len() * cfg.block_size])?;
        spent += start.elapsed();
    }
    Ok((cluster, spent))
}

/// One membership change, as the churn table prints it.
pub struct ChangeRow {
    pub label: String,
    pub devices_before: usize,
    pub devices_after: usize,
    pub engine_before: &'static str,
    pub engine_after: &'static str,
    pub planned: u64,
    pub moved: u64,
    pub fair_min: f64,
    pub secs: f64,
}

/// A membership change the workload asks for.
pub enum Change {
    Add {
        id: u64,
        capacity: u64,
    },
    Remove {
        id: u64,
    },
    /// `rebuild()` after a failure; carries the shards the failed device
    /// held, the fair minimum any strategy must move.
    Rebuild {
        fair_min: f64,
    },
}

/// Per-device counters summed over a loop of client requests.
#[derive(Default, Clone, Copy)]
struct LoopCounters {
    ops: u64,
    reads: u64,
    user_bytes: u64,
    cache_hits: u64,
    cache_misses: u64,
    placements: u64,
    shard_reads: u64,
    bytes_written: u64,
}

pub struct Env {
    pub cfg: Config,
    pub seed: u64,
    pub cluster: StorageCluster,
    pub lbas: Vec<u64>,
    /// The model: the last acknowledged version of every block.
    versions: Vec<u32>,
    next_version: u32,
    /// Blocks missing a shard their read may need (injected loss or a
    /// failed device): the blocks degraded reads are aimed at.
    degraded: Vec<bool>,
    /// The cluster's own count of reads it served degraded (from a
    /// non-preferred copy or by reconstruction). A read that moves it is
    /// sampled as a degraded read.
    degraded_served: Arc<Counter>,
    /// Blocks with any shard on a failed device; no write targets them.
    pub fenced: Vec<bool>,
    /// Blocks damaged since the last repair, with the shards lost.
    damage: Vec<u32>,
    buf: Vec<u8>,
    expect: Vec<u8>,
    wbuf: Vec<u8>,
    run_lbas: Vec<u64>,
    run_idx: Vec<u32>,
    place_buf: Vec<u64>,
    /// Whether latency samples are being kept (off during warm-up and
    /// the final audit).
    pub measuring: bool,
    pub tally: Tally,
    pub reads: Samples,
    pub writes: Samples,
    pub degraded_reads: Samples,
    pub scrapes: Samples,
    /// Blocks restored per second, one value per `repair()` call.
    pub repair_rates: Vec<f64>,
    pub repaired_blocks: u64,
    repair_scanned: u64,
    pub change_ns: u64,
    pub moved: u64,
    pub fair_min: f64,
    pub changes: Vec<ChangeRow>,
    /// Engine currently serving placement, as identified by replay.
    engine: &'static str,
    pub tracer: Tracer,
    /// Failed checks other than wrong reads.
    pub problems: Vec<String>,
    counters: LoopCounters,
    /// Per-device shard reads of the loop with the most reads, with each
    /// device's capacity: the read-fairness sample.
    read_load: Vec<(u64, u64)>,
    core: Vec<CoreTiming>,
    plan_ns: Vec<u64>,
    execute_ns: Vec<u64>,
    scrape_bytes: Samples,
    /// Whether this is the traced run. Within request loops recording is
    /// switched on and off every [`TRACE_TOGGLE`] requests, and
    /// `op_ns[on]` sums (time, requests) for each half: their ratio is
    /// the tracing overhead.
    trace_run: bool,
    op_ns: [(u64, u64); 2],
    scrapes_seen: u64,
}

impl Env {
    pub fn new(cfg: Config, seed: u64, trace: bool) -> Result<(Self, Vec<f64>), VdsError> {
        let lbas = block_addresses(seed, cfg.blocks);
        let mut setup_s = Vec::new();
        let mut cluster = None;
        for _ in 0..SETUPS {
            // Drop the previous cluster first, so set-ups don't overlap.
            drop(cluster.take());
            let (c, spent) = set_up(&cfg, seed, &lbas)?;
            setup_s.push(spent.as_secs_f64());
            cluster = Some(c);
        }
        let cluster = cluster.expect("at least one set-up ran");
        let degraded_served = match cluster
            .metrics_registry()
            .and_then(|r| r.get("degraded_reads_total"))
        {
            Some(Metric::Counter(c)) => c,
            _ => {
                return Err(VdsError::InvalidConfig {
                    reason: "cluster exports no degraded_reads_total counter",
                })
            }
        };
        let n = cfg.blocks;
        let block = cfg.block_size;
        let wbuf = vec![0u8; block * cfg.run_len.max(1)];
        let mut env = Self {
            seed,
            cluster,
            lbas,
            versions: vec![0; n],
            next_version: 1,
            degraded: vec![false; n],
            degraded_served,
            fenced: vec![false; n],
            damage: Vec::new(),
            buf: vec![0; block],
            expect: vec![0; block],
            wbuf,
            run_lbas: Vec::new(),
            run_idx: Vec::new(),
            place_buf: Vec::new(),
            measuring: false,
            tally: Tally::default(),
            reads: Samples::default(),
            writes: Samples::default(),
            degraded_reads: Samples::default(),
            scrapes: Samples::default(),
            repair_rates: Vec::new(),
            repaired_blocks: 0,
            repair_scanned: 0,
            change_ns: 0,
            moved: 0,
            fair_min: 0.0,
            changes: Vec::new(),
            engine: "?",
            tracer: Tracer::new(trace),
            problems: Vec::new(),
            counters: LoopCounters::default(),
            read_load: Vec::new(),
            core: Vec::new(),
            plan_ns: Vec::new(),
            execute_ns: Vec::new(),
            scrape_bytes: Samples::default(),
            trace_run: trace,
            op_ns: [(0, 0); 2],
            scrapes_seen: 0,
            cfg,
        };
        env.engine = env.identify_engine();
        Ok((env, setup_s))
    }

    pub fn blocks(&self) -> usize {
        self.lbas.len()
    }

    pub fn online_devices(&self) -> usize {
        self.cluster
            .device_ids()
            .into_iter()
            .filter(|&id| {
                self.cluster
                    .device(id)
                    .is_some_and(|d| d.state() == DeviceState::Online)
            })
            .count()
    }

    /// A seeded sample of block addresses for replays and checks.
    fn sample(&self, count: usize, salt: u64) -> Vec<u64> {
        let mut rng = Rng::new(self.seed ^ salt);
        (0..count)
            .map(|_| self.lbas[rng.below(self.blocks() as u64) as usize])
            .collect()
    }

    /// Names the core engine serving placement, checking that a replay
    /// built from the online devices reproduces the cluster. In the traced
    /// run it also times that engine on the workload's addresses.
    fn identify_engine(&mut self) -> &'static str {
        let sample = self.sample(1024, 0xE4_61_4E);
        match replay::cluster_engine(&self.cluster, &sample) {
            Ok(engine) => {
                if self.tracer.on() {
                    let lbas = self.sample(16_384, 0xC0_4E);
                    let timing = replay::time_core(&self.cluster, &engine, &lbas);
                    self.core.push(timing);
                }
                engine.label()
            }
            Err(e) => {
                self.problems.push(e);
                "?"
            }
        }
    }

    fn bump_version(&mut self) -> u32 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    fn loop_snapshot(&self) -> LoopCounters {
        let cache = self.cluster.cache_stats();
        let (mut shard_reads, mut bytes_written) = (0, 0);
        for id in self.cluster.device_ids() {
            if let Some(d) = self.cluster.device(id) {
                let s = d.stats();
                shard_reads += s.reads;
                bytes_written += s.bytes_written;
            }
        }
        LoopCounters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            placements: self.cluster.placements_computed(),
            shard_reads,
            bytes_written,
            ..self.counters
        }
    }

    fn device_reads(&self) -> Vec<(u64, u64, u64)> {
        self.cluster
            .device_ids()
            .into_iter()
            .filter_map(|id| self.cluster.device(id))
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| (d.id(), d.stats().reads, d.capacity_blocks()))
            .collect()
    }

    /// Runs `ops` (cycling) until `deadline`, and at least `min_ops` of
    /// them; scrapes after every `scrape_every` requests (0: never).
    /// Returns the requests issued.
    pub fn run_ops(
        &mut self,
        ops: &[Op],
        deadline: Instant,
        min_ops: u64,
        scrape_every: u64,
    ) -> u64 {
        let before = self.loop_snapshot();
        let dev_before = self.device_reads();
        let mut done = 0u64;
        let mut loop_reads = 0u64;
        loop {
            if done.is_multiple_of(TRACE_TOGGLE) {
                if done >= min_ops && Instant::now() >= deadline {
                    break;
                }
                if self.trace_run {
                    self.tracer.set_on((done / TRACE_TOGGLE) % 2 == 1);
                }
            }
            match ops[(done % ops.len() as u64) as usize] {
                Op::Read(i) => {
                    loop_reads += 1;
                    self.read(i as usize);
                }
                Op::Write(i) => self.write(i as usize),
                Op::WriteRun(i) => self.write_run(i as usize),
            }
            done += 1;
            if scrape_every > 0 && done.is_multiple_of(scrape_every) {
                self.scrape();
            }
        }
        self.tracer.set_on(self.trace_run);
        let after = self.loop_snapshot();
        let c = &mut self.counters;
        c.ops += done;
        c.reads += loop_reads;
        c.cache_hits += after.cache_hits - before.cache_hits;
        c.cache_misses += after.cache_misses - before.cache_misses;
        c.placements += after.placements - before.placements;
        c.shard_reads += after.shard_reads - before.shard_reads;
        c.bytes_written += after.bytes_written - before.bytes_written;
        let best = self.read_load.iter().map(|&(r, _)| r).sum::<u64>();
        let dev_after = self.device_reads();
        let load: Vec<(u64, u64)> = dev_after
            .iter()
            .map(|&(id, reads, cap)| {
                let was = dev_before
                    .iter()
                    .find(|&&(i, _, _)| i == id)
                    .map_or(0, |&(_, r, _)| r);
                (reads - was, cap)
            })
            .collect();
        if loop_reads > 0 && load.iter().map(|&(r, _)| r).sum::<u64>() > best {
            self.read_load = load;
        }
        done
    }

    fn verify(&mut self, i: usize, result: Result<(), VdsError>) -> Outcome {
        match result {
            Err(_) => Outcome::Err,
            Ok(()) => {
                fill_block(self.seed, self.lbas[i], self.versions[i], &mut self.expect);
                if self.buf == self.expect {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
        }
    }

    pub fn read(&mut self, i: usize) {
        let lba = self.lbas[i];
        let served_degraded = self.degraded_served.get();
        let start = Instant::now();
        let result = self.cluster.read_block_into(lba, &mut self.buf);
        let end = Instant::now();
        if self.measuring {
            let ns = (end - start).as_nanos() as u64;
            self.count_op(ns);
            if self.degraded_served.get() != served_degraded {
                self.degraded_reads.push(ns);
            } else {
                self.reads.push(ns);
            }
        }
        if self.tracer.on() {
            self.tracer
                .record("vds.cluster.read_block_into", start, end);
            // The lookup the read just made, replayed: the residual of a
            // read is its time minus this.
            let start = Instant::now();
            self.cluster.placement_into(lba, &mut self.place_buf);
            self.tracer
                .record("vds.cluster.placement_into", start, Instant::now());
        }
        let outcome = self.verify(i, result);
        self.tally.record(outcome);
    }

    pub fn write(&mut self, i: usize) {
        let lba = self.lbas[i];
        let v = self.bump_version();
        let block = self.cfg.block_size;
        fill_block(self.seed, lba, v, &mut self.wbuf[..block]);
        let start = Instant::now();
        let result = self.cluster.write_block(lba, &self.wbuf[..block]);
        let end = Instant::now();
        self.after_write(start, end, "vds.cluster.write_block");
        self.tally.record(if result.is_ok() {
            self.versions[i] = v;
            self.degraded[i] = false;
            self.counters.user_bytes += block as u64;
            Outcome::Ok
        } else {
            Outcome::Err
        });
    }

    /// The blocks of a `write_blocks` run starting at index `start`.
    fn run_indices(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.cfg.run_len).map(move |j| (start + j) % self.blocks())
    }

    /// Whether any block of the run starting at `start` is fenced.
    pub fn run_fenced(&self, start: usize) -> bool {
        self.run_indices(start).any(|i| self.fenced[i])
    }

    pub fn write_run(&mut self, start: usize) {
        let block = self.cfg.block_size;
        self.run_idx.clear();
        self.run_lbas.clear();
        let first = self.next_version;
        for (j, i) in (0..self.cfg.run_len).map(|j| (j, (start + j) % self.lbas.len())) {
            let lba = self.lbas[i];
            self.run_idx.push(i as u32);
            self.run_lbas.push(lba);
            fill_block(
                self.seed,
                lba,
                first + j as u32,
                &mut self.wbuf[j * block..(j + 1) * block],
            );
        }
        self.next_version += self.cfg.run_len as u32;
        let start_t = Instant::now();
        let result = self.cluster.write_blocks(&self.run_lbas, &self.wbuf);
        let end = Instant::now();
        self.after_write(start_t, end, "vds.cluster.write_blocks");
        self.tally.record(if result.is_ok() {
            for (j, &i) in self.run_idx.iter().enumerate() {
                self.versions[i as usize] = first + j as u32;
                self.degraded[i as usize] = false;
            }
            self.counters.user_bytes += (self.cfg.run_len * block) as u64;
            Outcome::Ok
        } else {
            Outcome::Err
        });
    }

    fn count_op(&mut self, ns: u64) {
        let slot = &mut self.op_ns[usize::from(self.tracer.on())];
        slot.0 += ns;
        slot.1 += 1;
    }

    fn after_write(&mut self, start: Instant, end: Instant, span: &'static str) {
        if self.measuring {
            let ns = (end - start).as_nanos() as u64;
            self.count_op(ns);
            self.writes.push(ns);
        }
        self.tracer.record(span, start, end);
    }

    /// One metrics scrape: `export_prometheus`. The traced run then
    /// replays the scrape's parts against the health and obs layers.
    pub fn scrape(&mut self) {
        self.tracer.set_on(self.trace_run);
        let start = Instant::now();
        let text = self.cluster.export_prometheus();
        let end = Instant::now();
        if self.measuring {
            self.scrapes.push((end - start).as_nanos() as u64);
        }
        self.tracer
            .record("vds.cluster.export_prometheus", start, end);
        let expected = format!("\ncluster_blocks {}\n", self.blocks());
        self.tally.record(if text.contains(&expected) {
            Outcome::Ok
        } else {
            self.problems
                .push("scrape: cluster_blocks does not match the blocks written".into());
            Outcome::Err
        });
        // A scrape costs several hundred milliseconds at the larger block
        // counts; one in four is replayed part by part.
        if self.trace_run && self.scrapes_seen.is_multiple_of(4) {
            self.scrape_bytes.push(text.len() as u64);
            let c = &self.cluster;
            self.tracer.time("vds.health.degraded_block_count", || {
                c.degraded_block_count()
            });
            self.tracer
                .time("vds.health.health_snapshot", || c.health_snapshot());
            if let Some(registry) = c.metrics_registry() {
                self.tracer
                    .time("obs.render_prometheus", || registry.render_prometheus());
            }
        }
        self.scrapes_seen += 1;
    }

    /// Removes one shard from each of `count` healthy blocks at seeded
    /// positions, among the shards a read may need.
    pub fn damage(&mut self, count: usize, rng: &mut Rng) {
        let shards = self.cfg.read_shards() as u64;
        let mut done = 0;
        while done < count {
            let i = rng.below(self.blocks() as u64) as usize;
            if self.degraded[i] || self.fenced[i] {
                continue;
            }
            let copy = rng.below(shards) as usize;
            let lost = self.tracer.time("vds.cluster.inject_shard_loss", || {
                self.cluster.inject_shard_loss(self.lbas[i], copy)
            });
            if !lost {
                self.problems.push(format!(
                    "inject_shard_loss found no shard {copy} of block {i}"
                ));
                return;
            }
            self.degraded[i] = true;
            self.damage.push(i as u32);
            done += 1;
        }
    }

    /// Blocks damaged since the last repair.
    pub fn damaged(&self) -> &[u32] {
        &self.damage
    }

    /// `repair()`; checks it restored exactly the shards removed.
    pub fn repair(&mut self) {
        let scanned = self.cluster.block_count();
        let start = Instant::now();
        let result = self.cluster.repair();
        let end = Instant::now();
        self.tracer.record("vds.cluster.repair", start, end);
        let lost = self.damage.len() as u64;
        match result {
            Ok(shards) if shards == lost => self.tally.record(Outcome::Ok),
            Ok(shards) => {
                self.problems
                    .push(format!("repair restored {shards} shards, {lost} were lost"));
                self.tally.record(Outcome::Err);
            }
            Err(e) => {
                self.problems.push(format!("repair failed: {e}"));
                self.tally.record(Outcome::Err);
            }
        }
        self.repair_rates
            .push(lost as f64 / (end - start).as_secs_f64().max(1e-9));
        self.repaired_blocks += lost;
        self.repair_scanned += scanned;
        for &i in &self.damage {
            self.degraded[i as usize] = false;
        }
        self.damage.clear();
    }

    /// Fails device `id` and marks the blocks it held. Returns the shards
    /// it held: the fair minimum of the rebuild that follows.
    pub fn fail(&mut self, id: u64) -> f64 {
        let held = self.cluster.device(id).map_or(0, |d| d.used_blocks());
        let result = self
            .tracer
            .time("vds.cluster.fail_device", || self.cluster.fail_device(id));
        self.tally.record(if result.is_ok() {
            Outcome::Ok
        } else {
            Outcome::Err
        });
        let read_shards = self.cfg.read_shards();
        for i in 0..self.blocks() {
            self.cluster
                .placement_into(self.lbas[i], &mut self.place_buf);
            if let Some(pos) = self.place_buf.iter().position(|&d| d == id) {
                self.fenced[i] = true;
                self.degraded[i] |= pos < read_shards;
            }
        }
        held as f64
    }

    /// Blocks missing a shard a read may need right now.
    pub fn degraded_blocks(&self) -> Vec<u32> {
        (0..self.blocks() as u32)
            .filter(|&i| self.degraded[i as usize])
            .collect()
    }

    fn online_capacity(&self) -> u64 {
        self.cluster
            .device_ids()
            .into_iter()
            .filter_map(|id| self.cluster.device(id))
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| d.capacity_blocks())
            .sum()
    }

    /// Applies one membership change, times it, and adds a row to the
    /// change table. The matching dry-run plan runs first, outside the
    /// change's time, for the table's planned column.
    pub fn change(&mut self, change: Change) {
        let devices_before = self.online_devices();
        let engine_before = self.engine;
        let shards_total = self.cluster.block_count() as f64 * self.cfg.shards() as f64;
        let (label, fair_min) = match change {
            Change::Add { id, capacity } => (
                format!("add {id}"),
                shards_total * capacity as f64 / (self.online_capacity() + capacity) as f64,
            ),
            Change::Remove { id } => (
                format!("remove {id}"),
                self.cluster.device(id).map_or(0, |d| d.used_blocks()) as f64,
            ),
            Change::Rebuild { fair_min } => ("rebuild".to_string(), fair_min),
        };
        self.tracer.enter("bench.membership_change");
        let start = Instant::now();
        let plan = match change {
            Change::Add { id, capacity } => self.cluster.plan_add_device(id, capacity),
            Change::Remove { id } => self.cluster.plan_remove_device(id),
            Change::Rebuild { .. } => self.cluster.plan_rebuild(),
        };
        let end = Instant::now();
        self.tracer.record("vds.migration.plan", start, end);
        let plan_ns = (end - start).as_nanos() as u64;
        let planned = match plan {
            Ok(p) => p.moves.len() as u64,
            Err(e) => {
                self.problems.push(format!("{label}: plan failed: {e}"));
                0
            }
        };
        let start = Instant::now();
        let (span, result) = match change {
            Change::Add { id, capacity } => (
                "vds.cluster.add_device",
                self.cluster.add_device(id, capacity),
            ),
            Change::Remove { id } => ("vds.cluster.remove_device", self.cluster.remove_device(id)),
            Change::Rebuild { .. } => ("vds.cluster.rebuild", self.cluster.rebuild()),
        };
        let end = Instant::now();
        self.tracer.record(span, start, end);
        self.tracer.exit();
        let ns = (end - start).as_nanos() as u64;
        let moved = match result {
            Ok(report) => {
                self.tally.record(Outcome::Ok);
                report.shards_moved
            }
            Err(e) => {
                self.problems.push(format!("{label} failed: {e}"));
                self.tally.record(Outcome::Err);
                0
            }
        };
        if planned != moved {
            self.problems.push(format!(
                "{label}: planned {planned} moves but moved {moved}"
            ));
        }
        if self.tracer.on() {
            self.plan_ns.push(plan_ns);
            self.execute_ns.push(ns.saturating_sub(plan_ns));
        }
        if matches!(change, Change::Rebuild { .. }) {
            self.fenced.iter_mut().for_each(|f| *f = false);
            self.degraded.iter_mut().for_each(|d| *d = false);
        }
        self.change_ns += ns;
        self.moved += moved;
        self.fair_min += fair_min;
        self.engine = self.identify_engine();
        self.changes.push(ChangeRow {
            label,
            devices_before,
            devices_after: self.online_devices(),
            engine_before,
            engine_after: self.engine,
            planned,
            moved,
            fair_min,
            secs: ns as f64 * 1e-9,
        });
    }

    /// Reads every block once, outside measurement, checking each against
    /// the model.
    pub fn audit(&mut self) {
        let was = self.measuring;
        self.measuring = false;
        for i in 0..self.blocks() {
            self.read(i);
        }
        self.measuring = was;
    }

    /// The model's current contents of block `i` (for replays).
    pub fn block_contents(&self, i: usize) -> Vec<u8> {
        let mut b = vec![0u8; self.cfg.block_size];
        fill_block(self.seed, self.lbas[i], self.versions[i], &mut b);
        b
    }

    /// Fails device `id`, issues `runs` `write_blocks` runs whose stripes
    /// touch it, then reads their blocks back. A write that hits a failed
    /// device returns `Err`, yet may leave part of the run written or a
    /// stripe torn: the probe returns (runs, writes that returned `Err`,
    /// reads that differed from the last acknowledged value). It runs
    /// after the audit and outside every metric and tally, since it leaves
    /// the cluster with torn stripes.
    pub fn degraded_write_probe(&mut self, id: u64, runs: usize, rng: &mut Rng) -> (u64, u64, u64) {
        let was = (self.measuring, self.tally);
        self.measuring = false;
        let _ = self.fail(id);
        let mut starts = Vec::new();
        while starts.len() < runs {
            let s = rng.below(self.blocks() as u64) as usize;
            if self.run_fenced(s) {
                starts.push(s);
            }
        }
        let before = self.tally;
        for &s in &starts {
            self.write_run(s);
        }
        let write_err = self.tally.failed - before.failed;
        let before = self.tally;
        for &s in &starts {
            for i in self.run_indices(s).collect::<Vec<_>>() {
                self.read(i);
            }
        }
        let wrong = self.tally.wrong_reads - before.wrong_reads;
        (self.measuring, self.tally) = was;
        (runs as u64, write_err, wrong)
    }

    /// The per-layer metrics of the traced run.
    pub fn per_layer(&mut self) -> BTreeMap<&'static str, (f64, &'static str)> {
        let mut m = BTreeMap::new();
        let c = self.counters;
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let builds: Vec<u64> = self.core.iter().flat_map(|t| t.build_ns.clone()).collect();
        m.insert("core.build_ms", (mean(&builds) * 1e-6, "ms"));
        let n = self.core.len().max(1) as f64;
        m.insert(
            "core.place_ns",
            (self.core.iter().map(|t| t.place_ns).sum::<f64>() / n, "ns"),
        );
        m.insert(
            "core.place_batch_ns_per_block",
            (
                self.core.iter().map(|t| t.batch_ns_per_block).sum::<f64>() / n,
                "ns",
            ),
        );
        m.insert(
            "vds.cache.hit_ratio",
            (per(c.cache_hits, c.cache_hits + c.cache_misses), "ratio"),
        );
        let read_ns = self.tracer.mean_ns("vds.cluster.read_block_into");
        let place_ns = self.tracer.mean_ns("vds.cluster.placement_into");
        m.insert("vds.cluster.read_ns", (read_ns, "ns"));
        m.insert("vds.cluster.placement_into_ns", (place_ns, "ns"));
        m.insert(
            "vds.cluster.read_residual_ns",
            (
                crate::stats::residual_ns(
                    &self.tracer.samples("vds.cluster.read_block_into"),
                    &self.tracer.samples("vds.cluster.placement_into"),
                ),
                "ns",
            ),
        );
        m.insert(
            "vds.cluster.placements_computed_per_op",
            (per(c.placements, c.ops), "ratio"),
        );
        m.insert(
            "vds.device.shard_reads_per_read",
            (per(c.shard_reads, c.reads), "ratio"),
        );
        m.insert(
            "vds.device.bytes_written_per_user_byte",
            (per(c.bytes_written, c.user_bytes), "ratio"),
        );
        let total_reads: u64 = self.read_load.iter().map(|&(r, _)| r).sum();
        let total_cap: u64 = self.read_load.iter().map(|&(_, c)| c).sum();
        let read_dev = self
            .read_load
            .iter()
            .map(|&(r, cap)| {
                let fair = cap as f64 / total_cap.max(1) as f64;
                (per(r, total_reads) / fair - 1.0).abs()
            })
            .fold(0.0, f64::max);
        m.insert("vds.device.read_share_max_dev", (read_dev, "ratio"));
        m.insert(
            "vds.health.used_share_max_dev",
            (self.cluster.fairness_report().max_deviation, "ratio"),
        );
        m.insert(
            "vds.cluster.repair_ms",
            (self.tracer.mean_ns("vds.cluster.repair") * 1e-6, "ms"),
        );
        m.insert(
            "vds.cluster.repair_scanned_per_repaired",
            (per(self.repair_scanned, self.repaired_blocks), "ratio"),
        );
        m.insert("vds.migration.plan_ms", (mean(&self.plan_ns) * 1e-6, "ms"));
        m.insert(
            "vds.migration.execute_ms",
            (mean(&self.execute_ns) * 1e-6, "ms"),
        );
        m.insert(
            "vds.health.degraded_scan_ms",
            (
                self.tracer.mean_ns("vds.health.degraded_block_count") * 1e-6,
                "ms",
            ),
        );
        m.insert(
            "vds.health.snapshot_ms",
            (
                self.tracer.mean_ns("vds.health.health_snapshot") * 1e-6,
                "ms",
            ),
        );
        m.insert(
            "obs.render_ms",
            (self.tracer.mean_ns("obs.render_prometheus") * 1e-6, "ms"),
        );
        m.insert("obs.scrape_bytes", (self.scrape_bytes.mean_ns(), "bytes"));
        let [(off_ns, off_n), (on_ns, on_n)] = self.op_ns;
        m.insert(
            "trace.overhead_frac",
            (
                per(on_ns, on_n) / per(off_ns, off_n).max(1.0) - 1.0,
                "ratio",
            ),
        );
        // Erasure replay on the workload's own blocks, as they are now,
        // under ec-degraded's RS(4,2): the mirrored workloads never call
        // the codec, so theirs records its cost at their block size.
        let mut rng = Rng::new(self.seed ^ 0xEC);
        let sample: Vec<Vec<u8>> = (0..ERASURE_SAMPLE)
            .map(|_| self.block_contents(rng.below(self.blocks() as u64) as usize))
            .collect();
        match replay::time_erasure(4, 2, &sample, &mut rng) {
            Ok(t) => {
                m.insert("erasure.encode_parity_ns", (t.encode_ns, "ns"));
                m.insert("erasure.encode_bytes_per_s", (t.encode_bytes_per_s, "B/s"));
                m.insert("erasure.reconstruct_ns", (t.reconstruct_ns, "ns"));
            }
            Err(e) => self.problems.push(e),
        }
        m
    }
}

/// Requests per alternating traced / untraced block of a traced run.
const TRACE_TOGGLE: u64 = 64;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Blocks the erasure replay encodes and reconstructs.
const ERASURE_SAMPLE: usize = 2048;
