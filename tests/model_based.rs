//! Model-based randomized testing of the storage cluster.
//!
//! A long random sequence of operations (write, overwrite, read, device
//! add, graceful remove, crash + rebuild, scrub, and changes stacked on a
//! lazy migration in flight, including a crash between two migration
//! budgets) is executed against the real cluster and a trivial in-memory
//! model (`HashMap<lba, data>`).
//! After every step the cluster must agree with the model on all data —
//! the strongest end-to-end statement of the redundancy and migration
//! machinery. After every step that leaves no migration pending, the
//! block-table rows of a sample of stored blocks must also equal the
//! placements a freshly built cluster over the same devices computes.
//! Seeds are fixed so failures reproduce.

use std::collections::HashMap;

use redundant_share::hashing::splitmix64;
use redundant_share::storage::{Redundancy, StorageCluster, VdsError};

const BLOCK: usize = 24;

struct Harness {
    cluster: StorageCluster,
    model: HashMap<u64, Vec<u8>>,
    rng: u64,
    next_device: u64,
    online: Vec<u64>,
}

impl Harness {
    fn new(redundancy: Redundancy, devices: usize, seed: u64) -> Self {
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK)
            .redundancy(redundancy);
        let mut online = Vec::new();
        for i in 0..devices as u64 {
            builder = builder.device(i, 60_000);
            online.push(i);
        }
        Self {
            cluster: builder.build().expect("valid cluster"),
            model: HashMap::new(),
            rng: seed,
            next_device: devices as u64,
            online,
        }
    }

    fn next(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    fn payload(&mut self, lba: u64) -> Vec<u8> {
        let tag = self.next();
        (0..BLOCK)
            .map(|i| (tag as u8).wrapping_add(lba as u8).wrapping_add(i as u8))
            .collect()
    }

    fn min_devices(&self) -> usize {
        self.cluster.redundancy().total_shards()
    }

    fn step(&mut self) {
        let roll = self.next() % 100;
        match roll {
            // 48 %: write or overwrite a block.
            0..=47 => {
                let lba = self.next() % 3_000;
                let data = self.payload(lba);
                self.cluster.write_block(lba, &data).expect("write");
                self.model.insert(lba, data);
            }
            // 25 %: read a (maybe missing) block.
            48..=72 => {
                let lba = self.next() % 3_000;
                match (self.cluster.read_block(lba), self.model.get(&lba)) {
                    (Ok(got), Some(want)) => assert_eq!(&got, want, "lba {lba}"),
                    (Err(VdsError::BlockNotFound { .. }), None) => {}
                    (got, want) => {
                        panic!("divergence at lba {lba}: cluster {got:?} model {want:?}")
                    }
                }
            }
            // 6 %: add a device eagerly.
            73..=78 => self.add_eagerly(),
            // 4 %: add a device lazily, then advance the migration a bit.
            79..=82 => {
                self.add_lazily();
                let step = self.next() % 50;
                self.cluster.migrate_batch(step).expect("migrate batch");
            }
            // 3 %: add a device lazily, then add or remove one eagerly
            // while its migration is in flight.
            83..=85 => {
                self.add_lazily();
                let step = self.part_budget();
                self.cluster.migrate_batch(step).expect("migrate batch");
                if self.next().is_multiple_of(2) {
                    self.add_eagerly();
                } else {
                    self.remove_one();
                }
            }
            // 7 %: gracefully remove a random device (if enough remain).
            86..=92 => self.remove_one(),
            // 4 %: crash one device and rebuild (within redundancy budget).
            93..=96 => {
                if self.can_fail() {
                    self.crash_one();
                    self.cluster.rebuild().expect("rebuild");
                }
            }
            // 3 %: a lazy add is part-drained, a device crashes between
            // two budgets, then rebuild. The budget after the crash may
            // fail (a target is gone); a failed budget changes nothing.
            97..=99 => {
                if self.can_fail() {
                    self.add_lazily();
                    let step = self.part_budget();
                    self.cluster.migrate_batch(step).expect("migrate batch");
                    self.crash_one();
                    let step = self.part_budget();
                    let _ = self.cluster.migrate_batch(step);
                    self.check_reads();
                    self.cluster.rebuild().expect("rebuild");
                }
            }
            _ => unreachable!(),
        }
    }

    /// A migration budget that drains at most half the pending blocks,
    /// so the migration stays in flight.
    fn part_budget(&mut self) -> u64 {
        self.next() % (self.cluster.pending_blocks() / 2 + 1)
    }

    fn add_eagerly(&mut self) {
        let id = self.next_device;
        self.next_device += 1;
        let cap = 40_000 + self.next() % 40_000;
        self.cluster.add_device(id, cap).expect("add");
        self.online.push(id);
    }

    fn add_lazily(&mut self) {
        let id = self.next_device;
        self.next_device += 1;
        let cap = 40_000 + self.next() % 40_000;
        self.cluster.add_device_lazy(id, cap).expect("lazy add");
        self.online.push(id);
    }

    fn remove_one(&mut self) {
        if self.online.len() > self.min_devices() {
            let at = (self.next() as usize) % self.online.len();
            let id = self.online.swap_remove(at);
            self.cluster.remove_device(id).expect("drain");
        }
    }

    fn can_fail(&self) -> bool {
        self.online.len() > self.min_devices()
            && self.cluster.redundancy().tolerated_failures() >= 1
    }

    fn crash_one(&mut self) {
        let at = (self.next() as usize) % self.online.len();
        let id = self.online.swap_remove(at);
        self.cluster.fail_device(id).expect("fail");
    }

    /// Every block the model holds reads back its last written value.
    fn check_reads(&self) {
        assert_eq!(self.cluster.block_count() as usize, self.model.len());
        for (lba, want) in &self.model {
            let got = self.cluster.read_block(*lba).expect("readable");
            assert_eq!(&got, want, "lba {lba}");
        }
    }

    /// With no migration pending, every row is the target placement: up
    /// to 64 model blocks, spread over the stored addresses, place as on a
    /// fresh cluster over the same devices and capacities.
    fn audit_rows(&self) {
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK)
            .redundancy(self.cluster.redundancy());
        for id in self.cluster.device_ids() {
            let capacity = self.cluster.device(id).expect("listed").capacity_blocks();
            builder = builder.device(id, capacity);
        }
        let fresh = builder.build().expect("valid cluster");
        let mut lbas: Vec<u64> = self.model.keys().copied().collect();
        lbas.sort_unstable();
        for &lba in lbas.iter().step_by(lbas.len().div_ceil(64).max(1)) {
            assert_eq!(
                self.cluster.placement(lba),
                fresh.placement(lba),
                "row of lba {lba}"
            );
        }
    }

    fn check_full_agreement(&mut self) {
        // Advance any lazy migration partway so checks run in mixed state.
        self.cluster.migrate_batch(25).expect("migrate batch");
        self.check_reads();
        assert_eq!(self.cluster.scrub().expect("scrub"), 0);
    }
}

fn run(redundancy: Redundancy, devices: usize, steps: u32, seed: u64) {
    let mut h = Harness::new(redundancy, devices, seed);
    for step in 0..steps {
        h.step();
        if h.cluster.pending_blocks() == 0 {
            h.audit_rows();
        }
        if step % 100 == 99 {
            h.check_full_agreement();
        }
    }
    h.check_full_agreement();
}

#[test]
fn model_mirror_2way() {
    run(Redundancy::Mirror { copies: 2 }, 5, 600, 0xA11CE);
}

#[test]
fn model_mirror_3way() {
    run(Redundancy::Mirror { copies: 3 }, 6, 600, 0xB0B);
}

#[test]
fn model_reed_solomon() {
    run(
        Redundancy::ReedSolomon { data: 3, parity: 2 },
        7,
        400,
        0xCAFE,
    );
}

#[test]
fn model_rdp() {
    run(Redundancy::Rdp { p: 3 }, 6, 400, 0xD00D);
}

#[test]
fn model_xor_parity() {
    run(Redundancy::XorParity { data: 2 }, 5, 400, 0xE66);
}

#[test]
fn model_lrc() {
    run(
        Redundancy::LocalReconstruction {
            groups: 2,
            group_size: 2,
            global_parity: 1,
        },
        8,
        400,
        0xF00F,
    );
}

#[test]
fn model_many_seeds_smoke() {
    for seed in 1..=6u64 {
        run(Redundancy::Mirror { copies: 2 }, 4, 200, seed);
    }
}
