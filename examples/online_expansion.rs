//! Online expansion: plan, switch, migrate in the background, serve
//! throughout.
//!
//! The operator workflow the adaptivity results enable: dry-run the device
//! addition to see exactly what would move ([`MigrationPlan`]), switch the
//! placement instantly (`add_device_lazy` — each block's block-table row
//! records where its shards are, so no forwarding state is needed), then
//! drain the migration in small steps while the cluster keeps serving
//! reads from wherever each block currently lives.
//!
//! Run with: `cargo run --release --example online_expansion`

use redundant_share::storage::{Redundancy, StorageCluster};

fn main() {
    let mut cluster = StorageCluster::builder()
        .block_size(64)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .device(0, 40_000)
        .device(1, 50_000)
        .device(2, 60_000)
        .device(3, 70_000)
        .build()
        .expect("valid cluster");
    let blocks = 20_000u64;
    println!("== Load {blocks} blocks over 4 devices ==");
    for lba in 0..blocks {
        let data: Vec<u8> = (0..64).map(|i| (lba as u8).wrapping_add(i)).collect();
        cluster.write_block(lba, &data).expect("space");
    }

    println!("\n== Dry-run: what would adding device 9 (80,000 blocks) move? ==");
    let plan = cluster.plan_add_device(9, 80_000).expect("plan");
    println!(
        "  {} of {} shards would move ({:.1}%)",
        plan.moves.len(),
        plan.shards_total,
        100.0 * plan.moved_fraction()
    );
    for (dev, count) in plan.inflow_per_device() {
        println!("  -> device {dev}: {count} shards inbound");
    }

    println!("\n== Switch placement instantly (lazy add) ==");
    let pending = cluster.add_device_lazy(9, 80_000).expect("lazy add");
    println!("  placement switched; {pending} blocks pending migration");
    println!("  device 9 holds {} shards (nothing moved yet)", {
        cluster.device(9).expect("present").used_blocks()
    });

    println!("\n== Drain in steps of 2,000 blocks, serving reads throughout ==");
    let mut step = 0u32;
    while cluster.pending_blocks() > 0 {
        let report = cluster.migrate_batch(2_000).expect("batch");
        step += 1;
        // Serve a read burst mid-migration: every block answers correctly
        // no matter which side of the migration it is on.
        for probe in (0..blocks).step_by(997) {
            let data = cluster.read_block(probe).expect("read");
            assert_eq!(data[0], probe as u8);
        }
        println!(
            "  step {step}: moved {} shards, {} blocks remaining",
            report.shards_moved,
            cluster.pending_blocks()
        );
    }

    println!("\n== Final state ==");
    for (id, used, cap) in cluster.utilization() {
        println!(
            "  device {id}: {used}/{cap} blocks ({:.1}%)",
            100.0 * used as f64 / cap as f64
        );
    }
    assert_eq!(cluster.scrub().expect("scrub"), 0);
    println!("  scrub clean — expansion completed with zero downtime");
}
