//! Strategy head-to-head: Redundant Share versus every baseline.
//!
//! Complements `bench_throughput`'s time-efficiency records with the
//! quality dimensions of the paper's criteria list: fairness, redundancy
//! and adaptivity, for all strategies in the workspace — including RUSH
//! (Section 1.2's prior work) and the systematic-PPS oracle.

use rshare_bench::{f, print_table, section};
use rshare_core::{
    Bin, FastRedundantShare, PlacementStrategy, RedundantShare, SystematicPps, TrivialReplication,
};
use rshare_rush::{RushP, SubCluster};
use rshare_workload::measure_fairness;
use rshare_workload::movement::measure_movement;
use rshare_workload::scenario::heterogeneous_bins;

fn main() {
    let k = 2usize;
    let balls = 150_000u64;
    let base = heterogeneous_bins(8);
    let new_bin = Bin::new(1u64, 1_300_000).unwrap();
    let grown = base.with_bin(new_bin).unwrap();
    let affected = new_bin.id();

    section("Strategy comparison: 8 heterogeneous bins, k = 2, add biggest bin");
    let mut rows = Vec::new();

    let mut eval =
        |name: &str, before: Box<dyn PlacementStrategy>, after: Box<dyn PlacementStrategy>| {
            let fairness = measure_fairness(before.as_ref(), balls);
            let movement = measure_movement(before.as_ref(), after.as_ref(), affected, balls);
            rows.push(vec![
                name.to_string(),
                f(fairness.max_relative_deviation()),
                f(movement.replaced_fraction()),
                f(movement.factor()),
            ]);
        };

    eval(
        "Redundant Share (O(n))",
        Box::new(RedundantShare::new(&base, k).unwrap()),
        Box::new(RedundantShare::new(&grown, k).unwrap()),
    );
    eval(
        "Redundant Share (O(k))",
        Box::new(FastRedundantShare::new(&base, k).unwrap()),
        Box::new(FastRedundantShare::new(&grown, k).unwrap()),
    );
    eval(
        "trivial k-draws",
        Box::new(TrivialReplication::new(&base, k).unwrap()),
        Box::new(TrivialReplication::new(&grown, k).unwrap()),
    );
    eval(
        "systematic PPS",
        Box::new(SystematicPps::new(&base, k).unwrap()),
        Box::new(SystematicPps::new(&grown, k).unwrap()),
    );
    // RUSH models the same growth as appending a sub-cluster: the 8
    // heterogeneous bins become 8 single-disk sub-clusters, and the growth
    // adds one more.
    let rush_clusters: Vec<SubCluster> = base
        .bins()
        .iter()
        .rev() // addition order: smallest first, like the scenario ids
        .map(|b| SubCluster::new(1, b.capacity() as f64).unwrap())
        .collect();
    let rush_before = RushP::new(rush_clusters.clone(), k).unwrap();
    let rush_after = rush_before
        .grown(SubCluster::new(1, 1_300_000.0).unwrap())
        .unwrap();
    // The new disk's id in RUSH's own namespace is the 9th disk (index 8).
    let fairness = measure_fairness(&rush_before, balls);
    let movement = measure_movement(&rush_before, &rush_after, rshare_core::BinId(8), balls);
    rows.push(vec![
        "RUSH_P-style".to_string(),
        f(fairness.max_relative_deviation()),
        f(movement.replaced_fraction()),
        f(movement.factor()),
    ]);

    print_table(
        &["strategy", "max rel dev", "replaced frac", "replaced/used"],
        &rows,
    );
    println!(
        "\nexpected shape (paper): Redundant Share is fair AND low-movement;\n\
         the trivial strategy is unfair on heterogeneous bins (Lemma 2.4);\n\
         systematic PPS is fair but moves far more data; RUSH moves little\n\
         but its fairness depends on its sub-cluster constraints."
    );
}
